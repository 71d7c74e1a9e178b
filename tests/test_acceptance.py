"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is fixed
here; nothing is calibrated at runtime. The slowest criteria (full-scale
codebook counts and the overhead sweep) stay within single-digit minutes on
one core.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from xlris.channel import sample_near_field_channel
from xlris.codebook import build_near_field_codebook
from xlris.config import builtin_config_path, parse_config
from xlris.experiments import (
    SCHEME_EXHAUSTIVE,
    SCHEME_FAR_FIELD,
    SCHEME_HIERARCHICAL,
    SCHEME_PERFECT_CSI,
    hierarchical_overhead,
    sweep_overhead,
    sweep_snr,
)
from xlris.geometry import (
    ArrayDims,
    cascaded_distances,
    cascaded_steering,
    rayleigh_distance,
)

from support import (
    find_row,
    is_beam_of,
    near_field_channel,
    near_field_steering,
    summarize_ratio,
)


@contextmanager
def criterion(number: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL [{time.time() - start:.1f} s]")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS [{time.time() - start:.1f} s]")


def test_criterion_1_rayleigh_distance_exactness():
    with criterion(1, "Rayleigh distance exactness"):
        assert abs(rayleigh_distance(0.1, 0.01) - 2.0) <= 1e-12
        assert abs(rayleigh_distance(1.0, 0.01) - 200.0) <= 1e-12


def test_criterion_2_steering_factorization():
    with criterion(2, "steering factorization"):
        rng = np.random.default_rng(20240601)
        for _ in range(1000):
            n1 = int(rng.integers(1, 33))
            n2 = int(rng.integers(1, 9))
            if n1 * n2 > 256:
                n2 = max(1, 256 // n1)
            dims = ArrayDims(n1, n2, 0.5)
            pg = np.array([rng.uniform(-600, 600), rng.uniform(0.5, 2400), rng.uniform(-200, 200)])
            pr = np.array([rng.uniform(-600, 600), rng.uniform(0.5, 2400), rng.uniform(-200, 200)])
            product = near_field_steering(pg, dims) * near_field_steering(pr, dims)
            err = np.abs(cascaded_steering(pg, pr, dims) - product).max()
            assert err <= 1e-12


def test_criterion_3_dedup_correctness():
    from test_codebook import brute_force_distinct_beams, generic_line_grid

    with criterion(3, "dedup correctness"):
        dims = ArrayDims(8, 2, 0.5)
        for s in (3, 5, 10):
            grid = generic_line_grid(s)
            cb = build_near_field_codebook(grid, grid, dims)
            assert cb.size == s * (s + 1) // 2
            assert cb.size == brute_force_distinct_beams(grid, grid, dims)

        # full-scale scene: 450 points per collection, swap-symmetry ceiling binds
        cfg = parse_config(builtin_config_path("paper"))
        full = build_near_field_codebook(*cfg.codebook_grids(), cfg.scene.dims)
        assert full.pre_dedup_pairs == 202500
        ceiling = 450 * 451 // 2
        assert full.size <= ceiling
        assert full.size == 101475  # enumeration oracle: swap duplicates only
        print(f"  full-scale codebook: pre-dedup 202500, L = {full.size} (ceiling {ceiling})")


def test_criterion_4_noiseless_on_grid_recovery():
    with criterion(4, "noiseless on-grid recovery"):
        cfg = parse_config(builtin_config_path("desk"))
        dims = cfg.scene.dims
        grid_g, grid_r = cfg.codebook_grids(25.0)  # 50 d: 65 points per collection
        assert grid_g.size <= 100
        cb = build_near_field_codebook(grid_g, grid_r, dims)
        points = grid_g.points()
        rng = np.random.default_rng(20240602)
        hits = 0
        trials = 500
        for _ in range(trials):
            pg = points[rng.integers(len(points))]
            pr = points[rng.integers(len(points))]
            alpha = complex(*rng.standard_normal(2)) / np.sqrt(2)
            ch = near_field_channel(pg, pr, dims, alpha)
            amps = np.abs(cb.responses(ch.h_bar))
            winner = int(np.argmax(amps))
            hits += is_beam_of(cb, winner, cascaded_distances(pg, pr, dims))
        assert hits == trials


def test_criterion_5_perfect_csi_dominance():
    with criterion(5, "perfect-CSI dominance"):
        cfg = parse_config(builtin_config_path("desk"))
        dims = cfg.scene.dims
        cb = build_near_field_codebook(*cfg.codebook_grids(), dims)
        rng = np.random.default_rng(20240603)
        violations = 0
        for _ in range(1000):
            ch = sample_near_field_channel(cfg.scene, rng)
            csi_amp = dims.n * abs(ch.alpha)
            amps = np.abs(cb.responses(ch.h_bar))
            over = amps > csi_amp * (1 + 1e-9)
            violations += int(np.count_nonzero(over))
            near = np.flatnonzero(amps >= csi_amp * (1 - 1e-9))
            channel_profile = cascaded_distances(*ch.pair, dims)
            for l in near:  # equality only for the channel's own beam
                violations += not is_beam_of(cb, l, channel_profile)
        # an on-grid channel really does reach the bound, through its own beam
        points = cfg.codebook_grids()[0].points()
        pg, pr = points[17], points[230]
        ch = near_field_channel(pg, pr, dims)
        amps = np.abs(cb.responses(ch.h_bar))
        top = int(np.argmax(amps))
        assert amps[top] == pytest.approx(dims.n, rel=1e-9)
        assert is_beam_of(cb, top, cascaded_distances(pg, pr, dims))
        assert violations == 0


def test_criterion_6_rate_sweep_qualitative():
    with criterion(6, "scaled rate-vs-SNR reproduction"):
        cfg = parse_config(builtin_config_path("desk"))
        assert cfg.trials == 200
        assert cfg.snr_grid_db == (-10.0, -5.0, 0.0, 5.0, 10.0)
        table = sweep_snr(cfg)
        for snr in cfg.snr_grid_db:
            csi = find_row(table, SCHEME_PERFECT_CSI, snr).mean
            exh = find_row(table, SCHEME_EXHAUSTIVE, snr).mean
            far = find_row(table, SCHEME_FAR_FIELD, snr).mean
            assert csi >= exh
            assert exh > far
        ratio = summarize_ratio(table, SCHEME_HIERARCHICAL, SCHEME_EXHAUSTIVE, 10.0)
        print(f"  hierarchical/exhaustive rate ratio at 10 dB: {ratio:.4f}")
        assert 0.85 <= ratio <= 1.0


def test_criterion_7_overhead_reproduction():
    with criterion(7, "full-scale overhead reproduction"):
        cfg = parse_config(builtin_config_path("paper"))
        assert cfg.sampling_step == 50.0  # 100 d
        assert cfg.hierarchy.step_multiplier == 4.0
        assert cfg.hierarchy.step_control == 0.25
        assert cfg.hierarchy.levels == 2

        full = build_near_field_codebook(*cfg.codebook_grids(), cfg.scene.dims)
        hier = hierarchical_overhead(cfg, cfg.sampling_step)
        ratio = hier / full.size
        print(f"  overhead at 100 d: exhaustive {full.size}, hierarchical {hier} "
              f"(ratio {ratio:.4f})")
        assert ratio <= 0.16

        table = sweep_overhead(cfg)
        d = cfg.scene.dims.d
        hier_curve = [find_row(table, SCHEME_HIERARCHICAL, s / d).mean for s in cfg.step_sweep]
        assert all(hi > lo for hi, lo in zip(hier_curve, hier_curve[1:]))


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical sweep output"):
        raw = json.loads(builtin_config_path("desk").read_text())
        raw["trials"] = 25
        cfg_path = tmp_path / "desk25.json"
        cfg_path.write_text(json.dumps(raw))
        csvs = []
        for run in ("a", "b"):
            out = tmp_path / run
            proc = subprocess.run(
                [sys.executable, "-m", "xlris", "sweep", "snr",
                 "--config", str(cfg_path), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            csvs.append((out / "snr_results.csv").read_bytes())
        assert csvs[0] == csvs[1]
