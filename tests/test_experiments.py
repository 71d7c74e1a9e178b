import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlris import codebook, experiments, training
from xlris.channel import SceneConfig, sample_near_field_channel
from xlris.codebook import build_near_field_codebook
from xlris.config import parse_config, resolve_config_path
from xlris.experiments import (
    SCHEME_EXHAUSTIVE,
    SCHEME_FAR_FIELD,
    SCHEME_HIERARCHICAL,
    SCHEME_PERFECT_CSI,
    ExperimentConfig,
    achievable_rate,
    hierarchical_overhead,
    snr_db_to_sigma2,
    sweep_overhead,
    sweep_snr,
)
from xlris.geometry import ArrayDims, Box3, FieldError
from xlris.training import HierarchicalConfig, hierarchical_training, perfect_csi_beamforming

from support import (
    find_row,
    near_field_channel,
    planar_channel,
    reference_sweep_snr,
    summarize_ratio,
)

DIMS = ArrayDims(16, 2, 0.5)
BOX = Box3((-75.0, 75.0), (0.75, 12.5), (-25.0, 25.0))
MINI = ExperimentConfig(
    scene=SceneConfig(DIMS, BOX, BOX),
    snr_grid_db=(-10.0, 0.0, 10.0),
    sampling_step=6.25,
    step_sweep=(6.25, 9.375),
    trials=40,
    master_seed=7,
)


@st.composite
def small_sweep_configs(draw):
    """Few elements and points, levels 1-3, equal or unequal g/r boxes, random seeds."""
    dims = ArrayDims(draw(st.integers(2, 6)), draw(st.integers(1, 2)), 0.5)
    box_g = Box3((-10.0, 10.0), (1.0, 6.0), (-3.0, 3.0))
    box_r = draw(st.sampled_from([box_g, Box3((-6.0, 12.0), (0.5, 8.0), (-2.0, 4.0))]))
    snrs = st.sampled_from([-10.0, -2.5, 0.0, 7.5, 20.0])
    step = draw(st.sampled_from([2.5, 4.0]))
    return ExperimentConfig(
        scene=SceneConfig(dims, box_g, box_r),
        snr_grid_db=tuple(draw(st.lists(snrs, min_size=1, max_size=4, unique=True))),
        sampling_step=step,
        step_sweep=(step,),
        hierarchy=HierarchicalConfig(levels=draw(st.integers(1, 3))),
        trials=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestAchievableRate:
    def test_unit_gain_unit_noise_is_one_bit(self):
        ch = planar_channel(0.0, 0.0, ArrayDims(1, 1, 0.5))
        assert achievable_rate(np.ones(1), ch, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_gain_is_zero(self):
        ch = planar_channel(0.5, 0.0, ArrayDims(2, 1, 0.5))  # h = [1, -1]
        assert achievable_rate(np.array([1.0, 1.0]), ch, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_full_scale_perfect_csi_formula(self):
        dims = ArrayDims(128, 4, 0.5)
        ch = near_field_channel(np.array([30.0, 12.0, -5.0]), np.array([-80.0, 40.0, 9.0]), dims)
        rate = achievable_rate(perfect_csi_beamforming(ch), ch, 1.0)
        assert rate == pytest.approx(math.log2(1 + 512.0**2), rel=1e-9)

    def test_sigma2_zero_rejected(self):
        ch = planar_channel(0.0, 0.0, ArrayDims(1, 1, 0.5))
        with pytest.raises(ValueError):
            achievable_rate(np.ones(1), ch, 0.0)

    def test_overflowing_snr_falls_back_to_log_form(self):
        ch = planar_channel(0.0, 0.0, ArrayDims(4, 2, 0.5))  # gain 8 with theta = 1
        sigma2 = snr_db_to_sigma2(3200.0)  # subnormal: 64 / sigma2 overflows
        assert math.isinf(64.0 / sigma2)
        rate = achievable_rate(np.ones(8), ch, sigma2)
        assert rate == 6.0 - math.log2(sigma2)
        # where the ratio is finite the formula is unchanged
        assert achievable_rate(np.ones(8), ch, 1e-300) == math.log2(1.0 + 64.0 / 1e-300)

    def test_snr_conversion(self):
        assert snr_db_to_sigma2(0.0) == 1.0
        assert snr_db_to_sigma2(10.0) == pytest.approx(0.1, rel=1e-12)


class TestSweepSnr:
    def test_deterministic_given_config(self):
        a = sweep_snr(MINI)
        b = sweep_snr(MINI)
        assert a.rows == b.rows

    @settings(max_examples=25, deadline=None)
    @given(cfg=small_sweep_configs())
    def test_matches_the_per_point_reference_at_any_thread_count(self, cfg):
        assert sweep_snr(cfg).to_csv_text() == reference_sweep_snr(cfg).to_csv_text()

    def test_snr_invariant_work_done_once_per_trial(self, monkeypatch):
        cfg = dataclasses.replace(parse_config(resolve_config_path("desk")), trials=1)
        dims = cfg.scene.dims
        assert len(cfg.snr_grid_db) == 5 and cfg.scene.box_g == cfg.scene.box_r
        built, stage2, factor_shapes, draws, stage1_picks = [], [], [], [], []

        def spy(module, name, record):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                record(args, out)
                return out

            monkeypatch.setattr(module, name, wrapper)

        spy(experiments, "build_near_field_codebook", lambda a, out: built.append(out))
        spy(training, "build_near_field_codebook", lambda a, out: stage2.append((a[:2], out)))
        spy(codebook, "phase_vector", lambda a, out: factor_shapes.append(np.shape(a[0])))
        spy(training, "complex_normal", lambda a, out: draws.append(np.size(out)))
        stage1_grids = cfg.codebook_grids(cfg.hierarchy.step_multiplier * cfg.sampling_step)
        stage1_size = build_near_field_codebook(*stage1_grids, dims).size
        spy(
            training,
            "select_codeword",
            lambda a, out: stage1_picks.extend(out) if np.size(a[0]) == stage1_size else None,
        )
        sweep_snr(cfg)

        near_cb, stage1_cb = built
        assert stage1_cb.size == stage1_size
        # one stage-2 build per distinct stage-1 winner, never one per SNR point
        winners = {idx for idx, _ in stage1_picks}
        assert len(stage1_picks) == 5 and len(stage2) == len(winners) < 5
        assert len({grids for grids, _ in stage2}) == len(stage2)
        # steering factors once per codebook: one array when both sides hold the same points
        codebooks = [near_cb, stage1_cb, *(cb for _, cb in stage2)]
        sides = [1 if np.array_equal(cb.g_points, cb.r_points) else 2 for cb in codebooks]
        assert sides[:2] == [1, 1]
        assert sum(len(s) == 2 and s[1] == dims.n for s in factor_shapes) == sum(sides)
        # one noise draw per (trial, scheme) for the exhaustive and far-field schemes
        assert draws.count(near_cb.size) == 1 and draws.count(dims.n) == 1
        # hierarchical: one per level and SNR point
        assert len(draws) == 2 + 5 * cfg.hierarchy.levels

    def test_perfect_csi_dominates_all_schemes(self):
        table = sweep_snr(MINI)
        for snr in MINI.snr_grid_db:
            csi = find_row(table, SCHEME_PERFECT_CSI, snr).mean
            for scheme in (SCHEME_FAR_FIELD, SCHEME_EXHAUSTIVE, SCHEME_HIERARCHICAL):
                assert find_row(table, scheme, snr).mean <= csi

    def test_mean_rate_nondecreasing_in_snr(self):
        # paired noise across SNR points makes the frozen-seed curves monotone
        table = sweep_snr(MINI)
        for scheme in MINI.schemes:
            means = [find_row(table, scheme, snr).mean for snr in MINI.snr_grid_db]
            assert all(lo <= hi for lo, hi in zip(means, means[1:]))

    def test_stderr_is_sample_std_over_sqrt_trials(self):
        table = sweep_snr(MINI)
        row = find_row(table, SCHEME_PERFECT_CSI, 0.0)
        # independent recomputation from the per-trial construction
        trial_seeds = np.random.SeedSequence(MINI.master_seed).spawn(MINI.trials)
        rates = []
        for t in range(MINI.trials):
            streams = trial_seeds[t].spawn(1 + len(MINI.schemes))
            ch = sample_near_field_channel(MINI.scene, np.random.default_rng(streams[0]))
            theta = perfect_csi_beamforming(ch)
            rates.append(achievable_rate(theta, ch, 1.0))
        rates = np.asarray(rates)
        assert row.mean == pytest.approx(rates.mean(), rel=1e-12)
        assert row.stderr == pytest.approx(rates.std(ddof=1) / np.sqrt(MINI.trials), rel=1e-12)

    def test_empty_snr_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                scene=MINI.scene,
                snr_grid_db=(),
                sampling_step=6.25,
                step_sweep=(6.25,),
                trials=2,
                master_seed=1,
            )

    def test_csv_layout(self):
        table = sweep_snr(MINI)
        text = table.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "scheme,sweep_var,sweep_value,mean,stderr,trials,seed"
        assert len(lines) == 1 + len(MINI.schemes) * len(MINI.snr_grid_db)
        assert text == sweep_snr(MINI).to_csv_text()


class TestSweepOverhead:
    def test_hierarchical_below_exhaustive_at_fine_steps(self):
        table = sweep_overhead(MINI)
        for step in MINI.step_sweep:
            step_d = step / DIMS.d
            exh = find_row(table, SCHEME_EXHAUSTIVE, step_d).mean
            hier = find_row(table, SCHEME_HIERARCHICAL, step_d).mean
            assert hier < exh

    def test_exhaustive_overhead_is_codebook_size(self):
        table = sweep_overhead(MINI)
        for step in MINI.step_sweep:
            cb = build_near_field_codebook(*MINI.codebook_grids(step), DIMS)
            assert find_row(table, SCHEME_EXHAUSTIVE, step / DIMS.d).mean == cb.size

    def test_doubling_step_strictly_decreases_overhead(self):
        cfg = ExperimentConfig(
            scene=MINI.scene, sampling_step=6.25, step_sweep=(6.25, 12.5), trials=1, master_seed=0
        )
        table = sweep_overhead(cfg)
        for scheme in (SCHEME_EXHAUSTIVE, SCHEME_HIERARCHICAL):
            fine = find_row(table, scheme, 12.5).mean
            coarse = find_row(table, scheme, 25.0).mean
            assert coarse < fine

    def test_seed_independent(self):
        a = sweep_overhead(MINI)
        b = sweep_overhead(ExperimentConfig(
            scene=MINI.scene,
            snr_grid_db=MINI.snr_grid_db,
            sampling_step=MINI.sampling_step,
            step_sweep=MINI.step_sweep,
            trials=MINI.trials,
            master_seed=MINI.master_seed + 999,
        ))
        assert [(r.scheme, r.sweep_value, r.mean) for r in a.rows] == [
            (r.scheme, r.sweep_value, r.mean) for r in b.rows
        ]

    def test_hierarchical_overhead_stage_arithmetic(self):
        # independent oracle: stage-1 dedup size plus the fixed worst-case window counts
        hcfg = MINI.hierarchy
        stage1 = build_near_field_codebook(
            *MINI.codebook_grids(hcfg.step_multiplier * MINI.sampling_step), DIMS
        ).size
        per_axis = int(1 / hcfg.step_control) + 1
        assert hierarchical_overhead(MINI, MINI.sampling_step) == stage1 + (per_axis**3) ** 2

    @settings(max_examples=30, deadline=None)
    @given(
        levels=st.integers(1, 3),
        channel_seed=st.integers(0, 2**32 - 1),
        noise_seed=st.integers(0, 2**32 - 1),
        snr_db=st.sampled_from(MINI.snr_grid_db),
    )
    def test_training_stays_within_overhead_bound(self, levels, channel_seed, noise_seed, snr_db):
        hcfg = HierarchicalConfig(levels=levels)
        cfg = dataclasses.replace(MINI, hierarchy=hcfg)
        ch = sample_near_field_channel(cfg.scene, np.random.default_rng(channel_seed))
        sigma2 = snr_db_to_sigma2(snr_db)
        res = hierarchical_training(
            hcfg, cfg.scene, cfg.sampling_step, ch, sigma2, np.random.default_rng(noise_seed)
        )
        level1_step = hcfg.step_multiplier * cfg.sampling_step
        stage1 = build_near_field_codebook(*cfg.codebook_grids(level1_step), DIMS)
        assert res.per_stage[0].codebook_size == stage1.size
        assert len(res.per_stage) == levels
        assert res.slots_used <= hierarchical_overhead(cfg, cfg.sampling_step)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                scene=MINI.scene, sampling_step=6.25, step_sweep=(), trials=1, master_seed=0
            )


class TestSummarizeRatio:
    def test_identical_schemes_ratio_one(self):
        table = sweep_snr(MINI)
        assert summarize_ratio(table, SCHEME_PERFECT_CSI, SCHEME_PERFECT_CSI, 10.0) == 1.0

    def test_missing_row_rejected(self):
        table = sweep_snr(MINI)
        with pytest.raises(ValueError):
            find_row(table, SCHEME_EXHAUSTIVE, 55.0)

    def test_hierarchical_close_to_exhaustive_at_high_snr(self):
        table = sweep_snr(MINI)
        ratio = summarize_ratio(table, SCHEME_HIERARCHICAL, SCHEME_EXHAUSTIVE, 10.0)
        assert 0.7 <= ratio <= 1.0


class TestConfigValidation:
    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                scene=MINI.scene, sampling_step=1.0, step_sweep=(1.0,), schemes=("sideways",)
            )

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scene=MINI.scene, sampling_step=1.0, step_sweep=(1.0,), trials=0)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scene=MINI.scene, sampling_step=-1.0, step_sweep=(1.0,))

    @pytest.mark.parametrize(
        "base_step,multiplier,field",
        [(float("inf"), 4.0, "sampling_step"), (1e300, 1e10, "hierarchy.step_multiplier")],
        ids=["infinite-base", "overflow"],
    )
    def test_level_1_step_must_be_finite(self, base_step, multiplier, field):
        hcfg = HierarchicalConfig(2, multiplier, 0.25)
        with pytest.raises(FieldError, match="finite") as exc:
            ExperimentConfig(
                scene=MINI.scene, sampling_step=base_step, step_sweep=(1.0,), hierarchy=hcfg
            )
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "sampling_step,step_sweep", [(1e-300, (6.25,)), (6.25, (6.25, 1e-300))]
    )
    def test_underflowing_level_step_names_levels(self, sampling_step, step_sweep):
        # from base 6.25 all 100 level steps are positive floats; from 1e-300
        # the level-42 step underflows to 0.0
        hcfg = HierarchicalConfig(levels=100)
        ExperimentConfig(scene=MINI.scene, sampling_step=6.25, step_sweep=(6.25,), hierarchy=hcfg)
        with pytest.raises(FieldError, match="level 42 step at base step 1e-300 is 0.0") as exc:
            ExperimentConfig(
                scene=MINI.scene, sampling_step=sampling_step, step_sweep=step_sweep, hierarchy=hcfg
            )
        assert exc.value.field == "hierarchy.levels"
