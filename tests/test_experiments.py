import math

import numpy as np
import pytest

from xlris.channel import SceneConfig, sample_near_field_channel
from xlris.codebook import build_near_field_codebook
from xlris.experiments import (
    SCHEME_EXHAUSTIVE,
    SCHEME_FAR_FIELD,
    SCHEME_HIERARCHICAL,
    SCHEME_PERFECT_CSI,
    ExperimentConfig,
    achievable_rate,
    hierarchical_overhead,
    snr_db_to_sigma2,
    summarize_ratio,
    sweep_overhead,
    sweep_snr,
)
from xlris.geometry import ArrayDims, Box3
from xlris.training import perfect_csi_beamforming

from support import make_far_field_channel

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


class TestAchievableRate:
    def test_unit_gain_unit_noise_is_one_bit(self):
        ch = make_far_field_channel(0.0, 0.0, 1.0, ArrayDims(1, 1, 0.5))
        assert achievable_rate(np.ones(1), ch, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_gain_is_zero(self):
        ch = make_far_field_channel(0.5, 0.0, 1.0, ArrayDims(2, 1, 0.5))  # h = [1, -1]
        assert achievable_rate(np.array([1.0, 1.0]), ch, 1.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_full_scale_perfect_csi_formula(self):
        dims = ArrayDims(128, 4, 0.5)
        ch = make_far_field_channel(0.25, -0.125, 1.0, dims)
        rate = achievable_rate(perfect_csi_beamforming(ch), ch, 1.0, 1.0)
        assert rate == pytest.approx(math.log2(1 + 512.0**2), rel=1e-9)

    def test_sigma2_zero_rejected(self):
        ch = make_far_field_channel(0.0, 0.0, 1.0, ArrayDims(1, 1, 0.5))
        with pytest.raises(ValueError):
            achievable_rate(np.ones(1), ch, 1.0, 0.0)

    def test_snr_conversion(self):
        assert snr_db_to_sigma2(0.0) == 1.0
        assert snr_db_to_sigma2(10.0) == pytest.approx(0.1, rel=1e-12)


class TestSweepSnr:
    def test_deterministic_given_config(self):
        a = sweep_snr(MINI)
        b = sweep_snr(MINI)
        assert a.rows == b.rows

    def test_threads_do_not_change_results(self):
        a = sweep_snr(MINI)
        b = sweep_snr(MINI, threads=4)
        assert a.rows == b.rows

    def test_perfect_csi_dominates_all_schemes(self):
        table = sweep_snr(MINI)
        for snr in MINI.snr_grid_db:
            csi = table.find(SCHEME_PERFECT_CSI, snr).mean
            for scheme in (SCHEME_FAR_FIELD, SCHEME_EXHAUSTIVE, SCHEME_HIERARCHICAL):
                assert table.find(scheme, snr).mean <= csi

    def test_mean_rate_nondecreasing_in_snr(self):
        # paired noise across SNR points makes the frozen-seed curves monotone
        table = sweep_snr(MINI)
        for scheme in MINI.schemes:
            means = [table.find(scheme, snr).mean for snr in MINI.snr_grid_db]
            assert all(lo <= hi for lo, hi in zip(means, means[1:]))

    def test_stderr_is_sample_std_over_sqrt_trials(self):
        table = sweep_snr(MINI)
        row = table.find(SCHEME_PERFECT_CSI, 0.0)
        # independent recomputation from the per-trial construction
        trial_seeds = np.random.SeedSequence(MINI.master_seed).spawn(MINI.trials)
        rates = []
        for t in range(MINI.trials):
            streams = trial_seeds[t].spawn(1 + len(MINI.schemes))
            ch = sample_near_field_channel(MINI.scene, np.random.default_rng(streams[0]))
            theta = perfect_csi_beamforming(ch)
            rates.append(achievable_rate(theta, ch, MINI.scene.s_bar, 1.0))
        rates = np.asarray(rates)
        assert row.mean == pytest.approx(rates.mean(), rel=1e-12)
        assert row.stderr == pytest.approx(rates.std(ddof=1) / np.sqrt(MINI.trials), rel=1e-12)

    def test_empty_snr_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                scene=MINI.scene, snr_grid_db=(), sampling_step=6.25, trials=2, master_seed=1
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
            exh = table.find(SCHEME_EXHAUSTIVE, step_d).mean
            hier = table.find(SCHEME_HIERARCHICAL, step_d).mean
            assert hier < exh

    def test_exhaustive_overhead_is_codebook_size(self):
        table = sweep_overhead(MINI)
        for step in MINI.step_sweep:
            cb = build_near_field_codebook(*MINI.codebook_grids(step), DIMS)
            assert table.find(SCHEME_EXHAUSTIVE, step / DIMS.d).mean == cb.size

    def test_doubling_step_strictly_decreases_overhead(self):
        cfg = ExperimentConfig(
            scene=MINI.scene, sampling_step=6.25, step_sweep=(6.25, 12.5), trials=1, master_seed=0
        )
        table = sweep_overhead(cfg)
        for scheme in (SCHEME_EXHAUSTIVE, SCHEME_HIERARCHICAL):
            fine = table.find(scheme, 12.5).mean
            coarse = table.find(scheme, 25.0).mean
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
        stage1 = build_near_field_codebook(
            *MINI.hierarchical_config().stage1_grids(), DIMS
        ).size
        per_axis = int(1 / MINI.step_control) + 1
        assert hierarchical_overhead(MINI) == stage1 + (per_axis**3) ** 2

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
            summarize_ratio(table, SCHEME_PERFECT_CSI, SCHEME_EXHAUSTIVE, 55.0)

    def test_hierarchical_close_to_exhaustive_at_high_snr(self):
        table = sweep_snr(MINI)
        ratio = summarize_ratio(table, SCHEME_HIERARCHICAL, SCHEME_EXHAUSTIVE, 10.0)
        assert 0.7 <= ratio <= 1.0


class TestConfigValidation:
    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scene=MINI.scene, schemes=("sideways",), sampling_step=1.0)

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scene=MINI.scene, sampling_step=1.0, trials=0)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scene=MINI.scene, sampling_step=-1.0)
