import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlris import training
from xlris.channel import SceneConfig, sample_near_field_channel
from xlris.codebook import (
    FarFieldCodebook,
    NearFieldCodebook,
    SampleGrid,
    axis_samples,
    build_near_field_codebook,
)
from xlris.geometry import ArrayDims, Box3, FieldError, cascaded_distances
from xlris.training import (
    _NOISE_CHUNK,
    HierarchicalConfig,
    StageResult,
    exhaustive_training,
    hierarchical_training,
    hierarchical_training_over,
    perfect_csi_beamforming,
    refine_ranges,
    select_codeword,
)

from support import (
    box_contains,
    complex_normal,
    is_beam_of,
    near_field_channel,
    planar_channel,
    reference_hierarchical,
    vector,
)

DIMS = ArrayDims(8, 2, 0.5)
BOX = Box3((-40, 40), (4, 40), (-16, 16))
SCENE = SceneConfig(DIMS, BOX, BOX)
GRID = SampleGrid(BOX, 16.0)


def on_grid_channel(g_index, r_index, alpha=0.6 + 0.8j):
    pts = GRID.points()
    return near_field_channel(pts[g_index], pts[r_index], DIMS, alpha)


class TestExhaustive:
    def test_on_grid_channel_recovered_coherently(self):
        cb = build_near_field_codebook(GRID, GRID, DIMS)
        ch = on_grid_channel(3, 11)
        [res] = exhaustive_training(cb, ch, [0.0], np.random.default_rng(0))
        assert is_beam_of(cb, res.best_index, cascaded_distances(*ch.pair, DIMS))
        assert res.best_amplitude == pytest.approx(DIMS.n * abs(ch.alpha), rel=1e-12)
        assert res.slots_used == cb.size

    def test_single_codeword_wins_regardless_of_noise(self):
        grid = SampleGrid(Box3((2, 2), (5, 5), (0, 0)), 1)
        cb = build_near_field_codebook(grid, grid, DIMS)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(3))
        [res] = exhaustive_training(cb, ch, [5.0], np.random.default_rng(1))
        assert res.best_index == 0  # indices are 0-based
        assert res.slots_used == 1

    def test_noiseless_winner_matches_full_scan_oracle(self):
        cb = build_near_field_codebook(GRID, GRID, DIMS)
        rng = np.random.default_rng(77)
        for _ in range(5):
            ch = sample_near_field_channel(SCENE, rng)
            [res] = exhaustive_training(cb, ch, [0.0], np.random.default_rng(0))
            # independent oracle: regenerate every codeword and scan sequentially
            amps = [abs(vector(cb, l) @ ch.h_bar) for l in range(cb.size)]
            assert res.best_index == int(np.argmax(amps))

    def test_empty_codebook_rejected(self):
        pts = GRID.points()
        empty = NearFieldCodebook(DIMS, GRID, GRID, pts, pts, np.zeros((0, 2)))
        ch = sample_near_field_channel(SCENE, np.random.default_rng(0))
        with pytest.raises(ValueError):
            exhaustive_training(empty, ch, [0.0], np.random.default_rng(0))

    def test_duplicate_at_later_index_never_wins(self):
        base = build_near_field_codebook(GRID, GRID, DIMS)
        ch = on_grid_channel(5, 9)
        [res] = exhaustive_training(base, ch, [0.0], np.random.default_rng(0))
        dup = NearFieldCodebook(
            DIMS,
            *base.grids,
            base.g_points,
            base.r_points,
            np.vstack([base.pairs, base.pairs[res.best_index]]),
        )
        [res_dup] = exhaustive_training(dup, ch, [0.0], np.random.default_rng(0))
        assert res_dup.best_index == res.best_index

    def test_fixed_seed_reproducible(self):
        cb = build_near_field_codebook(GRID, GRID, DIMS)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(10))
        [a] = exhaustive_training(cb, ch, [0.3], np.random.default_rng(42))
        [b] = exhaustive_training(cb, ch, [0.3], np.random.default_rng(42))
        assert a == b
        assert np.array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("count", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["near-field", "far-field"])
    def test_one_result_per_noise_power_as_if_trained_alone(self, kind, count):
        if kind == "near-field":
            cb = build_near_field_codebook(GRID, GRID, DIMS)
        else:
            cb = FarFieldCodebook(DIMS)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(12))
        sigma2s = [2.0, 0.0, 0.3, 8.0, 1e-3][:count]
        results = exhaustive_training(cb, ch, sigma2s, np.random.default_rng(17))
        assert len(results) == len(sigma2s)
        for sigma2, res in zip(sigma2s, results):
            [alone] = exhaustive_training(cb, ch, [sigma2], np.random.default_rng(17))
            assert (res.best_index, res.best_amplitude, res.slots_used) == (
                alone.best_index,
                alone.best_amplitude,
                alone.slots_used,
            )
            assert np.array_equal(res.theta, alone.theta)

    @pytest.mark.parametrize("kind", ["near-field", "far-field"])
    def test_one_vector_per_distinct_winner(self, kind, monkeypatch):
        if kind == "near-field":
            cb = build_near_field_codebook(GRID, GRID, DIMS)
        else:
            cb = FarFieldCodebook(DIMS)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(12))
        built = []
        real = cb.vector
        monkeypatch.setattr(cb, "vector", lambda l: built.append(l) or real(l))
        # noiseless twice, then powers loud enough to move the winner
        results = exhaustive_training(cb, ch, [0.0, 1e4, 0.0, 1e4, 1e6], np.random.default_rng(3))
        winners = [res.best_index for res in results]
        assert sorted(built) == sorted(set(winners)) and len(built) < len(winners)
        for res in results:
            assert np.array_equal(res.theta, vector(cb, res.best_index))


class TestSelectCodeword:
    @settings(max_examples=40, deadline=None)
    @given(
        size=st.sampled_from([1, 7, _NOISE_CHUNK - 1, _NOISE_CHUNK, 2 * _NOISE_CHUNK + 5]),
        sigma2s=st.lists(st.sampled_from([0.0, 1e-3, 0.25, 1.0, 4.0]), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_call_equals_a_restarted_draw_per_noise_power(self, size, sigma2s, seed):
        data = np.random.default_rng(seed)
        responses = data.standard_normal(size) + 1j * data.standard_normal(size)
        rng = np.random.default_rng(seed)
        picks = select_codeword(responses, sigma2s, rng)
        want = []
        for sigma2 in sigma2s:
            noise_rng = np.random.default_rng(seed)  # restarted at every noise power
            r = responses
            if sigma2 > 0:
                r = r + complex_normal(noise_rng, size) * np.sqrt(sigma2)
            amps = np.abs(r)
            want.append((int(np.argmax(amps)), float(amps.max())))
        assert picks == want
        # one unit draw serves every noise power, none when all are zero
        fresh = np.random.default_rng(seed)
        if any(sigma2 > 0 for sigma2 in sigma2s):
            complex_normal(fresh, size)
        assert rng.bit_generator.state == fresh.bit_generator.state

    SIGMA2S = [0.0, 1.0, 0.0, 0.25, 0.25, 4.0]

    @staticmethod
    def full_scan(responses, sigma2s, seed):
        """Every slot observed at every noise power, each from a restarted draw."""
        picks = []
        for sigma2 in sigma2s:
            r = responses
            if sigma2 > 0:
                noise_rng = np.random.default_rng(seed)
                r = r + complex_normal(noise_rng, responses.size) * np.sqrt(sigma2)
            amps = np.abs(r)
            idx = int(np.argmax(amps))
            picks.append((idx, amps[idx].tobytes()))
        return picks

    @staticmethod
    def adversarial(case, size, seed):
        data = np.random.default_rng(seed)
        responses = data.standard_normal(size) + 1j * data.standard_normal(size)
        if case == "buried":  # far below the noise: every slot can win
            responses *= 1e-6
        elif case == "dominant":
            responses[2 * size // 3] *= 1e3
        elif case == "ties":  # noise vanishes beside 1e20, so these slots tie exactly
            ties = [*range(size // 9, size, max(1, size // 9)), _NOISE_CHUNK - 1, _NOISE_CHUNK]
            responses[[k for k in ties if k < size]] = 1e20
        elif case == "nonfinite":
            responses[size // 2] = np.inf
            responses[size - 1] = np.nan
        elif case == "inf":  # an infinite floor without a NaN anywhere
            responses[size // 3] = np.inf
        elif case == "infnan":  # |inf + nan j| is inf, not NaN
            responses[size // 3] = complex(np.inf, np.nan)
        return responses

    CASES = ["random", "buried", "dominant", "ties", "nonfinite", "inf", "infnan"]
    SIZES = [1, _NOISE_CHUNK - 1, _NOISE_CHUNK, _NOISE_CHUNK + 1, 2 * _NOISE_CHUNK + 5]

    @pytest.mark.parametrize("chunk", [_NOISE_CHUNK, 5])
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("case", CASES)
    def test_observing_the_candidates_equals_the_full_scan(self, case, size, chunk, monkeypatch):
        # a 5-slot chunk puts chunk boundaries between candidates at every size
        monkeypatch.setattr(training, "_NOISE_CHUNK", chunk)
        responses = self.adversarial(case, size, seed=size + chunk)
        picks = select_codeword(responses, self.SIGMA2S, np.random.default_rng(size))
        got = [(idx, np.float64(amp).tobytes()) for idx, amp in picks]
        assert got == self.full_scan(responses, self.SIGMA2S, size)
        if case == "ties":
            assert {idx for idx, _ in picks} == {int(np.argmax(np.abs(responses)))}

    @pytest.mark.parametrize("chunk", [_NOISE_CHUNK, 5])
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("case", CASES)
    def test_noiseless_scan_equals_the_full_scan(self, case, size, chunk, monkeypatch):
        # sigma2 = 0 takes the same candidate scan as any other noise power
        monkeypatch.setattr(training, "_NOISE_CHUNK", chunk)
        responses = self.adversarial(case, size, seed=size + chunk)
        rng = np.random.default_rng(size)
        before = rng.bit_generator.state
        picks = select_codeword(responses, [0.0, 0.0], rng)
        got = [(idx, np.float64(amp).tobytes()) for idx, amp in picks]
        assert got == self.full_scan(responses, [0.0, 0.0], size)
        assert rng.bit_generator.state == before  # nothing drawn


class TestRefineRanges:
    def test_window_centers_on_winner(self):
        winners = (np.array([50.0, 10.0, -3.0]), np.array([-20.0, 5.0, 8.0]))
        box_g, box_r = refine_ranges(winners, 8.0)
        assert box_g == Box3((46.0, 54.0), (6.0, 14.0), (-7.0, 1.0))
        assert box_r == Box3((-24.0, -16.0), (1.0, 9.0), (4.0, 12.0))
        # Python-float bounds, as in a config-built box, not np.float64
        assert repr(box_r) == "Box3(x=(-24.0, -16.0), y=(1.0, 9.0), z=(4.0, 12.0))"

    def test_window_width_equals_step(self):
        box_g, box_r = refine_ranges((np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.0])), 7.0)
        for lo, hi in (*box_g.intervals(), *box_r.intervals()):
            assert hi - lo == pytest.approx(7.0, rel=1e-12)

    def test_vanishing_step_collapses_to_point(self):
        box_g, _ = refine_ranges((np.array([4.0, 5.0, 6.0]), np.array([0.0, 1.0, 0.0])), 1e-12)
        assert box_g.x[0] == pytest.approx(4.0, abs=1e-9)
        assert box_g.x[1] == pytest.approx(4.0, abs=1e-9)
        with pytest.raises(ValueError):
            refine_ranges((np.array([4.0, 5.0, 6.0]), np.array([0.0, 1.0, 0.0])), 0.0)


class TestHierarchical:
    HCFG = HierarchicalConfig(levels=2, step_multiplier=4.0, step_control=0.25)
    BASE = 4.0  # level 1 samples at 4 * 4.0 = 16.0, the step of GRID

    def test_single_level_equals_exhaustive(self):
        hcfg = HierarchicalConfig(levels=1, step_multiplier=4.0, step_control=0.25)
        cb1 = build_near_field_codebook(GRID, GRID, DIMS)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(21))
        a = hierarchical_training(hcfg, SCENE, self.BASE, ch, 0.4, np.random.default_rng(5))
        [b] = exhaustive_training(cb1, ch, [0.4], np.random.default_rng(5))
        assert (a.best_index, a.best_amplitude, a.slots_used) == (
            b.best_index,
            b.best_amplitude,
            b.slots_used,
        )
        assert np.array_equal(a.theta, b.theta)

    def test_slots_equal_sum_of_stage_sizes(self):
        ch = sample_near_field_channel(SCENE, np.random.default_rng(33))
        res = hierarchical_training(self.HCFG, SCENE, self.BASE, ch, 0.1, np.random.default_rng(2))
        assert res.per_stage is not None and len(res.per_stage) == 2
        assert res.slots_used == sum(s.codebook_size for s in res.per_stage)

    def test_stage2_boxes_respect_scene(self):
        # winners near the y floor must not push sampling behind the array
        ch = sample_near_field_channel(SCENE, np.random.default_rng(101))
        memo = {}
        hierarchical_training(self.HCFG, SCENE, self.BASE, ch, 0.0, np.random.default_rng(0), memo)
        assert len(memo) == 2
        for cb in memo.values():
            for p in (*cb.g_points, *cb.r_points):
                assert box_contains(BOX, p)

    def test_prebuilt_stage1_codebook_matches(self):
        stage1 = build_near_field_codebook(GRID, GRID, DIMS)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(55))
        a = hierarchical_training(self.HCFG, SCENE, self.BASE, ch, 0.2, np.random.default_rng(9))
        memo = {(GRID, GRID): stage1}
        b = hierarchical_training(
            self.HCFG, SCENE, self.BASE, ch, 0.2, np.random.default_rng(9), memo
        )
        assert a == b
        assert np.array_equal(a.theta, b.theta)

    def test_memo_is_filled_then_read_instead_of_building(self, monkeypatch):
        ch = sample_near_field_channel(SCENE, np.random.default_rng(56))
        hcfg = dataclasses.replace(self.HCFG, levels=3)
        memo = {}
        a = hierarchical_training(hcfg, SCENE, self.BASE, ch, 0.2, np.random.default_rng(9), memo)
        assert len(memo) == 3 and (GRID, GRID) in memo
        for (grid_g, grid_r), cb in memo.items():
            assert cb.size == build_near_field_codebook(grid_g, grid_r, DIMS).size

        def no_build(*args, **kwargs):
            raise AssertionError("a memoized level was rebuilt")

        monkeypatch.setattr(training, "build_near_field_codebook", no_build)
        b = hierarchical_training(hcfg, SCENE, self.BASE, ch, 0.2, np.random.default_rng(9), memo)
        assert a == b and len(memo) == 3
        assert np.array_equal(a.theta, b.theta)

    def test_fixed_seed_reproducible_with_trace(self):
        ch = sample_near_field_channel(SCENE, np.random.default_rng(60))
        a = hierarchical_training(self.HCFG, SCENE, self.BASE, ch, 0.5, np.random.default_rng(13))
        b = hierarchical_training(self.HCFG, SCENE, self.BASE, ch, 0.5, np.random.default_rng(13))
        assert a == b and a.per_stage == b.per_stage
        assert np.array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("seed", [3, 47, 101])
    def test_one_search_over_noise_powers_equals_a_restarted_search_each(self, seed, levels):
        hcfg = dataclasses.replace(self.HCFG, levels=levels)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(seed))
        sigma2s = [0.0, 2.0, 0.5, 2.0, 0.0, 1e-3, 8.0, 30.0]
        memo, solo_memo = {}, {}
        results = hierarchical_training_over(
            hcfg, SCENE, self.BASE, ch, sigma2s, np.random.default_rng(seed), memo
        )
        assert len(results) == len(sigma2s)
        for sigma2, res in zip(sigma2s, results):
            rng = np.random.default_rng(seed)  # restarted for every noise power
            alone = hierarchical_training(hcfg, SCENE, self.BASE, ch, sigma2, rng, solo_memo)
            assert (res.best_index, res.slots_used, res.per_stage) == (
                alone.best_index,
                alone.slots_used,
                alone.per_stage,
            )
            amps = np.array([res.best_amplitude, alone.best_amplitude])
            assert amps[0].tobytes() == amps[1].tobytes()
            assert res.theta.tobytes() == alone.theta.tobytes()
        # the same codebooks are built, and the grouping does not depend on the order
        assert memo.keys() == solo_memo.keys()
        backwards = hierarchical_training_over(
            hcfg, SCENE, self.BASE, ch, sigma2s[::-1], np.random.default_rng(seed), memo
        )
        assert backwards == results[::-1]

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("seed", [3, 47, 101, 5150])
    def test_one_search_over_noise_powers_equals_the_afresh_reference(self, seed, levels):
        # the reference rebuilds every level and draws its own noise at each noise power
        hcfg = dataclasses.replace(self.HCFG, levels=levels)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(seed))
        sigma2s = [0.0, 2.0, 0.5, 2.0, 0.0, 1e-3, 8.0, 30.0]
        results = hierarchical_training_over(
            hcfg, SCENE, self.BASE, ch, sigma2s, np.random.default_rng(seed)
        )
        assert len(results) == len(sigma2s)
        for sigma2, res in zip(sigma2s, results):
            rng = np.random.default_rng(seed)  # restarted for every noise power
            theta, stages = reference_hierarchical(hcfg, SCENE, self.BASE, ch, sigma2, rng)
            assert res.per_stage == tuple(
                StageResult(level, size, idx) for level, (size, idx) in enumerate(stages, start=1)
            )
            assert res.best_index == stages[-1][1]
            assert res.slots_used == sum(size for size, _ in stages)
            assert res.theta.tobytes() == theta.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HierarchicalConfig(0, 4.0, 0.25)
        with pytest.raises(ValueError):
            HierarchicalConfig(2, 0.5, 0.25)
        with pytest.raises(ValueError):
            HierarchicalConfig(2, 4.0, 1.5)
        assert HierarchicalConfig(training.MAX_LEVELS).levels == 1024
        with pytest.raises(FieldError, match=r"\[1, 1024\], got 1025$") as exc:
            HierarchicalConfig(training.MAX_LEVELS + 1)
        assert exc.value.field == "levels"
        ch = sample_near_field_channel(SCENE, np.random.default_rng(1))
        rng = np.random.default_rng(0)
        for base_step in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                hierarchical_training(self.HCFG, SCENE, base_step, ch, 0.1, rng)

    def test_defaults_and_steps(self):
        assert HierarchicalConfig() == HierarchicalConfig(2, 4.0, 0.25)
        assert list(HierarchicalConfig(levels=3).steps(2.0)) == [8.0, 2.0, 0.5]

    def test_full_scale_stage_sizes_match_grid_counting(self):
        # independent oracle: level-1 grid is 25/4 x 2/4 x 9/4-style coarse,
        # i.e. 7 x 1 x 3 = 21 points, dedup ceiling 21*22/2; level-2 windows
        # hold at most 5 samples per axis at step control 1/4
        box = Box3((-600.0, 600.0), (5.0, 100.0), (-200.0, 200.0))
        dims = ArrayDims(128, 4, 0.5)
        hcfg = HierarchicalConfig(levels=2, step_multiplier=4.0, step_control=0.25)
        assert list(hcfg.steps(50.0)) == [200.0, 50.0]
        grid_g = grid_r = SampleGrid(box, 200.0)
        assert [len(axis_samples(lo, hi, 200.0)) for lo, hi in box.intervals()] == [7, 1, 3]
        assert grid_g.size == 21
        stage1 = build_near_field_codebook(grid_g, grid_r, dims)
        assert stage1.size == 21 * 22 // 2

        scene = SceneConfig(dims, box, box)
        ch = sample_near_field_channel(scene, np.random.default_rng(5150))
        res = hierarchical_training(hcfg, scene, 50.0, ch, 0.0, np.random.default_rng(0))
        sizes = [s.codebook_size for s in res.per_stage]
        assert sizes[0] == 231
        assert sizes[1] <= 125 * 125
        assert res.slots_used == sum(sizes)


def test_theta_is_the_winners_vector_in_the_last_codebook_searched():
    ch = sample_near_field_channel(SCENE, np.random.default_rng(47))
    for cb in (build_near_field_codebook(GRID, GRID, DIMS), FarFieldCodebook(DIMS)):
        [res] = exhaustive_training(cb, ch, [0.3], np.random.default_rng(4))
        assert np.array_equal(res.theta, cb.vector(res.best_index))
    memo = {}
    hcfg, base = TestHierarchical.HCFG, TestHierarchical.BASE
    res = hierarchical_training(hcfg, SCENE, base, ch, 0.3, np.random.default_rng(4), memo)
    last = list(memo.values())[-1]  # levels fill a fresh memo in order
    assert len(memo) == hcfg.levels and last.size == res.per_stage[-1].codebook_size
    assert np.array_equal(res.theta, last.vector(res.best_index))


class TestPerfectCsi:
    def test_two_element_hand_computation(self):
        # h_bar = [1, j]: steering at phi = -0.25 on a 2x1 array
        ch = planar_channel(-0.25, 0.0, ArrayDims(2, 1, 0.5))
        theta = perfect_csi_beamforming(ch)
        assert np.abs(theta - np.array([1.0, -1.0j])).max() < 1e-12
        assert abs(theta @ ch.h_bar) == pytest.approx(2.0, rel=1e-12)

    def test_noiseless_amplitude_is_n_alpha(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            ch = sample_near_field_channel(SCENE, rng)
            amp = abs(perfect_csi_beamforming(ch) @ ch.h_bar)
            assert amp == pytest.approx(DIMS.n * abs(ch.alpha), rel=1e-12)

    def test_dominates_every_codeword(self):
        cb = build_near_field_codebook(GRID, GRID, DIMS)
        rng = np.random.default_rng(88)
        for _ in range(20):
            ch = sample_near_field_channel(SCENE, rng)
            csi_amp = abs(perfect_csi_beamforming(ch) @ ch.h_bar)
            best = np.abs(cb.responses(ch.h_bar)).max()
            assert best <= csi_amp * (1 + 1e-12)
