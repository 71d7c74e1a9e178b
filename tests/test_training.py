import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlris import training
from xlris.channel import SceneConfig, complex_normal, sample_near_field_channel
from xlris.codebook import NearFieldCodebook, SampleGrid, axis_samples, build_near_field_codebook
from xlris.geometry import ArrayDims, Box3, Point3, cascaded_distances
from xlris.training import (
    _NOISE_CHUNK,
    HierarchicalConfig,
    exhaustive_training,
    hierarchical_training,
    perfect_csi_beamforming,
    refine_ranges,
    select_codeword,
)

from support import box_contains, codeword_key, near_field_channel, planar_channel, vector

DIMS = ArrayDims(8, 2, 0.5)
BOX = Box3((-40, 40), (4, 40), (-16, 16))
SCENE = SceneConfig(DIMS, BOX, BOX)
GRID = SampleGrid(BOX, 16.0)


def on_grid_channel(g_index, r_index, alpha=0.6 + 0.8j):
    pts = GRID.points()
    pg, pr = Point3.from_array(pts[g_index]), Point3.from_array(pts[r_index])
    return near_field_channel(pg, pr, DIMS, alpha)


class TestExhaustive:
    def test_on_grid_channel_recovered_coherently(self):
        cb = build_near_field_codebook(GRID, GRID, DIMS)
        ch = on_grid_channel(3, 11)
        res = exhaustive_training(cb, ch, 1.0, 0.0, np.random.default_rng(0))
        want = codeword_key(cascaded_distances(*ch.pair, DIMS))
        assert int(cb.keys[res.best_index]) == want
        assert res.best_amplitude == pytest.approx(DIMS.n * abs(ch.alpha), rel=1e-12)
        assert res.slots_used == cb.size

    def test_single_codeword_wins_regardless_of_noise(self):
        grid = SampleGrid(Box3((2, 2), (5, 5), (0, 0)), 1)
        cb = build_near_field_codebook(grid, grid, DIMS)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(3))
        res = exhaustive_training(cb, ch, 1.0, 5.0, np.random.default_rng(1))
        assert res.best_index == 0  # indices are 0-based
        assert res.slots_used == 1

    def test_noiseless_winner_matches_full_scan_oracle(self):
        cb = build_near_field_codebook(GRID, GRID, DIMS)
        rng = np.random.default_rng(77)
        for _ in range(5):
            ch = sample_near_field_channel(SCENE, rng)
            res = exhaustive_training(cb, ch, 1.0, 0.0, np.random.default_rng(0))
            # independent oracle: regenerate every codeword and scan sequentially
            amps = [abs(vector(cb, l) @ ch.h_bar) for l in range(cb.size)]
            assert res.best_index == int(np.argmax(amps))

    def test_empty_codebook_rejected(self):
        empty = NearFieldCodebook(
            DIMS, np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((0, 2)), np.zeros(0, np.uint64)
        )
        ch = sample_near_field_channel(SCENE, np.random.default_rng(0))
        with pytest.raises(ValueError):
            exhaustive_training(empty, ch, 1.0, 0.0, np.random.default_rng(0))

    def test_duplicate_at_later_index_never_wins(self):
        base = build_near_field_codebook(GRID, GRID, DIMS)
        ch = on_grid_channel(5, 9)
        res = exhaustive_training(base, ch, 1.0, 0.0, np.random.default_rng(0))
        dup = NearFieldCodebook(
            DIMS,
            base.g_points,
            base.r_points,
            np.vstack([base.pairs, base.pairs[res.best_index]]),
            np.concatenate([base.keys, [base.keys[res.best_index]]]),
        )
        res_dup = exhaustive_training(dup, ch, 1.0, 0.0, np.random.default_rng(0))
        assert res_dup.best_index == res.best_index

    def test_fixed_seed_reproducible(self):
        cb = build_near_field_codebook(GRID, GRID, DIMS)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(10))
        a = exhaustive_training(cb, ch, 1.0, 0.3, np.random.default_rng(42))
        b = exhaustive_training(cb, ch, 1.0, 0.3, np.random.default_rng(42))
        assert a == b


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
        s_bar = complex(data.standard_normal(), data.standard_normal())
        rng = np.random.default_rng(seed)
        picks = select_codeword(responses, s_bar, sigma2s, rng)
        want = []
        for sigma2 in sigma2s:
            noise_rng = np.random.default_rng(seed)  # restarted at every noise power
            r = responses * s_bar
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


class TestRefineRanges:
    def test_window_centers_on_winner(self):
        box_g, box_r = refine_ranges((Point3(50.0, 10.0, -3.0), Point3(-20.0, 5.0, 8.0)), 8.0)
        assert box_g == Box3((46.0, 54.0), (6.0, 14.0), (-7.0, 1.0))
        assert box_r == Box3((-24.0, -16.0), (1.0, 9.0), (4.0, 12.0))

    def test_window_width_equals_step(self):
        box_g, box_r = refine_ranges((Point3(1, 2, 3), Point3(0, 1, 0)), 7.0)
        for lo, hi in (*box_g.intervals(), *box_r.intervals()):
            assert hi - lo == pytest.approx(7.0, rel=1e-12)

    def test_vanishing_step_collapses_to_point(self):
        box_g, _ = refine_ranges((Point3(4, 5, 6), Point3(0, 1, 0)), 1e-12)
        assert box_g.x[0] == pytest.approx(4.0, abs=1e-9)
        assert box_g.x[1] == pytest.approx(4.0, abs=1e-9)
        with pytest.raises(ValueError):
            refine_ranges((Point3(4, 5, 6), Point3(0, 1, 0)), 0.0)


class TestHierarchical:
    HCFG = HierarchicalConfig(
        levels=2,
        box_g=BOX,
        box_r=BOX,
        base_step=4.0,
        step_multiplier=4.0,
        step_control=0.25,
    )

    def test_single_level_equals_exhaustive(self):
        hcfg = HierarchicalConfig(
            levels=1,
            box_g=BOX,
            box_r=BOX,
            base_step=4.0,
            step_multiplier=4.0,
            step_control=0.25,
        )
        cb1 = build_near_field_codebook(*hcfg.stage1_grids(), DIMS)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(21))
        a = hierarchical_training(hcfg, DIMS, ch, 1.0, 0.4, np.random.default_rng(5))
        b = exhaustive_training(cb1, ch, 1.0, 0.4, np.random.default_rng(5))
        assert (a.best_index, a.best_amplitude, a.slots_used) == (
            b.best_index,
            b.best_amplitude,
            b.slots_used,
        )

    def test_slots_equal_sum_of_stage_sizes(self):
        ch = sample_near_field_channel(SCENE, np.random.default_rng(33))
        res = hierarchical_training(self.HCFG, DIMS, ch, 1.0, 0.1, np.random.default_rng(2))
        assert res.per_stage is not None and len(res.per_stage) == 2
        assert res.slots_used == sum(s.codebook_size for s in res.per_stage)

    def test_stage2_boxes_respect_scene(self):
        # winners near the y floor must not push sampling behind the array
        ch = sample_near_field_channel(SCENE, np.random.default_rng(101))
        res = hierarchical_training(self.HCFG, DIMS, ch, 1.0, 0.0, np.random.default_rng(0))
        pg, pr = res.best_codeword.pair
        assert box_contains(BOX, pg) and box_contains(BOX, pr)

    def test_prebuilt_stage1_codebook_matches(self):
        stage1 = build_near_field_codebook(*self.HCFG.stage1_grids(), DIMS)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(55))
        a = hierarchical_training(self.HCFG, DIMS, ch, 1.0, 0.2, np.random.default_rng(9))
        memo = {self.HCFG.stage1_grids(): stage1}
        b = hierarchical_training(self.HCFG, DIMS, ch, 1.0, 0.2, np.random.default_rng(9), memo)
        assert a == b

    def test_memo_is_filled_then_read_instead_of_building(self, monkeypatch):
        ch = sample_near_field_channel(SCENE, np.random.default_rng(56))
        hcfg = dataclasses.replace(self.HCFG, levels=3)
        memo = {}
        a = hierarchical_training(hcfg, DIMS, ch, 1.0, 0.2, np.random.default_rng(9), memo)
        assert len(memo) == 3 and hcfg.stage1_grids() in memo
        for (grid_g, grid_r), cb in memo.items():
            assert cb.size == build_near_field_codebook(grid_g, grid_r, DIMS).size

        def no_build(*args, **kwargs):
            raise AssertionError("a memoized level was rebuilt")

        monkeypatch.setattr(training, "build_near_field_codebook", no_build)
        b = hierarchical_training(hcfg, DIMS, ch, 1.0, 0.2, np.random.default_rng(9), memo)
        assert a == b and len(memo) == 3

    def test_fixed_seed_reproducible_with_trace(self):
        ch = sample_near_field_channel(SCENE, np.random.default_rng(60))
        a = hierarchical_training(self.HCFG, DIMS, ch, 1.0, 0.5, np.random.default_rng(13))
        b = hierarchical_training(self.HCFG, DIMS, ch, 1.0, 0.5, np.random.default_rng(13))
        assert a == b and a.per_stage == b.per_stage

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HierarchicalConfig(0, BOX, BOX, 1.0, 4.0, 0.25)
        with pytest.raises(ValueError):
            HierarchicalConfig(2, BOX, BOX, 1.0, 0.5, 0.25)
        with pytest.raises(ValueError):
            HierarchicalConfig(2, BOX, BOX, 1.0, 4.0, 1.5)
        with pytest.raises(ValueError):
            HierarchicalConfig(2, BOX, BOX, 0.0, 4.0, 0.25)

    def test_full_scale_stage_sizes_match_grid_counting(self):
        # independent oracle: level-1 grid is 25/4 x 2/4 x 9/4-style coarse,
        # i.e. 7 x 1 x 3 = 21 points, dedup ceiling 21*22/2; level-2 windows
        # hold at most 5 samples per axis at step control 1/4
        box = Box3((-600.0, 600.0), (5.0, 100.0), (-200.0, 200.0))
        dims = ArrayDims(128, 4, 0.5)
        hcfg = HierarchicalConfig(
            levels=2,
            box_g=box,
            box_r=box,
            base_step=50.0,
            step_multiplier=4.0,
            step_control=0.25,
        )
        assert hcfg.steps() == [200.0, 50.0]
        grid_g, grid_r = hcfg.stage1_grids()
        assert [len(axis_samples(lo, hi, 200.0)) for lo, hi in box.intervals()] == [7, 1, 3]
        assert grid_g.size == 21
        stage1 = build_near_field_codebook(grid_g, grid_r, dims)
        assert stage1.size == 21 * 22 // 2

        scene = SceneConfig(dims, box, box)
        ch = sample_near_field_channel(scene, np.random.default_rng(5150))
        res = hierarchical_training(hcfg, dims, ch, 1.0, 0.0, np.random.default_rng(0))
        sizes = [s.codebook_size for s in res.per_stage]
        assert sizes[0] == 231
        assert sizes[1] <= 125 * 125
        assert res.slots_used == sum(sizes)


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
