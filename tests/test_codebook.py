import hashlib
import struct
import sys
import threading
import time
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xlris import codebook
from xlris.cli import main
from xlris.config import parse_config, resolve_config_path
from xlris.codebook import (
    CodebookFileError,
    FarFieldCodebook,
    MAX_GRID_POINTS,
    SampleGrid,
    axis_count,
    axis_samples,
    build_near_field_codebook,
    cache_file_name,
    cached_near_field_codebook,
    load_codebook,
    reduced_profile,
    save_codebook,
)
from xlris.geometry import (
    ArrayDims,
    Box3,
    cascaded_distances,
    element_distances,
)

from support import (
    angles,
    far_field_steering,
    reference_keys,
    reference_reduced_profile,
    reference_responses,
    sketch_key,
    vector,
)

DIMS = ArrayDims(8, 2, 0.5)
# N = 4, so the dedup key packs all elements of each profile but one.
DIMS4 = ArrayDims(2, 2, 0.5)
# N = 64, so the dedup key packs a strict subset of each profile.
DIMS64 = ArrayDims(16, 4, 0.5)
# Multiples of 2**-10 below 2**10: sums of two of them, or of one and an
# integer below 2**10, are exact in float64.
DYADIC = st.integers(-(1 << 20) + 1, (1 << 20) - 1).map(lambda k: k / 1024.0)


def generic_line_grid(s, step=1.137):
    # s points varying in all coordinates via a slanted, irrational-ish sweep
    return SampleGrid(Box3((0.83, 0.83 + step * (s - 1)), (3.41, 3.41), (-0.57, -0.57)), step)


def brute_force_distinct_beams(grid_g, grid_r, dims, tol=1e-6):
    """Independent dedup oracle: pairwise vector comparison after phase alignment."""
    pts_g, pts_r = grid_g.points(), grid_r.points()
    vectors = []
    for pg in pts_g:
        for pr in pts_r:
            profile = cascaded_distances(pg, pr, dims)
            vec = np.exp(2j * np.pi * (profile % 1.0))
            vectors.append(vec / vec[0])  # remove global phase
    kept = []
    for vec in vectors:
        if all(np.abs(vec - seen).max() > tol for seen in kept):
            kept.append(vec)
    return len(kept)


def full_product_reference(grid_g, grid_r, dims):
    """The build without the triangle, the sketch or the keys: keep the first
    pair of each distinct whole canonical form.

    Returns (pairs, pre_dedup_pairs) for the sweep over the whole product,
    one pair at a time.
    """
    pts_g, pts_r = grid_g.points(), grid_r.points()
    dist_g, dist_r = element_distances(pts_g, dims), element_distances(pts_r, dims)
    forms = np.array([reduced_profile(dg + dr) for dg in dist_g for dr in dist_r])
    _, first = np.unique(forms, axis=0, return_index=True)
    kept = np.sort(first)
    pairs = np.column_stack([kept // len(pts_r), kept % len(pts_r)])
    return pairs, len(pts_g) * len(pts_r)


def sketch_keys(cb):
    """The dedup key the build gives each kept pair: its profile's sketch form, packed."""
    profiles = (cascaded_distances(*cb.source_pair(l), cb.dims) for l in range(cb.size))
    return np.array([sketch_key(p) for p in profiles], dtype=np.uint64)


def source_points(cb):
    """The (L, 2, 3) source points of a near-field codebook's kept pairs, g side first."""
    return np.stack([cb.g_points[cb.pairs[:, 0]], cb.r_points[cb.pairs[:, 1]]], axis=1)


def spy_build_keys(monkeypatch) -> list:
    """Record the keys of all swept pairs that each build hands to its shared-key check.

    Copied on entry, in sweep order: the check sorts them in place.
    """
    seen = []
    real = codebook._first_distinct

    def spy(keys, reduced_rows, batch_rows, rekey):
        seen.append(keys.copy())
        return real(keys, reduced_rows, batch_rows, rekey)

    monkeypatch.setattr(codebook, "_first_distinct", spy)
    return seen


def spy_key_sweeps(monkeypatch) -> list:
    """Record the array each key sweep a build runs writes its keys into."""
    sweeps = []
    real = codebook._sweep_keys

    def spy(pts_g, pts_r, first_col, dims, keys):
        sweeps.append(keys)
        return real(pts_g, pts_r, first_col, dims, keys)

    monkeypatch.setattr(codebook, "_sweep_keys", spy)
    return sweeps


def swept_sketch_keys(grid_g, grid_r, dims) -> list:
    """The `sketch_key` of every pair a build sweeps, in sweep order, one pair at a time."""
    pts_g, pts_r = grid_g.points(), grid_r.points()
    return [
        sketch_key(cascaded_distances(pts_g[i], pts_r[j], dims))
        for i in range(len(pts_g))
        for j in range(i if grid_g == grid_r else 0, len(pts_r))
    ]


@st.composite
def small_grids(draw):
    """Grids of at most 3 x 2 x 3 points on a coarse lattice, so beams can coincide."""
    coord = st.integers(-6, 6).map(lambda v: v * 0.75)
    def interval(lo_min=-4.5):
        lo = draw(coord.filter(lambda v: v >= lo_min))
        return lo, lo + draw(st.sampled_from([0.0, 0.75, 1.5, 2.25]))
    x, z = interval(), interval()
    y = interval(lo_min=0.75)
    return SampleGrid(Box3(x, y, z), draw(st.sampled_from([0.75, 1.5])))


class TestGridEnumeration:
    def test_inclusive_sweep(self):
        assert np.array_equal(axis_samples(0, 10, 3), [0, 3, 6, 9])

    def test_single_point_axis(self):
        assert np.array_equal(axis_samples(5.0, 5.0, 2.0), [5.0])

    def test_full_scale_grid_count(self):
        # 25 x-samples, 2 y-samples, 9 z-samples
        grid = SampleGrid(Box3((-600, 600), (5, 100), (-200, 200)), 50)
        counts = [len(axis_samples(lo, hi, 50)) for lo, hi in grid.box.intervals()]
        assert counts == [25, 2, 9]
        assert grid.size == len(grid.points()) == 450

    def test_degenerate_grid_is_one_point(self):
        grid = SampleGrid(Box3((1, 1), (2, 2), (3, 3)), 1)
        assert np.array_equal(grid.points(), [[1, 2, 3]])

    def test_x_major_ordering(self):
        grid = SampleGrid(Box3((0, 1), (10, 11), (20, 21)), 1)
        pts = grid.points()
        # z varies fastest, then y, then x
        assert np.array_equal(
            pts,
            [
                [0, 10, 20], [0, 10, 21], [0, 11, 20], [0, 11, 21],
                [1, 10, 20], [1, 10, 21], [1, 11, 20], [1, 11, 21],
            ],
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleGrid(Box3((1, 0), (0, 1), (0, 1)), 1)
        with pytest.raises(ValueError):
            SampleGrid(Box3((0, 1), (0, 1), (0, 1)), 0.0)

    @pytest.mark.parametrize("step", [float("inf"), float("nan")])
    def test_step_must_be_finite(self, step):
        with pytest.raises(ValueError, match="finite"):
            SampleGrid(Box3((0, 1), (0, 1), (0, 1)), step)
        with pytest.raises(ValueError, match="finite"):
            axis_samples(0.0, 1.0, step)

    @pytest.mark.parametrize("top,step", [(1290, 1.0), (1e6, 0.1)])
    def test_grid_past_the_int32_index_range_rejected_without_sampling(self, top, step):
        # 1291**3 = 2 151 685 171 points is just past MAX_GRID_POINTS; an
        # arange of 10**7 + 1 samples per axis would take 80 MB.
        assert SampleGrid(Box3((0, 1289), (1, 1290), (0, 1289)), 1.0).size == 1290**3
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"points, more than {MAX_GRID_POINTS}"):
                SampleGrid(Box3((0, top), (1, 1 + top), (-top, 0)), step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_step_too_small_to_count_rejected(self):
        with pytest.raises(ValueError, match="too small to count"):
            axis_count(0.0, 1.0, 5e-324)


class TestCanonicalKey:
    def test_constant_offset_shares_key(self):
        profile = np.array([0.25, 1.5, 3.75, 10.125])
        assert np.array_equal(reduced_profile(profile), reduced_profile(profile + 7.25))

    def test_integer_shifts_share_key(self):
        profile = np.array([0.25, 1.5, 3.75, 10.125])
        shifts = np.array([3.0, 1.0, 14.0, 2.0])
        assert np.array_equal(reduced_profile(profile), reduced_profile(profile + shifts))

    def test_millicycle_perturbation_distinct(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            profile = rng.uniform(0, 2000, 32)
            bumped = profile.copy()
            bumped[7] += 1e-3
            assert not np.array_equal(reduced_profile(profile), reduced_profile(bumped))

    def test_reduced_profile_anchor_is_zero(self):
        rng = np.random.default_rng(4)
        nano = reduced_profile(rng.uniform(0, 500, 16))
        assert nano[0] == 0
        assert nano.min() >= 0 and nano.max() < 1_000_000_000

    def test_reduced_profile_does_not_mutate_input(self):
        profile = np.array([1.2, 3.4, 5.6])
        before = profile.copy()
        reduced_profile(profile)
        assert np.array_equal(profile, before)

    @given(profile=st.lists(DYADIC, min_size=1, max_size=8).map(np.array), offset=DYADIC)
    @example(profile=np.array([-0.0, 0.5, 0.75]), offset=0.25)
    @example(profile=np.array([3.0, -7.0, 12.0]), offset=-0.0)
    # The last delta rounds to a full cycle, which must read as zero.
    @example(profile=np.array([0.0, -(2.0**-40), 1.0 - 2.0**-40]), offset=5.5)
    def test_global_offset_keeps_the_form(self, profile, offset):
        form = reduced_profile(profile)
        assert form[0] == 0 and form.min() >= 0 and form.max() < 1_000_000_000
        assert np.array_equal(reduced_profile(profile + offset), form)
        assert np.array_equal(form, reference_reduced_profile(profile))

    @given(elements=st.lists(st.tuples(DYADIC, st.integers(-1023, 1023)), min_size=1, max_size=8))
    @example(elements=[(-0.0, 3), (0.5, -1)])
    @example(elements=[(2.0, 5), (-9.0, -4), (0.0, 1)])
    @example(elements=[(0.25, 0), (0.25 - 2.0**-40, 7)])  # a full cycle after rounding
    def test_whole_cycle_shifts_keep_the_form(self, elements):
        profile, shifts = (np.array(column, dtype=np.float64) for column in zip(*elements))
        form = reduced_profile(profile)
        assert np.array_equal(reduced_profile(profile + shifts), form)
        assert np.array_equal(form, reference_reduced_profile(profile))

    @given(
        a=st.lists(st.integers(-8, 8).map(lambda k: k / 4.0), min_size=3, max_size=3),
        b=st.lists(st.integers(-8, 8).map(lambda k: k / 4.0), min_size=3, max_size=3),
    )
    @example(a=[0.25, 1.5, 3.75], b=[1.5, 2.75, 5.0])
    @example(a=[0.25, 1.5, 3.75], b=[0.25, 1.5, 3.5])
    def test_equal_keys_iff_equal_forms(self, a, b):
        same_form = np.array_equal(reduced_profile(a), reduced_profile(b))
        assert (sketch_key(a) == sketch_key(b)) == same_form

    def test_largest_key_packs_without_wrapping(self):
        form = np.array([[0, 999_999_999, 999_999_999]], dtype=np.int64)
        assert int(codebook._hash_reduced(form)[0]) == 10**18 - 1

    @given(
        profile=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=80
        ).map(np.array)
    )
    @example(profile=np.arange(64) * 0.37)
    def test_sketch_of_the_form_is_the_form_of_the_sketch(self, profile):
        n = len(profile)
        sketch = codebook._sketch_elements(n)
        assert len(sketch) == min(n, codebook._SKETCH_ELEMENTS)
        assert sketch[0] == 0 and sketch[-1] == n - 1 and (np.diff(sketch) > 0).all()
        assert np.array_equal(reduced_profile(profile[sketch]), reduced_profile(profile)[sketch])

    @given(
        block=arrays(
            np.float64,
            st.tuples(st.integers(1, 20), st.integers(1, 40)),
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        )
    )
    # The first profile (column 0) holds a delta that rounds to a full cycle,
    # which must read as zero.
    @example(block=np.array([[0.0, 3.0], [-(2.0**-40), -7.0], [1.0 - 2.0**-40, 12.0]]))
    def test_transposed_view_keys_like_its_contiguous_copy(self, block):
        # The build keys (sketch, pairs) buffers through their F-order transpose.
        view = block.T
        copy = np.ascontiguousarray(view)
        form = reduced_profile(view)
        assert np.array_equal(form, reduced_profile(copy))
        assert np.array_equal(
            codebook._hash_reduced(form), codebook._hash_reduced(reduced_profile(copy))
        )
        assert np.array_equal(block, copy.T)  # reduced_profile wrote to neither input

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @given(data=st.data())
    def test_sketch_block_keys_like_its_transposed_profiles(self, k, data):
        # Sketch-major blocks of sums of distances in the thousands, as the
        # build's key chunks are.
        block = data.draw(
            arrays(
                np.float64,
                st.tuples(st.just(k), st.integers(1, 40)),
                elements=st.floats(0, 10_000, allow_nan=False, allow_infinity=False),
            )
        )
        if k > 1 and data.draw(st.booleans()):
            # Each later element a whole number of cycles short of element 0
            # by less than half a nanocycle: its delta rounds to a full
            # cycle, which must read as zero.
            shifts = data.draw(arrays(np.float64, k - 1, elements=st.integers(0, 5000)))
            block[1:, 0] = block[0, 0] + shifts - 2.0**-32
        before = block.copy()
        form = reduced_profile(block.T)
        reference = reference_reduced_profile(block.T)
        assert np.array_equal(block, before)  # the anchor-free rows leave the block as it was
        assert (form[:, 0] == 0).all() and np.array_equal(form, reference)
        assert np.array_equal(codebook._hash_reduced(form), codebook._hash_reduced(reference))


class TestFarFieldCodebook:
    def test_two_element_angles(self):
        dims = ArrayDims(2, 1, 0.5)
        cb = FarFieldCodebook(dims)
        assert cb.size == 2
        for l, phi in enumerate([-0.5, 0.5]):
            assert np.array_equal(cb.vector(l), np.conj(far_field_steering(phi, 0.0, dims)))

    def test_full_scale_size(self):
        assert FarFieldCodebook(ArrayDims(128, 4, 0.5)).size == 512

    def test_columns_are_conjugated_steering_vectors(self):
        for n1, n2 in [(5, 3), (128, 4), (32, 4), (4, 4), (7, 3), (1, 5), (16, 1)]:
            dims = ArrayDims(n1, n2, 0.5)
            cb = FarFieldCodebook(dims)
            for l in range(cb.size):
                phi, psi = angles(cb, l)
                assert np.array_equal(vector(cb, l), np.conj(far_field_steering(phi, psi, dims)))
                assert np.array_equal(cb.vector(l), vector(cb, l))

    def test_lattice_order_matches_column_index(self):
        # n-major: codeword l = (n-1)*N2 + (m-1) steers at (phi_n, psi_m), with
        # phi = -2/3, 0, 2/3 for N1 = 3 and psi = -1/2, 1/2 for N2 = 2
        cb = FarFieldCodebook(ArrayDims(3, 2, 0.5))
        for l, (phi, psi) in enumerate(
            [(-2 / 3, -0.5), (-2 / 3, 0.5), (0.0, -0.5), (0.0, 0.5), (2 / 3, -0.5), (2 / 3, 0.5)]
        ):
            assert angles(cb, l) == (phi, psi)
            want = np.conj(far_field_steering(phi, psi, cb.dims))
            assert np.array_equal(cb.vector(l), want)

    def test_pairwise_distinct_on_odd_dims(self):
        # pairwise comparison oracle; odd counts avoid the aliased half-lattice
        cb = FarFieldCodebook(ArrayDims(3, 3, 0.5))
        vecs = [vector(cb, l) for l in range(cb.size)]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert np.abs(vecs[i] - vecs[j]).max() > 1e-6

    def test_unit_modulus(self):
        cb = FarFieldCodebook(ArrayDims(4, 4, 0.5))
        for l in range(cb.size):
            assert np.abs(np.abs(vector(cb, l)) - 1.0).max() < 1e-12

    def test_responses_match_naive_products(self):
        dims = ArrayDims(6, 2, 0.5)
        cb = FarFieldCodebook(dims)
        rng = np.random.default_rng(8)
        h = rng.standard_normal(dims.n) + 1j * rng.standard_normal(dims.n)
        naive = np.array([vector(cb, l) @ h for l in range(cb.size)])
        assert np.abs(cb.responses(h) - naive).max() < 1e-9


class TestNearFieldBuild:
    def test_single_point_pair(self):
        grid = SampleGrid(Box3((2, 2), (5, 5), (0, 0)), 1)
        cb = build_near_field_codebook(grid, grid, DIMS)
        assert cb.size == 1
        assert cb.pre_dedup_pairs == 1

    @pytest.mark.parametrize("s", [3, 5, 10])
    def test_swap_dedup_matches_brute_force(self, s):
        grid = generic_line_grid(s)
        cb = build_near_field_codebook(grid, grid, DIMS)
        assert cb.size == s * (s + 1) // 2
        assert cb.size == brute_force_distinct_beams(grid, grid, DIMS)

    def test_dedup_bounds(self):
        grid_g = generic_line_grid(6)
        grid_r = generic_line_grid(4, step=0.731)
        cb = build_near_field_codebook(grid_g, grid_r, DIMS)
        assert cb.size <= grid_g.size * grid_r.size
        same = build_near_field_codebook(grid_g, grid_g, DIMS)
        assert same.size <= grid_g.size * (grid_g.size + 1) // 2

    def test_no_two_codewords_share_a_key(self):
        grid = generic_line_grid(7)
        cb = build_near_field_codebook(grid, grid, DIMS)
        assert len(set(sketch_keys(cb).tolist())) == cb.size

    def test_dedup_soundness_no_distinct_beams_merged(self):
        # every retained codeword pair differs by far more than the rounding resolution
        grid = generic_line_grid(5)
        cb = build_near_field_codebook(grid, grid, DIMS)
        vecs = [vector(cb, l) for l in range(cb.size)]
        for i in range(cb.size):
            for j in range(i + 1, cb.size):
                aligned = vecs[i] / vecs[i][0] - vecs[j] / vecs[j][0]
                assert np.abs(aligned).max() > 1e-6

    def test_deterministic_including_order(self):
        grid = generic_line_grid(6)
        a = build_near_field_codebook(grid, grid, DIMS)
        b = build_near_field_codebook(grid, grid, DIMS)
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(source_points(a), source_points(b))

    # At N = 4 the sketch is all of the profile but one element; at N = 64 a few.
    @settings(max_examples=40, deadline=None)
    @given(grid=small_grids())
    def test_equal_grids_match_full_product(self, grid):
        for dims in (DIMS4, DIMS64):
            ref_pairs, ref_pre = full_product_reference(grid, grid, dims)
            cb = build_near_field_codebook(grid, grid, dims)
            assert np.array_equal(cb.pairs, ref_pairs)
            assert np.array_equal(cb.g_points, grid.points()) and cb.r_points is cb.g_points
            assert np.array_equal(cb.keys, sketch_keys(cb))
            assert cb.pre_dedup_pairs == ref_pre

    @settings(max_examples=20, deadline=None)
    @given(grid_g=small_grids(), grid_r=small_grids())
    def test_unequal_grids_match_full_product(self, grid_g, grid_r):
        for dims in (DIMS4, DIMS64):
            ref_pairs, ref_pre = full_product_reference(grid_g, grid_r, dims)
            cb = build_near_field_codebook(grid_g, grid_r, dims)
            assert np.array_equal(cb.pairs, ref_pairs)
            assert np.array_equal(cb.g_points, grid_g.points())
            assert np.array_equal(cb.r_points, grid_r.points())
            assert np.array_equal(cb.keys, sketch_keys(cb))
            assert cb.pre_dedup_pairs == ref_pre

    # Tiles narrower than the widest row split it into column segments.
    @settings(max_examples=30, deadline=None)
    @given(grid_g=small_grids(), grid_r=small_grids(), square=st.booleans(), data=st.data())
    def test_tiles_narrower_than_a_row_key_every_swept_pair(self, grid_g, grid_r, square, data):
        grid_r = grid_g if square else grid_r
        for dims in (DIMS4, DIMS64):
            k = len(codebook._sketch_elements(dims.n))
            chunk = data.draw(st.integers(1, max(1, k * grid_r.size - 1)), label="chunk")
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(codebook, "_CHUNK_ELEMENTS", chunk)
                seen = spy_build_keys(mp)
                cb = build_near_field_codebook(grid_g, grid_r, dims)
            assert seen[-1].tolist() == swept_sketch_keys(grid_g, grid_r, dims)
            assert np.array_equal(cb.pairs, full_product_reference(grid_g, grid_r, dims)[0])

    @settings(max_examples=30, deadline=None)
    @given(grid_g=small_grids(), grid_r=small_grids(), square=st.booleans())
    def test_chunked_sweep_keeps_the_whole_row_keys(self, grid_g, grid_r, square):
        grid_r = grid_g if square else grid_r
        for dims in (DIMS4, DIMS64):
            swept, ref_keys = reference_keys(grid_g, grid_r, dims)
            dist_g = element_distances(grid_g.points(), dims)
            dist_r = element_distances(grid_r.points(), dims)
            kept = codebook._first_distinct(
                ref_keys.copy(),  # sorted in place
                lambda flat: reference_reduced_profile(
                    dist_g[swept[flat, 0]] + dist_r[swept[flat, 1]]
                ),
                1,
                ref_keys.copy,
            )
            # Chunks of 1, 3, or 2 * S_r + 1 pairs of the flat sweep order, so
            # chunk edges cross row boundaries: a chunk may end inside a row,
            # hold the end of one row and the start of the next, or hold
            # several whole rows plus part of another.
            k = len(codebook._sketch_elements(dims.n))
            for chunk in (k, 3 * k, 3 * k + 1, (2 * len(grid_r.points()) + 1) * k):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(codebook, "_CHUNK_ELEMENTS", chunk)
                    seen = spy_build_keys(mp)
                    cb = build_near_field_codebook(grid_g, grid_r, dims)
                    assert np.array_equal(cb.pairs, swept[kept])
                    assert np.array_equal(seen[-1], ref_keys)  # every swept pair's key

    # Examples: a triangle sweep, a full product, and unequal overlapping grids
    # whose sweep holds true duplicates (swapped pairs).
    @settings(max_examples=40, deadline=None)
    @given(
        grid_g=small_grids(),
        grid_r=small_grids(),
        square=st.booleans(),
        keep=st.lists(st.booleans(), min_size=1, max_size=50),
    )
    @example(grid_g=generic_line_grid(6), grid_r=generic_line_grid(6), square=True, keep=[True])
    @example(
        grid_g=generic_line_grid(5),
        grid_r=generic_line_grid(3, step=0.731),
        square=False,
        keep=[False, True, True],
    )
    @example(
        grid_g=SampleGrid(Box3((0.0, 3.0), (2.0, 3.0), (-1.0, 0.0)), 1.0),
        grid_r=SampleGrid(Box3((1.0, 4.0), (2.0, 3.0), (-1.0, 0.0)), 1.0),
        square=False,
        keep=[True, False],
    )
    def test_kept_pairs_are_the_swept_pairs_at_the_kept_positions(
        self, grid_g, grid_r, square, keep
    ):
        # The build takes its pairs at the kept positions of its int32 layout
        # of all swept pairs; the reference lists the swept pairs one by one.
        grid_r = grid_g if square else grid_r
        swept, _ = reference_keys(grid_g, grid_r, DIMS)
        dedup = codebook._first_distinct
        positions = []

        def spy(keys, reduced_rows, batch_rows, rekey):
            positions.append(dedup(keys, reduced_rows, batch_rows, rekey))
            return positions[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codebook, "_first_distinct", spy)
            cb = build_near_field_codebook(grid_g, grid_r, DIMS)
            assert np.array_equal(cb.pairs, swept[positions[-1]])
            # An arbitrary ascending subset, which may leave rows with no pair.
            subset = np.flatnonzero(np.resize(keep, len(swept)))
            mp.setattr(
                codebook, "_first_distinct", lambda keys, reduced_rows, batch_rows, rekey: subset
            )
            cb = build_near_field_codebook(grid_g, grid_r, DIMS)
            assert np.array_equal(cb.pairs, swept[subset].reshape(-1, 2))

    def test_paper_cache_file_bytes_are_pinned(self, tmp_path, capsys):
        assert main(["codebook", "build", "--config", "paper",
                     "--cache", str(tmp_path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / "xlrc_fc7b7b06ba246d81.bin"
        assert path.stat().st_size == 811_948
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "82c037e6820f7539bf089b68eea86ba515a9a835855256a459ac23e4aa86096e"
        )

    @pytest.mark.parametrize("name,step_d", [("desk", 25), ("paper", 100)])
    def test_shipped_level1_sweeps_repeat_no_key(self, monkeypatch, name, step_d):
        # Every swept pair of these triangle sweeps is a distinct beam, and the
        # sketch keeps their keys distinct too. A 2-element sketch repeats
        # hundreds of keys on the same sweeps, so the check can tell them apart.
        cfg = parse_config(resolve_config_path(name))
        grids = cfg.codebook_grids(step_d * cfg.scene.dims.d)
        s = grids[0].size
        seen = spy_build_keys(monkeypatch)
        for sketch, repeats in ((codebook._SKETCH_ELEMENTS, False), (2, True)):
            monkeypatch.setattr(codebook, "_SKETCH_ELEMENTS", sketch)
            cb = build_near_field_codebook(*grids, cfg.scene.dims)
            assert cb.size == len(seen[-1]) == s * (s + 1) // 2
            assert (len(np.unique(seen[-1])) < cb.size) == repeats
            # Every swept pair is kept, so `.keys`, in tile-sized steps, are the sweep's.
            assert np.array_equal(cb.keys, seen[-1])

    def test_repeat_free_build_peaks_near_its_kept_pairs(self, monkeypatch):
        # The keys are written over the layout's own rows and sorted there, so
        # a build that keeps every swept pair holds one 8-byte-per-pair buffer,
        # plus a byte per pair of sorted-key edges and the sketch tables.
        cfg = parse_config(resolve_config_path("desk"))
        grids = cfg.codebook_grids(20 * cfg.scene.dims.d)  # 523 776 swept pairs
        sweeps = spy_key_sweeps(monkeypatch)
        tracemalloc.start()
        try:
            cb = build_near_field_codebook(*grids, cfg.scene.dims)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        s = grids[0].size
        assert len(sweeps) == 1 and np.shares_memory(sweeps[0], cb.pairs)  # over the layout
        assert cb.size == s * (s + 1) // 2
        assert len(np.unique(cb.keys)) == cb.size  # no key repeats
        assert peak <= 1.5 * cb.pairs.nbytes

    def test_repeated_keys_rekey_and_keep_the_full_product_pairs(self, monkeypatch):
        # 64 key buckets make keys repeat, so the check re-derives them into a
        # separate array after sorting the in-place ones, and compares the full
        # forms of the pairs laid out. Tiles of at most 100 pairs, so the
        # sweeps write many tiles.
        cfg = parse_config(resolve_config_path("desk"))
        dims = cfg.scene.dims
        grids = cfg.codebook_grids(50 * dims.d)  # 65 points per grid, 2 145 swept pairs
        ref_pairs, _ = full_product_reference(*grids, dims)
        real_hash = codebook._hash_reduced
        monkeypatch.setattr(
            codebook, "_hash_reduced", lambda nano: real_hash(nano) % np.uint64(64)
        )
        sweeps = spy_key_sweeps(monkeypatch)
        chunk = 100 * len(codebook._sketch_elements(dims.n))
        monkeypatch.setattr(codebook, "_CHUNK_ELEMENTS", chunk)
        seen = spy_build_keys(monkeypatch)
        cb = build_near_field_codebook(*grids, dims)
        assert np.array_equal(cb.pairs, ref_pairs)
        assert len(sweeps) == 2 and not np.shares_memory(sweeps[1], sweeps[0])
        assert np.array_equal(sweeps[1], seen[-1])  # in sweep order again
        assert len(np.unique(seen[-1])) <= 64 < len(seen[-1])

    @pytest.mark.parametrize("square", [True, False])
    def test_equal_grids_hash_only_the_upper_triangle(self, monkeypatch, square):
        # Tiles of at most 10 pairs cover the 7 x 7 pair grid in several tiles,
        # some of more than one row. The keys handed on are exactly the swept
        # pairs' (the upper triangle on equal grids), in sweep order; besides
        # them, a tile hashes at most its lower corner, none on unequal grids.
        grid_g = generic_line_grid(7)
        grid_r = grid_g if square else generic_line_grid(7, step=0.731)
        tiles = []
        real_hash = codebook._hash_reduced
        monkeypatch.setattr(
            codebook, "_hash_reduced", lambda nano: tiles.append(nano.shape[:-1]) or real_hash(nano)
        )
        monkeypatch.setattr(codebook, "_CHUNK_ELEMENTS", 10 * len(codebook._sketch_elements(DIMS.n)))
        seen = spy_build_keys(monkeypatch)
        cb = build_near_field_codebook(grid_g, grid_r, DIMS)
        swept = swept_sketch_keys(grid_g, grid_r, DIMS)
        assert len(swept) == (7 * 8 // 2 if square else 7 * 7)
        assert seen[-1].tolist() == swept
        hashed = sum(rows * cols for rows, cols in tiles)
        corners = sum(rows * (rows - 1) // 2 for rows, _ in tiles) if square else 0
        assert len(tiles) > 1 and any(rows > 1 for rows, _ in tiles) == square
        assert len(swept) <= hashed <= len(swept) + corners
        assert cb.pre_dedup_pairs == 7 * 7

    @pytest.mark.parametrize("square", [True, False])
    def test_all_keys_colliding_keeps_every_distinct_beam(self, monkeypatch, square):
        grid_g = generic_line_grid(6)
        grid_r = grid_g if square else generic_line_grid(4, step=0.731)
        real = build_near_field_codebook(grid_g, grid_r, DIMS)
        monkeypatch.setattr(
            codebook, "_hash_reduced", lambda nano: np.zeros(nano.shape[:-1], dtype=np.uint64)
        )
        seen = spy_build_keys(monkeypatch)
        colliding = build_near_field_codebook(grid_g, grid_r, DIMS)
        assert np.array_equal(colliding.pairs, real.pairs)
        assert not seen[-1].any()

    @pytest.mark.parametrize("x_r", [(0.0, 3.0), (1.0, 4.0)])
    def test_collision_groups_checked_in_small_batches(self, monkeypatch, x_r):
        # 64 key buckets and batches of about 3 rows: dozens of shared-key
        # groups, several per batch. The overlapping unequal grids also hold
        # true duplicates (swapped pairs), which must still be dropped.
        grid_g = SampleGrid(Box3((0.0, 3.0), (2.0, 3.0), (-1.0, 0.0)), 1.0)
        grid_r = SampleGrid(Box3(x_r, (2.0, 3.0), (-1.0, 0.0)), 1.0)
        seen = spy_build_keys(monkeypatch)
        real = build_near_field_codebook(grid_g, grid_r, DIMS)
        real_hash = codebook._hash_reduced
        monkeypatch.setattr(codebook, "_hash_reduced", lambda nano: real_hash(nano) % np.uint64(64))
        monkeypatch.setattr(codebook, "_CHECK_ELEMENTS", 3 * DIMS.n)
        bucketed = build_near_field_codebook(grid_g, grid_r, DIMS)
        assert np.array_equal(bucketed.pairs, real.pairs)
        assert np.array_equal(seen[1], seen[0] % np.uint64(64))

    @settings(deadline=None)
    @given(
        forms=arrays(
            np.int64, st.tuples(st.integers(1, 60), st.integers(1, 8)), elements=st.integers(-2, 2)
        ),
        buckets=st.integers(1, 4),
        batch_rows=st.integers(1, 70),
    )
    def test_shared_key_check_keeps_the_first_of_each_distinct_row(
        self, forms, buckets, batch_rows
    ):
        # Small entries repeat rows often. Keys from one column, bucketed, are
        # equal for equal rows and shared by distinct ones, so each batch holds
        # both true duplicates and collisions; numpy's row-wise unique is the
        # reference for the first occurrence of every distinct row.
        keys = (forms[:, 0] % buckets).astype(np.uint64)
        kept = codebook._first_distinct(
            keys.copy(), lambda positions: forms[positions], batch_rows, keys.copy
        )
        _, first = np.unique(forms, axis=0, return_index=True)
        assert np.array_equal(np.arange(len(forms))[kept], np.sort(first))

    @pytest.mark.parametrize("x_r", [(0.0, 3.0), (1.0, 4.0)])
    def test_one_element_sketch_keeps_the_full_profile_pairs(self, monkeypatch, x_r):
        # A one-element sketch gives every pair the key 0, so one key group
        # holds the whole sweep and only the full canonical forms tell beams
        # apart. The overlapping unequal grids hold true duplicates (swapped
        # pairs), which must still be dropped.
        grid_g = SampleGrid(Box3((0.0, 3.0), (2.0, 3.0), (-1.0, 0.0)), 1.0)
        grid_r = SampleGrid(Box3(x_r, (2.0, 3.0), (-1.0, 0.0)), 1.0)
        real = build_near_field_codebook(grid_g, grid_r, DIMS64)
        ref_pairs, pre = full_product_reference(grid_g, grid_r, DIMS64)
        assert np.array_equal(real.pairs, ref_pairs) and real.size < pre
        monkeypatch.setattr(codebook, "_SKETCH_ELEMENTS", 1)
        monkeypatch.setattr(codebook, "_CHECK_ELEMENTS", 3 * DIMS64.n)
        seen = spy_build_keys(monkeypatch)
        colliding = build_near_field_codebook(grid_g, grid_r, DIMS64)
        assert np.array_equal(colliding.pairs, real.pairs)
        assert not seen[-1].any()

    def test_vector_is_conjugated_distance_profile(self):
        grid = generic_line_grid(4)
        cb = build_near_field_codebook(grid, grid, DIMS)
        for l in range(cb.size):
            profile = cascaded_distances(*cb.source_pair(l), DIMS)
            oracle = np.exp(2j * np.pi * (profile % 1.0))
            assert np.abs(vector(cb, l) - oracle).max() < 1e-12
            assert np.abs(np.abs(vector(cb, l)) - 1.0).max() < 1e-12
            assert np.array_equal(cb.vector(l), vector(cb, l))

    @pytest.mark.parametrize("other", [None, generic_line_grid(3, step=0.91)])
    def test_source_pair_rows_are_read_only(self, other):
        grid = generic_line_grid(4)
        cb = build_near_field_codebook(grid, other or grid, DIMS)
        for point in cb.source_pair(cb.size - 1):
            with pytest.raises(ValueError, match="read-only"):
                point[0] = 0.0

    def test_responses_match_naive_loop(self):
        grid = generic_line_grid(5)
        cb = build_near_field_codebook(grid, grid, DIMS)
        rng = np.random.default_rng(12)
        h = rng.standard_normal(DIMS.n) + 1j * rng.standard_normal(DIMS.n)
        naive = np.array([vector(cb, l) @ h for l in range(cb.size)])
        assert np.abs(cb.responses(h) - naive).max() < 1e-9


def counting_phase_vector(monkeypatch, delay_s=0.0) -> list:
    """Record the shape of every `phase_vector` input the codebook module makes.

    A delay holds each call open, which widens any window between checking
    for cached factors and storing them.
    """
    calls = []
    real = codebook.phase_vector

    def counted(cycles):
        calls.append(np.shape(cycles))
        time.sleep(delay_s)
        return real(cycles)

    monkeypatch.setattr(codebook, "phase_vector", counted)
    return calls


class TestSteeringFactors:
    H = np.random.default_rng(12).standard_normal(DIMS.n) * np.exp(0.3j * np.arange(DIMS.n))

    @pytest.mark.parametrize("other", [None, generic_line_grid(4, step=0.91)])
    def test_lazy_cached_and_bitwise_equal_to_fresh_factors(self, monkeypatch, other):
        grid = generic_line_grid(5)
        calls = counting_phase_vector(monkeypatch)
        cb = build_near_field_codebook(grid, other or grid, DIMS)
        assert calls == []  # none at build time
        first, second = cb.responses(self.H), cb.responses(self.H)
        # one (S, N) factor for equal point sets, one per side otherwise
        assert len(calls) == (1 if other is None else 2)
        want = reference_responses(cb, self.H)
        assert np.array_equal(first, want) and np.array_equal(second, want)

    def test_flat_index_is_int64_over_int32_pairs(self):
        # Sg * Sr may pass the int32 range of the pairs, so the flat index may not.
        cb = build_near_field_codebook(generic_line_grid(5), generic_line_grid(4, step=0.91), DIMS)
        flat = cb._steering_factors()[2]
        assert cb.pairs.dtype == np.int32 and flat.dtype == np.int64
        assert np.array_equal(flat, cb.pairs[:, 0] * 4 + cb.pairs[:, 1])

    def test_threads_sharing_a_codebook_compute_the_factors_once(self, monkeypatch):
        grid = generic_line_grid(6)
        cb = build_near_field_codebook(grid, grid, DIMS)
        calls = counting_phase_vector(monkeypatch, delay_s=0.01)
        want = reference_responses(cb, self.H)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _: cb.responses(self.H), range(32), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1
        assert len(results) == 32 and all(np.array_equal(r, want) for r in results)


class TestPersistence:
    @pytest.fixture
    def built(self):
        grid = generic_line_grid(6)
        return build_near_field_codebook(grid, grid, DIMS)

    @settings(max_examples=40, deadline=None)
    @given(grid_g=small_grids(), grid_r=small_grids())
    @example(grid_g=generic_line_grid(6), grid_r=generic_line_grid(6))
    @example(grid_g=generic_line_grid(6), grid_r=generic_line_grid(4, step=0.731))
    def test_round_trip(self, tmp_path_factory, grid_g, grid_r):
        built = build_near_field_codebook(grid_g, grid_r, DIMS)
        path = tmp_path_factory.mktemp("round_trip") / "cb.bin"
        save_codebook(built, path)
        loaded = load_codebook(path, DIMS)
        assert loaded.size == built.size
        assert loaded.grids == built.grids == (grid_g, grid_r)
        assert np.array_equal(loaded.g_points, built.g_points)
        assert np.array_equal(loaded.r_points, built.r_points)
        assert np.array_equal(loaded.pairs, built.pairs)
        assert loaded.pairs.dtype == built.pairs.dtype == np.int32
        assert np.array_equal(source_points(loaded), source_points(built))
        assert loaded.pre_dedup_pairs == built.pre_dedup_pairs == grid_g.size * grid_r.size
        for l in range(built.size):
            assert np.array_equal(loaded.source_pair(l), built.source_pair(l))
            assert np.abs(vector(loaded, l) - vector(built, l)).max() <= 1e-12
            assert np.array_equal(loaded.vector(l), vector(built, l))
            assert np.array_equal(built.vector(l), vector(built, l))

    @pytest.mark.parametrize("source", ["built", "loaded", "gathered"])
    def test_save_load_save_is_byte_identical(self, tmp_path, monkeypatch, source):
        grid_g, grid_r = generic_line_grid(6), generic_line_grid(4, step=0.731)
        if source == "gathered":
            # Four key buckets force shared keys, so the kept pairs are a
            # gather, not a view of the whole sweep.
            real_hash = codebook._hash_reduced
            monkeypatch.setattr(
                codebook, "_hash_reduced", lambda nano: real_hash(nano) % np.uint64(4)
            )
            seen = spy_build_keys(monkeypatch)
        cb = build_near_field_codebook(grid_g, grid_r, DIMS)
        if source == "gathered":
            assert len(np.unique(seen[-1])) < cb.size
        if source == "loaded":
            save_codebook(cb, tmp_path / "first.bin")
            cb = load_codebook(tmp_path / "first.bin", DIMS)
            assert not cb.pairs.flags.writeable
        save_codebook(cb, tmp_path / "a.bin")
        save_codebook(load_codebook(tmp_path / "a.bin", DIMS), tmp_path / "b.bin")
        blob = (tmp_path / "a.bin").read_bytes()
        assert blob == (tmp_path / "b.bin").read_bytes()
        # The one CRC chained over the sections is the CRC of the whole payload.
        assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(blob[len(codebook._MAGIC) : -4])

    def test_keys_leave_the_pairs_unwritten(self, tmp_path):
        # Only the build keys its pairs in place: a loaded codebook's pairs are
        # a read-only view of the file, and `.keys` must key into a new array.
        cfg = parse_config(resolve_config_path("desk"))
        grids, dims = cfg.codebook_grids(), cfg.scene.dims
        fresh = cached_near_field_codebook(*grids, dims, tmp_path)[0]
        loaded, _, hit = cached_near_field_codebook(*grids, dims, tmp_path)
        assert hit and not loaded.pairs.flags.writeable
        for cb in (loaded, fresh):
            before = cb.pairs.tobytes()
            assert np.array_equal(cb.keys, build_near_field_codebook(*grids, dims).keys)
            assert cb.pairs.tobytes() == before

    def test_dims_mismatch_rejected(self, built, tmp_path):
        path = tmp_path / "cb.bin"
        save_codebook(built, path)
        with pytest.raises(CodebookFileError):
            load_codebook(path, ArrayDims(8, 4, 0.5))
        with pytest.raises(CodebookFileError):
            load_codebook(path, ArrayDims(8, 2, 0.25))

    def test_tampered_payload_rejected(self, built, tmp_path):
        path = tmp_path / "cb.bin"
        save_codebook(built, path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x5A
        path.write_bytes(bytes(blob))
        with pytest.raises(CodebookFileError):
            load_codebook(path, DIMS)

    @pytest.mark.parametrize("column,past_end", [(0, False), (1, True)], ids=["negative", "past-grid"])
    def test_pair_index_outside_its_grid_rejected(self, built, tmp_path, column, past_end):
        index = built.grids[column].size if past_end else -1
        path = self.with_last_pair_index(built, tmp_path / "cb.bin", column, index)
        with pytest.raises(CodebookFileError, match="pair indices"):
            load_codebook(path, DIMS)

    @pytest.mark.parametrize("column", [0, 1], ids=["g-side", "r-side"])
    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_pair_index_past_its_own_smaller_grid_rejected(self, tmp_path, column, edge):
        # The index is past its own grid but inside the other, larger one, so
        # only a check of each column against its own grid rejects it.
        small, large = generic_line_grid(4, step=0.731), generic_line_grid(6)
        grids = (small, large) if column == 0 else (large, small)
        built = build_near_field_codebook(*grids, DIMS)
        index = small.size if edge == "first" else large.size - 1
        path = self.with_last_pair_index(built, tmp_path / "cb.bin", column, index)
        with pytest.raises(CodebookFileError, match="pair indices"):
            load_codebook(path, DIMS)
        # The same index in the other column lies within its grid.
        path = self.with_last_pair_index(built, tmp_path / "ok.bin", 1 - column, index)
        assert load_codebook(path, DIMS).pairs[-1, 1 - column] == index

    def test_grid_past_the_int32_index_range_rejected(self, built, tmp_path):
        path = tmp_path / "cb.bin"
        save_codebook(built, path)
        blob = bytearray(path.read_bytes())
        header = list(codebook._HEADER.unpack_from(blob, len(codebook._MAGIC)))
        header[5:12] = [0.0, 1290.0, 1.0, 1291.0, 0.0, 1290.0, 1.0]  # 1291**3 g-side points
        codebook._HEADER.pack_into(blob, len(codebook._MAGIC), *header)
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[len(codebook._MAGIC) : -4]))
        path.write_bytes(bytes(blob))
        with pytest.raises(CodebookFileError, match=f"more than {MAX_GRID_POINTS}"):
            load_codebook(path, DIMS)

    @staticmethod
    def with_last_pair_index(built, path, column, index):
        """Save `built` with its last pair's `column` set to `index`, under a valid checksum."""
        save_codebook(built, path)
        blob = bytearray(path.read_bytes())
        start = len(codebook._MAGIC) + codebook._HEADER.size
        pairs = np.frombuffer(blob, "<i4", count=2 * built.size, offset=start).reshape(-1, 2).copy()
        pairs[-1, column] = index
        blob[start : start + pairs.nbytes] = pairs.tobytes()
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[len(codebook._MAGIC) : -4]))
        path.write_bytes(bytes(blob))
        return path

    def test_truncated_file_rejected(self, built, tmp_path):
        path = tmp_path / "cb.bin"
        save_codebook(built, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CodebookFileError):
            load_codebook(path, DIMS)

    def test_bad_magic_rejected(self, built, tmp_path):
        path = tmp_path / "cb.bin"
        save_codebook(built, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CodebookFileError):
            load_codebook(path, DIMS)

    def test_format_3_file_with_keys_rejected(self, built, tmp_path):
        # Format 3 followed the pairs with one uint64 key per pair.
        path = tmp_path / "cb.bin"
        save_codebook(built, path)
        blob = path.read_bytes()
        header = list(codebook._HEADER.unpack_from(blob, len(codebook._MAGIC)))
        header[0] = 3
        pairs = blob[len(codebook._MAGIC) + codebook._HEADER.size : -4]
        payload = codebook._HEADER.pack(*header) + pairs + np.zeros(built.size, "<u8").tobytes()
        path.write_bytes(codebook._MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CodebookFileError, match="format version 3"):
            load_codebook(path, DIMS)

    # A save writes the magic, the header, the pairs and the CRC.
    @pytest.mark.parametrize("failing_write", [1, 2, 3, 4], ids=["magic", "header", "pairs", "crc"])
    def test_failed_write_leaves_no_file(self, built, tmp_path, monkeypatch, failing_write):
        class FailingFile:
            def __init__(self, path, mode):
                self.fh = open(path, mode)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == failing_write:  # part of this section, then a failure
                    self.fh.write(data[: len(data) // 2])
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(codebook, "open", FailingFile, raising=False)
        path = tmp_path / "cb.bin"
        with pytest.raises(OSError, match="disk full"):
            save_codebook(built, path)
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_existing_file(self, built, tmp_path):
        path = tmp_path / "cb.bin"
        path.write_bytes(b"stale")
        save_codebook(built, path)
        assert load_codebook(path, DIMS).size == built.size
        assert list(tmp_path.iterdir()) == [path]

    def test_threads_saving_one_path_do_not_collide(self, built, tmp_path):
        path = tmp_path / "cb.bin"
        for _ in range(100):  # threads sharing a temporary name collide in only some trials
            barrier = threading.Barrier(2)

            def save(_):
                barrier.wait(timeout=60)
                save_codebook(built, path)

            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(save, range(2), timeout=60))
            assert load_codebook(path, DIMS).size == built.size
            assert list(tmp_path.iterdir()) == [path]

    def test_cached_build_misses_then_hits(self, tmp_path, capsys):
        grid_g, grid_r = generic_line_grid(6), generic_line_grid(4, step=0.731)
        cache = tmp_path / "made" / "cache"
        built, path, hit = cached_near_field_codebook(grid_g, grid_r, DIMS, cache)
        assert not hit
        assert path == cache / cache_file_name(grid_g, grid_r, DIMS)
        assert list(cache.iterdir()) == [path]
        # the name hashes the header the file carries, with L zeroed, then the rounding resolution
        header = list(codebook._HEADER.unpack_from(path.read_bytes(), len(codebook._MAGIC)))
        header[4] = 0
        ident = codebook._HEADER.pack(*header) + struct.pack("<Q", codebook._NANO)
        assert path.name == f"xlrc_{hashlib.sha256(ident).hexdigest()[:16]}.bin"
        loaded, again, hit = cached_near_field_codebook(grid_g, grid_r, DIMS, cache)
        assert hit and again == path
        assert loaded.grids == built.grids == (grid_g, grid_r)
        assert np.array_equal(loaded.pairs, built.pairs)
        assert np.array_equal(source_points(loaded), source_points(built))
        assert list(cache.iterdir()) == [path]
        assert capsys.readouterr().err == ""

    def test_cached_build_without_a_directory_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        grid = generic_line_grid(6)
        cb, path, hit = cached_near_field_codebook(grid, grid, DIMS)
        assert (path, hit) == (None, False)
        fresh = build_near_field_codebook(grid, grid, DIMS)
        assert np.array_equal(cb.pairs, fresh.pairs)
        assert np.array_equal(source_points(cb), source_points(fresh))
        assert list(tmp_path.iterdir()) == []

    def test_far_field_codebook_not_persistable(self, tmp_path):
        with pytest.raises(TypeError):
            save_codebook(FarFieldCodebook(DIMS), tmp_path / "ff.bin")
