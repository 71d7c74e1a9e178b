import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlris import codebook
from xlris.codebook import (
    CodebookFileError,
    SampleGrid,
    axis_samples,
    build_near_field_codebook,
    far_field_codebook,
    load_codebook,
    reduced_profile,
    save_codebook,
)
from xlris.geometry import (
    ArrayDims,
    Box3,
    Point3,
    cascaded_distances,
    element_distances,
    far_field_steering,
)

from support import codeword_key, reference_responses, vector

DIMS = ArrayDims(8, 2, 0.5)


def generic_line_grid(s, step=1.137):
    # s points varying in all coordinates via a slanted, irrational-ish sweep
    return SampleGrid(Box3((0.83, 0.83 + step * (s - 1)), (3.41, 3.41), (-0.57, -0.57)), step)


def brute_force_distinct_beams(grid_g, grid_r, dims, tol=1e-6):
    """Independent dedup oracle: pairwise vector comparison after phase alignment."""
    pts_g, pts_r = grid_g.points(), grid_r.points()
    vectors = []
    for pg in pts_g:
        for pr in pts_r:
            profile = cascaded_distances(Point3.from_array(pg), Point3.from_array(pr), dims)
            vec = np.exp(2j * np.pi * (profile % 1.0))
            vectors.append(vec / vec[0])  # remove global phase
    kept = []
    for vec in vectors:
        if all(np.abs(vec - seen).max() > tol for seen in kept):
            kept.append(vec)
    return len(kept)


def full_product_reference(grid_g, grid_r, dims):
    """The build without the triangle: hash every ordered pair, keep first keys.

    Returns (pairs, keys, pre_dedup_pairs) for the sweep over the whole
    product, one pair at a time.
    """
    pts_g, pts_r = grid_g.points(), grid_r.points()
    dist_g, dist_r = element_distances(pts_g, dims), element_distances(pts_r, dims)
    keys = np.array(
        [codeword_key(dg + dr) for dg in dist_g for dr in dist_r], dtype=np.uint64
    )
    _, first = np.unique(keys, return_index=True)
    kept = np.sort(first)
    pairs = np.column_stack([kept // len(pts_r), kept % len(pts_r)])
    return pairs, keys[kept], len(pts_g) * len(pts_r)


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


class TestCanonicalKey:
    def test_constant_offset_shares_key(self):
        profile = np.array([0.25, 1.5, 3.75, 10.125])
        assert codeword_key(profile) == codeword_key(profile + 7.25)

    def test_integer_shifts_share_key(self):
        profile = np.array([0.25, 1.5, 3.75, 10.125])
        shifts = np.array([3.0, 1.0, 14.0, 2.0])
        assert codeword_key(profile) == codeword_key(profile + shifts)

    def test_millicycle_perturbation_distinct(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            profile = rng.uniform(0, 2000, 32)
            bumped = profile.copy()
            bumped[7] += 1e-3
            assert codeword_key(profile) != codeword_key(bumped)

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


class TestFarFieldCodebook:
    def test_two_element_angles(self):
        cb = far_field_codebook(ArrayDims(2, 1, 0.5))
        assert cb.size == 2
        assert np.allclose(cb.phis, [-0.5, 0.5])

    def test_full_scale_size(self):
        assert far_field_codebook(ArrayDims(128, 4, 0.5)).size == 512

    def test_columns_are_conjugated_steering_vectors(self):
        dims = ArrayDims(5, 3, 0.5)
        cb = far_field_codebook(dims)
        for l in range(cb.size):
            phi, psi = cb.angles(l)
            assert np.array_equal(vector(cb, l), np.conj(far_field_steering(phi, psi, dims)))

    def test_lattice_order_matches_column_index(self):
        cb = far_field_codebook(ArrayDims(3, 2, 0.5))
        assert cb.angles(0) == (cb.phis[0], cb.psis[0])
        assert cb.angles(1) == (cb.phis[0], cb.psis[1])
        assert cb.angles(2) == (cb.phis[1], cb.psis[0])

    def test_pairwise_distinct_on_odd_dims(self):
        # pairwise comparison oracle; odd counts avoid the aliased half-lattice
        cb = far_field_codebook(ArrayDims(3, 3, 0.5))
        vecs = [vector(cb, l) for l in range(cb.size)]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert np.abs(vecs[i] - vecs[j]).max() > 1e-6

    def test_unit_modulus(self):
        cb = far_field_codebook(ArrayDims(4, 4, 0.5))
        for l in range(cb.size):
            assert np.abs(np.abs(vector(cb, l)) - 1.0).max() < 1e-12

    def test_responses_match_naive_products(self):
        dims = ArrayDims(6, 2, 0.5)
        cb = far_field_codebook(dims)
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
        assert len(set(cb.keys.tolist())) == cb.size

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
        assert np.array_equal(a.keys, b.keys)

    def test_threaded_build_identical(self):
        grid = generic_line_grid(8)
        a = build_near_field_codebook(grid, grid, DIMS)
        b = build_near_field_codebook(grid, grid, DIMS, threads=4)
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.keys, b.keys)

    @settings(max_examples=40, deadline=None)
    @given(grid=small_grids())
    def test_equal_grids_match_full_product(self, grid):
        ref_pairs, ref_keys, ref_pre = full_product_reference(grid, grid, DIMS)
        for threads in (1, 2):
            cb = build_near_field_codebook(grid, grid, DIMS, threads=threads)
            assert np.array_equal(cb.pairs, ref_pairs)
            assert np.array_equal(cb.keys, ref_keys)
            assert cb.pre_dedup_pairs == ref_pre

    @settings(max_examples=20, deadline=None)
    @given(grid_g=small_grids(), grid_r=small_grids())
    def test_unequal_grids_match_full_product(self, grid_g, grid_r):
        ref_pairs, ref_keys, ref_pre = full_product_reference(grid_g, grid_r, DIMS)
        for threads in (1, 2):
            cb = build_near_field_codebook(grid_g, grid_r, DIMS, threads=threads)
            assert np.array_equal(cb.pairs, ref_pairs)
            assert np.array_equal(cb.keys, ref_keys)
            assert cb.pre_dedup_pairs == ref_pre

    @pytest.mark.parametrize("square", [True, False])
    def test_equal_grids_hash_only_the_upper_triangle(self, monkeypatch, square):
        grid_g = generic_line_grid(7)
        grid_r = grid_g if square else generic_line_grid(7, step=0.731)
        hashed = []
        real_hash = codebook._hash_reduced
        monkeypatch.setattr(
            codebook, "_hash_reduced", lambda nano: hashed.append(len(nano)) or real_hash(nano)
        )
        cb = build_near_field_codebook(grid_g, grid_r, DIMS)
        assert sum(hashed) == (7 * 8 // 2 if square else 7 * 7)
        assert cb.pre_dedup_pairs == 7 * 7

    @pytest.mark.parametrize("square", [True, False])
    def test_all_keys_colliding_keeps_every_distinct_beam(self, monkeypatch, square):
        grid_g = generic_line_grid(6)
        grid_r = grid_g if square else generic_line_grid(4, step=0.731)
        real = build_near_field_codebook(grid_g, grid_r, DIMS)
        monkeypatch.setattr(
            codebook, "_hash_reduced", lambda nano: np.zeros(nano.shape[:-1], dtype=np.uint64)
        )
        colliding = build_near_field_codebook(grid_g, grid_r, DIMS)
        assert np.array_equal(colliding.pairs, real.pairs)
        assert not colliding.keys.any()

    @pytest.mark.parametrize("x_r", [(0.0, 3.0), (1.0, 4.0)])
    def test_collision_groups_checked_in_small_batches(self, monkeypatch, x_r):
        # 64 key buckets and batches of about 3 rows: dozens of shared-key
        # groups, several per batch. The overlapping unequal grids also hold
        # true duplicates (swapped pairs), which must still be dropped.
        grid_g = SampleGrid(Box3((0.0, 3.0), (2.0, 3.0), (-1.0, 0.0)), 1.0)
        grid_r = SampleGrid(Box3(x_r, (2.0, 3.0), (-1.0, 0.0)), 1.0)
        real = build_near_field_codebook(grid_g, grid_r, DIMS, threads=2)
        real_hash = codebook._hash_reduced
        monkeypatch.setattr(codebook, "_hash_reduced", lambda nano: real_hash(nano) % np.uint64(64))
        monkeypatch.setattr(codebook, "_CHECK_ELEMENTS", 3 * DIMS.n)
        bucketed = build_near_field_codebook(grid_g, grid_r, DIMS, threads=2)
        assert np.array_equal(bucketed.pairs, real.pairs)
        assert np.array_equal(bucketed.keys, real.keys % np.uint64(64))

    def test_vector_is_conjugated_distance_profile(self):
        grid = generic_line_grid(4)
        cb = build_near_field_codebook(grid, grid, DIMS)
        for l in range(0, cb.size, 3):
            profile = cascaded_distances(*cb.source_pair(l), DIMS)
            oracle = np.exp(2j * np.pi * (profile % 1.0))
            assert np.abs(vector(cb, l) - oracle).max() < 1e-12
            assert np.abs(np.abs(vector(cb, l)) - 1.0).max() < 1e-12

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

    def counted(cycles, conjugate=False):
        calls.append(np.shape(cycles))
        time.sleep(delay_s)
        return real(cycles, conjugate)

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
    def test_round_trip(self, tmp_path_factory, grid_g, grid_r):
        built = build_near_field_codebook(grid_g, grid_r, DIMS)
        path = tmp_path_factory.mktemp("round_trip") / "cb.bin"
        save_codebook(built, path)
        loaded = load_codebook(path, DIMS)
        assert loaded.size == built.size
        assert np.array_equal(loaded.keys, built.keys)
        for l in range(built.size):
            assert loaded.source_pair(l) == built.source_pair(l)
            assert np.abs(vector(loaded, l) - vector(built, l)).max() <= 1e-12

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

    def test_failed_write_leaves_no_file(self, built, tmp_path, monkeypatch):
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
                if self.writes == 2:  # after the magic, part of the payload
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

    def test_far_field_codebook_not_persistable(self, tmp_path):
        with pytest.raises(TypeError):
            save_codebook(far_field_codebook(DIMS), tmp_path / "ff.bin")
