import numpy as np
import pytest

from xlris.geometry import (
    ArrayDims,
    Box3,
    Point3,
    cascaded_distances,
    cascaded_steering,
    element_distances,
    far_field_steering,
    phase_vector,
    rayleigh_distance,
)

from support import element_position, near_field_steering, point_to_element_distance


def random_point(rng, y_min=0.5):
    return Point3(rng.uniform(-300, 300), rng.uniform(y_min, 150), rng.uniform(-100, 100))


class TestElementPosition:
    def test_center_of_1x1(self):
        assert element_position(1, 1, ArrayDims(1, 1, 0.5)) == Point3(0.0, 0.0, 0.0)

    def test_3x1_first_element(self):
        assert element_position(1, 1, ArrayDims(3, 1, 0.5)) == Point3(-0.5, 0.0, 0.0)

    def test_2x2_element(self):
        assert element_position(2, 1, ArrayDims(2, 2, 0.5)) == Point3(0.25, 0.0, -0.25)

    @pytest.mark.parametrize("n1,n2", [(0, 1), (3, 1), (1, 0), (1, 5)])
    def test_out_of_range_index(self, n1, n2):
        with pytest.raises(ValueError):
            element_position(n1, n2, ArrayDims(2, 4, 0.5))

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            ArrayDims(0, 4, 0.5)
        with pytest.raises(ValueError):
            ArrayDims(4, 4, 0.0)


class TestDistances:
    def test_3_4_5_triangle(self):
        assert point_to_element_distance(Point3(3, 4, 0), 1, 1, ArrayDims(1, 1, 0.5)) == 5.0

    def test_mirror_symmetry(self):
        dims = ArrayDims(3, 1, 0.5)
        p = Point3(0.0, 17.3, 0.0)
        d1 = point_to_element_distance(p, 1, 1, dims)
        d3 = point_to_element_distance(p, 3, 1, dims)
        assert d1 == d3

    def test_against_coordinate_level_recomputation(self):
        # independent oracle: substitute the element coordinate formula directly
        dims = ArrayDims(8, 4, 0.5)
        p = Point3(10.0, 50.0, -7.0)
        n1, n2 = 5, 2
        ex = (n1 - (8 + 1) / 2) * 0.5
        ez = (n2 - (4 + 1) / 2) * 0.5
        expected = np.sqrt((10.0 - ex) ** 2 + 50.0**2 + (-7.0 - ez) ** 2)
        assert point_to_element_distance(p, n1, n2, dims) == pytest.approx(expected, abs=1e-12)

    def test_batch_rows_match_single_calls_bitwise(self):
        # dedup keys rely on this: one float pipeline for batch and single
        dims = ArrayDims(6, 3, 0.5)
        rng = np.random.default_rng(3)
        pts = np.array([random_point(rng).as_array() for _ in range(10)])
        batch = element_distances(pts, dims)
        for i in range(10):
            assert np.array_equal(batch[i], element_distances(pts[i], dims))


class TestFarFieldSteering:
    def test_zero_angles_all_ones(self):
        assert np.allclose(far_field_steering(0, 0, ArrayDims(2, 2, 0.5)), np.ones(4), atol=0)

    def test_half_cycle_gives_minus_one(self):
        vec = far_field_steering(0.5, 0, ArrayDims(2, 1, 0.5))
        assert np.abs(vec - np.array([1, -1])).max() < 1e-12

    def test_against_double_loop_oracle(self):
        # independent oracle: explicit per-element evaluation of the phase law
        dims = ArrayDims(4, 4, 0.5)
        phi, psi = 0.25, 0.25
        oracle = np.empty(16, dtype=complex)
        for i in range(4):
            for j in range(4):
                oracle[i * 4 + j] = np.exp(-2j * np.pi * (phi * i + psi * j))
        assert np.abs(far_field_steering(phi, psi, dims) - oracle).max() < 1e-12

    def test_kronecker_property(self):
        dims = ArrayDims(5, 7, 0.5)
        rng = np.random.default_rng(11)
        for _ in range(20):
            phi, psi = rng.uniform(-1, 1, 2)
            vec = far_field_steering(phi, psi, dims).reshape(5, 7)
            outer = np.multiply.outer(vec[:, 0], vec[0, :])
            assert np.abs(vec - outer).max() < 1e-12


class TestNearFieldSteering:
    def test_integer_distance_is_one(self):
        vec = near_field_steering(Point3(0, 1, 0), ArrayDims(1, 1, 0.5))
        assert np.abs(vec - np.array([1.0 + 0j])).max() < 1e-12

    def test_symmetric_entries(self):
        vec = near_field_steering(Point3(0, 42.0, 0), ArrayDims(3, 1, 0.5))
        assert vec[0] == vec[2]

    def test_against_per_element_oracle(self):
        dims = ArrayDims(4, 4, 0.5)
        p = Point3(100.0, 60.0, -30.0)
        oracle = np.empty(16, dtype=complex)
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                dist = point_to_element_distance(p, n1, n2, dims)
                oracle[(n1 - 1) * 4 + (n2 - 1)] = np.exp(-2j * np.pi * (dist % 1.0))
        assert np.abs(near_field_steering(p, dims) - oracle).max() < 1e-12

    def test_unit_modulus(self):
        rng = np.random.default_rng(5)
        dims = ArrayDims(16, 4, 0.5)
        for _ in range(25):
            vec = near_field_steering(random_point(rng), dims)
            assert np.abs(np.abs(vec) - 1.0).max() < 1e-12

    def test_phase_periodicity_under_integer_distance_shift(self):
        # synthetic distance-offset oracle: +7 wavelengths on every element
        rng = np.random.default_rng(9)
        dists = element_distances(random_point(rng).as_array(), ArrayDims(8, 4, 0.5))
        assert np.abs(phase_vector(dists) - phase_vector(dists + 7.0)).max() < 1e-12


class TestCascadedSteering:
    def test_same_point_squares_the_single(self):
        dims = ArrayDims(6, 2, 0.5)
        p = Point3(12.0, 30.0, -4.0)
        single = near_field_steering(p, dims)
        assert np.abs(cascaded_steering(p, p, dims) - single * single).max() < 1e-12

    def test_swap_symmetry_bitwise(self):
        dims = ArrayDims(8, 2, 0.5)
        rng = np.random.default_rng(17)
        for _ in range(10):
            pg, pr = random_point(rng), random_point(rng)
            a = cascaded_steering(pg, pr, dims)
            b = cascaded_steering(pr, pg, dims)
            assert np.array_equal(a.view(np.float64), b.view(np.float64))

    def test_factorization_against_product_oracle(self):
        dims = ArrayDims(8, 2, 0.5)
        rng = np.random.default_rng(23)
        for _ in range(50):
            pg, pr = random_point(rng), random_point(rng)
            product = near_field_steering(pg, dims) * near_field_steering(pr, dims)
            assert np.abs(cascaded_steering(pg, pr, dims) - product).max() < 1e-12

    def test_distance_profile_is_the_sum(self):
        dims = ArrayDims(4, 4, 0.5)
        pg, pr = Point3(5, 9, 1), Point3(-3, 4, 2)
        expected = element_distances(pg.as_array(), dims) + element_distances(pr.as_array(), dims)
        assert np.array_equal(cascaded_distances(pg, pr, dims), expected)


class TestRayleighDistance:
    def test_small_aperture_two_meters(self):
        assert rayleigh_distance(0.1, 0.01) == pytest.approx(2.0, abs=1e-12)

    def test_large_aperture_two_hundred_meters(self):
        assert rayleigh_distance(1.0, 0.01) == pytest.approx(200.0, abs=1e-12)

    def test_direct_substitution(self):
        assert rayleigh_distance(1.0, 2.0) == 1.0

    @pytest.mark.parametrize("aperture,wavelength", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_nonpositive_inputs_rejected(self, aperture, wavelength):
        with pytest.raises(ValueError):
            rayleigh_distance(aperture, wavelength)


class TestBox3:
    def test_clip_intersects(self):
        box = Box3((-10, 10), (1, 5), (-3, 3))
        clipped = Box3((-20, 0), (0.5, 9), (0, 8)).clip(box)
        assert clipped == Box3((-10, 0), (1, 5), (0, 3))

    def test_clip_empty_raises(self):
        with pytest.raises(ValueError):
            Box3((5, 6), (1, 2), (0, 1)).clip(Box3((0, 1), (1, 2), (0, 1)))

    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError):
            Box3((1, 0), (0, 1), (0, 1))

    def test_point_validation(self):
        with pytest.raises(ValueError):
            Point3(np.nan, 0, 0)
