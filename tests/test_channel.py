import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlris import channel
from xlris.channel import SceneConfig, sample_near_field_channel
from xlris.codebook import FarFieldCodebook
from xlris.geometry import (
    ArrayDims,
    Box3,
    FieldError,
    element_distances,
)
from xlris.training import select_codeword

from support import box_contains, complex_normal, far_field_steering

DIMS = ArrayDims(8, 2, 0.5)
BOX = Box3((-40, 40), (4, 40), (-16, 16))
SCENE = SceneConfig(DIMS, BOX, BOX)


class TestSampling:
    def test_same_seed_same_realization(self):
        a = sample_near_field_channel(SCENE, np.random.default_rng(123))
        b = sample_near_field_channel(SCENE, np.random.default_rng(123))
        assert np.array_equal(a.pair, b.pair)
        assert a.alpha == b.alpha
        assert np.array_equal(a.h_bar, b.h_bar)

    def test_degenerate_box_hits_exact_points(self):
        box_g = Box3((3.0, 3.0), (7.0, 7.0), (-2.0, -2.0))
        box_r = Box3((-1.0, -1.0), (5.0, 5.0), (0.0, 0.0))
        scene = SceneConfig(DIMS, box_g, box_r)
        ch = sample_near_field_channel(scene, np.random.default_rng(0))
        assert np.array_equal(ch.pair, [[3.0, 7.0, -2.0], [-1.0, 5.0, 0.0]])

    def test_points_stay_in_boxes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ch = sample_near_field_channel(SCENE, rng)
            assert box_contains(BOX, ch.pair[0]) and box_contains(BOX, ch.pair[1])

    def test_gain_second_moment_monte_carlo(self):
        # |alpha|^2 = |a_G|^2 |a_r|^2, product of two unit-mean exponentials
        scene = SceneConfig(ArrayDims(1, 1, 0.5), BOX, BOX)
        rng = np.random.default_rng(2024)
        draws = 100_000
        acc = 0.0
        for _ in range(draws):
            acc += abs(sample_near_field_channel(scene, rng).alpha) ** 2
        assert acc / draws == pytest.approx(1.0, abs=0.05)

    def test_h_bar_is_gain_times_steering(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ch = sample_near_field_channel(SCENE, rng)
            err = np.abs(ch.h_bar - ch.alpha * ch.steering_part()).max()
            assert err <= 1e-12 * abs(ch.alpha) * DIMS.n

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(DIMS, Box3((-1, 1), (0.0, 5), (-1, 1)), BOX)
        with pytest.raises(ValueError):
            SceneConfig(DIMS, BOX, Box3((-1, 1), (-3.0, 5), (-1, 1)))

    @pytest.mark.parametrize("side", ["g", "r"])
    def test_element_distances_must_be_finite(self, side):
        # every coordinate is finite, but its square overflows a float
        far = Box3((-1, 1), (1.0, 1e200), (-1, 1))
        boxes = {"box_g": BOX, "box_r": BOX, f"box_{side}": far}
        with pytest.raises(FieldError, match="overflow") as exc:
            SceneConfig(DIMS, **boxes)
        assert exc.value.field == f"box_{side}"

    @settings(max_examples=300, deadline=None)
    @given(
        n1=st.integers(1, 64),
        n2=st.integers(1, 8),
        d=st.floats(-3, 156).map(lambda e: 10.0**e),
        magnitudes=st.lists(st.floats(-3, 156).map(lambda e: 10.0**e), min_size=5, max_size=5),
        signs=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    # a small box beside an array whose corner element alone is too far, on x, then on z
    @example(n1=64, n2=1, d=1e153, magnitudes=[1.0] * 5, signs=[False, True, False, True])
    @example(n1=1, n2=8, d=1e154, magnitudes=[1.0] * 5, signs=[False, True, False, True])
    def test_accepted_iff_every_corner_distance_is_finite(self, n1, n2, d, magnitudes, signs):
        # around 1.3e154 a squared coordinate overflows, so both outcomes occur
        x0, x1, y1, z0, z1 = magnitudes
        x = sorted(v if s else -v for v, s in zip((x0, x1), signs[:2]))
        z = sorted(v if s else -v for v, s in zip((z0, z1), signs[2:]))
        box = Box3(tuple(x), (1e-3, max(y1, 1e-3)), tuple(z))
        dims = ArrayDims(n1, n2, d)
        corners = [[cx, cy, cz] for cx in x for cy in box.y for cz in z]
        with np.errstate(over="ignore", invalid="ignore"):
            finite = bool(np.isfinite(element_distances(corners, dims)).all())
        try:
            SceneConfig(dims, box, BOX)
        except FieldError as exc:
            assert exc.field == "box_g" and not finite
        else:
            assert finite


class TestComplexNormal:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("size", [0, 1, 7, 101_475])
    def test_array_draw_is_bitwise_the_complex_formula(self, seed, size):
        rng = np.random.default_rng(seed)
        re, im = rng.standard_normal(size), rng.standard_normal(size)
        expected = (re + 1j * im) / np.sqrt(2.0)
        got = complex_normal(np.random.default_rng(seed), size)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_scalar_draw_is_the_complex_formula(self, seed):
        rng = np.random.default_rng(seed)
        re, im = rng.standard_normal(), rng.standard_normal()
        assert channel.complex_normal(np.random.default_rng(seed)) == (re + 1j * im) / np.sqrt(2.0)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("size", [0, 1, 7, 101_475])
    def test_one_double_draw_is_the_two_part_stream(self, seed, size):
        # select_codeword draws its real parts and then its imaginary parts at once
        two, one = np.random.default_rng(seed), np.random.default_rng(seed)
        re, im = two.standard_normal(size), two.standard_normal(size)
        both = one.standard_normal(2 * size)
        assert both.tobytes() == np.concatenate((re, im)).tobytes()
        assert one.bit_generator.state == two.bit_generator.state


class TestReceivedSignal:
    """The per-slot observation r = theta^T h_bar + n, as select_codeword runs it."""

    def test_coherent_sum_reaches_n(self):
        rng = np.random.default_rng(5)
        ch = sample_near_field_channel(SCENE, rng)
        theta = np.conj(ch.steering_part())
        [(_, amp)] = select_codeword(np.array([theta @ ch.h_bar]), [0.0], rng)
        assert amp == pytest.approx(DIMS.n * abs(ch.alpha), rel=1e-12)

    def test_orthogonal_toy_cancels(self):
        dims = ArrayDims(2, 1, 0.5)
        h_bar = far_field_steering(0.5, 0.0, dims)  # [1, -1]
        response = np.array([1.0, 1.0]) @ h_bar
        [(_, amp)] = select_codeword(np.array([response]), [0.0], np.random.default_rng(0))
        assert amp < 1e-12

    def test_pure_noise_variance_monte_carlo(self):
        rng = np.random.default_rng(99)
        draws = 100_000
        amps = np.array([select_codeword(np.zeros(1), [1.0], rng)[0][1] for _ in range(draws)])
        assert np.mean(amps**2) == pytest.approx(1.0, abs=0.05)

    def test_no_noise_draw_when_sigma2_zero(self):
        rng = np.random.default_rng(1)
        ch = sample_near_field_channel(SCENE, np.random.default_rng(8))
        before = rng.bit_generator.state["state"]["state"]
        select_codeword(np.array([np.ones(DIMS.n) @ ch.h_bar]), [0.0, 0.0], rng)
        assert rng.bit_generator.state["state"]["state"] == before

    def test_length_mismatch_rejected(self):
        # the responses that select_codeword observes check the channel length
        with pytest.raises(ValueError):
            FarFieldCodebook(DIMS).responses(np.ones(DIMS.n + 1))

    def test_noiseless_amplitude_bound(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            ch = sample_near_field_channel(SCENE, rng)
            thetas = np.exp(2j * np.pi * rng.uniform(0, 1, (8, DIMS.n)))
            [(_, amp)] = select_codeword(thetas @ ch.h_bar, [0.0], rng)
            assert amp <= DIMS.n * abs(ch.alpha) * (1 + 1e-12)

    def test_negative_noise_power_rejected(self):
        for bad in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="noise power"):
                select_codeword(np.ones(3), [0.5, bad], np.random.default_rng(0))
