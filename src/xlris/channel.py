"""Cascaded channel synthesis.

The base station side is collapsed into a unit effective transmitted
symbol, so a channel realization is just the length-N cascaded vector seen
by the reflecting array, scaled by the product of the two hop gains, and
the SNR is 1/sigma2. Each realization carries the scatter-point pair that
generated it; its hop gains are scalar `complex_normal` draws. The per-slot
training observation r = theta^T h_bar + n is `training.select_codeword`,
which draws its unit noise itself, as one 2n-long normal draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayDims, Box3, FieldError, cascaded_steering


@dataclass(frozen=True)
class SceneConfig:
    """Array dims and the two scatter boxes.

    Each box lies in front of the array (y_min > 0) and near enough that
    every element's distance to every point of it is a finite float.
    """

    dims: ArrayDims
    box_g: Box3
    box_r: Box3

    def __post_init__(self) -> None:
        # The corner elements sit (n - 1)/2 spacings from the center on each axis.
        half_x, half_z = ((n - 1) / 2.0 * self.dims.d for n in (self.dims.n1, self.dims.n2))
        for side, box in (("g", self.box_g), ("r", self.box_r)):
            if not box.y[0] > 0:
                msg = f"scatter box ({side}-side) must have y_min > 0, got {box.y[0]}"
                raise FieldError(f"box_{side}.y", msg)
            # Per axis, the farthest element and box point are at opposite corners.
            dx = max(abs(box.x[0]), abs(box.x[1])) + half_x
            dz = max(abs(box.z[0]), abs(box.z[1])) + half_z
            if not math.isfinite(dx * dx + box.y[1] * box.y[1] + dz * dz):
                msg = f"element distances to the scatter box ({side}-side) overflow a float"
                raise FieldError(f"box_{side}", msg)


@dataclass(frozen=True)
class ChannelRealization:
    """Cascaded channel vector h_bar = alpha * cascaded_steering(*pair, dims); points are (3,)."""

    h_bar: np.ndarray
    alpha: complex
    dims: ArrayDims
    pair: tuple[np.ndarray, np.ndarray]

    def steering_part(self) -> np.ndarray:
        """Unit-modulus steering vector regenerated from the scatter pair."""
        return cascaded_steering(self.pair[0], self.pair[1], self.dims)


def complex_normal(rng: np.random.Generator) -> complex:
    """One circularly-symmetric complex Gaussian draw with unit variance."""
    return (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)


def _uniform_point(box: Box3, rng: np.random.Generator) -> np.ndarray:
    return np.array([rng.uniform(*box.x), rng.uniform(*box.y), rng.uniform(*box.z)])


def sample_near_field_channel(scene: SceneConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one near-field realization: uniform scatter pair, CN(0,1) hop gains.

    Draw order is fixed (p_g axes, p_r axes, then the two gains) so a seeded
    generator reproduces the realization bit for bit.
    """
    p_g = _uniform_point(scene.box_g, rng)
    p_r = _uniform_point(scene.box_r, rng)
    alpha = complex(complex_normal(rng) * complex_normal(rng))
    h_bar = alpha * cascaded_steering(p_g, p_r, scene.dims)
    return ChannelRealization(h_bar=h_bar, alpha=alpha, dims=scene.dims, pair=(p_g, p_r))
