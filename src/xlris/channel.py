"""Cascaded channel synthesis.

The base station side is collapsed into an effective transmitted symbol, so
a channel realization is just the length-N cascaded vector seen by the
reflecting array, scaled by the product of the two hop gains. Near-field
realizations carry the scatter-point pair that generated them; far-field
ones carry the summed spatial angles. The per-slot training observation
r = theta^T h_bar s_bar + n is `training.select_codeword`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayDims, Box3, FieldError, Point3, cascaded_steering, far_field_steering

NEAR_FIELD = "near-field"
FAR_FIELD = "far-field"


@dataclass(frozen=True)
class SceneConfig:
    """Array dims, the two scatter boxes, effective symbol, and noise power."""

    dims: ArrayDims
    box_g: Box3
    box_r: Box3
    s_bar: complex = 1.0 + 0.0j
    sigma2: float = 0.0

    def __post_init__(self) -> None:
        for side, box in (("g", self.box_g), ("r", self.box_r)):
            if not box.y[0] > 0:
                msg = f"scatter box ({side}-side) must have y_min > 0, got {box.y[0]}"
                raise FieldError(f"box_{side}.y", msg)
        if self.sigma2 < 0:
            raise FieldError("sigma2", f"noise power must be nonnegative, got {self.sigma2}")


@dataclass(frozen=True)
class ChannelRealization:
    """Cascaded channel vector h_bar = alpha * steering(geometry)."""

    h_bar: np.ndarray
    alpha: complex
    dims: ArrayDims
    model_tag: str
    pair: tuple[Point3, Point3] | None = None
    angles: tuple[float, float] | None = None

    def steering_part(self) -> np.ndarray:
        """Unit-modulus steering vector regenerated from the stored geometry."""
        if self.model_tag == NEAR_FIELD:
            return cascaded_steering(self.pair[0], self.pair[1], self.dims)
        return far_field_steering(self.angles[0], self.angles[1], self.dims)


def complex_normal(rng: np.random.Generator, size=None) -> np.ndarray | complex:
    """Circularly-symmetric complex Gaussian draw(s) with unit variance."""
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) / np.sqrt(2.0)


def _uniform_point(box: Box3, rng: np.random.Generator) -> Point3:
    return Point3(
        rng.uniform(*box.x),
        rng.uniform(*box.y),
        rng.uniform(*box.z),
    )


def sample_near_field_channel(scene: SceneConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one near-field realization: uniform scatter pair, CN(0,1) hop gains.

    Draw order is fixed (p_g axes, p_r axes, then the two gains) so a seeded
    generator reproduces the realization bit for bit.
    """
    p_g = _uniform_point(scene.box_g, rng)
    p_r = _uniform_point(scene.box_r, rng)
    alpha = complex(complex_normal(rng) * complex_normal(rng))
    h_bar = alpha * cascaded_steering(p_g, p_r, scene.dims)
    return ChannelRealization(
        h_bar=h_bar,
        alpha=alpha,
        dims=scene.dims,
        model_tag=NEAR_FIELD,
        pair=(p_g, p_r),
    )
