"""Array geometry, steering vectors, and field-region helpers.

The reflecting surface is an N1 x N2 planar array in the x-z plane, centered
at the origin. All coordinates, element spacings, and distances are
wavelength-normalized; only :func:`rayleigh_distance` works in meters.

Steering vectors and codewords are flat complex vectors of length N = N1*N2
in n1-major order: entry ``(n1_idx - 1) * N2 + (n2_idx - 1)`` belongs to
element ``(n1_idx, n2_idx)``. Every function here keeps that convention.
A point, such as a scatter position, is a (3,) float64 array (x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


class FieldError(ValueError):
    """A dataclass field holds an out-of-range value; `field` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ArrayDims:
    """Planar array size: n1 elements along x, n2 along z, spacing d (in wavelengths)."""

    n1: int
    n2: int
    d: float

    def __post_init__(self) -> None:
        for name, count in (("n1", self.n1), ("n2", self.n2)):
            if count < 1:
                raise FieldError(name, f"element count must be >= 1, got {name}={count}")
        if not self.d > 0:
            raise FieldError("d", f"element spacing must be positive, got d={self.d}")
        # the corner elements sit (n - 1)/2 spacings from the center on each axis
        try:
            extent = (max(self.n1, self.n2) - 1) / 2.0 * self.d
        except OverflowError:  # a count too large for a float
            extent = np.inf
        if not extent < np.inf:
            raise FieldError(
                "d", f"element coordinates overflow a float: n1={self.n1}, n2={self.n2}, d={self.d}"
            )

    @property
    def n(self) -> int:
        return self.n1 * self.n2

    def x_coords(self) -> np.ndarray:
        """x positions of the n1 element columns, wavelength units."""
        return (np.arange(1, self.n1 + 1) - (self.n1 + 1) / 2.0) * self.d

    def z_coords(self) -> np.ndarray:
        """z positions of the n2 element rows, wavelength units."""
        return (np.arange(1, self.n2 + 1) - (self.n2 + 1) / 2.0) * self.d


@dataclass(frozen=True)
class Box3:
    """Axis-aligned box given as closed intervals per axis, wavelength units."""

    x: tuple[float, float]
    y: tuple[float, float]
    z: tuple[float, float]

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("x", self.x), ("y", self.y), ("z", self.z)):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise FieldError(name, f"box {name}-interval must be finite, got {(lo, hi)}")
            if lo > hi:
                raise FieldError(name, f"box {name}-interval has min > max: {(lo, hi)}")

    def intervals(self) -> tuple[tuple[float, float], ...]:
        return (self.x, self.y, self.z)

    def clip(self, other: "Box3") -> "Box3":
        """Intersection with `other`; the new box raises `FieldError` if an axis is empty."""
        axes = [
            (max(lo, olo), min(hi, ohi))
            for (lo, hi), (olo, ohi) in zip(self.intervals(), other.intervals())
        ]
        return Box3(*axes)


def element_distances(points, dims: ArrayDims, elements=None) -> np.ndarray:
    """Distances from one point (3,) or a batch (S, 3) to every array element.

    Returns shape (N,) for a single point or (S, N) for a batch, n1-major.
    With `elements`, a 1-D array of n1-major element indices in [0, N),
    only those columns are computed, in that order: shape (K,) or (S, K).
    This is the single float pipeline all steering/codeword phases flow
    through, so batch rows and single-point results are bitwise identical,
    and so are the selected columns and the same columns of the full table.
    """
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[np.newaxis, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected shape (3,) or (S, 3), got {pts.shape}")
    # (n1, 1) against (n2,) for the whole array, or (K,) against (K,) for
    # selected elements; either way each distance is one sum of three squares.
    xe, ze, width = dims.x_coords()[:, np.newaxis], dims.z_coords(), dims.n
    if elements is not None:
        n1_idx, n2_idx = np.divmod(np.asarray(elements, dtype=np.int64), dims.n2)
        xe, ze, width = xe[n1_idx, 0], ze[n2_idx], len(n1_idx)
    x, y, z = pts.T.reshape(3, len(pts), *(1,) * xe.ndim)
    dx, dz = x - xe, z - ze
    out = np.sqrt(dx * dx + y**2 + dz * dz).reshape(len(pts), width)
    return out[0] if single else out


def phase_vector(cycles) -> np.ndarray:
    """exp(+j*2*pi*cycles), elementwise: the conjugated (reflecting) phases.

    `cycles` is reduced modulo 1 before the trigonometric evaluation so that
    phases stay accurate for distances of thousands of wavelengths.
    """
    frac = np.mod(np.asarray(cycles, dtype=np.float64), 1.0)
    return np.exp(TWO_PI * 1j * frac)


def cascaded_distances(p_g, p_r, dims: ArrayDims) -> np.ndarray:
    """Per-element sum of distances to the two (3,) scatter points, shape (N,).

    This is the effective distance profile that defines cascaded steering
    vectors and near-field codewords.
    """
    return element_distances(p_g, dims) + element_distances(p_r, dims)


def cascaded_steering(p_g, p_r, dims: ArrayDims) -> np.ndarray:
    """Steering vector of the two-hop reflected path through (3,) scatters p_g, p_r.

    Equals the element-wise product of the two single-point spherical-wave
    vectors. Each distance is reduced modulo 1 before the (commutative)
    addition, which makes the p_g/p_r swap symmetry exact in floating point.
    """
    fg = np.mod(element_distances(p_g, dims), 1.0)
    fr = np.mod(element_distances(p_r, dims), 1.0)
    return np.exp(-TWO_PI * 1j * (fg + fr))


def rayleigh_distance(aperture_m: float, wavelength_m: float) -> float:
    """Far-field boundary 2*D^2/lambda, in meters (both inputs in meters)."""
    if not 0 < aperture_m < np.inf:
        raise ValueError(f"aperture must be positive and finite, got {aperture_m}")
    if not 0 < wavelength_m < np.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength_m}")
    z = 2.0 * aperture_m * aperture_m / wavelength_m
    if not z < np.inf:
        raise ValueError(
            f"Rayleigh distance overflows: aperture {aperture_m}, wavelength {wavelength_m}"
        )
    return z
