"""Array geometry, steering vectors, and field-region helpers.

The reflecting surface is an N1 x N2 planar array in the x-z plane, centered
at the origin. All coordinates, element spacings, and distances are
wavelength-normalized; only :func:`rayleigh_distance` works in meters.

Steering vectors and codewords are flat complex vectors of length N = N1*N2
in n1-major order: entry ``(n1_idx - 1) * N2 + (n2_idx - 1)`` belongs to
element ``(n1_idx, n2_idx)``. Every function here keeps that convention.
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
class Point3:
    """A wavelength-normalized coordinate, typically a scatter position."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x) and np.isfinite(self.y) and np.isfinite(self.z)):
            raise ValueError(f"coordinates must be finite, got {(self.x, self.y, self.z)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Point3":
        return Point3(float(a[0]), float(a[1]), float(a[2]))


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
        """Intersection with `other`; raises if any axis ends up empty."""
        axes = []
        for (lo, hi), (olo, ohi) in zip(self.intervals(), other.intervals()):
            lo2, hi2 = max(lo, olo), min(hi, ohi)
            if lo2 > hi2:
                raise ValueError("box clip produced an empty interval")
            axes.append((lo2, hi2))
        return Box3(*axes)


def element_distances(points, dims: ArrayDims) -> np.ndarray:
    """Distances from one point (3,) or a batch (S, 3) to every array element.

    Returns shape (N,) for a single point or (S, N) for a batch, n1-major.
    This is the single float pipeline all steering/codeword phases flow
    through, so batch rows and single-point results are bitwise identical.
    """
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[np.newaxis, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected shape (3,) or (S, 3), got {pts.shape}")
    xe = dims.x_coords()
    ze = dims.z_coords()
    dx = pts[:, 0, np.newaxis, np.newaxis] - xe[np.newaxis, :, np.newaxis]
    dz = pts[:, 2, np.newaxis, np.newaxis] - ze[np.newaxis, np.newaxis, :]
    d2 = dx * dx + (pts[:, 1, np.newaxis, np.newaxis]) ** 2 + dz * dz
    out = np.sqrt(d2).reshape(pts.shape[0], dims.n)
    return out[0] if single else out


def phase_vector(cycles, conjugate: bool = False) -> np.ndarray:
    """exp(-j*2*pi*cycles), elementwise; exp(+j*2*pi*cycles) when conjugate.

    `cycles` is reduced modulo 1 before the trigonometric evaluation so that
    phases stay accurate for distances of thousands of wavelengths.
    """
    frac = np.mod(np.asarray(cycles, dtype=np.float64), 1.0)
    sign = 1.0 if conjugate else -1.0
    return np.exp(sign * TWO_PI * 1j * frac)


def far_field_steering(phi: float, psi: float, dims: ArrayDims) -> np.ndarray:
    """Planar-wave steering vector for spatial angles (phi, psi).

    Entry for element (n1_idx, n2_idx) is
    exp(-j*2*pi*(phi*(n1_idx-1) + psi*(n2_idx-1))); the Kronecker structure
    puts the n1 factor first, matching the global n1-major layout.
    """
    a1 = phase_vector(phi * np.arange(dims.n1))
    a2 = phase_vector(psi * np.arange(dims.n2))
    return np.kron(a1, a2)


def cascaded_distances(p_g: Point3, p_r: Point3, dims: ArrayDims) -> np.ndarray:
    """Per-element sum of distances to the two scatter points, shape (N,).

    This is the effective distance profile that defines cascaded steering
    vectors and near-field codewords.
    """
    return element_distances(p_g.as_array(), dims) + element_distances(p_r.as_array(), dims)


def cascaded_steering(p_g: Point3, p_r: Point3, dims: ArrayDims) -> np.ndarray:
    """Steering vector of the two-hop reflected path through scatters p_g, p_r.

    Equals the element-wise product of the two single-point spherical-wave
    vectors. Each distance is reduced modulo 1 before the (commutative)
    addition, which makes the p_g/p_r swap symmetry exact in floating point.
    """
    fg = np.mod(element_distances(p_g.as_array(), dims), 1.0)
    fr = np.mod(element_distances(p_r.as_array(), dims), 1.0)
    return np.exp(-TWO_PI * 1j * (fg + fr))


def rayleigh_distance(aperture_m: float, wavelength_m: float) -> float:
    """Far-field boundary 2*D^2/lambda, in meters (both inputs in meters)."""
    if not aperture_m > 0:
        raise ValueError(f"aperture must be positive, got {aperture_m}")
    if not wavelength_m > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_m}")
    return 2.0 * aperture_m * aperture_m / wavelength_m
