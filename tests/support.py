"""Geometry, channel, key and table helpers that only the tests use."""

from types import SimpleNamespace

import numpy as np

from xlris.channel import ChannelRealization
from xlris.codebook import _hash_reduced, codeword_vector, reduced_profile
from xlris.geometry import (
    ArrayDims,
    Box3,
    Point3,
    cascaded_steering,
    element_distances,
    far_field_steering,
    phase_vector,
)


def element_position(n1_idx: int, n2_idx: int, dims: ArrayDims) -> Point3:
    """Position of element (n1_idx, n2_idx), 1-based indices."""
    if not 1 <= n1_idx <= dims.n1:
        raise ValueError(f"n1_idx out of range [1, {dims.n1}]: {n1_idx}")
    if not 1 <= n2_idx <= dims.n2:
        raise ValueError(f"n2_idx out of range [1, {dims.n2}]: {n2_idx}")
    return Point3(
        (n1_idx - (dims.n1 + 1) / 2.0) * dims.d,
        0.0,
        (n2_idx - (dims.n2 + 1) / 2.0) * dims.d,
    )


def point_to_element_distance(p: Point3, n1_idx: int, n2_idx: int, dims: ArrayDims) -> float:
    """Euclidean distance from p to element (n1_idx, n2_idx), wavelengths."""
    element_position(n1_idx, n2_idx, dims)  # index validation
    flat = (n1_idx - 1) * dims.n2 + (n2_idx - 1)
    return float(element_distances(p.as_array(), dims)[flat])


def near_field_steering(p: Point3, dims: ArrayDims) -> np.ndarray:
    """Spherical-wave steering vector for a source/scatter at p."""
    return phase_vector(element_distances(p.as_array(), dims))


def box_contains(box: Box3, p: Point3) -> bool:
    return (
        box.x[0] <= p.x <= box.x[1]
        and box.y[0] <= p.y <= box.y[1]
        and box.z[0] <= p.z <= box.z[1]
    )


def near_field_channel(
    p_g: Point3, p_r: Point3, dims: ArrayDims, alpha: complex = 1.0 + 0j
) -> ChannelRealization:
    """The realization a scatter pair (p_g, p_r) and hop gain alpha produce."""
    return ChannelRealization(
        h_bar=alpha * cascaded_steering(p_g, p_r, dims), alpha=alpha, dims=dims, pair=(p_g, p_r)
    )


def planar_channel(phi: float, psi: float, dims: ArrayDims) -> SimpleNamespace:
    """Stand-in channel with the hand-computable h_bar = far_field_steering(phi, psi).

    Carries what `achievable_rate` and `perfect_csi_beamforming` read: `h_bar`
    and `steering_part()`.
    """
    steering = far_field_steering(phi, psi, dims)
    return SimpleNamespace(h_bar=steering, steering_part=lambda: steering)


def codeword_key(profile) -> int:
    """The 64-bit dedup key a codebook stores for one distance profile."""
    return int(_hash_reduced(reduced_profile(profile)))


def find_row(table, scheme: str, sweep_value: float):
    """The row of a result table for one scheme at one sweep value."""
    for row in table.rows:
        if row.scheme == scheme and row.sweep_value == sweep_value:
            return row
    raise ValueError(f"no row for scheme={scheme!r} at sweep value {sweep_value}")


def summarize_ratio(table, scheme_a: str, scheme_b: str, sweep_value: float) -> float:
    """mean(scheme_a) / mean(scheme_b) at one sweep point."""
    return find_row(table, scheme_a, sweep_value).mean / find_row(table, scheme_b, sweep_value).mean


def vector(cb, l: int) -> np.ndarray:
    """Codeword l of a codebook as a complex vector."""
    return codeword_vector(cb.codeword(l), cb.dims)
