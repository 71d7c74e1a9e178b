"""Geometry and channel helpers that only the tests use."""

import numpy as np

from xlris.channel import FAR_FIELD, ChannelRealization
from xlris.codebook import codeword_vector
from xlris.geometry import (
    ArrayDims,
    Box3,
    Point3,
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


def make_far_field_channel(
    phi_sum: float, psi_sum: float, alpha: complex, dims: ArrayDims
) -> ChannelRealization:
    """Planar-wave realization at the summed spatial angles of the two hops."""
    return ChannelRealization(
        h_bar=alpha * far_field_steering(phi_sum, psi_sum, dims),
        alpha=alpha,
        dims=dims,
        model_tag=FAR_FIELD,
        angles=(phi_sum, psi_sum),
    )


def vector(cb, l: int) -> np.ndarray:
    """Codeword l of a codebook as a complex vector."""
    return codeword_vector(cb.codeword(l), cb.dims)
