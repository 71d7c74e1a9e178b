"""Geometry, channel, key and table helpers, and reference sweeps, that only the tests use."""

from types import SimpleNamespace

import numpy as np

from xlris.channel import ChannelRealization, complex_normal, sample_near_field_channel
from xlris.codebook import (
    NearFieldCodebook,
    SampleGrid,
    _hash_reduced,
    build_near_field_codebook,
    codeword_vector,
    far_field_codebook,
    reduced_profile,
)
from xlris.experiments import (
    SCHEME_EXHAUSTIVE,
    SCHEME_HIERARCHICAL,
    SCHEME_PERFECT_CSI,
    SWEEP_SNR_DB,
    ResultRow,
    ResultTable,
    achievable_rate,
    snr_db_to_sigma2,
)
from xlris.geometry import (
    ArrayDims,
    Box3,
    Point3,
    cascaded_steering,
    element_distances,
    far_field_steering,
    phase_vector,
)
from xlris.training import perfect_csi_beamforming, refine_ranges


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


def reference_responses(cb, h_bar: np.ndarray) -> np.ndarray:
    """theta_l^T h_bar for every codeword, the near-field factors rebuilt on every call."""
    if not isinstance(cb, NearFieldCodebook):
        return cb.responses(h_bar)
    u_g = phase_vector(element_distances(cb.g_points, cb.dims), conjugate=True)
    u_r = phase_vector(element_distances(cb.r_points, cb.dims), conjugate=True)
    return ((u_g * h_bar[np.newaxis, :]) @ u_r.T)[cb.pairs[:, 0], cb.pairs[:, 1]]


def reference_select(responses: np.ndarray, s_bar: complex, sigma2: float, rng) -> int:
    """argmax |responses * s_bar + n| with n a fresh CN(0, sigma2) draw; no draw at sigma2 = 0."""
    r = responses * complex(s_bar)
    if sigma2 > 0:
        r = r + complex_normal(rng, responses.size) * np.sqrt(sigma2)
    return int(np.argmax(np.abs(r)))


def reference_hierarchical(hcfg, dims, ch, s_bar: complex, sigma2: float, rng):
    """The winning codeword of a hierarchical search that builds every level afresh."""
    box_g, box_r = hcfg.box_g, hcfg.box_r
    for level, step in enumerate(hcfg.steps(), start=1):
        cb = build_near_field_codebook(SampleGrid(box_g, step), SampleGrid(box_r, step), dims)
        idx = reference_select(reference_responses(cb, ch.h_bar), s_bar, sigma2, rng)
        if level < hcfg.levels:
            ref_g, ref_r = refine_ranges(cb.source_pair(idx), step)
            box_g, box_r = ref_g.clip(hcfg.box_g), ref_r.clip(hcfg.box_r)
    return cb.codeword(idx)


def reference_sweep_snr(cfg) -> ResultTable:
    """`sweep_snr` as a plain loop over SNR points, with no work shared between them.

    Every SNR point restarts each scheme's noise generator, draws that
    scheme's noise afresh, recomputes every response and rebuilds every
    hierarchical level.
    """
    scene, dims = cfg.scene, cfg.scene.dims
    sigma2s = [snr_db_to_sigma2(s) for s in cfg.snr_grid_db]
    near_cb = build_near_field_codebook(*cfg.codebook_grids(), dims)
    rates = {scheme: np.zeros((len(sigma2s), cfg.trials)) for scheme in cfg.schemes}
    trial_seeds = np.random.SeedSequence(cfg.master_seed).spawn(cfg.trials)
    for t in range(cfg.trials):
        streams = trial_seeds[t].spawn(1 + len(cfg.schemes))
        ch = sample_near_field_channel(scene, np.random.default_rng(streams[0]))
        for si, scheme in enumerate(cfg.schemes):
            for k, sigma2 in enumerate(sigma2s):
                rng = np.random.default_rng(streams[1 + si])
                if scheme == SCHEME_PERFECT_CSI:
                    theta = perfect_csi_beamforming(ch)
                    if cfg.perfect_csi_literal_scaling:
                        theta = theta / np.sqrt(dims.n)
                elif scheme == SCHEME_HIERARCHICAL:
                    hcfg = cfg.hierarchical_config()
                    cw = reference_hierarchical(hcfg, dims, ch, scene.s_bar, sigma2, rng)
                    theta = codeword_vector(cw, dims)
                else:
                    cb = near_cb if scheme == SCHEME_EXHAUSTIVE else far_field_codebook(dims)
                    responses = reference_responses(cb, ch.h_bar)
                    idx = reference_select(responses, scene.s_bar, sigma2, rng)
                    theta = codeword_vector(cb.codeword(idx), dims)
                rates[scheme][k, t] = achievable_rate(theta, ch, scene.s_bar, sigma2)
    table = ResultTable()
    for scheme in cfg.schemes:
        for k, snr in enumerate(cfg.snr_grid_db):
            per_trial = rates[scheme][k]
            stderr = float(per_trial.std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
            mean = float(per_trial.mean())
            row = ResultRow(
                scheme, SWEEP_SNR_DB, float(snr), mean, stderr, cfg.trials, cfg.master_seed
            )
            table.rows.append(row)
    return table
