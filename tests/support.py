"""Geometry, channel, key and table helpers, and reference sweeps, that only the tests use."""

from types import SimpleNamespace

import numpy as np

from xlris.channel import ChannelRealization, complex_normal, sample_near_field_channel
from xlris.codebook import (
    FarFieldCodebook,
    NearFieldCodebook,
    SampleGrid,
    _NANO,
    _hash_reduced,
    _sketch_elements,
    build_near_field_codebook,
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
    cascaded_distances,
    cascaded_steering,
    element_distances,
    phase_vector,
)
from xlris.training import perfect_csi_beamforming, refine_ranges


def element_position(n1_idx: int, n2_idx: int, dims: ArrayDims) -> np.ndarray:
    """Position (3,) of element (n1_idx, n2_idx), 1-based indices."""
    if not 1 <= n1_idx <= dims.n1:
        raise ValueError(f"n1_idx out of range [1, {dims.n1}]: {n1_idx}")
    if not 1 <= n2_idx <= dims.n2:
        raise ValueError(f"n2_idx out of range [1, {dims.n2}]: {n2_idx}")
    return np.array(
        [(n1_idx - (dims.n1 + 1) / 2.0) * dims.d, 0.0, (n2_idx - (dims.n2 + 1) / 2.0) * dims.d]
    )


def point_to_element_distance(p, n1_idx: int, n2_idx: int, dims: ArrayDims) -> float:
    """Euclidean distance from p to element (n1_idx, n2_idx), wavelengths."""
    element_position(n1_idx, n2_idx, dims)  # index validation
    flat = (n1_idx - 1) * dims.n2 + (n2_idx - 1)
    return float(element_distances(p, dims)[flat])


def far_field_steering(phi: float, psi: float, dims: ArrayDims) -> np.ndarray:
    """Planar-wave steering vector for spatial angles (phi, psi).

    Entry for element (n1_idx, n2_idx) is
    exp(-j*2*pi*(phi*(n1_idx-1) + psi*(n2_idx-1))); the Kronecker structure
    puts the n1 factor first, matching the global n1-major layout.
    """
    a1 = np.conj(phase_vector(phi * np.arange(dims.n1)))
    a2 = np.conj(phase_vector(psi * np.arange(dims.n2)))
    return np.kron(a1, a2)


def near_field_steering(p, dims: ArrayDims) -> np.ndarray:
    """Spherical-wave steering vector for a source/scatter at the (3,) point p."""
    return np.conj(phase_vector(element_distances(p, dims)))


def box_contains(box: Box3, p) -> bool:
    return all(lo <= c <= hi for c, (lo, hi) in zip(p, box.intervals()))


def near_field_channel(
    p_g: np.ndarray, p_r: np.ndarray, dims: ArrayDims, alpha: complex = 1.0 + 0j
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
    """The 64-bit polynomial hash of a whole distance profile's canonical form."""
    return int(_hash_reduced(reduced_profile(profile)))


def sketch_key(profile) -> int:
    """The 64-bit dedup key a codebook stores for one distance profile: its sketch's hash."""
    p = np.asarray(profile, dtype=np.float64)
    return codeword_key(p[_sketch_elements(len(p))])


def is_beam_of(cb, l: int, profile) -> bool:
    """Whether codeword l of a near-field codebook has the beam of `profile`.

    Compares the full canonical forms of the two distance profiles, as
    dedup does, so the answer does not rest on a hash.
    """
    own = cascaded_distances(*cb.source_pair(l), cb.dims)
    return np.array_equal(reduced_profile(own), reduced_profile(profile))


def reference_reduced_profile(profile) -> np.ndarray:
    """The canonical form `reduced_profile` must equal bitwise; wraps by a masked add."""
    p = np.asarray(profile, dtype=np.float64)
    frac = np.floor(p)
    np.subtract(p, frac, out=frac)  # x - floor(x): exact, == np.mod(x, 1)
    anchor = frac[..., :1].copy()
    np.subtract(frac, anchor, out=frac)
    np.add(frac, 1.0, out=frac, where=frac < 0.0)  # wrap (-1, 1) into [0, 1)
    np.multiply(frac, float(_NANO), out=frac)
    np.rint(frac, out=frac)
    nano = frac.astype(np.int64)
    nano[nano == _NANO] = 0  # a delta that rounded to a full cycle is zero
    return nano


def reference_keys(grid_g, grid_r, dims) -> tuple[np.ndarray, np.ndarray]:
    """Every pair the build sweeps, in sweep order, and its key, one whole row at a time.

    Takes the sketch columns of each whole profile's masked-add canonical
    form, where the build takes the canonical form of each profile's sketch.
    Returns (swept, keys): `swept[k]` is the (g, r) index pair at sweep
    position k and `keys[k]` its key.
    """
    dist_g = element_distances(grid_g.points(), dims)
    dist_r = element_distances(grid_r.points(), dims)
    sketch = _sketch_elements(dims.n)
    s_r = len(dist_r)
    swept, keys = [], []
    for i in range(len(dist_g)):
        first = i if grid_g == grid_r else 0
        block = dist_g[i, np.newaxis, :] + dist_r[first:]
        keys.append(_hash_reduced(reference_reduced_profile(block)[:, sketch]))
        swept.append(np.column_stack([np.full(s_r - first, i), np.arange(first, s_r)]))
    return np.concatenate(swept), np.concatenate(keys)


def find_row(table, scheme: str, sweep_value: float):
    """The row of a result table for one scheme at one sweep value."""
    for row in table.rows:
        if row.scheme == scheme and row.sweep_value == sweep_value:
            return row
    raise ValueError(f"no row for scheme={scheme!r} at sweep value {sweep_value}")


def summarize_ratio(table, scheme_a: str, scheme_b: str, sweep_value: float) -> float:
    """mean(scheme_a) / mean(scheme_b) at one sweep point."""
    return find_row(table, scheme_a, sweep_value).mean / find_row(table, scheme_b, sweep_value).mean


def angles(cb, l: int) -> tuple[float, float]:
    """The lattice angles (phi_n, psi_m) of far-field codeword l = (n-1)*N2 + (m-1)."""
    n1, n2 = cb.dims.n1, cb.dims.n2
    n, m = divmod(l, n2)
    return (2.0 * (n + 1) - n1 - 1) / n1, (2.0 * (m + 1) - n2 - 1) / n2


def vector(cb, l: int) -> np.ndarray:
    """The vector of codeword l, rebuilt from its pair or its angles, not by `cb.vector`."""
    if isinstance(cb, NearFieldCodebook):
        return phase_vector(cascaded_distances(*cb.source_pair(l), cb.dims))
    return np.conj(far_field_steering(*angles(cb, l), cb.dims))


def reference_responses(cb, h_bar: np.ndarray) -> np.ndarray:
    """theta_l^T h_bar for every codeword, the near-field factors rebuilt on every call."""
    if not isinstance(cb, NearFieldCodebook):
        return cb.responses(h_bar)
    u_g = phase_vector(element_distances(cb.g_points, cb.dims))
    u_r = phase_vector(element_distances(cb.r_points, cb.dims))
    return ((u_g * h_bar[np.newaxis, :]) @ u_r.T)[cb.pairs[:, 0], cb.pairs[:, 1]]


def reference_select(responses: np.ndarray, sigma2: float, rng) -> int:
    """argmax |responses + n| with n a fresh CN(0, sigma2) draw; no draw at sigma2 = 0."""
    r = responses
    if sigma2 > 0:
        r = r + complex_normal(rng, responses.size) * np.sqrt(sigma2)
    return int(np.argmax(np.abs(r)))


def reference_hierarchical(hcfg, scene, base_step: float, ch, sigma2: float, rng):
    """The winning vector of a hierarchical search that builds every level afresh."""
    box_g, box_r = scene.box_g, scene.box_r
    for level, step in enumerate(hcfg.steps(base_step), start=1):
        cb = build_near_field_codebook(SampleGrid(box_g, step), SampleGrid(box_r, step), scene.dims)
        idx = reference_select(reference_responses(cb, ch.h_bar), sigma2, rng)
        if level < hcfg.levels:
            ref_g, ref_r = refine_ranges(cb.source_pair(idx), step)
            box_g, box_r = ref_g.clip(scene.box_g), ref_r.clip(scene.box_r)
    return vector(cb, idx)


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
                elif scheme == SCHEME_HIERARCHICAL:
                    hcfg, base = cfg.hierarchy, cfg.sampling_step
                    theta = reference_hierarchical(hcfg, scene, base, ch, sigma2, rng)
                else:
                    cb = near_cb if scheme == SCHEME_EXHAUSTIVE else FarFieldCodebook(dims)
                    responses = reference_responses(cb, ch.h_bar)
                    idx = reference_select(responses, sigma2, rng)
                    theta = vector(cb, idx)
                rates[scheme][k, t] = achievable_rate(theta, ch, sigma2)
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
