"""Codebook construction: sampled-point grids, dedup keys, persistence.

Two codebook families live here. The far-field codebook places one codeword
per point of a fixed spatial-angle lattice. The near-field codebook pairs
every sampled scatter point on the BS side with every sampled point on the
user side, derives each codeword from the summed distance profile of the
pair, and drops pairs whose beam duplicates an earlier one. When both sides
use the same grid, pair (j, i) with j > i has the same summed profile as the
earlier pair (i, j), so only the upper triangle i <= j is swept.

Duplicate detection works on a global-phase-invariant canonical form of the
distance profile: fractional parts anchored to the first element, rounded to
nine decimals (integer nanocycles). Pairs are grouped by a 64-bit polynomial
hash of that form, and the canonical forms of pairs sharing a hash are
compared directly, so dedup is exact: a hash collision keeps both codewords.
Codebooks store the hash rather than the full sequence, which keeps the
full-scale codebook small; the hash is what the cache file format carries
per record.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    ArrayDims,
    Box3,
    Point3,
    cascaded_distances,
    element_distances,
    far_field_steering,
    phase_vector,
)

_NANO = 1_000_000_000
_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# Canonical-form elements compared per batch when checking shared keys.
_CHECK_ELEMENTS = 1 << 21

_MAGIC = b"XLRC"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<IIIdQ")  # version, N1, N2, d, L
_RECORD_DTYPE = np.dtype([("pg", "<f8", 3), ("pr", "<f8", 3), ("key", "<u8")])


def key_algorithm() -> list[int]:
    """Constants besides the scene that fix a cache file's bytes.

    The format version, the key rounding resolution and the key multiplier.
    Cache filenames hash them, so changing any one misses the cache instead
    of reusing stale keys.
    """
    return [_FORMAT_VERSION, _NANO, int(_KEY_MULTIPLIER)]


class CodebookFileError(ValueError):
    """Raised when a codebook cache file is missing, corrupt, or mismatched."""


@dataclass(frozen=True)
class SampleGrid:
    """A box swept on every axis at one step: min, min+step, ... up to <= max."""

    box: Box3
    step: float

    def __post_init__(self) -> None:
        if not self.step > 0:
            raise ValueError(f"grid step must be positive, got {self.step}")

    def points(self) -> np.ndarray:
        """All grid points as an (S, 3) array, x-major, then y, then z."""
        axes = [axis_samples(lo, hi, self.step) for lo, hi in self.box.intervals()]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

    @property
    def size(self) -> int:
        return math.prod(len(axis_samples(lo, hi, self.step)) for lo, hi in self.box.intervals())


def axis_samples(lo: float, hi: float, step: float) -> np.ndarray:
    """Samples lo, lo+step, ... not exceeding hi (small float slop tolerated)."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


@lru_cache(maxsize=8)
def _key_powers(n: int) -> np.ndarray:
    powers = np.empty(n, dtype=np.uint64)
    acc = 1
    mult = int(_KEY_MULTIPLIER)
    for i in range(n):
        powers[i] = acc
        acc = (acc * mult) & 0xFFFFFFFFFFFFFFFF
    return powers


def reduced_profile(profile) -> np.ndarray:
    """Canonical form of a distance profile, in integer nanocycles.

    Takes fractional parts, anchors them to the first element, wraps into
    [0, 1), and rounds to 1e-9. Profiles that differ by a constant offset or
    by per-element integers (a global phase, or whole-wavelength shifts)
    reduce to the same form. Works on (N,) or batched (..., N) input.

    The loop below is a hand-fused equivalent of
    ``rint(mod(mod(p, 1) - mod(p, 1)[..., :1], 1) * 1e9) % 1e9`` that avoids
    np.mod (slow) and most temporaries; the full-scale build sweeps hundreds
    of millions of elements through here.
    """
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


def _hash_reduced(nano: np.ndarray) -> np.ndarray:
    # Rolling polynomial hash mod 2^64; wraparound is the point. Consumes
    # (overwrites) its input, which both callers pass as an owned temporary.
    u = nano.view(np.uint64)
    np.multiply(u, _key_powers(nano.shape[-1]), out=u)
    return u.sum(axis=-1, dtype=np.uint64)


@dataclass(frozen=True)
class Codeword:
    """The geometry that generates one reflecting vector.

    Exactly one of `pair` (near-field scatter points) or `angles` (far-field
    lattice angles) is set. The complex vector itself is regenerated on
    demand by :func:`codeword_vector`.
    """

    pair: tuple[Point3, Point3] | None = None
    angles: tuple[float, float] | None = None


def codeword_vector(cw: Codeword, dims: ArrayDims) -> np.ndarray:
    """Regenerate a codeword's complex vector from its stored geometry."""
    if cw.pair is not None:
        return phase_vector(cascaded_distances(cw.pair[0], cw.pair[1], dims), conjugate=True)
    if cw.angles is not None:
        return np.conj(far_field_steering(cw.angles[0], cw.angles[1], dims))
    raise ValueError("codeword carries neither a point pair nor an angle pair")


class NearFieldCodebook:
    """Ordered, deduplicated codewords indexed by scatter-point pairs.

    Codeword ``l`` is defined by points ``(g_points[pairs[l, 0]],
    r_points[pairs[l, 1]])``; its vector is the conjugated spherical-wave
    phase profile of that pair, regenerated on demand by
    ``codeword_vector(cb.codeword(l), dims)`` (the full-scale codebook held
    as dense vectors would be hundreds of MB). The per-point steering
    factors behind :meth:`responses` are computed on its first call and
    kept, one (S, N) array per side, or one for both when the sides hold
    the same points.
    """

    def __init__(
        self,
        dims: ArrayDims,
        g_points: np.ndarray,
        r_points: np.ndarray,
        pairs: np.ndarray,
        keys: np.ndarray,
        pre_dedup_pairs: int | None = None,
    ):
        self.dims = dims
        self.g_points = np.asarray(g_points, dtype=np.float64).reshape(-1, 3)
        self.r_points = np.asarray(r_points, dtype=np.float64).reshape(-1, 3)
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.keys = np.asarray(keys, dtype=np.uint64).reshape(-1)
        if len(self.keys) != len(self.pairs):
            raise ValueError("pairs and keys must have equal length")
        self.pre_dedup_pairs = pre_dedup_pairs
        self._factors: tuple[np.ndarray, np.ndarray] | None = None
        self._factors_lock = threading.Lock()

    @property
    def size(self) -> int:
        return len(self.pairs)

    def source_pair(self, l: int) -> tuple[Point3, Point3]:
        gi, ri = self.pairs[l]
        return Point3.from_array(self.g_points[gi]), Point3.from_array(self.r_points[ri])

    def codeword(self, l: int) -> Codeword:
        return Codeword(pair=self.source_pair(l))

    def _steering_factors(self) -> tuple[np.ndarray, np.ndarray]:
        # Locked so that threads sharing a codebook compute the factors once.
        with self._factors_lock:
            if self._factors is None:
                u_g = phase_vector(element_distances(self.g_points, self.dims), conjugate=True)
                if np.array_equal(self.g_points, self.r_points):
                    u_r = u_g
                else:
                    u_r = phase_vector(element_distances(self.r_points, self.dims), conjugate=True)
                self._factors = (u_g, u_r)
            return self._factors

    def responses(self, h_bar: np.ndarray) -> np.ndarray:
        """Noiseless inner products theta_l^T h_bar for every codeword.

        Exploits the pair factorization: each codeword is the element-wise
        product of two per-point conjugated steering vectors, so all L
        responses come from one (Sg, N) x (N, Sr) product and a gather.
        """
        h = np.asarray(h_bar)
        if h.shape != (self.dims.n,):
            raise ValueError(f"channel vector length {h.shape} != N={self.dims.n}")
        u_g, u_r = self._steering_factors()
        cross = (u_g * h[np.newaxis, :]) @ u_r.T
        return cross[self.pairs[:, 0], self.pairs[:, 1]]


class FarFieldCodebook:
    """The N1*N2-column DFT-style codebook on the planar-wave angle lattice.

    Codeword ``l = n*N2 + m`` is the conjugated planar-wave steering vector
    at (phis[n], psis[m]).
    """

    def __init__(self, dims: ArrayDims, phis: np.ndarray, psis: np.ndarray):
        self.dims = dims
        self.phis = np.asarray(phis, dtype=np.float64)
        self.psis = np.asarray(psis, dtype=np.float64)

    @property
    def size(self) -> int:
        return len(self.phis) * len(self.psis)

    def angles(self, l: int) -> tuple[float, float]:
        n, m = divmod(l, len(self.psis))
        return float(self.phis[n]), float(self.psis[m])

    def codeword(self, l: int) -> Codeword:
        return Codeword(angles=self.angles(l))

    def responses(self, h_bar: np.ndarray) -> np.ndarray:
        h = np.asarray(h_bar)
        if h.shape != (self.dims.n,):
            raise ValueError(f"channel vector length {h.shape} != N={self.dims.n}")
        a1 = phase_vector(np.outer(self.phis, np.arange(self.dims.n1)), conjugate=True)
        a2 = phase_vector(np.outer(self.psis, np.arange(self.dims.n2)), conjugate=True)
        return (a1 @ h.reshape(self.dims.n1, self.dims.n2) @ a2.T).ravel()


def far_field_codebook(dims: ArrayDims) -> FarFieldCodebook:
    """Codebook on the angle lattice phi_n = (2n-N1-1)/N1, psi_m = (2m-N2-1)/N2."""
    phis = (2.0 * np.arange(1, dims.n1 + 1) - dims.n1 - 1) / dims.n1
    psis = (2.0 * np.arange(1, dims.n2 + 1) - dims.n2 - 1) / dims.n2
    return FarFieldCodebook(dims, phis, psis)


def build_near_field_codebook(
    grid_g: SampleGrid, grid_r: SampleGrid, dims: ArrayDims, threads: int = 1
) -> NearFieldCodebook:
    """Sweep the ordered pair product of the two grids and dedup by beam.

    For each pair the summed distance profile defines the codeword; a pair
    is kept only if its canonical form has not been seen earlier in the
    sweep, so swapped pairs (and any other coincident beams) collapse to
    the first occurrence. When ``grid_g == grid_r`` row i sweeps only
    columns j >= i: float addition is commutative, so each skipped pair
    repeats the profile of its earlier swap bitwise and could never be
    kept. Keys are a deterministic map over the swept pairs, so the result
    is identical whether rows run serially or on `threads` workers.
    `pre_dedup_pairs` counts the full product either way.
    """
    pts_g = grid_g.points()
    pts_r = grid_r.points()
    s_g, s_r = len(pts_g), len(pts_r)
    if s_g == 0 or s_r == 0:
        raise ValueError("sample grids must contain at least one point")

    dist_g = element_distances(pts_g, dims)
    dist_r = element_distances(pts_r, dims)
    # Row i of the sweep covers columns first_col[i]..s_r-1 and lands in
    # keys[offsets[i]:offsets[i + 1]], so the flat order is the sweep order.
    first_col = np.arange(s_g) if grid_g == grid_r else np.zeros(s_g, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(s_r - first_col)))
    keys = np.empty(offsets[-1], dtype=np.uint64)

    def fill_block(i: int) -> None:
        block = dist_g[i, np.newaxis, :] + dist_r[first_col[i] :]
        keys[offsets[i] : offsets[i + 1]] = _hash_reduced(reduced_profile(block))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill_block, range(s_g)))
    else:
        for i in range(s_g):
            fill_block(i)

    def locate(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = np.searchsorted(offsets, flat, side="right") - 1
        return rows, first_col[rows] + (flat - offsets[rows])

    def reduced_rows(flat: np.ndarray) -> np.ndarray:
        rows, cols = locate(flat)
        return reduced_profile(dist_g[rows] + dist_r[cols])

    kept = _first_distinct(keys, reduced_rows, max(1, _CHECK_ELEMENTS // dims.n))
    pairs = np.column_stack(locate(kept))
    return NearFieldCodebook(dims, pts_g, pts_r, pairs, keys[kept], pre_dedup_pairs=s_g * s_r)


def _first_distinct(keys: np.ndarray, reduced_rows, batch_rows: int) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct profile.

    `keys[k]` is the hash of the profile at sweep position k, and
    `reduced_rows(positions)` returns those profiles' canonical forms. Keys
    seen once need no check. The positions behind a repeated key have their
    canonical forms compared directly, in batches of whole key groups of
    about `batch_rows` rows, so true duplicates are dropped and hash
    collisions keep every distinct profile.
    """
    order = np.argsort(keys, kind="stable")  # stable: a group lists positions ascending
    sorted_keys = keys[order]
    new_key = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_key[1:-1])
    kept = order[new_key[:-1]]
    shared = ~(new_key[:-1] & new_key[1:])  # in a group of two or more
    if not shared.any():
        return np.sort(kept)
    members = order[shared]
    group_starts = np.flatnonzero(new_key[:-1][shared])
    # Each batch starts at the last group start at or before a multiple of batch_rows.
    marks = np.arange(0, len(members), batch_rows)
    cuts = np.unique(group_starts[np.searchsorted(group_starts, marks, side="right") - 1])
    extra = []
    for lo, hi in zip(cuts, [*cuts[1:], len(members)]):
        batch = members[lo:hi]
        _, first = np.unique(reduced_rows(batch), axis=0, return_index=True)
        extra.append(batch[first])
    return np.union1d(kept, np.concatenate(extra))


def save_codebook(cb: NearFieldCodebook, path) -> None:
    """Write the binary cache: header, one record per codeword, trailing CRC32.

    Only source pairs, dims, and key hashes are persisted; vectors are
    regenerated on load. The bytes go to ``<path>.tmp-<pid>`` in the same
    directory, which is then renamed onto `path`, so a crash or a failed
    write never leaves a partial cache file behind.
    """
    if not isinstance(cb, NearFieldCodebook):
        raise TypeError("only near-field codebooks are persisted (far-field is formulaic)")
    records = np.empty(cb.size, dtype=_RECORD_DTYPE)
    records["pg"] = cb.g_points[cb.pairs[:, 0]]
    records["pr"] = cb.r_points[cb.pairs[:, 1]]
    records["key"] = cb.keys
    payload = _HEADER.pack(_FORMAT_VERSION, cb.dims.n1, cb.dims.n2, cb.dims.d, cb.size)
    payload += records.tobytes()
    tmp = f"{os.fspath(path)}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)  # only still there if the write or rename failed


def load_codebook(path, dims: ArrayDims) -> NearFieldCodebook:
    """Read a cache file back; rejects wrong magic/version/dims and corruption."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + _HEADER.size + 4:
        raise CodebookFileError(f"codebook file too short: {path}")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CodebookFileError(f"bad magic in codebook file: {path}")
    payload, (crc,) = blob[len(_MAGIC) : -4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc:
        raise CodebookFileError(f"checksum mismatch in codebook file: {path}")
    version, n1, n2, d, size = _HEADER.unpack_from(payload)
    if version != _FORMAT_VERSION:
        raise CodebookFileError(f"unsupported codebook format version {version}")
    if (n1, n2) != (dims.n1, dims.n2) or d != dims.d:
        raise CodebookFileError(
            f"codebook dims ({n1}x{n2}, d={d}) do not match requested "
            f"({dims.n1}x{dims.n2}, d={dims.d})"
        )
    body = payload[_HEADER.size :]
    if len(body) != size * _RECORD_DTYPE.itemsize:
        raise CodebookFileError(f"record section length mismatch in {path}")
    records = np.frombuffer(body, dtype=_RECORD_DTYPE)
    g_unique, g_idx = np.unique(records["pg"], axis=0, return_inverse=True)
    r_unique, r_idx = np.unique(records["pr"], axis=0, return_inverse=True)
    pairs = np.column_stack([g_idx.ravel(), r_idx.ravel()])
    return NearFieldCodebook(dims, g_unique, r_unique, pairs, records["key"].copy())
