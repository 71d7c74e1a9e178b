"""Codebook construction: sampled-point grids, dedup keys, persistence.

Two codebook families live here. The far-field codebook places one codeword
per point of a fixed spatial-angle lattice. The near-field codebook pairs
every sampled scatter point on the BS side with every sampled point on the
user side, derives each codeword from the summed distance profile of the
pair, and drops pairs whose beam duplicates an earlier one. When both sides
use the same grid, pair (j, i) with j > i has the same summed profile as the
earlier pair (i, j), so only the upper triangle i <= j is swept. The swept
pairs are laid out, in sweep order, as an (L, 2) int32 array of point
indices, so a sample grid holds at most ``MAX_GRID_POINTS`` points. That
one 8-byte-per-pair buffer serves the whole build, which runs serially:
the keys are written over its rows and sorted there, the key values that
repeat are read off neighbouring sorted keys, and the pairs are then laid
out in it once. Only when a key repeats are the keys swept again, into an
array of their own, for the shared-key check to find the pairs behind them.

Duplicate detection works on a global-phase-invariant canonical form of the
distance profile: fractional parts anchored to the first element, rounded to
nine decimals (integer nanocycles). A scaled value lies in [0, 1e9], below
2^52, so adding 2^52 rounds it half to even, as rint does, and leaves the
count in the low bits of the sum. The form is elementwise once anchored,
so the form of a fixed sketch of 3 elements (all of them when N < 3),
element 0 first, is the full form's sketch bit for bit. A pair's dedup key
is that sketch form packed into one integer, so pairs share a key exactly
when their sketch forms are equal. Equal sketches need not be equal beams,
so the full forms of pairs sharing a key are compared directly, and dedup
is exact. The build computes only the sketch columns of each point's
distances and sums them over tiles of the pair grid by broadcasting, each
tile reduced and packed in place in one workspace per sweep; full profiles
are computed for the pairs behind a shared key.

A near-field codebook is its two sample grids with their points and the
kept pairs as int32 indices into those points; keys live only in a build.
The cache file (format 4) is a header naming the grids, then the pairs: a
save streams the pair array's own bytes, and a load wraps the file's pair
section without a copy and samples the points, as a build does.
:func:`cached_near_field_codebook` is the one load-or-build over a cache
directory, naming each file by :func:`cache_file_name` from its header
identity (format version, dims, grids) and the rounding resolution: dedup
is exact, so the kept pairs do not depend on the sketch.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
import sys
import threading
import zlib
# Unused here: the build starts no pool. The bench's tracer (bench/tracer.py)
# replaces this name, so it stays until the bench stops patching it.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (
    ArrayDims,
    Box3,
    cascaded_distances,
    element_distances,
    phase_vector,
)

_NANO = 1_000_000_000
# Adding 2^52 to a float in [0, 2^52) rounds it to an integer m, half to even,
# and the sum's int64 bits are then those of 2^52 plus m.
_ROUNDER = 2.0**52
_ROUNDER_BITS = 0x4330000000000000
# Canonical-form elements compared per batch when checking shared keys.
_CHECK_ELEMENTS = 1 << 21
# Sketch elements keyed per tile of the pair grid: at most 10 922 pairs of 3. A
# sweep keys every tile in one workspace of 17 bytes per element and 8 per pair
# (630 KiB here), allocated once, so a fresh process maps it once per sweep, not
# per tile. Half this size ran the desk and paper step sweeps 10 and 21 % slower
# in process; twice ran within 2 % of this size and raised step-desk's peak RSS
# by 0.8 MB.
_CHUNK_ELEMENTS = 1 << 15
# numpy's ufunc buffer, in elements, while a sweep keys its tiles. At numpy's
# default of 8 192, a tile's broadcast add copies its operands through buffers
# (124 KB allocated per 10 922-pair tile), and the add took 40 us a tile; at
# 256 it adds in place in 10 us, and the whole key sweep ran about 30 % faster.
_UFUNC_BUFFER = 256
# Elements of each profile that the dedup key packs, the most that fit one
# uint64. No key repeats among the swept pairs of any shipped full-grid sweep
# at 3 elements; at 2, hundreds do, and each repeat costs a full-profile check.
_SKETCH_ELEMENTS = 3
# Rows per block of the upper-triangle product in NearFieldCodebook.responses.
# On a 2-core SkylakeX box (OpenBLAS 0.3.31), per call over 450 points: desk
# 2.1 ms and paper 7.6-7.9 ms, against 2.8 and 10.1-10.2 for one full block; 64
# rows ran within 5 % of this, 32 rows up to 10 % and 256 up to 15 % slower.
# There, blocks of 64, 128 and 256 rows all kept the full product's bits.
_TRIANGLE_ROWS = 128

# Pairs hold point indices as int32, so no grid may hold more points.
MAX_GRID_POINTS = 2**31 - 1

_MAGIC = b"XLRC"
_FORMAT_VERSION = 4
# version, N1, N2, d, L, then per grid (g, r): x, y, z intervals and the step
_HEADER = struct.Struct("<IIIdQ14d")


class CodebookFileError(ValueError):
    """Raised when a codebook cache file is missing, corrupt, or mismatched."""


@dataclass(frozen=True)
class SampleGrid:
    """A box swept on every axis at one step: min, min+step, ... up to <= max.

    A grid holds at most ``MAX_GRID_POINTS`` points, counted without
    sampling them, so that int32 pairs index every point. The count runs
    through :func:`axis_count`, which rejects a step that is not positive
    and finite.
    """

    box: Box3
    step: float

    def __post_init__(self) -> None:
        if (size := self.size) > MAX_GRID_POINTS:
            raise ValueError(f"a sample grid holds {size} points, more than {MAX_GRID_POINTS}")

    def points(self) -> np.ndarray:
        """All grid points as an (S, 3) array, x-major, then y, then z."""
        axes = [axis_samples(lo, hi, self.step) for lo, hi in self.box.intervals()]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

    @property
    def size(self) -> int:
        return math.prod(axis_count(lo, hi, self.step) for lo, hi in self.box.intervals())


def _grid_points(grid_g: SampleGrid, grid_r: SampleGrid) -> tuple[np.ndarray, np.ndarray]:
    """Both grids' points, as one array for both sides when the grids are equal."""
    pts_g = grid_g.points()
    return pts_g, pts_g if grid_g == grid_r else grid_r.points()


def axis_count(lo: float, hi: float, step: float) -> int:
    """How many samples :func:`axis_samples` takes, counted without making them."""
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    span = (hi - lo) / step + 1e-9
    if span == math.inf:
        raise ValueError(f"step {step} is too small to count the samples of [{lo}, {hi}]")
    return math.floor(span) + 1


def axis_samples(lo: float, hi: float, step: float) -> np.ndarray:
    """Samples lo, lo+step, ... not exceeding hi (small float slop tolerated)."""
    return lo + step * np.arange(axis_count(lo, hi, step))


def _sketch_elements(n: int) -> np.ndarray:
    """The fixed element indices a dedup key packs: element 0, then an even spread.

    min(n, _SKETCH_ELEMENTS) indices, ascending, the last one n - 1 when
    there are two or more. Because the first is 0, the canonical form of a
    profile's sketch equals the sketch of its canonical form bit for bit.
    """
    # Samples at least 1 apart stay distinct under rint.
    return np.rint(np.linspace(0, n - 1, min(n, _SKETCH_ELEMENTS))).astype(np.int64)


def reduced_profile(profile, work=None) -> np.ndarray:
    """Canonical form of a distance profile, in integer nanocycles.

    Takes fractional parts, anchors them to the first element, wraps into
    [0, 1), and rounds to 1e-9. Profiles that differ by a constant offset or
    by per-element integers (a global phase, or whole-wavelength shifts)
    reduce to the same form. Works on (N,) or batched (..., N) input, laid
    out like the input.

    Equals ``rint(mod(mod(p, 1) - mod(p, 1)[..., :1], 1) * 1e9) % 1e9``
    without np.mod (slow): ``x - floor(x)`` is exact, and after anchoring
    every value lies in (-1, 1), so subtracting its floor (-1.0 or 0.0)
    wraps it with no mask. The anchor's own form is always 0, so it is set,
    not reduced: only the other elements are anchored, wrapped and scaled.
    A scaled value x lies in [0, 1e9], inside [0, 2^52), where the float
    add ``x + 2^52`` rounds half to even exactly as rint does, so the int64
    bits of the sum less those of 2^52 are the rounded count, with no
    float-to-int cast. A count of a full cycle is zero.

    Without `work` the input is left unchanged: the same steps run on a
    float64 copy, beside a scratch float64 array and a bool mask of its
    shape. With ``work=(floors, mask)``, such arrays owned by the caller,
    `profile` must be a float64 array the caller owns: it is reduced in
    place, and the result is its int64 view.
    """
    if work is None:
        p = np.array(profile, dtype=np.float64)
        floors, mask = np.empty_like(p), np.empty(p.shape, dtype=bool)
    else:
        p, (floors, mask) = profile, work
    np.floor(p, out=floors)
    p -= floors
    rest, floors, mask = p[..., 1:], floors[..., 1:], mask[..., 1:]
    rest -= p[..., :1]
    rest -= np.floor(rest, out=floors)
    rest *= float(_NANO)
    rest += _ROUNDER
    nano = p.view(np.int64)
    nano[..., :1] = 0
    tail = nano[..., 1:]
    tail -= _ROUNDER_BITS
    np.copyto(tail, 0, where=np.equal(tail, _NANO, out=mask))
    return nano


def _hash_reduced(nano: np.ndarray, out=None) -> np.ndarray:
    """The dedup key of each canonical form of at most 3 elements, along the last axis.

    A sketch form [0, a, b] keys as a * _NANO + b, [0, a] as a and [0] as 0:
    at most 10**18 - 1 < 2**63, so no key wraps and equal keys are equal forms.
    With `out`, a uint64 array of the forms' batch shape, the keys are
    written there and `out` is returned, so a sweep packs a tile's keys
    straight into its key array.
    """
    u, terms = nano.view(np.uint64), min(nano.shape[-1], _SKETCH_ELEMENTS)
    if out is None:
        out = np.empty(nano.shape[:-1], dtype=np.uint64)
    if terms < 3:
        out[...] = u[..., 1] if terms == 2 else 0
        return out
    np.multiply(u[..., 1], np.uint64(_NANO), out=out)
    out += u[..., 2]
    return out


class NearFieldCodebook:
    """Ordered, deduplicated codewords indexed by scatter-point pairs.

    A codebook is its sample grids ``grids = (grid_g, grid_r)``, their
    points as the build or the load sampled them (made read-only here), and
    the kept pairs as int32 row indices into those points. The codeword at
    index ``l`` is defined by points ``(g_points[pairs[l, 0]], r_points[pairs[l, 1]])``;
    its vector is the conjugated spherical-wave phase profile of that pair,
    regenerated on demand by :meth:`vector` (the full-scale codebook held
    as dense vectors would be hundreds of MB). The per-point steering
    factors behind :meth:`responses` are computed on its first call and
    kept, one (S, N) array per side, or one when both sides share a points
    array; then, if every pair has i <= j, only the triangle is multiplied.
    """

    def __init__(
        self,
        dims: ArrayDims,
        grid_g: SampleGrid,
        grid_r: SampleGrid,
        g_points: np.ndarray,
        r_points: np.ndarray,
        pairs: np.ndarray,
    ):
        self.dims = dims
        self.grids = (grid_g, grid_r)
        self.g_points, self.r_points = g_points, r_points
        # source_pair hands out rows of these, so nobody may write through them
        g_points.flags.writeable = r_points.flags.writeable = False
        self.pairs = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
        self._factors: tuple[np.ndarray, np.ndarray, np.ndarray, bool] | None = None
        self._factors_lock = threading.Lock()

    @property
    def keys(self) -> np.ndarray:
        """The kept pairs' dedup keys, recomputed bitwise as the build made them.

        The keys are a new array: the pairs, a read-only view of the file on
        a loaded codebook, are never written.

        Read only by the bench's ``codebook-paper`` run check; ROADMAP item 2 deletes it.
        """
        sketch = _sketch_elements(self.dims.n)
        table_g = element_distances(self.g_points, self.dims, sketch)
        table_r = element_distances(self.r_points, self.dims, sketch)
        keys = np.empty(self.size, dtype=np.uint64)
        step = max(1, _CHUNK_ELEMENTS // len(sketch))  # keyed at once, paper peaked 7 MB higher
        for k in range(0, self.size, step):
            g, r = self.pairs[k : k + step].T
            keys[k : k + len(g)] = _hash_reduced(reduced_profile(table_g[g] + table_r[r]))
        return keys

    @property
    def pre_dedup_pairs(self) -> int:
        """Pairs in the full grid product, before the triangle sweep and dedup."""
        return len(self.g_points) * len(self.r_points)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def source_pair(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        gi, ri = self.pairs[l]
        return self.g_points[gi], self.r_points[ri]

    def vector(self, l: int) -> np.ndarray:
        """The reflecting vector of codeword l: conjugated phases of its pair's summed distances."""
        return phase_vector(cascaded_distances(*self.source_pair(l), self.dims))

    def _steering_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        # Locked so that threads sharing a codebook compute the factors, each
        # pair's flat index into the (Sg, Sr) cross product, and whether every
        # pair lies in its upper triangle, once.
        with self._factors_lock:
            if self._factors is None:
                u_g = phase_vector(element_distances(self.g_points, self.dims))
                if self.r_points is self.g_points:  # as _grid_points hands out equal grids
                    u_r = u_g
                else:
                    u_r = phase_vector(element_distances(self.r_points, self.dims))
                # int64, as Sg * Sr may pass the int32 range of the pairs
                flat = self.pairs[:, 0].astype(np.int64) * len(self.r_points)
                flat += self.pairs[:, 1]  # in place: one L-long array, not two
                upper = u_r is u_g and bool((self.pairs[:, 0] <= self.pairs[:, 1]).all())
                self._factors = (u_g, u_r, flat, upper)
            return self._factors

    def responses(self, h_bar: np.ndarray) -> np.ndarray:
        """Noiseless inner products theta_l^T h_bar for every codeword.

        Exploits the pair factorization: each codeword is the element-wise
        product of two per-point conjugated steering vectors, so all L
        responses come from one (Sg, N) x (N, Sr) product and a gather. When
        both sides share one points array and every pair (i, j) has i <= j,
        as a build over equal grids keeps them, only the upper triangle is
        gathered, so only its row blocks [lo, lo + _TRIANGLE_ROWS) x [lo, S)
        of the (S, S) product are computed, each block's rows times h_bar on
        their own. Unequal grids, or a codebook holding a pair with j > i,
        take the whole product.
        """
        h = np.asarray(h_bar)
        if h.shape != (self.dims.n,):
            raise ValueError(f"channel vector length {h.shape} != N={self.dims.n}")
        u_g, u_r, flat, upper = self._steering_factors()
        cross = np.empty((len(u_g), len(u_r)), dtype=np.complex128)
        # one block of every row and column unless upper; a 1-row last block joins the one before
        starts = range(0, max(len(u_g) - 1, 1), _TRIANGLE_ROWS) if upper else range(1)
        for lo, hi in zip(starts, [*starts[1:], len(u_g)]):
            np.matmul(u_g[lo:hi] * h, u_r[lo:].T, out=cross[lo:hi, lo:])
        return cross.ravel().take(flat)


class FarFieldCodebook:
    """The N1*N2-column DFT-style codebook on the planar-wave angle lattice.

    The lattice is phi_n = (2n-N1-1)/N1 for n = 1..N1 by psi_m = (2m-N2-1)/N2
    for m = 1..N2. The codeword at index ``l = (n-1)*N2 + (m-1)`` is the
    conjugated planar-wave steering vector at (phi_n, psi_m): the Kronecker
    product of row n-1 of the conjugated n1 factors and row m-1 of the
    conjugated n2 factors, both computed once here.
    """

    def __init__(self, dims: ArrayDims):
        self.dims = dims
        self._a1, self._a2 = (
            phase_vector(np.outer((2.0 * np.arange(1, k + 1) - k - 1) / k, np.arange(k)))
            for k in (dims.n1, dims.n2)
        )

    @property
    def size(self) -> int:
        return self.dims.n

    def vector(self, l: int) -> np.ndarray:
        """The reflecting vector of codeword l: its conjugated planar-wave steering vector."""
        n, m = divmod(l, self.dims.n2)
        return np.kron(self._a1[n], self._a2[m])

    def responses(self, h_bar: np.ndarray) -> np.ndarray:
        h = np.asarray(h_bar)
        if h.shape != (self.dims.n,):
            raise ValueError(f"channel vector length {h.shape} != N={self.dims.n}")
        return (self._a1 @ h.reshape(self.dims.n1, self.dims.n2) @ self._a2.T).ravel()


def build_near_field_codebook(
    grid_g: SampleGrid, grid_r: SampleGrid, dims: ArrayDims
) -> NearFieldCodebook:
    """Sweep the ordered pair product of the two grids and dedup by beam.

    For each pair the summed distance profile defines the codeword; a pair
    is kept only if its canonical form has not been seen earlier in the
    sweep, so swapped pairs (and any other coincident beams) collapse to
    the first occurrence. When ``grid_g == grid_r`` row i sweeps only
    columns j >= i: float addition is commutative, so each skipped pair
    repeats the profile of its earlier swap bitwise and could never be
    kept. The swept pairs fill one (L, 2) int32 buffer of point indices,
    which first holds their keys: :func:`_sweep_keys` writes each pair's
    uint64 key, in sweep order, over its own row, and they are sorted
    there, so that the key values that repeat are the sorted keys equal to
    their neighbours. The pairs are then laid out in the buffer, once. When
    no key repeats, every pair is kept and the codebook holds the buffer
    itself. Otherwise each repeated value is listed once, the keys are
    swept again, in sweep order, into an array of their own, and the kept
    pairs are the layout's rows where
    :func:`_first_distinct` keeps them: it compares the full canonical
    forms of the pairs behind a repeated key, computed for their layout
    rows alone. The codebook takes the points sampled here.
    """
    pts_g, pts_r = _grid_points(grid_g, grid_r)
    s_g, s_r = len(pts_g), len(pts_r)

    # Row i of the sweep covers columns first_col[i]..s_r-1 and starts at
    # offsets[i]. Both columns are running sums of their steps, summed in
    # place: a row start steps the row by 1 and the column back to
    # first_col[i], and every other pair steps the column by 1.
    first_col = np.arange(s_g) if grid_g == grid_r else np.zeros(s_g, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(s_r - first_col)))
    pairs = np.empty((offsets[-1], 2), dtype=np.int32)
    # A key and an int32 pair are both 8 bytes: row k's key is row k.
    keys = _sweep_keys(pts_g, pts_r, first_col, dims, pairs.view(np.uint64).ravel())
    keys.sort()
    repeated = keys[1:][keys[1:] == keys[:-1]]  # ascending; n - 1 copies of a key held n times

    # Every row starts as the step (0, 1), filled as one 8-byte word per
    # row: a broadcast of the two int32s runs an inner loop per row.
    pairs.view(np.uint64)[:] = np.array([0, 1], dtype=np.int32).view(np.uint64)
    pairs[offsets[1:-1], 0] = 1
    pairs[offsets[1:-1], 1] = first_col[1:] - (s_r - 1)
    pairs[0, 1] = first_col[0]
    np.cumsum(pairs, axis=0, dtype=np.int32, out=pairs)
    if not len(repeated):  # no key repeats, so no profile does: every pair is kept
        return NearFieldCodebook(dims, grid_g, grid_r, pts_g, pts_r, pairs)

    def reduced_rows(flat: np.ndarray) -> np.ndarray:
        rows = pairs[flat]
        profiles = element_distances(pts_g[rows[:, 0]], dims)
        profiles += element_distances(pts_r[rows[:, 1]], dims)
        return reduced_profile(profiles)

    repeated = np.concatenate((repeated[:1], repeated[1:][repeated[1:] != repeated[:-1]]))
    keys = _sweep_keys(pts_g, pts_r, first_col, dims, np.empty(len(pairs), dtype=np.uint64))
    keep = _first_distinct(keys, repeated, reduced_rows, max(1, _CHECK_ELEMENTS // dims.n))
    return NearFieldCodebook(dims, grid_g, grid_r, pts_g, pts_r, pairs[keep])


def _sweep_keys(pts_g, pts_r, first_col, dims: ArrayDims, keys: np.ndarray) -> np.ndarray:
    """Write the dedup key of every swept pair into `keys`, in sweep order; return `keys`.

    Row i pairs g point i with r points first_col[i]..S_r-1, and a pair's
    key is its profile's sketch form (:func:`_sketch_elements`), reduced by
    :func:`reduced_profile` and packed by :func:`_hash_reduced`. The pair
    grid is keyed in tiles of at most a chunk of pairs: rows [i0, i1) by
    columns [first_col[i0], S_r), and a row longer than a chunk in column
    segments of its own. A tile's sketch sums are one broadcast add of its
    rows' and columns' sketch values, per pair the float add of its two
    points' sketch values, so its keys are bitwise the per-pair keys.

    Every tile is keyed in one workspace, allocated once for the sweep and
    no larger than the pair grid: a float64 sums and floors plane per
    sketch element, a mask, and a key tile. The sums are reduced in place by
    :func:`reduced_profile`, whose wrapped and scaled values lie in [0, 1e9],
    inside the [0, 2^52) where adding 2^52 rounds them, and packed straight
    into `keys`. Only a tile holding pairs left of their row's first column
    (the lower corner of a tile of a triangle sweep) is packed into the key
    tile, and each of its rows' swept ends is copied out.
    """
    sketch = _sketch_elements(dims.n)
    # Sketch-major (len(sketch), S) tables, so every pass of the key runs
    # along a tile's pairs, not along the short sketch.
    sketch_g = np.ascontiguousarray(element_distances(pts_g, dims, sketch).T)
    sketch_r = sketch_g if pts_r is pts_g else np.ascontiguousarray(
        element_distances(pts_r, dims, sketch).T
    )
    k, s_g, s_r = len(sketch), len(pts_g), len(pts_r)
    chunk = max(1, _CHUNK_ELEMENTS // k)
    width = min(chunk, s_g * s_r)  # no tile holds more pairs than either bound
    sums, floors = np.empty((2, k * width))
    mask, tile_keys = np.empty(k * width, dtype=bool), np.empty(width, dtype=np.uint64)
    pos = i0 = 0
    old_buffer = np.setbufsize(_UFUNC_BUFFER)
    try:
        while i0 < s_g:
            c0 = int(first_col[i0])
            i1 = min(s_g, i0 + max(1, chunk // (s_r - c0)))
            for c in range(c0, s_r, chunk):  # one segment unless the row is longer than a chunk
                c1 = min(c + chunk, s_r)
                shape = (i1 - i0, c1 - c)
                n = shape[0] * shape[1]
                planes = [buf[: k * n].reshape(k, *shape) for buf in (sums, floors, mask)]
                np.add(sketch_g[:, i0:i1, None], sketch_r[:, None, c:c1], out=planes[0])
                # Reduced along the sketch, the last axis of each (rows, cols, sketch) transpose.
                p, f, m = (plane.transpose(1, 2, 0) for plane in planes)
                nano = reduced_profile(p, (f, m))
                if first_col[i1 - 1] > c:  # first_col ascends, so only then is a pair unswept
                    # A corner tile spans whole rows, c1 == S_r: each row's swept end is copied out.
                    corner = _hash_reduced(nano, out=tile_keys[:n].reshape(shape))
                    for row, first in zip(corner, first_col[i0:i1].tolist()):
                        keys[pos : pos + c1 - first] = row[first - c :]
                        pos += c1 - first
                else:
                    _hash_reduced(nano, out=keys[pos : pos + n].reshape(shape))
                    pos += n
            i0 = i1
    finally:
        np.setbufsize(old_buffer)
    return keys


def _first_distinct(
    keys: np.ndarray, repeated: np.ndarray, reduced_rows, batch_rows: int
) -> np.ndarray:
    """A keep mask over sweep positions: the first occurrence of each distinct profile.

    `keys[k]` is the key of the profile at sweep position k, equal for equal
    profiles, and `repeated` holds, ascending and each once, every key value
    that occurs more than once.
    `reduced_rows(positions)` returns those positions' full canonical forms.
    A position whose key occurs once is kept with no check. The members,
    the positions behind a repeated key, have their canonical forms
    compared directly, in batches of whole key groups of about `batch_rows`
    rows, so true duplicates are dropped and distinct profiles sharing a
    key (equal sketches of unequal beams) are all kept.
    """
    if not len(repeated):  # every key occurs once; nor could np.take read an empty array
        return np.ones(len(keys), dtype=bool)
    keep = np.take(repeated, np.searchsorted(repeated, keys), mode="clip") != keys
    members = np.flatnonzero(~keep)
    # Stable, so a group lists its positions ascending.
    members = members[np.argsort(keys[members], kind="stable")]
    member_keys = keys[members]
    group_starts = np.flatnonzero(np.concatenate(([True], member_keys[1:] != member_keys[:-1])))
    # Each batch starts at the last group start at or before a multiple of batch_rows.
    marks = np.arange(0, len(members), batch_rows)
    cuts = np.unique(group_starts[np.searchsorted(group_starts, marks, side="right") - 1])
    for lo, hi in zip(cuts, [*cuts[1:], len(members)]):
        batch = members[lo:hi]
        forms = np.ascontiguousarray(reduced_rows(batch))
        # Each form as one opaque item of its bytes: equal int64 rows are equal
        # bytes, and unique on them skips the axis=0 form's per-call dtype checks.
        rows = forms.view(np.dtype((np.void, forms.itemsize * forms.shape[1]))).ravel()
        _, first = np.unique(rows, return_index=True)
        keep[batch[first]] = True
    return keep


def _header(dims: ArrayDims, grids: tuple[SampleGrid, SampleGrid], size: int) -> bytes:
    grid_fields = [v for g in grids for v in (*g.box.x, *g.box.y, *g.box.z, g.step)]
    return _HEADER.pack(_FORMAT_VERSION, dims.n1, dims.n2, dims.d, size, *grid_fields)


def save_codebook(cb: NearFieldCodebook, path) -> None:
    """Write the binary cache (format 4): the magic, a header, the pairs as int32, a CRC32.

    The header holds the format version, N1, N2, d, L and each grid's box
    and step, so points and vectors are regenerated on load. The header
    and the codebook's own pair array, with no copy when it is already
    little-endian and contiguous, are streamed under one CRC32 chained
    across them, which is the CRC32 of their concatenation. The
    bytes go to ``<path>.tmp-<pid>-<thread id>`` in the same directory,
    which is then renamed onto `path`, so a crash or a failed write never
    leaves a partial cache file, and concurrent saves to one path never
    share a temporary.
    """
    if not isinstance(cb, NearFieldCodebook):
        raise TypeError("only near-field codebooks are persisted (far-field is formulaic)")
    sections = (_header(cb.dims, cb.grids, cb.size), np.ascontiguousarray(cb.pairs, dtype="<i4"))
    tmp = f"{os.fspath(path)}.tmp-{os.getpid()}-{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            crc = 0
            for section in sections:
                fh.write(section)
                crc = zlib.crc32(section, crc)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)  # only still there if the write or rename failed


def load_codebook(path, dims: ArrayDims) -> NearFieldCodebook:
    """Read a format-4 cache file back, with the grids it was built over.

    Raises :class:`CodebookFileError` for a wrong magic, version or dims,
    a bad checksum or length, an invalid or too large grid, or a pair index
    outside its grid: the file is the one source of pairs that is checked.
    The codebook's int32 pairs wrap the file's pair section as read.
    Callers compare ``cb.grids`` with the grids they expect.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + _HEADER.size + 4:
        raise CodebookFileError(f"codebook file too short: {path}")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CodebookFileError(f"bad magic in codebook file: {path}")
    # A view, so the pairs below wrap the bytes read, not a copy.
    payload, (crc,) = memoryview(blob)[len(_MAGIC) : -4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc:
        raise CodebookFileError(f"checksum mismatch in codebook file: {path}")
    header = _HEADER.unpack_from(payload)
    version, n1, n2, d, size = header[:5]
    if version != _FORMAT_VERSION:
        raise CodebookFileError(f"unsupported codebook format version {version}")
    if (n1, n2) != (dims.n1, dims.n2) or d != dims.d:
        raise CodebookFileError(
            f"codebook dims ({n1}x{n2}, d={d}) do not match requested "
            f"({dims.n1}x{dims.n2}, d={dims.d})"
        )
    body = payload[_HEADER.size :]
    if len(body) != size * 2 * 4:
        raise CodebookFileError(f"pair section length mismatch in {path}")
    try:
        grid_g, grid_r = (
            SampleGrid(Box3(v[0:2], v[2:4], v[4:6]), v[6])
            for v in (header[5:12], header[12:])  # tuples, as a config's intervals are
        )
        pairs = np.frombuffer(body, dtype="<i4").reshape(-1, 2)
        sizes = (grid_g.size, grid_r.size)
        if size and any(c.min() < 0 or c.max() >= n for c, n in zip(pairs.T, sizes)):
            raise ValueError(f"pair indices must lie within the grids' {sizes} points")
        return NearFieldCodebook(dims, grid_g, grid_r, *_grid_points(grid_g, grid_r), pairs)
    except ValueError as exc:
        raise CodebookFileError(f"invalid codebook file {path}: {exc}") from None


def cache_file_name(grid_g: SampleGrid, grid_r: SampleGrid, dims: ArrayDims) -> str:
    """The cache file name of the codebook over these grids and dims.

    ``xlrc_<16 hex>.bin``, from the sha256 of the header the file would
    carry (format version, dims, both grids, with size 0) followed by the
    rounding resolution, the one key constant the kept pairs depend on. A
    change to any of them names another file, so it misses the cache. The
    sketch size only groups candidate duplicates, which dedup then compares
    exactly, so it does not name the file.
    """
    ident = _header(dims, (grid_g, grid_r), 0) + struct.pack("<Q", _NANO)
    return f"xlrc_{hashlib.sha256(ident).hexdigest()[:16]}.bin"


def cached_near_field_codebook(
    grid_g: SampleGrid, grid_r: SampleGrid, dims: ArrayDims, cache_dir=None
) -> tuple[NearFieldCodebook, Path | None, bool]:
    """The near-field codebook over the grids, its cache file, and whether it was read from it.

    With a `cache_dir` (made if missing), the file :func:`cache_file_name`
    names there is loaded if it holds these grids; a missing one is built
    and saved. A file that fails to load (corrupt, truncated, or made for
    other dims, other grids or another format) is reported on stderr,
    rebuilt and replaced. Without a `cache_dir` the codebook is just built
    and the path is None.
    """
    path = None
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / cache_file_name(grid_g, grid_r, dims)
        if path.exists():
            try:
                cb = load_codebook(path, dims)
                if cb.grids != (grid_g, grid_r):
                    raise CodebookFileError(f"codebook file {path} holds other sample grids")
                return cb, path, True
            except CodebookFileError as exc:
                print(f"warning: rebuilding the cached codebook: {exc}", file=sys.stderr)
    cb = build_near_field_codebook(grid_g, grid_r, dims)
    if path is not None:
        save_codebook(cb, path)
    return cb, path, False
