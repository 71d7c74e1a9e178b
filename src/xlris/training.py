"""Beam training procedures and the perfect-CSI baseline.

All indices here are 0-based (Python convention); a training result's
``best_index`` addresses the searched codebook directly. Ties in received
amplitude keep the earliest index, mirroring the strict greater-than update
of the search loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, complex_normal
from .codebook import Codeword, NearFieldCodebook, SampleGrid, build_near_field_codebook
from .geometry import ArrayDims, Box3, FieldError, Point3


# Slots per pass when adding scaled noise: the noisy observations live in
# one buffer of this size instead of a second full-length vector.
_NOISE_CHUNK = 1 << 14


@dataclass(frozen=True)
class StageResult:
    """Per-level trace of a hierarchical run."""

    level: int
    codebook_size: int
    best_index: int


@dataclass(frozen=True)
class TrainingResult:
    best_index: int
    best_amplitude: float
    slots_used: int
    best_codeword: Codeword
    per_stage: tuple[StageResult, ...] | None = None


@dataclass(frozen=True)
class HierarchicalConfig:
    """Multi-level search schedule.

    Level 1 sweeps `box_g` x `box_r` at step `step_multiplier * base_step`
    on every axis; each later level re-centers the boxes on the previous
    winner with window widths equal to the previous step (then clipped back
    into the initial boxes) and shrinks the step by `step_control`.
    """

    levels: int
    box_g: Box3
    box_r: Box3
    base_step: float
    step_multiplier: float
    step_control: float

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise FieldError("levels", f"levels must be >= 1, got {self.levels}")
        if self.step_multiplier < 1:
            raise FieldError(
                "step_multiplier", f"step multiplier must be >= 1, got {self.step_multiplier}"
            )
        if not 0 < self.step_control < 1:
            raise FieldError(
                "step_control", f"step control must lie in (0, 1), got {self.step_control}"
            )
        if not self.base_step > 0:
            raise FieldError("base_step", f"base step must be positive, got {self.base_step}")

    def steps(self) -> list[float]:
        """The sampling step of each level, level 1 first."""
        steps = [self.step_multiplier * self.base_step]
        for _ in range(1, self.levels):
            steps.append(self.step_control * steps[-1])
        return steps

    def stage1_grids(self) -> tuple[SampleGrid, SampleGrid]:
        step = self.steps()[0]
        return SampleGrid(self.box_g, step), SampleGrid(self.box_r, step)


def select_codeword(
    responses: np.ndarray,
    s_bar: complex,
    sigma2s: Sequence[float],
    rng: np.random.Generator,
) -> list[tuple[int, float]]:
    """Observe every slot once per noise power and pick the loudest: argmax |r_l|.

    At noise power sigma2, slot l observes r_l = responses[l] * s_bar +
    sqrt(sigma2) * z_l, where responses[l] is the noiseless theta_l^T h_bar
    and z is one unit CN(0, 1) vector drawn from `rng` and shared by every
    sigma2 in `sigma2s`; nothing is drawn when every sigma2 is 0. Returns one
    (winning index, winning noisy amplitude) per sigma2, in order, so one
    call equals a call per sigma2 that each restart `rng` from the same
    state. np.argmax keeps the first maximum, which implements the
    earliest-index tie break.
    """
    responses = np.asarray(responses)
    if responses.size == 0:
        raise ValueError("cannot train on an empty codebook")
    for sigma2 in sigma2s:
        if sigma2 < 0:
            raise ValueError(f"noise power must be nonnegative, got {sigma2}")
    clean = responses.ravel() * complex(s_bar)
    amps = np.empty(clean.size, dtype=np.float64)
    if any(sigma2 > 0 for sigma2 in sigma2s):
        unit = complex_normal(rng, clean.size)
        noisy = np.empty(min(clean.size, _NOISE_CHUNK), dtype=np.complex128)
    picks = []
    for sigma2 in sigma2s:
        if sigma2 > 0:
            scale = np.sqrt(sigma2)
            for lo in range(0, clean.size, _NOISE_CHUNK):
                r = noisy[: min(_NOISE_CHUNK, clean.size - lo)]
                np.multiply(unit[lo : lo + _NOISE_CHUNK], scale, out=r)
                np.add(clean[lo : lo + _NOISE_CHUNK], r, out=r)
                np.abs(r, out=amps[lo : lo + _NOISE_CHUNK])
        else:
            np.abs(clean, out=amps)
        idx = int(np.argmax(amps))
        picks.append((idx, float(amps[idx])))
    return picks


def exhaustive_training(
    cb,
    ch: ChannelRealization,
    s_bar: complex,
    sigma2: float,
    rng: np.random.Generator,
) -> TrainingResult:
    """Measure every codeword once and return the loudest slot."""
    [(idx, amp)] = select_codeword(cb.responses(ch.h_bar), s_bar, [sigma2], rng)
    return TrainingResult(
        best_index=idx,
        best_amplitude=amp,
        slots_used=cb.size,
        best_codeword=cb.codeword(idx),
    )


def refine_ranges(opt_pair: tuple[Point3, Point3], step: float) -> tuple[Box3, Box3]:
    """Next-level boxes: each axis interval is winner coordinate +- step/2."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    half = step / 2.0

    def window(p: Point3) -> Box3:
        return Box3((p.x - half, p.x + half), (p.y - half, p.y + half), (p.z - half, p.z + half))

    p_g, p_r = opt_pair
    return window(p_g), window(p_r)


def hierarchical_training(
    hcfg: HierarchicalConfig,
    dims: ArrayDims,
    ch: ChannelRealization,
    s_bar: complex,
    sigma2: float,
    rng: np.random.Generator,
    codebooks: dict[tuple[SampleGrid, SampleGrid], NearFieldCodebook] | None = None,
) -> TrainingResult:
    """Coarse-to-fine search over `hcfg.levels` sub-codebooks.

    Refined boxes are clipped back into the initial boxes so later levels
    never sample outside the scene (in particular never behind the array).
    `codebooks` is a memo the caller owns, from a level's (g-side, r-side)
    grids to their codebook over `dims`: each level reads it before building
    and stores what it builds. A codebook depends only on its grids and
    dims, so a memo kept across calls (say, one per channel realization,
    seeded with the level-1 codebook from `hcfg.stage1_grids()`) builds each
    level's codebook once per distinct winner of the level before. Without
    a memo every level is built.
    """
    if codebooks is None:
        codebooks = {}
    box_g, box_r = hcfg.box_g, hcfg.box_r

    slots = 0
    traces: list[StageResult] = []
    cb = None
    idx = -1
    amp = 0.0
    for level, step in enumerate(hcfg.steps(), start=1):
        grids = (SampleGrid(box_g, step), SampleGrid(box_r, step))
        cb = codebooks.get(grids)
        if cb is None:
            cb = codebooks[grids] = build_near_field_codebook(*grids, dims)
        [(idx, amp)] = select_codeword(cb.responses(ch.h_bar), s_bar, [sigma2], rng)
        slots += cb.size
        traces.append(StageResult(level=level, codebook_size=cb.size, best_index=idx))
        if level < hcfg.levels:
            ref_g, ref_r = refine_ranges(cb.source_pair(idx), step)
            try:
                box_g = ref_g.clip(hcfg.box_g)
                box_r = ref_r.clip(hcfg.box_r)
            except ValueError as exc:
                raise ValueError(f"level {level + 1} sampling box is empty: {exc}") from exc

    return TrainingResult(
        best_index=idx,
        best_amplitude=amp,
        slots_used=slots,
        best_codeword=cb.codeword(idx),
        per_stage=tuple(traces),
    )


def perfect_csi_beamforming(ch: ChannelRealization) -> np.ndarray:
    """Element-wise conjugate of the channel's steering part, unit modulus.

    Codewords are unit-modulus phase shifts, so the baseline is kept at the
    same per-element norm for a fair comparison (no 1/sqrt(N)).
    """
    return np.conj(ch.steering_part())
