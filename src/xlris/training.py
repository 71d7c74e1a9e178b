"""Beam training procedures and the perfect-CSI baseline.

All indices here are 0-based (Python convention); a training result's
``best_index`` addresses the searched codebook directly. Ties in received
amplitude keep the earliest index, mirroring the strict greater-than update
of the search loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, complex_normal
from .codebook import Codeword, NearFieldCodebook, SampleGrid, build_near_field_codebook
from .geometry import ArrayDims, Box3, FieldError, Point3


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

    Level 1 sweeps `box_g` x `box_r` at steps `step_multiplier * base_steps`;
    each later level re-centers the boxes on the previous winner with window
    widths equal to the previous steps (then clipped back into the initial
    boxes) and shrinks the steps by `step_control`.
    """

    levels: int
    box_g: Box3
    box_r: Box3
    base_steps_g: tuple[float, float, float]
    base_steps_r: tuple[float, float, float]
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
        for s in (*self.base_steps_g, *self.base_steps_r):
            if not s > 0:
                raise FieldError("base_steps", f"base steps must be positive, got {s}")

    def initial_steps(self) -> tuple[np.ndarray, np.ndarray]:
        a = self.step_multiplier
        return a * np.asarray(self.base_steps_g), a * np.asarray(self.base_steps_r)

    def stage1_grids(self) -> tuple[SampleGrid, SampleGrid]:
        steps_g, steps_r = self.initial_steps()
        return SampleGrid.from_box(self.box_g, steps_g), SampleGrid.from_box(self.box_r, steps_r)


def select_codeword(
    responses: np.ndarray,
    s_bar: complex,
    sigma2: float,
    rng: np.random.Generator,
) -> tuple[int, float]:
    """Observe every slot once and pick the loudest: argmax |r_l|.

    Slot l observes r_l = responses[l] * s_bar + n_l, where responses[l] is
    the noiseless theta_l^T h_bar and n_l is fresh CN(0, sigma2) noise; no
    draw is consumed when sigma2 == 0. Returns (winning index, winning noisy
    amplitude). np.argmax keeps the first maximum, which implements the
    earliest-index tie break.
    """
    responses = np.asarray(responses)
    if responses.size == 0:
        raise ValueError("cannot train on an empty codebook")
    if sigma2 < 0:
        raise ValueError(f"noise power must be nonnegative, got {sigma2}")
    r = responses * complex(s_bar)
    if sigma2 > 0:
        r = r + complex_normal(rng, responses.size) * np.sqrt(sigma2)
    amps = np.abs(r)
    idx = int(np.argmax(amps))
    return idx, float(amps[idx])


def exhaustive_training(
    cb,
    ch: ChannelRealization,
    s_bar: complex,
    sigma2: float,
    rng: np.random.Generator,
) -> TrainingResult:
    """Measure every codeword once and return the loudest slot."""
    idx, amp = select_codeword(cb.responses(ch.h_bar), s_bar, sigma2, rng)
    return TrainingResult(
        best_index=idx,
        best_amplitude=amp,
        slots_used=cb.size,
        best_codeword=cb.codeword(idx),
    )


def refine_ranges(
    opt_pair: tuple[Point3, Point3],
    steps_g,
    steps_r,
) -> tuple[Box3, Box3]:
    """Next-level boxes: each axis interval is winner coordinate +- step/2."""

    def window(p: Point3, steps) -> Box3:
        sx, sy, sz = (float(s) for s in steps)
        for s in (sx, sy, sz):
            if not s > 0:
                raise ValueError(f"steps must be positive, got {steps}")
        return Box3(
            (p.x - sx / 2.0, p.x + sx / 2.0),
            (p.y - sy / 2.0, p.y + sy / 2.0),
            (p.z - sz / 2.0, p.z + sz / 2.0),
        )

    p_g, p_r = opt_pair
    return window(p_g, steps_g), window(p_r, steps_r)


def hierarchical_training(
    hcfg: HierarchicalConfig,
    dims: ArrayDims,
    ch: ChannelRealization,
    s_bar: complex,
    sigma2: float,
    rng: np.random.Generator,
    stage1_codebook: NearFieldCodebook | None = None,
) -> TrainingResult:
    """Coarse-to-fine search over `hcfg.levels` sub-codebooks.

    Refined boxes are clipped back into the initial boxes so later levels
    never sample outside the scene (in particular never behind the array).
    `stage1_codebook` may carry a prebuilt level-1 codebook, which is the
    same for every channel realization and therefore worth caching.
    """
    box_g, box_r = hcfg.box_g, hcfg.box_r
    steps_g, steps_r = hcfg.initial_steps()

    slots = 0
    traces: list[StageResult] = []
    cb = None
    idx = -1
    amp = 0.0
    for level in range(1, hcfg.levels + 1):
        if level == 1 and stage1_codebook is not None:
            cb = stage1_codebook
        else:
            cb = build_near_field_codebook(
                SampleGrid.from_box(box_g, steps_g),
                SampleGrid.from_box(box_r, steps_r),
                dims,
            )
        idx, amp = select_codeword(cb.responses(ch.h_bar), s_bar, sigma2, rng)
        slots += cb.size
        traces.append(StageResult(level=level, codebook_size=cb.size, best_index=idx))
        if level < hcfg.levels:
            ref_g, ref_r = refine_ranges(cb.source_pair(idx), steps_g, steps_r)
            try:
                box_g = ref_g.clip(hcfg.box_g)
                box_r = ref_r.clip(hcfg.box_r)
            except ValueError as exc:
                raise ValueError(f"level {level + 1} sampling box is empty: {exc}") from exc
            steps_g = hcfg.step_control * steps_g
            steps_r = hcfg.step_control * steps_r

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
