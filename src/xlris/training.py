"""Beam training procedures and the perfect-CSI baseline.

All indices here are 0-based (Python convention); a training result's
``best_index`` addresses the searched codebook directly. Ties in received
amplitude keep the earliest index, mirroring the strict greater-than update
of the search loop.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, SceneConfig
from .codebook import NearFieldCodebook, SampleGrid, build_near_field_codebook
from .geometry import Box3, FieldError


# Candidate slots observed per pass: the noisy observations of candidates
# gathered from anywhere in the vector live in buffers of this size instead
# of in second full-length vectors.
_NOISE_CHUNK = 1 << 14

MAX_LEVELS = 1024  # deepest schedule accepted: a chosen bound, far past any useful depth


@dataclass(frozen=True)
class StageResult:
    """Per-level trace of a hierarchical run."""

    level: int
    codebook_size: int
    best_index: int


@dataclass(frozen=True)
class TrainingResult:
    """What one training run picked and what it cost.

    `best_index` addresses the last codebook searched: the only one of an
    exhaustive search, the last level's of a hierarchical one. `theta` is
    that codeword's reflecting vector; as an array it takes no part in ``==``.
    """

    best_index: int
    best_amplitude: float
    slots_used: int
    theta: np.ndarray = field(compare=False, repr=False)
    per_stage: tuple[StageResult, ...] | None = None


@dataclass(frozen=True)
class HierarchicalConfig:
    """Multi-level search schedule, applied to a scene from a base step.

    Level 1 samples the scene's boxes at step `step_multiplier * base_step`
    on every axis; each later level re-centers the boxes on the previous
    winner with window widths equal to the previous step (then clipped back
    into the scene's boxes) and shrinks the step by `step_control`.
    """

    levels: int = 2
    step_multiplier: float = 4.0
    step_control: float = 0.25

    def __post_init__(self) -> None:
        if not 1 <= self.levels <= MAX_LEVELS:
            raise FieldError("levels", f"levels must lie in [1, {MAX_LEVELS}], got {self.levels}")
        if self.step_multiplier < 1:
            raise FieldError(
                "step_multiplier", f"step multiplier must be >= 1, got {self.step_multiplier}"
            )
        if not 0 < self.step_control < 1:
            raise FieldError(
                "step_control", f"step control must lie in (0, 1), got {self.step_control}"
            )

    def steps(self, base_step: float) -> Iterator[float]:
        """The sampling step of each level from `base_step`, level 1 first."""
        step = self.step_multiplier * base_step
        for _ in range(self.levels):
            yield step
            step = self.step_control * step


def select_codeword(
    responses: np.ndarray,
    sigma2s: Sequence[float],
    rng: np.random.Generator,
) -> list[tuple[int, float]]:
    """Observe every slot once per noise power and pick the loudest: argmax |r_l|.

    At noise power sigma2, slot l observes r_l = responses[l] +
    sqrt(sigma2) * z_l, where responses[l] is the noiseless theta_l^T h_bar
    (the transmitted symbol is 1, so the SNR is 1/sigma2) and z is one unit
    CN(0, 1) vector shared by every sigma2 in `sigma2s`, each finite and >= 0.
    z is drawn as one ``rng.standard_normal(2 * responses.size)``, real parts
    then imaginary parts, and only the candidates' parts are scaled, by 1/sqrt(2)
    and then by sigma. So sigma2 = 0 observes the noiseless responses, and
    nothing is drawn when every sigma2 is 0 (z is then zero).
    Returns one (winning index, winning noisy amplitude) per sigma2, in
    order, so one call equals a call per sigma2 that each restart `rng` from
    the same state. Ties keep the earliest index, as np.argmax does (a NaN
    counts as the largest amplitude).

    Only the slots that can win are observed. Let c_l = |responses[l]|, top
    the slot with the largest c, and reach sqrt(2) times the largest |Re z_l|
    or |Im z_l|, which bounds every |z_l|. A slot whose |r_l| reaches |r_top|
    has c_l >= |r_top| - sigma * reach. The candidates are the slots with c_l
    at or above that floor less a slack of 1e-9 * (|r_top| + sigma * reach),
    far more than the few roundings in each term, so every slot that ties
    the maximum is one. A NaN floor (from a NaN or infinite response) makes
    every slot a candidate. Each candidate is observed with the same
    operations as a full scan, so the winner and its amplitude are bitwise
    those of observing every slot.
    """
    responses = np.asarray(responses)
    if responses.size == 0:
        raise ValueError("cannot train on an empty codebook")
    for sigma2 in sigma2s:
        if not 0 <= sigma2 < math.inf:
            raise ValueError(f"noise power must be nonnegative and finite, got {sigma2}")
    clean = responses.ravel()
    n = clean.size
    amps = np.abs(clean)  # the candidate filter
    top = int(amps.argmax())
    # sqrt(2) z: real parts, then imaginary parts; scaling by inv keeps their order
    parts = rng.standard_normal(2 * n) if any(sigma2 > 0 for sigma2 in sigma2s) else np.zeros(2 * n)
    inv = 1.0 / math.sqrt(2.0)
    reach = math.sqrt(2.0) * max(float(parts.max()) * inv, -float(parts.min()) * inv)
    unit_top = complex(parts[top], parts[n + top]) * inv
    noisy = np.empty(min(n, _NOISE_CHUNK), dtype=np.complex128)
    seen = np.empty(noisy.size)
    picks = []
    for sigma2 in sigma2s:
        scale = math.sqrt(sigma2)
        at_top = float(abs(clean[top] + unit_top * scale))
        spread = scale * reach
        floor = at_top - spread - 1e-9 * (at_top + spread)
        where = (~(amps < floor)).nonzero()[0]  # a NaN floor keeps every slot
        best = (-1, -math.inf)
        for lo in range(0, where.size, _NOISE_CHUNK):
            sel = where[lo : lo + _NOISE_CHUNK]
            r = noisy[: sel.size]
            r.real, r.imag = parts[sel], parts[n + sel]
            r *= inv
            r *= scale
            np.add(clean[sel], r, out=r)
            a = seen[: r.size]
            np.abs(r, out=a)
            j = int(a.argmax())
            amp = float(a[j])
            if amp > best[1] or amp != amp:
                best = (lo + j, amp)
                if amp != amp:  # the first NaN wins
                    break
        picks.append((int(where[best[0]]), best[1]))
    return picks


def exhaustive_training(
    cb,
    ch: ChannelRealization,
    sigma2s: Sequence[float],
    rng: np.random.Generator,
) -> list[TrainingResult]:
    """Measure every codeword once per noise power; one loudest slot per sigma2.

    One unit noise draw serves every sigma2 (see `select_codeword`), so
    result k equals a call with ``[sigma2s[k]]`` from the same `rng` state.
    Each distinct winner's vector is built once and shared by its results.
    """
    picks = select_codeword(cb.responses(ch.h_bar), sigma2s, rng)
    thetas = {idx: cb.vector(idx) for idx in {idx for idx, _ in picks}}
    return [TrainingResult(idx, amp, cb.size, thetas[idx]) for idx, amp in picks]


def refine_ranges(opt_pair: tuple[np.ndarray, np.ndarray], step: float) -> tuple[Box3, Box3]:
    """Next-level boxes around the (3,) winners: each axis is coordinate +- step/2, as floats."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    half = step / 2.0

    def window(p: np.ndarray) -> Box3:
        return Box3(*((c - half, c + half) for c in p.tolist()))

    p_g, p_r = opt_pair
    return window(p_g), window(p_r)


def hierarchical_training(
    hcfg: HierarchicalConfig,
    scene: SceneConfig,
    base_step: float,
    ch: ChannelRealization,
    sigma2: float,
    rng: np.random.Generator,
    codebooks: dict[tuple[SampleGrid, SampleGrid], NearFieldCodebook] | None = None,
) -> TrainingResult:
    """Coarse-to-fine search at one noise power; see `hierarchical_training_over`.

    The library's one-sigma2 entry point; `bench/tracer.py` wraps this name.
    """
    [result] = hierarchical_training_over(hcfg, scene, base_step, ch, [sigma2], rng, codebooks)
    return result


def hierarchical_training_over(
    hcfg: HierarchicalConfig,
    scene: SceneConfig,
    base_step: float,
    ch: ChannelRealization,
    sigma2s: Sequence[float],
    rng: np.random.Generator,
    codebooks: dict[tuple[SampleGrid, SampleGrid], NearFieldCodebook] | None = None,
) -> list[TrainingResult]:
    """Coarse-to-fine search over `scene` at the steps `hcfg.steps(base_step)`, per sigma2.

    Refined boxes are clipped back into the scene's boxes so later levels
    never sample outside the scene (in particular never behind the array).
    `codebooks` is a memo the caller owns, from a level's (g-side, r-side)
    grids to their codebook over `scene.dims`: each level reads it before
    building and stores what it builds. A codebook depends only on its grids
    and dims, so a memo kept across calls (say, one per channel realization,
    seeded with the level-1 codebook) builds each level's codebook once per
    distinct winner of the level before. Without a memo every level is built.

    Result k is bitwise a search at ``sigma2s[k]`` alone from the same `rng`
    state, which draws each level's unit noise after the levels before it.
    So level 1 observes once for every sigma2 (see `select_codeword`), and
    the sigma2 values that agree on every winner so far share the next
    level's codebook, draw and stage trace, the draw made from the generator
    state their shared draws left. `rng` ends where one of those searches ends.
    """
    if codebooks is None:
        codebooks = {}
    results: list[TrainingResult | None] = [None] * len(sigma2s)
    # (g-side box, r-side box, members, generator state, stages so far) of each group at this level
    groups = [(scene.box_g, scene.box_r, range(len(sigma2s)), rng.bit_generator.state, ())]
    for level, step in enumerate(hcfg.steps(base_step), start=1):
        deeper = []
        for box_g, box_r, members, state, stages in groups:
            grids = (SampleGrid(box_g, step), SampleGrid(box_r, step))
            cb = codebooks.get(grids)
            if cb is None:
                cb = codebooks[grids] = build_near_field_codebook(*grids, scene.dims)
            rng.bit_generator.state = state
            picks = select_codeword(cb.responses(ch.h_bar), [sigma2s[k] for k in members], rng)
            by_winner: dict[int, list[tuple[int, float]]] = {}
            for k, (idx, amp) in zip(members, picks):
                by_winner.setdefault(idx, []).append((k, amp))
            state = rng.bit_generator.state
            for idx, winners in by_winner.items():
                trace = (*stages, StageResult(level=level, codebook_size=cb.size, best_index=idx))
                if level == hcfg.levels:
                    theta = cb.vector(idx)
                    slots = sum(stage.codebook_size for stage in trace)
                    for k, amp in winners:
                        results[k] = TrainingResult(idx, amp, slots, theta, per_stage=trace)
                    continue
                ref_g, ref_r = refine_ranges(cb.source_pair(idx), step)
                try:
                    next_g = ref_g.clip(scene.box_g)
                    next_r = ref_r.clip(scene.box_r)
                except ValueError as exc:
                    raise ValueError(f"level {level + 1} sampling box is empty: {exc}") from exc
                deeper.append((next_g, next_r, [k for k, _ in winners], state, trace))
        groups = deeper
    return results


def perfect_csi_beamforming(ch: ChannelRealization) -> np.ndarray:
    """Element-wise conjugate of the channel's steering part, unit modulus.

    Codewords are unit-modulus phase shifts, so the baseline is kept at the
    same per-element norm for a fair comparison (no 1/sqrt(N)).
    """
    return np.conj(ch.steering_part())
