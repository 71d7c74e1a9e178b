"""Monte Carlo harness: rate-vs-SNR and overhead-vs-step sweeps.

All schemes in a trial share one channel realization (common random
numbers), and each scheme observes the same unit noise at every SNR point,
scaled by that point's sigma, so curves differ only where the physics
differs, not where the dice do. Results are a pure function of the
experiment config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .channel import ChannelRealization, SceneConfig, sample_near_field_channel
from .codebook import FarFieldCodebook, SampleGrid, axis_count, build_near_field_codebook
from .geometry import FieldError
from .training import (
    HierarchicalConfig,
    exhaustive_training,
    hierarchical_training,
    perfect_csi_beamforming,
)

SCHEME_FAR_FIELD = "far-field"
SCHEME_EXHAUSTIVE = "near-field-exhaustive"
SCHEME_HIERARCHICAL = "near-field-hierarchical"
SCHEME_PERFECT_CSI = "perfect-csi"
ALL_SCHEMES = (
    SCHEME_FAR_FIELD,
    SCHEME_EXHAUSTIVE,
    SCHEME_HIERARCHICAL,
    SCHEME_PERFECT_CSI,
)

SWEEP_SNR_DB = "snr_db"
SWEEP_STEP_D = "step_d"

CSV_COLUMNS = ("scheme", "sweep_var", "sweep_value", "mean", "stderr", "trials", "seed")

# Most worst-case slots one hierarchy level may ask for: a chosen bound, far
# above every shipped schedule (5**6 = 15 625 at step_control 0.25).
MAX_LEVEL_SLOTS = 2**32


def level_slots(step: float, next_step: float) -> int:
    """Worst-case slots of a level at `next_step` refining windows `step` wide.

    Full-width windows, no clipping, no duplicate pairs: the samples of one
    window axis to the power of the three axes on each of the two sides.
    """
    return axis_count(0.0, step, next_step) ** 6


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; lengths are wavelength-normalized here.

    `sampling_step` is the exhaustive codebook's step and the `hierarchy`'s
    base step; `step_sweep` lists the base steps `sweep_overhead` visits.
    """

    scene: SceneConfig
    sampling_step: float
    step_sweep: tuple[float, ...]
    schemes: tuple[str, ...] = ALL_SCHEMES
    snr_grid_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0)
    hierarchy: HierarchicalConfig = HierarchicalConfig()
    trials: int = 200
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise FieldError("trials", f"trials must be >= 1, got {self.trials}")
        if not self.schemes:
            raise FieldError("schemes", "schemes must be nonempty")
        for scheme in self.schemes:
            if scheme not in ALL_SCHEMES:
                raise FieldError(
                    "schemes", f"unknown scheme {scheme!r}; expected one of {list(ALL_SCHEMES)}"
                )
        if len(set(self.schemes)) != len(self.schemes):
            raise FieldError("schemes", f"schemes must not repeat, got {list(self.schemes)}")
        if not self.snr_grid_db:
            raise FieldError("snr_grid_db", "SNR grid must be nonempty")
        for snr_db in self.snr_grid_db:
            try:
                snr_db_to_sigma2(snr_db)
            except ValueError as exc:
                raise FieldError("snr_grid_db", str(exc)) from None
        if not 0 < self.sampling_step < math.inf:
            raise FieldError(
                "sampling_step",
                f"sampling step must be positive and finite, got {self.sampling_step}",
            )
        if not self.step_sweep:
            raise FieldError("step_sweep", "step sweep must be nonempty")
        for s in self.step_sweep:
            if not 0 < s < math.inf:
                raise FieldError(
                    "step_sweep", f"step sweep values must be positive and finite, got {s}"
                )
        if self.master_seed < 0:
            raise FieldError("master_seed", f"seed must be >= 0, got {self.master_seed}")
        # level 1 can only overflow, deeper levels only underflow
        for base in (self.sampling_step, *self.step_sweep):
            for level, step in enumerate(self.hierarchy.steps(base), start=1):
                if not 0 < step < math.inf:
                    name = "hierarchy.step_multiplier" if level == 1 else "hierarchy.levels"
                    raise FieldError(
                        name,
                        f"level {level} step at base step {base} is {step}, "
                        "not a positive finite float",
                    )
                try:
                    slots = level_slots(prev, step) if level > 1 else 0
                except ValueError:  # too many samples to count
                    slots = math.inf
                if slots > MAX_LEVEL_SLOTS:
                    raise FieldError(
                        "hierarchy.step_control",
                        f"level {level} at base step {base} may ask for {slots} slots, "
                        f"more than {MAX_LEVEL_SLOTS}",
                    )
                prev = step
        # A grid counts its points, so none is sampled here.
        for k, step in enumerate((self.sampling_step, *self.step_sweep)):
            try:
                self.codebook_grids(step)
            except ValueError as exc:
                raise FieldError("step_sweep" if k else "sampling_step", str(exc)) from None

    def codebook_grids(self, sampling_step: float | None = None) -> tuple[SampleGrid, SampleGrid]:
        step = self.sampling_step if sampling_step is None else sampling_step
        return SampleGrid(self.scene.box_g, step), SampleGrid(self.scene.box_r, step)


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    sweep_var: str
    sweep_value: float
    mean: float
    stderr: float
    trials: int
    seed: int


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                f"{r.scheme},{r.sweep_var},{r.sweep_value!r},{r.mean!r},"
                f"{r.stderr!r},{r.trials},{r.seed}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self, config_dict: dict) -> dict:
        return {"rows": [dataclasses.asdict(r) for r in self.rows], "config": config_dict}


def achievable_rate(theta: np.ndarray, ch: ChannelRealization, sigma2: float) -> float:
    """log2(1 + |theta^T h_bar|^2 / sigma2), bits/s/Hz, at SNR 1/sigma2; no noise draw.

    Where the SNR gain^2 / sigma2 overflows a float (a subnormal sigma2), the
    rate is 2 log2(gain) - log2(sigma2), to which the formula then rounds.
    """
    if not sigma2 > 0:
        raise ValueError(f"rate is undefined for sigma2 <= 0, got {sigma2}")
    gain = abs(complex(np.asarray(theta) @ ch.h_bar))
    snr = gain * gain / sigma2
    if math.isinf(snr):
        return float(2.0 * math.log2(gain) - math.log2(sigma2))
    return float(math.log2(1.0 + snr))


def snr_db_to_sigma2(snr_db: float) -> float:
    """SNR is 1/sigma2, so sigma2 = 10^(-SNR_dB/10), which must be a positive finite float."""
    try:
        sigma2 = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"SNR {snr_db} dB gives noise power {sigma2}, not a positive finite float")
    return float(sigma2)


def sweep_snr(cfg: ExperimentConfig, threads: int = 1, near_codebook=None) -> ResultTable:
    """Mean achievable rate per (scheme, SNR) over `cfg.trials` shared channels.

    Per trial, every scheme trains on the same channel realization. Per
    (trial, scheme), one unit noise draw is scaled by each SNR point's sigma,
    which pairs the curves across the sweep axis: the exhaustive and
    far-field schemes train once over all sigma2 values, and the
    hierarchical scheme restarts its noise stream at each SNR point and
    shares one codebook memo across them, so each stage-2 codebook is built
    once per distinct stage-1 winner. Trials run one after another, and a
    prebuilt `near_codebook` (e.g. loaded from the cache) skips the
    exhaustive codebook's build. `threads` is ignored: every build is
    serial, and the parameter stays only because the bench
    (bench/workloads.py) still passes it.
    """
    scene = cfg.scene
    dims = scene.dims
    sigma2s = [snr_db_to_sigma2(s) for s in cfg.snr_grid_db]

    near_cb = near_codebook
    far_cb = None
    stage1 = {}
    if SCHEME_EXHAUSTIVE in cfg.schemes and near_cb is None:
        near_cb = build_near_field_codebook(*cfg.codebook_grids(), dims)
    if SCHEME_FAR_FIELD in cfg.schemes:
        far_cb = FarFieldCodebook(dims)
    if SCHEME_HIERARCHICAL in cfg.schemes:
        grids = cfg.codebook_grids(next(cfg.hierarchy.steps(cfg.sampling_step)))
        stage1 = {grids: build_near_field_codebook(*grids, dims)}

    rates = {scheme: np.zeros((len(sigma2s), cfg.trials)) for scheme in cfg.schemes}
    trial_seeds = np.random.SeedSequence(cfg.master_seed).spawn(cfg.trials)

    for t in range(cfg.trials):
        streams = trial_seeds[t].spawn(1 + len(cfg.schemes))
        ch = sample_near_field_channel(scene, np.random.default_rng(streams[0]))
        for scheme, noise_seed in zip(cfg.schemes, streams[1:]):
            if scheme == SCHEME_PERFECT_CSI:
                thetas = [perfect_csi_beamforming(ch)] * len(sigma2s)
            elif scheme == SCHEME_HIERARCHICAL:
                codebooks = dict(stage1)  # this trial's memo, dropped with it
                thetas = []
                for sigma2 in sigma2s:
                    rng = np.random.default_rng(noise_seed)
                    result = hierarchical_training(
                        cfg.hierarchy, scene, cfg.sampling_step, ch, sigma2, rng, codebooks
                    )
                    thetas.append(result.theta)
            else:
                cb = near_cb if scheme == SCHEME_EXHAUSTIVE else far_cb
                results = exhaustive_training(cb, ch, sigma2s, np.random.default_rng(noise_seed))
                thetas = [result.theta for result in results]
            for k, (theta, sigma2) in enumerate(zip(thetas, sigma2s)):
                rates[scheme][k, t] = achievable_rate(theta, ch, sigma2)

    table = ResultTable()
    for scheme in cfg.schemes:
        for k, snr in enumerate(cfg.snr_grid_db):
            per_trial = rates[scheme][k]
            stderr = float(per_trial.std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
            table.rows.append(
                ResultRow(
                    scheme=scheme,
                    sweep_var=SWEEP_SNR_DB,
                    sweep_value=float(snr),
                    mean=float(per_trial.mean()),
                    stderr=stderr,
                    trials=cfg.trials,
                    seed=cfg.master_seed,
                )
            )
    return table


def hierarchical_overhead(cfg: ExperimentConfig, sampling_step: float) -> int:
    """Slots a hierarchical run from base step `sampling_step` consumes, for any channel or seed.

    Level 1 is counted exactly (its grids are fixed, so its deduplicated
    size is known). Later levels depend on where the winner lands, so they
    are counted at the worst case: full-width refinement windows, no
    clipping, no duplicate pairs.
    """
    grids = cfg.codebook_grids(next(cfg.hierarchy.steps(sampling_step)))
    total = build_near_field_codebook(*grids, cfg.scene.dims).size
    for step, next_step in pairwise(cfg.hierarchy.steps(sampling_step)):
        total += level_slots(step, next_step)
    return total


def sweep_overhead(cfg: ExperimentConfig, threads: int = 1) -> ResultTable:
    """Training overhead per sampling step: exhaustive L vs hierarchical sum L_k.

    Channel- and seed-independent by construction; the sweep values are
    reported in multiples of the element spacing, matching how sampling
    steps are usually quoted. `threads` is ignored, as in :func:`sweep_snr`.
    """
    d = cfg.scene.dims.d
    table = ResultTable()
    for step in cfg.step_sweep:
        full = build_near_field_codebook(*cfg.codebook_grids(step), cfg.scene.dims)
        hier = hierarchical_overhead(cfg, step)
        for scheme, overhead in (
            (SCHEME_EXHAUSTIVE, full.size),
            (SCHEME_HIERARCHICAL, hier),
        ):
            table.rows.append(
                ResultRow(
                    scheme=scheme,
                    sweep_var=SWEEP_STEP_D,
                    sweep_value=float(step / d),
                    mean=float(overhead),
                    stderr=0.0,
                    trials=1,
                    seed=cfg.master_seed,
                )
            )
    return table

