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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, SceneConfig, sample_near_field_channel
from .codebook import (
    SampleGrid,
    axis_samples,
    build_near_field_codebook,
    codeword_vector,
    far_field_codebook,
)
from .geometry import FieldError
from .training import (
    HierarchicalConfig,
    hierarchical_training,
    perfect_csi_beamforming,
    select_codeword,
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; lengths are wavelength-normalized here."""

    scene: SceneConfig
    schemes: tuple[str, ...] = ALL_SCHEMES
    snr_grid_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0)
    sampling_step: float = 50.0
    step_sweep: tuple[float, ...] = (25.0, 50.0, 75.0, 100.0)
    levels: int = 2
    step_multiplier: float = 4.0
    step_control: float = 0.25
    trials: int = 200
    master_seed: int = 0
    bs_antennas: int = 64  # reporting metadata only; the BS reduces to s_bar
    perfect_csi_literal_scaling: bool = False

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
        if not self.sampling_step > 0:
            raise FieldError(
                "sampling_step", f"sampling step must be positive, got {self.sampling_step}"
            )
        if not self.step_sweep:
            raise FieldError("step_sweep", "step sweep must be nonempty")
        for s in self.step_sweep:
            if not s > 0:
                raise FieldError("step_sweep", f"step sweep values must be positive, got {s}")
        if self.master_seed < 0:
            raise FieldError("master_seed", f"seed must be >= 0, got {self.master_seed}")
        if self.bs_antennas < 1:
            raise FieldError(
                "bs_antennas", f"BS antenna count must be >= 1, got {self.bs_antennas}"
            )
        self.hierarchical_config()  # levels, step multiplier and step control

    def codebook_grids(self, sampling_step: float | None = None) -> tuple[SampleGrid, SampleGrid]:
        step = self.sampling_step if sampling_step is None else sampling_step
        return SampleGrid(self.scene.box_g, step), SampleGrid(self.scene.box_r, step)

    def hierarchical_config(self, sampling_step: float | None = None) -> HierarchicalConfig:
        step = self.sampling_step if sampling_step is None else sampling_step
        return HierarchicalConfig(
            levels=self.levels,
            box_g=self.scene.box_g,
            box_r=self.scene.box_r,
            base_step=step,
            step_multiplier=self.step_multiplier,
            step_control=self.step_control,
        )


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


def achievable_rate(
    theta: np.ndarray, ch: ChannelRealization, s_bar: complex, sigma2: float
) -> float:
    """log2(1 + |theta^T h_bar s_bar|^2 / sigma2), bits/s/Hz; no noise draw.

    Where the SNR gain^2 / sigma2 overflows a float (a subnormal sigma2), the
    rate is 2 log2(gain) - log2(sigma2), to which the formula then rounds.
    """
    if not sigma2 > 0:
        raise ValueError(f"rate is undefined for sigma2 <= 0, got {sigma2}")
    gain = abs(complex(np.asarray(theta) @ ch.h_bar) * complex(s_bar))
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
    far-field schemes observe it in one `select_codeword` call over all
    sigma2 values, and the hierarchical scheme restarts its noise stream at
    each SNR point and shares one codebook memo across them, so each
    stage-2 codebook is built once per distinct stage-1 winner. A prebuilt
    `near_codebook` (e.g. loaded from the cache) skips the exhaustive build.
    """
    scene = cfg.scene
    dims = scene.dims
    sigma2s = [snr_db_to_sigma2(s) for s in cfg.snr_grid_db]

    near_cb = near_codebook
    far_cb = None
    stage1_grids = stage1_cb = None
    hcfg = None
    if SCHEME_EXHAUSTIVE in cfg.schemes and near_cb is None:
        near_cb = build_near_field_codebook(*cfg.codebook_grids(), dims)
    if SCHEME_FAR_FIELD in cfg.schemes:
        far_cb = far_field_codebook(dims)
    if SCHEME_HIERARCHICAL in cfg.schemes:
        hcfg = cfg.hierarchical_config()
        stage1_grids = hcfg.stage1_grids()
        stage1_cb = build_near_field_codebook(*stage1_grids, dims)

    rates = {scheme: np.zeros((len(sigma2s), cfg.trials)) for scheme in cfg.schemes}
    trial_seeds = np.random.SeedSequence(cfg.master_seed).spawn(cfg.trials)

    def run_trial(t: int) -> None:
        streams = trial_seeds[t].spawn(1 + len(cfg.schemes))
        ch = sample_near_field_channel(scene, np.random.default_rng(streams[0]))
        for si, scheme in enumerate(cfg.schemes):
            noise_seed = streams[1 + si]
            if scheme == SCHEME_PERFECT_CSI:
                theta = perfect_csi_beamforming(ch)
                if cfg.perfect_csi_literal_scaling:
                    theta = theta / np.sqrt(dims.n)
                for k, sigma2 in enumerate(sigma2s):
                    rates[scheme][k, t] = achievable_rate(theta, ch, scene.s_bar, sigma2)
            elif scheme == SCHEME_HIERARCHICAL:
                codebooks = {stage1_grids: stage1_cb}  # this trial's memo, dropped with it
                for k, sigma2 in enumerate(sigma2s):
                    rng = np.random.default_rng(noise_seed)
                    result = hierarchical_training(
                        hcfg, dims, ch, scene.s_bar, sigma2, rng, codebooks
                    )
                    theta = codeword_vector(result.best_codeword, dims)
                    rates[scheme][k, t] = achievable_rate(theta, ch, scene.s_bar, sigma2)
            else:
                cb = near_cb if scheme == SCHEME_EXHAUSTIVE else far_cb
                rng = np.random.default_rng(noise_seed)
                picks = select_codeword(cb.responses(ch.h_bar), scene.s_bar, sigma2s, rng)
                for k, (sigma2, (idx, _)) in enumerate(zip(sigma2s, picks)):
                    theta = codeword_vector(cb.codeword(idx), dims)
                    rates[scheme][k, t] = achievable_rate(theta, ch, scene.s_bar, sigma2)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_trial, range(cfg.trials)))
    else:
        for t in range(cfg.trials):
            run_trial(t)

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


def hierarchical_overhead(cfg: ExperimentConfig, sampling_step: float | None = None) -> int:
    """Slots a hierarchical run consumes, independent of channel and seed.

    Level 1 is counted exactly (its grids are fixed, so its deduplicated
    size is known). Later levels depend on where the winner lands, so they
    are counted at the worst case: full-width refinement windows, no
    clipping, no duplicate pairs.
    """
    hcfg = cfg.hierarchical_config(sampling_step)
    total = build_near_field_codebook(*hcfg.stage1_grids(), cfg.scene.dims).size
    steps = hcfg.steps()
    for step, next_step in zip(steps, steps[1:]):
        # three axes on each of the two sides
        total += len(axis_samples(0.0, step, next_step)) ** 6
    return total


def sweep_overhead(cfg: ExperimentConfig, threads: int = 1) -> ResultTable:
    """Training overhead per sampling step: exhaustive L vs hierarchical sum L_k.

    Channel- and seed-independent by construction; the sweep values are
    reported in multiples of the element spacing, matching how sampling
    steps are usually quoted.
    """
    d = cfg.scene.dims.d
    table = ResultTable()
    for step in cfg.step_sweep:
        full = build_near_field_codebook(*cfg.codebook_grids(step), cfg.scene.dims, threads=threads)
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

