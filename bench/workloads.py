"""The three benchmark workloads and their output checks.

Each workload is closed-loop with one client: the runner calls ``op(i)``
for i = 0, 1, 2, ... and the next op starts when the previous one returns.
Ops ``0 .. warmup_ops-1`` run during set-up and are not timed as ops. Every
op's inputs derive from the workload seed and the op index only.

Ops call the package through module attributes (``experiments.sweep_snr``,
``cli.main``, ...) so that the tracer's wrappers are picked up.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import shutil
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
from xlris import cli, codebook, config, experiments


class Op(NamedTuple):
    kind: str  # "op" is a timed op; "load" is a codebook-paper cache hit
    seconds: float
    items: int  # trials (snr-desk) or pre-dedup pairs (builds) done by the op
    output: object


def op_seed(seed: int, i: int) -> int:
    """Master seed of op `i`: a SeedSequence draw from (workload seed, op index)."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _builtin(name: str):
    return config.parse_config(config.resolve_config_path(name))


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# --- output checks: each returns a list of error strings, empty when the output is right


def check_snr_csv(text: str, schemes, snr_grid, trials: int) -> list[str]:
    """All (scheme, SNR) rows present, and perfect CSI's mean >= every other scheme's."""
    try:
        rows = _csv_rows(text)
        means = {(r["scheme"], float(r["sweep_value"])): float(r["mean"]) for r in rows}
        counts = {int(r["trials"]) for r in rows}
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unparsable sweep CSV: {exc!r}"]
    want = {(s, float(v)) for s in schemes for v in snr_grid}
    errors = []
    if set(means) != want or len(rows) != len(want):
        errors.append(f"expected rows {sorted(want)}, got {sorted(means)}")
        return errors
    if counts != {trials}:
        errors.append(f"trials column {sorted(counts)} != {trials}")
    for snr in snr_grid:
        best = means[(experiments.SCHEME_PERFECT_CSI, float(snr))]
        for s in schemes:
            if not np.isfinite(means[(s, float(snr))]):
                errors.append(f"{s} at {snr} dB: non-finite mean")
            elif means[(s, float(snr))] > best:
                errors.append(f"{s} beats perfect-csi at {snr} dB: {means[(s, float(snr))]} > {best}")
    return errors


PAPER_PRE_DEDUP = 202500
PAPER_L = 101475


def check_codebook_output(kind: str, output: dict) -> list[str]:
    """Exit code 0, the paper's pair count and L, and a miss/hit line matching the op kind."""
    errors = []
    if output.get("code") != 0:
        errors.append(f"exit code {output.get('code')}: {output.get('stderr', '').strip()}")
    lines = output.get("stdout", "").splitlines()
    for want in (f"pre_dedup_pairs: {PAPER_PRE_DEDUP}", f"codebook_size_L: {PAPER_L}"):
        if want not in lines:
            errors.append(f"missing output line {want!r}")
    prefix = "built and cached: " if kind == "op" else "cache hit: "
    if not any(line.startswith(prefix) for line in lines):
        errors.append(f"{kind} op did not print {prefix.strip()!r}")
    return errors


# sweep_value (in d) -> (exhaustive L, hierarchical slots) for the desk step sweep
DESK_OVERHEADS = {20.0: (523776, 15925), 25.0: (101475, 15856), 37.5: (20910, 15680)}


def check_step_csv(text: str) -> list[str]:
    """Exhaustive and hierarchical overheads equal the desk reference values."""
    try:
        got = {(r["scheme"], float(r["sweep_value"])): float(r["mean"]) for r in _csv_rows(text)}
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unparsable sweep CSV: {exc!r}"]
    want = {}
    for step, (full, hier) in DESK_OVERHEADS.items():
        want[(experiments.SCHEME_EXHAUSTIVE, step)] = float(full)
        want[(experiments.SCHEME_HIERARCHICAL, step)] = float(hier)
    if got != want:
        return [f"overheads {sorted(got.items())} != {sorted(want.items())}"]
    return []


# --- workloads


class SnrDesk:
    """`sweep_snr` on the desk config over a small block of trials per op."""

    name = "snr-desk"
    item_unit = "trials"
    warmup_ops = 1
    cycle = 1
    trace_ops = 6
    TRIALS = 3

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self) -> None:
        self.cfg = _builtin("desk")
        # Built once and handed to every op, as `sweep snr --cache` does.
        self.near_cb = codebook.build_near_field_codebook(*self.cfg.codebook_grids(), self.cfg.scene.dims)

    def op(self, i: int) -> Op:
        cfg = dataclasses.replace(self.cfg, trials=self.TRIALS, master_seed=op_seed(self.seed, i))
        t0 = time.perf_counter()
        table = experiments.sweep_snr(cfg, threads=1, near_codebook=self.near_cb)
        dt = time.perf_counter() - t0
        return Op("op", dt, self.TRIALS, table.to_csv_text())

    def check(self, op: Op) -> list[str]:
        return check_snr_csv(op.output, self.cfg.schemes, self.cfg.snr_grid_db, self.TRIALS)

    def run_check(self, first: Op, i: int) -> list[str]:
        """Re-running op `i` gives identical CSV bytes."""
        again = self.op(i)
        return [] if again.output == first.output else [f"op {i} re-run changed the CSV"]


class CodebookPaper:
    """`xlris codebook build --config paper`, alternating cache misses and hits."""

    name = "codebook-paper"
    item_unit = "pairs"
    warmup_ops = 2
    cycle = 2  # a miss into a fresh directory, then a hit on the same directory
    trace_ops = 4

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        self.cfg = _builtin("paper")
        grid_g, grid_r = self.cfg.codebook_grids()
        self.pairs = grid_g.size * grid_r.size

    def op(self, i: int) -> Op:
        hit = i % 2 == 1
        # Named by op index, so the printed cache path repeats in every pass.
        d = self.work / f"cycle-{i // 2}"
        if not hit:
            shutil.rmtree(d, ignore_errors=True)
        argv = ["codebook", "build", "--config", "paper", "--cache", str(d), "--out", str(d)]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        dt = time.perf_counter() - t0
        files = sorted(d.glob("xlrc_*.bin"))
        digest = hashlib.sha256(files[0].read_bytes()).hexdigest() if len(files) == 1 else ""
        if hit:
            shutil.rmtree(d, ignore_errors=True)
        output = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "sha256": digest}
        return Op("load" if hit else "op", dt, 0 if hit else self.pairs, output)

    def check(self, op: Op) -> list[str]:
        return check_codebook_output(op.kind, op.output)

    def run_check(self, first: Op, i: int) -> list[str]:
        """The cached file loads back to a fresh build's keys and source points."""
        d = self.work / "run-check"
        shutil.rmtree(d, ignore_errors=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["codebook", "build", "--config", "paper", "--cache", str(d), "--out", str(d)])
            if code != 0:
                return [f"run-check build exited {code}"]
            (path,) = d.glob("xlrc_*.bin")
            if hashlib.sha256(path.read_bytes()).hexdigest() != first.output["sha256"]:
                return ["cache file bytes differ from the first timed op's"]
            dims = self.cfg.scene.dims
            loaded = codebook.load_codebook(path, dims)
            fresh = codebook.build_near_field_codebook(*self.cfg.codebook_grids(), dims)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        errors = []
        if not np.array_equal(loaded.keys, fresh.keys):
            errors.append("loaded keys differ from a fresh build")
        for side, idx in (("g", 0), ("r", 1)):
            pts_l = getattr(loaded, f"{side}_points")[loaded.pairs[:, idx]]
            pts_f = getattr(fresh, f"{side}_points")[fresh.pairs[:, idx]]
            if not np.array_equal(pts_l, pts_f):
                errors.append(f"loaded {side}-side source points differ from a fresh build")
        return errors


class StepDesk:
    """`sweep_overhead` on the desk config, threaded codebook builds."""

    name = "step-desk"
    item_unit = "pairs"
    warmup_ops = 1
    cycle = 1
    trace_ops = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.threads = min(2, len(os.sched_getaffinity(0)))

    def setup(self) -> None:
        self.cfg = _builtin("desk")
        self.pairs = sum(
            g.size * r.size for g, r in (self.cfg.codebook_grids(s) for s in self.cfg.step_sweep)
        )

    def op(self, i: int) -> Op:
        cfg = dataclasses.replace(self.cfg, master_seed=op_seed(self.seed, i))
        t0 = time.perf_counter()
        table = experiments.sweep_overhead(cfg, threads=self.threads)
        dt = time.perf_counter() - t0
        return Op("op", dt, self.pairs, table.to_csv_text())

    def check(self, op: Op) -> list[str]:
        return check_step_csv(op.output)

    def run_check(self, first: Op, i: int) -> list[str]:
        """The single-threaded sweep gives byte-identical CSV."""
        cfg = dataclasses.replace(self.cfg, master_seed=op_seed(self.seed, i))
        serial = experiments.sweep_overhead(cfg, threads=1).to_csv_text()
        return [] if serial == first.output else [f"threads=1 CSV differs from threads={self.threads}"]


WORKLOADS = {w.name: w for w in (SnrDesk, CodebookPaper, StepDesk)}
