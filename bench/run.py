"""Benchmark runner for xlris; one workload per process.

    python3 bench/run.py --workload snr-desk --seed 1 --seconds 20 --trace 0

``--trace 0`` times closed-loop ops for ``--seconds`` and reports the
end-to-end metrics named in ``BENCHMARK.json``. ``--trace 1`` runs a fixed
number of ops three times (untraced, traced, traced again), checks that the
outputs are byte-identical and the traced counts repeat exactly, and
reports the per-layer metrics. The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record (machine, versions, sample counts, failures) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` under the checkout.
The exit code is 0 only when every output check passed.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5  # setup_s is the median of this many set-ups in one process
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples above it


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one xlris benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def attempt(wl, i):
    """Run op `i` and its output check; returns (op or None, error strings)."""
    try:
        op = wl.op(i)
    except Exception:  # an op that raises counts as failed; the run goes on
        return None, [f"op {i} raised:\n{traceback.format_exc()}"]
    return op, [f"op {i}: {e}" for e in wl.check(op)]


def set_up(cls, seed, work):
    """Fresh workload: set-up plus warm-up ops. Returns (workload, errors)."""
    wl = cls(seed, work)
    wl.setup()
    errors = []
    for i in range(wl.warmup_ops):
        errors += attempt(wl, i)[1]
    return wl, errors


def run_timed(cls, seed, seconds, work, import_s):
    setups, errors = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl, errs = set_up(cls, seed, work)
        setups.append(time.perf_counter() - t0)
        errors += errs

    ops, failures, failed = [], [], 0
    i = wl.warmup_ops
    deadline = time.perf_counter() + seconds
    while True:
        op, errs = attempt(wl, i)
        if errs:
            failures += errs
            failed += 1
        else:
            ops.append((i, op))
        i += 1
        if time.perf_counter() >= deadline and (i - wl.warmup_ops) % wl.cycle == 0:
            break
    attempted = i - wl.warmup_ops

    main = [op for _, op in ops if op.kind == "op"]
    loads = [op.seconds for _, op in ops if op.kind == "load"]
    if main:
        first_i, first = next((j, op) for j, op in ops if op.kind == "op")
        try:
            errors += [f"run check: {e}" for e in wl.run_check(first, first_i)]
        except Exception:
            errors.append(f"run check raised:\n{traceback.format_exc()}")
    else:
        errors.append("no op passed its checks")
        return attempted, failed, failures, errors, {}, {}

    secs = [op.seconds for op in main]
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "op_s.p50": statistics.median(secs),
        "items_per_s": sum(op.items for op in main) / sum(secs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "import_s": import_s,
        "setup_reps_s": setups,
        "samples": {"op_s": len(secs), "load_s": len(loads)},
        f"{wl.item_unit}_per_s": metrics["items_per_s"],
        "op_fail_ratio": failed / attempted,
    }
    if len(secs) >= P90_MIN_SAMPLES:
        detail["op_s.p90"] = statistics.quantiles(secs, n=10)[8]
    if loads:
        detail["load_s.p50"] = statistics.median(loads)
    return attempted, failed, failures, errors, metrics, detail


def run_traced(cls, seed, work, spans_path):
    from tracer import Tracer, layer_metrics, patched, span_records

    passes, failures, errors, failed = [], [], [], set()
    for n, traced in enumerate((False, True, True)):
        tracer = Tracer() if traced else None
        with patched(tracer) if traced else contextlib.nullcontext():
            wl, errs = set_up(cls, seed, work)
            errors += errs
            ops = []
            for i in range(wl.warmup_ops, wl.warmup_ops + wl.trace_ops):
                op, errs = attempt(wl, i)
                if errs:
                    failures += errs
                    failed.add((n, i))
                ops.append(op)
        passes.append((tracer, ops))
    attempted = sum(len(ops) for _, ops in passes)

    (_, plain), (tr_a, ops_a), (tr_b, ops_b) = passes
    for k, (p, a, b) in enumerate(zip(plain, ops_a, ops_b)):
        if None not in (p, a, b) and not p.output == a.output == b.output:
            failures.append(f"traced op {wl.warmup_ops + k} output differs from the untraced one")
            failed.update({(1, wl.warmup_ops + k), (2, wl.warmup_ops + k)})
    layers_a, layers_b = layer_metrics(tr_a.spans), layer_metrics(tr_b.spans)
    for key in sorted(layers_a):
        if not key.endswith(".self_s") and layers_a[key] != layers_b[key]:
            errors.append(f"count {key} differs between traced runs: {layers_a[key]} != {layers_b[key]}")

    def op_median(ops):
        secs = [op.seconds for op in ops if op is not None and op.kind == "op"]
        return statistics.median(secs) if secs else float("nan")

    layers_a["trace.overhead_s"] = op_median(ops_a + ops_b) - op_median(plain)
    spans_path.write_text(json.dumps(span_records(tr_a.spans)) + "\n")
    detail = {"samples": {"op_s": sum(op is not None and op.kind == "op" for op in plain)}}
    return attempted, len(failed), failures, errors, layers_a, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "xlris" / "__init__.py").is_file():
        print(f"error: no xlris package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy as np
    import xlris

    if Path(xlris.__file__).resolve().parent != (src / "xlris").resolve():
        print(f"error: imported xlris from {xlris.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - t0

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            attempted, failed, failures, errors, values, detail = run_traced(
                cls, args.seed, work, OUT_DIR / f"{stem}-spans.json"
            )
        else:
            attempted, failed, failures, errors, values, detail = run_timed(
                cls, args.seed, args.seconds, work, import_s
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not failed and not errors and bool(values)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared} if values else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "failures": failures,
        "errors": errors,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for msg in failures + errors:
        print(msg, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in detail.items():
        print(f"{args.workload}  {name} = {value}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
