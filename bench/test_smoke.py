"""Smoke test for the benchmark runner.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at minimum length, untraced and traced, and checks that
each metric declared in BENCHMARK.json is emitted with its unit. Feeds a
wrong output to every output check and checks that the op counts as failed.
Takes about 70 s on two cores.
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace, cwd=ROOT, runner=BENCH / "run.py"):
    argv = [sys.executable, str(runner), "--workload", workload, "--seed", "7", "--seconds", "1"]
    return subprocess.run(argv + ["--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed7-trace{trace}.json").read_text())
    assert set(record["machine"]) == {"nproc", "python", "numpy"}
    assert record["seed"] == 7 and "samples" in record["detail"]


def test_runner_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("snr-desk", 0, cwd=tmp_path, runner=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _with_output(wl, op, output):
    """A copy of the set-up workload whose op() returns `output`."""
    clone = copy.copy(wl)
    clone.op = lambda i: op._replace(output=output)
    return clone


def _fails(wl):
    return bool(run.attempt(wl, 99)[1])


def test_snr_checks_reject_wrong_outputs(tmp_path):
    wl = workloads.SnrDesk(7, tmp_path)
    wl.setup()
    op = wl.op(1)
    assert not wl.check(op)
    rows = op.output.splitlines()
    far = next(k for k, r in enumerate(rows) if r.startswith("far-field,"))
    cols = rows[far].split(",")
    cols[3] = "1e9"  # far-field mean above perfect CSI
    bad = "\n".join(rows[:far] + [",".join(cols)] + rows[far + 1 :]) + "\n"
    assert _fails(_with_output(wl, op, bad))
    assert _fails(_with_output(wl, op, "\n".join(rows[:-1]) + "\n"))
    assert wl.run_check(op._replace(output=bad), 1)


def test_codebook_checks_reject_wrong_outputs(tmp_path):
    wl = workloads.CodebookPaper(7, tmp_path / "work")
    wl.setup()
    good = {"code": 0, "stdout": "built and cached: x\npre_dedup_pairs: 202500\ncodebook_size_L: 101475\n"}
    op = workloads.Op("op", 1.0, wl.pairs, good)
    assert not wl.check(op)
    for bad in (
        {**good, "code": 1},
        {**good, "stdout": good["stdout"].replace("101475", "101474")},
        {**good, "stdout": good["stdout"].replace("built and cached", "cache hit")},
    ):
        assert _fails(_with_output(wl, op, bad))
    assert wl.run_check(op._replace(output={**good, "sha256": "0" * 64}), 2)


def test_step_checks_reject_wrong_outputs(tmp_path):
    wl = workloads.StepDesk(7, tmp_path)
    wl.setup()
    op = wl.op(1)
    assert not wl.check(op)
    bad = op.output.replace("15925.0", "15926.0")
    assert _fails(_with_output(wl, op, bad))
    assert wl.run_check(op._replace(output=bad), 1)


def test_worker_spans_have_the_submitter_as_parent_and_sum_busy_time():
    tr = tracer.Tracer()
    pool_cls = tracer._traced_executor(tr, "task", "wait")

    def work(_):
        with tr.span("leaf"):
            time.sleep(0.05)

    with tr.span("root"):
        with pool_cls(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    spans = {name: [s for s in tr.spans if s.name == name] for name in ("root", "wait", "task", "leaf")}
    (root,), (wait,) = spans["root"], spans["wait"]
    assert wait.parent == root.id
    assert all(t.parent == root.id and t.thread != root.thread for t in spans["task"])
    task_ids = {t.id for t in spans["task"]}
    assert len(spans["leaf"]) == 4 and all(s.parent in task_ids for s in spans["leaf"])
    busy = sum(s.self_s for s in spans["leaf"])
    assert busy > 0.19 > root.end - root.start  # summed across two threads
    assert root.self_s < 0.02  # the pool wait is its own span, not root self time
