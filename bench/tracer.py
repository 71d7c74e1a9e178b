"""Thread-aware span tracer that wraps xlris functions from outside the package.

``patched(tracer)`` swaps each traced function for a wrapper in every xlris
module namespace that holds it (the defining module and each module that
imports it), plus the two ``responses`` methods and the codebook module's
thread pool. Nothing under ``src/`` changes; the originals come back when
the context exits.

Span names follow ROADMAP aim 4 (``<module>.<function>``), so in-program
tracing added later can reuse them.

Threads: each thread keeps its own span stack. A worker task started
through the traced pool gets the submitting span as its parent, and its
busy time is summed under its own names instead of being subtracted from
the parent's wall time. The submitter's wait for the pool is its own
``codebook.pool_wait`` span, so it is not counted as build self time.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

MODULES = ("geometry", "channel", "codebook", "training", "experiments", "config", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    child_s: float = 0.0  # wall time of children on the same thread
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Collects spans in memory; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.root = None
        return self._local.stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else self._local.root

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = self.current()
        with self._lock:
            sid = next(self._ids)
        s = Span(sid, parent.id if parent else None, name, threading.get_ident(), time.perf_counter())
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += s.end - s.start
            with self._lock:
                self.spans.append(s)

    @contextlib.contextmanager
    def adopted(self, parent: Span | None):
        """Run this thread's next spans as children of `parent` (another thread's span)."""
        self._stack()
        saved, self._local.root = self._local.root, parent
        try:
            yield
        finally:
            self._local.root = saved

    def wrap(self, name: str, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            for key, count in (counters or {}).items():
                s.counts[key] = int(count(args, out))
            return out

        return traced


# span name -> (defining module, attribute, {counter: f(args, result)})
FUNCTIONS = {
    "geometry.element_distances": ("geometry", "element_distances", {}),
    "geometry.phase_vector": ("geometry", "phase_vector", {"elements": lambda a, out: np.size(out)}),
    "channel.complex_normal": ("channel", "complex_normal", {"draws": lambda a, out: np.size(out)}),
    "channel.sample_near_field_channel": ("channel", "sample_near_field_channel", {}),
    "codebook.reduced_profile": ("codebook", "reduced_profile", {"elements": lambda a, out: np.size(out)}),
    "codebook.hash_keys": ("codebook", "_hash_reduced", {}),
    "codebook.build_near_field_codebook": (
        "codebook",
        "build_near_field_codebook",
        {"pairs_in": lambda a, out: out.pre_dedup_pairs, "codewords_out": lambda a, out: out.size},
    ),
    "codebook.save_codebook": ("codebook", "save_codebook", {"bytes": lambda a, out: os.path.getsize(a[1])}),
    "codebook.load_codebook": ("codebook", "load_codebook", {"bytes": lambda a, out: os.path.getsize(a[0])}),
    "training.select_codeword": ("training", "select_codeword", {"slots": lambda a, out: np.size(a[0])}),
    "training.hierarchical_training": (
        "training",
        "hierarchical_training",
        {"slots": lambda a, out: out.slots_used},
    ),
    "experiments.sweep_snr": ("experiments", "sweep_snr", {}),
    "experiments.achievable_rate": ("experiments", "achievable_rate", {}),
    "experiments.sweep_overhead": ("experiments", "sweep_overhead", {}),
    "experiments.hierarchical_overhead": ("experiments", "hierarchical_overhead", {}),
    "config.parse_config": ("config", "parse_config", {}),
    "cli.main": ("cli", "main", {}),
}

# span name -> (module, class, method)
METHODS = {
    "codebook.responses.near": ("codebook", "NearFieldCodebook", "responses"),
    "codebook.responses.far": ("codebook", "FarFieldCodebook", "responses"),
}
# Spans the traced pool opens: one per task on a worker, one for the submitter's wait.
POOL_TASK = "codebook.fill_block"
POOL_WAIT = "codebook.pool_wait"


def _traced_executor(tracer: Tracer, task_name: str, wait_name: str):
    class TracedExecutor(ThreadPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            parent = tracer.current()

            def task(*args):
                with tracer.adopted(parent), tracer.span(task_name):
                    return fn(*args)

            with tracer.span(wait_name):
                results = list(super().map(task, *iterables, **kwargs))
            return iter(results)

    return TracedExecutor


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install tracing wrappers into the xlris modules; restore them on exit."""
    mods = {m: importlib.import_module(f"xlris.{m}") for m in MODULES}
    undo = []

    def setattr_undo(obj, attr, value):
        undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    try:
        for name, (home, attr, counters) in FUNCTIONS.items():
            original = getattr(mods[home], attr)
            wrapper = tracer.wrap(name, original, counters)
            for mod in mods.values():
                if mod.__dict__.get(attr) is original:
                    setattr_undo(mod, attr, wrapper)
        for name, (home, cls_name, attr) in METHODS.items():
            cls = getattr(mods[home], cls_name)
            setattr_undo(cls, attr, tracer.wrap(name, getattr(cls, attr)))
        setattr_undo(
            mods["codebook"],
            "ThreadPoolExecutor",
            _traced_executor(tracer, POOL_TASK, POOL_WAIT),
        )
        yield tracer
    finally:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)


# Spans whose self time makes up the dedup stage of a build: the build's own
# code (block sums, np.unique, pair assembly), key hashing, and the per-block
# residue of pool tasks when the build runs threaded.
BUILD = "codebook.build_near_field_codebook"
DEDUP_SPANS = (BUILD, "codebook.hash_keys", POOL_TASK)
STAGE2_CALLER = "training.hierarchical_training"
SPAN_COUNTERS = {
    **{name: tuple(counters) for name, (_, _, counters) in FUNCTIONS.items()},
    **{name: () for name in (*METHODS, POOL_TASK, POOL_WAIT)},
}


def layer_metrics(spans: list[Span]) -> dict:
    """Aggregate spans into per-layer metrics keyed by name.

    Every span name gets ``.calls`` and ``.self_s``; span counters are summed
    as ``<span>.<counter>``. Builds called from hierarchical training carry
    the ``.stage2`` suffix on their call and pair counts.
    """
    by_id = {s.id: s for s in spans}
    times: dict[str, float] = collections.defaultdict(float)
    counts: collections.Counter = collections.Counter()
    for name, counters in SPAN_COUNTERS.items():
        times[f"{name}.self_s"] = 0.0
        for sfx in ("", ".stage2") if name == BUILD else ("",):
            for key in ("calls", *counters):
                counts[f"{name}.{key}{sfx}"] = 0
    for s in spans:
        suffix = ""
        if s.name == BUILD:
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == STAGE2_CALLER:
                suffix = ".stage2"
        times[f"{s.name}.self_s"] += s.self_s
        counts[f"{s.name}.calls{suffix}"] += 1
        for k, v in s.counts.items():
            counts[f"{s.name}.{k}{suffix}"] += v
    times["codebook.dedup.self_s"] = sum(times[f"{n}.self_s"] for n in DEDUP_SPANS)
    out = {**times, **counts}
    for sfx in ("", ".stage2"):
        pairs = counts[f"{BUILD}.pairs_in{sfx}"]
        kept = counts[f"{BUILD}.codewords_out{sfx}"]
        out["codebook.dedup_ratio" + sfx] = kept / pairs if pairs else 0.0
    return out


def span_records(spans: list[Span]) -> list[dict]:
    return [
        {
            "id": s.id,
            "parent": s.parent,
            "name": s.name,
            "thread": s.thread,
            "start": s.start,
            "end": s.end,
            "self_s": s.self_s,
            "counts": s.counts,
        }
        for s in sorted(spans, key=lambda s: s.id)
    ]
