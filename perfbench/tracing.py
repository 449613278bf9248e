"""Spans around the calls one benchmark operation makes into scroll's layers.

The program is not instrumented. For the duration of a traced operation,
:func:`install` replaces the public callables the operation reaches with
wrappers that record a span (name, start, end, parent span, operation id)
and a few counters, all kept in memory; :func:`uninstall` puts the
originals back. :func:`layer_metrics` turns one operation's spans into
the per-layer metrics listed in ``BENCHMARK.json``.

Call sites that bound a name with ``from .x import f`` are patched where
they look the name up (e.g. ``scroll.harness.build_schedule``); methods
are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """In-memory spans and counters of one operation, tagged with its id."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _load(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        tracer.count("embeddings.bytes_read", os.path.getsize(path))
        with tracer.span("embeddings.load_embeddings"):
            return fn(path, *args, **kwargs)
    return wrapper


def _batches(tracer: Tracer, fn):
    # Only the time spent producing each batch is the schedule layer's;
    # the consumer's work between batches belongs to the caller.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        batches = fn(*args, **kwargs)
        while True:
            with tracer.span("schedules.iter_batches"):
                batch = next(batches, None)
            if batch is None:
                return
            tracer.count("schedules.batches")
            yield batch
    return wrapper


def _buffer_update(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, vectors, labels, indices):
        tracer.count("replay.pool_rows", self.total_stored() + len(labels))
        with tracer.span("replay.update"):
            out = fn(self, vectors, labels, indices)
        tracer.count("replay.rows_stored", self.total_stored())
        return out
    return wrapper


def _predict(tracer: Tracer, fn):
    # tracemalloc runs only inside prediction, so its cost stays there.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            with tracer.span("learners.predict_batch"):
                out = fn(*args, **kwargs)
            tracer.peak("learners.predict_peak_bytes", tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap scroll's public layer callables; return what :func:`uninstall` needs."""
    # ``scroll.adapt`` is the function re-exported by the package; the
    # module is only reachable through ``sys.modules``.
    adapt, harness, learners, replay = (
        importlib.import_module(f"scroll.{name}")
        for name in ("adapt", "harness", "learners", "replay")
    )
    saved = []

    def put(owner, attr, wrap):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def timed(name):
        return lambda fn: _timed(tracer, name, fn)

    put(harness, "execute", timed("harness.execute"))
    put(harness, "buffer_study", timed("harness.buffer_study"))
    put(harness, "load_embeddings", lambda fn: _load(tracer, fn))
    put(harness, "normalize", timed("embeddings.normalize"))
    put(harness, "build_schedule", timed("schedules.build_schedule"))
    put(harness, "iter_batches", lambda fn: _batches(tracer, fn))
    for cls in (learners.NccState, learners.RidgeState):
        put(cls, "update_batch", timed("learners.update_batch"))
        put(cls, "copy", timed("learners.copy"))
    put(learners.RidgeState, "solve", timed("learners.solve"))
    put(learners.NccState, "to_linear_head", timed("learners.to_linear_head"))
    for cls in (learners.NccState, learners.LinearHead):
        put(cls, "predict_batch", lambda fn: _predict(tracer, fn))
    put(replay.ReplayBuffer, "update", lambda fn: _buffer_update(tracer, fn))
    put(replay.ReplayBuffer, "moment_distances", timed("replay.moment_distances"))
    put(replay.ReplayBuffer, "copy", timed("replay.copy"))
    put(harness, "adapt", timed("adapt.adapt"))
    put(harness, "init_head", timed("adapt.init_head"))
    put(adapt.AdaptedPredictor, "predict_batch", timed("adapt.predict_batch"))
    put(adapt, "loss_and_grads", lambda fn: _counted(tracer, "adapt.steps", fn))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def self_time(spans: list[Span], root: Span) -> float:
    """``root``'s duration minus the part of it its direct children cover."""
    children = sorted(
        (max(s.start, root.start), min(s.end, root.end))
        for s in spans
        if s.parent == root.id
    )
    covered, reach = 0.0, root.start
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return (root.end - root.start) - covered


#: Per-layer time metric -> span name whose durations it sums.
SPAN_TIMES = {
    "replay.update_s": "replay.update",
    "replay.moment_s": "replay.moment_distances",
    "adapt.adapt_s": "adapt.adapt",
    "adapt.predict_s": "adapt.predict_batch",
    "learners.predict_s": "learners.predict_batch",
    "learners.update_s": "learners.update_batch",
    "learners.solve_s": "learners.solve",
    "schedules.build_s": "schedules.build_schedule",
    "schedules.iter_s": "schedules.iter_batches",
    "embeddings.load_s": "embeddings.load_embeddings",
    "harness.execute_s": "harness.execute",
    "harness.buffer_study_s": "harness.buffer_study",
}

#: Per-layer call-count metric -> span name whose spans it counts.
SPAN_CALLS = {
    "replay.update_calls": "replay.update",
    "learners.predict_calls": "learners.predict_batch",
    "learners.update_calls": "learners.update_batch",
}

#: Per-layer metric -> counter it reports.
COUNTERS = {
    "replay.pool_rows": "replay.pool_rows",
    "replay.rows_stored": "replay.rows_stored",
    "adapt.steps": "adapt.steps",
    "schedules.batches": "schedules.batches",
    "embeddings.bytes_read": "embeddings.bytes_read",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation (0 for layers it never reached).

    The operation's root span is the harness call; ``harness.self_s`` is
    that span's self time, the harness's own work between layer calls.
    """
    spans = tracer.spans
    out: dict[str, float] = {}
    for metric, name in SPAN_TIMES.items():
        out[metric] = sum(s.end - s.start for s in spans if s.name == name)
    for metric, name in SPAN_CALLS.items():
        out[metric] = sum(1 for s in spans if s.name == name)
    for metric, name in COUNTERS.items():
        out[metric] = tracer.counts.get(name, 0)
    out["learners.predict_peak_mb"] = tracer.counts.get("learners.predict_peak_bytes", 0) / 2**20
    steps = out["adapt.steps"]
    out["adapt.step_us"] = out["adapt.adapt_s"] / steps * 1e6 if steps else 0.0
    out["harness.self_s"] = sum(self_time(spans, s) for s in spans if s.parent is None)
    return out
