"""Per-layer spans, taken from outside the program.

:func:`installed` replaces each timed public function, at the attribute
its caller looks it up by, with a wrapper that records a span: name,
start, end and the enclosing span. Coarse layer boundaries (parse, EBM,
ordering, diff stream, ``Dataflow.step``, ingest, serve calls) keep every
span in memory; hot inner calls (scheduling, trace accumulation, meter
records, operator kernels) are only summed, because a job makes millions
of them. Both kinds feed their parent's child time, so a span's self
time is its duration minus the time its child spans cover.

Nothing under ``src/`` changes. Leaving the context restores every
original attribute, so one process can alternate traced and untraced
jobs and report the difference as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: (module, class or None, attribute, span name, keep every span)
TARGETS = (
    ("repro.core.system", None, "parse_program", "gvdl.parse", True),
    ("repro.core.view_collection", None, "build_ebm", "ebm.build", True),
    ("repro.core.view_collection", None, "order_collection",
     "ordering.order", True),
    ("repro.core.view_collection", None, "compute_diff_stream",
     "diff_stream.compute", True),
    ("repro.core.view_collection", "ViewCollectionDefinition",
     "materialize", "materialize", True),
    ("repro.core.splitting.optimizer", "AdaptiveSplitter", "decide",
     "splitting.decide", False),
    ("repro.differential.dataflow", "Dataflow", "step",
     "differential.step", True),
    ("repro.differential.dataflow", "Dataflow", "compact",
     "differential.compact", True),
    ("repro.differential.trace", "TimeSchedule", "schedule",
     "differential.schedule", False),
    ("repro.differential.trace", "KeyTrace", "accumulate",
     "differential.accumulate", False),
    ("repro.differential.operators.reduce", "ReduceOp", "flush",
     "differential.reduce_flush", False),
    ("repro.differential.operators.join", "JoinOp", "on_delta",
     "differential.join", False),
    ("repro.differential.operators.arrange", "JoinArrangedOp", "on_delta",
     "differential.join", False),
    ("repro.differential.operators.iterate", "IterateOp", "flush",
     "differential.iterate", False),
    ("repro.timely.meter", "WorkMeter", "record", "meter.record", False),
    ("repro.serve.session", "ResidentDataflow", "advance_by",
     "stream.advance", False),
    ("repro.stream.engine", "StreamEngine", "ingest", "stream.ingest", True),
    ("repro.serve.session", "ServeSession", "run", "serve.compute", True),
    ("repro.serve.session", "ServeSession", "mutate", "serve.mutate", True),
)


class SpanRecorder:
    """Spans and counts of one traced job, kept in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (id, parent id or -1, name, start, end) of every kept span
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, keep: bool,
             observe: Optional[Callable[[Any], None]] = None) -> Callable:
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][1] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if keep:
                    self.spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay)."""
        for totals in self.totals.values():
            totals[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def time_under(self, name: str, ancestor: str) -> float:
        """Total time of kept ``name`` spans inside an ``ancestor`` span."""
        names = {span[0]: span[2] for span in self.spans}
        parents = {span[0]: span[1] for span in self.spans}
        total = 0.0
        for span_id, parent, span_name, start, end in self.spans:
            if span_name != name:
                continue
            while parent != -1 and names.get(parent) != ancestor:
                parent = parents.get(parent, -1)
            if parent != -1:
                total += end - start
        return total

    def to_dict(self) -> dict:
        return {"totals": self.totals, "counts": self.counts,
                "samples": self.samples, "spans": self.spans}

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecorder":
        recorder = cls()
        recorder.totals = {k: list(v) for k, v in data["totals"].items()}
        recorder.counts = dict(data["counts"])
        recorder.samples = {k: list(v) for k, v in data["samples"].items()}
        recorder.spans = [tuple(span) for span in data["spans"]]
        return recorder


def _observers(recorder: SpanRecorder) -> Dict[str, Callable]:
    def ebm_cells(ebm) -> None:
        recorder.count("ebm.cells", ebm.num_edges * ebm.num_views)

    def ordering(result) -> None:
        recorder.count("ordering.identity_diffs", result.identity_diff_count)
        recorder.count("ordering.ordered_diffs", result.diff_count)

    def diffs(stream) -> None:
        recorder.count("diff_stream.diffs", sum(len(d) for d in stream))

    return {"ebm.build": ebm_cells, "ordering.order": ordering,
            "diff_stream.compute": diffs}


class _TimedLock:
    """An ``asyncio.Lock`` stand-in recording how long each acquire waited."""

    def __init__(self, lock, recorder: SpanRecorder) -> None:
        self._lock = lock
        self._recorder = recorder

    async def __aenter__(self):
        started = time.perf_counter()
        await self._lock.acquire()
        self._recorder.sample("serve.queue_wait_s",
                              time.perf_counter() - started)
        return self

    async def __aexit__(self, *exc_info) -> None:
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every target for the duration of the context."""
    observers = _observers(recorder)
    restore = []
    try:
        for module_name, owner_name, attr, name, keep in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else \
                getattr(owner, attr)
            restore.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, keep,
                                               observers.get(name)))
        from repro.serve.app import ServeApp

        original_init = ServeApp.__init__

        def init(app, *args, **kwargs):
            original_init(app, *args, **kwargs)
            app._compute_lock = _TimedLock(app._compute_lock, recorder)

        restore.append((ServeApp, "__init__", original_init))
        ServeApp.__init__ = init
        yield recorder
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def traced_by(recorder: Optional[SpanRecorder]):
    """:func:`installed` for a recorder, or no tracing for ``None``."""
    if recorder is None:
        return contextlib.nullcontext()
    return installed(recorder)


def span_layers(recorder: SpanRecorder) -> Dict[str, float]:
    """The per-layer figures that come from spans and in-span counts."""
    identity = recorder.counts.get("ordering.identity_diffs", 0)
    ordered = recorder.counts.get("ordering.ordered_diffs", 0)
    diffs = recorder.counts.get("diff_stream.diffs", 0)
    if ordered:
        ratio = identity / ordered
    else:
        ratio = 1.0 if recorder.calls("diff_stream.compute") else 0.0
    waits = recorder.samples.get("serve.queue_wait_s", [])
    return {
        "gvdl.parse_s": recorder.total("gvdl.parse"),
        "ebm.build_s": recorder.total("ebm.build"),
        "ebm.cells": recorder.counts.get("ebm.cells", 0),
        "ordering.order_s": recorder.total("ordering.order"),
        "ordering.diffs": diffs,
        "ordering.diff_ratio": ratio,
        "diff_stream.compute_s": recorder.total("diff_stream.compute"),
        "splitting.decide_s": recorder.total("splitting.decide"),
        "differential.step_s": recorder.total("differential.step"),
        "differential.schedule_s": recorder.total("differential.schedule"),
        "differential.schedule_calls":
            recorder.calls("differential.schedule"),
        "differential.accumulate_s":
            recorder.total("differential.accumulate"),
        "differential.accumulate_calls":
            recorder.calls("differential.accumulate"),
        "differential.reduce_flush_s":
            recorder.total("differential.reduce_flush"),
        "differential.join_s": recorder.total("differential.join"),
        "differential.iterate_self_s":
            recorder.self_time("differential.iterate"),
        "differential.compact_s": recorder.total("differential.compact"),
        "meter.record_s": recorder.total("meter.record"),
        "stream.advance_s": recorder.total("stream.advance"),
        "stream.ingest_self_s": recorder.self_time("stream.ingest"),
        "serve.compute_s": recorder.total("serve.compute"),
        "serve.mutate_s": recorder.total("serve.mutate"),
        "serve.rematerialize_s":
            recorder.time_under("materialize", "serve.mutate"),
        "serve.queue_wait_ms":
            1000.0 * sum(waits) / len(waits) if waits else 0.0,
    }
