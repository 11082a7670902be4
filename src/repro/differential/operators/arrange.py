"""Shared arrangements.

In Differential Dataflow, ``arrange_by_key`` materializes a collection's
difference trace once and lets many downstream operators read the same
index instead of each building a private copy — a major memory and
maintenance saving when e.g. the edges relation feeds several joins.

``ArrangeOp`` stores the trace and forwards differences; a
``JoinArrangedOp`` keeps a private trace only for its *other* input and
reads the arranged side from the shared trace.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.differential.multiset import Diff, consolidate
from repro.differential.operators.base import Operator
from repro.differential.timestamp import Time, lub
from repro.differential.trace import Trace


class ArrangeOp(Operator):
    """Materialize a keyed collection's trace; forward its differences."""

    def __init__(self, dataflow, scope, name, source):
        super().__init__(dataflow, scope, name, [source])
        self.trace = Trace(name + ".trace")

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        grouped: Dict[Any, Diff] = {}
        for rec, mult in diff.items():
            try:
                key, value = rec
            except (TypeError, ValueError):
                raise TypeError(
                    f"arrange input records must be (key, value) pairs; "
                    f"operator {self.name} got {rec!r}"
                ) from None
            slot = grouped.get(key)
            if slot is None:
                grouped[key] = {value: mult}
            else:
                slot[value] = slot.get(value, 0) + mult
        self.trace.update_batch(time, grouped)
        # Deliberately unmetered: the cost model charges index maintenance
        # at the joins that read a trace, so a dataflow using one shared
        # arrangement reports the same total_work/parallel_time as the
        # same dataflow with private per-join traces. Sharing shows up as
        # memory (record_count) and wall clock, not as model work.
        self.send(time, diff)

    def local_traces(self):
        return (self.trace,)


class ArrangeEnterOp(Operator):
    """Bring an arrangement's difference stream into a child scope.

    Shares the parent arrangement's trace — no copy is made. Forwarded
    differences get a zero loop coordinate appended (exactly like
    ``EnterOp``); consumers pad the shared trace's shorter stored times
    the same way when pairing.
    """

    def __init__(self, dataflow, parent_scope, name, source):
        super().__init__(dataflow, parent_scope, name, [source])
        self.trace = source.trace

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        self.send(time + (0,), diff)


class JoinArrangedOp(Operator):
    """Join a stream (port 0) against a shared arrangement (port 1).

    Port 0 differences pair against the arrangement's full trace; the
    arrangement's forwarded differences pair against the private port-0
    trace. Each difference pair is counted exactly once, as in
    :class:`repro.differential.operators.join.JoinOp` — but the arranged
    side's trace is stored once no matter how many joins read it.
    """

    def __init__(self, dataflow, scope, name, left, arrange_op,
                 f: Callable[[Any, Any, Any], Any]):
        super().__init__(dataflow, scope, name, [left, arrange_op])
        self.f = f
        self.arranged = arrange_op.trace
        self.left_trace = Trace(name + ".left")

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        grouped: Dict[Any, Diff] = {}
        for rec, mult in diff.items():
            try:
                key, value = rec
            except (TypeError, ValueError):
                raise TypeError(
                    f"join input records must be (key, value) pairs; "
                    f"operator {self.name} got {rec!r}"
                ) from None
            slot = grouped.get(key)
            if slot is None:
                grouped[key] = {value: mult}
            else:
                slot[value] = slot.get(value, 0) + mult
        outputs: Dict[Time, Diff] = {}
        record = self.dataflow.meter.record
        for key, values in grouped.items():
            self._probe_key(port, time, key, values, record, outputs)
        for out_time in sorted(outputs):
            self.send(out_time, consolidate(outputs[out_time]))

    def _probe_key(self, port: int, time: Time, key: Any, values: Diff,
                   record, outputs: Dict[Time, Diff]) -> None:
        """Per-key probe kernel; ``record`` is the meter's hook."""
        f = self.f
        epoch = time[0]
        tlen = len(time)
        if port == 0:
            # Store first so later arranged diffs at this time pair
            # against it; then match the arrangement as of now (which
            # includes arranged diffs that arrived earlier, and not
            # ones still to come — exactly-once pairing).
            self.left_trace.update(key, time, values)
            self.arranged.maybe_compact(key, epoch)
            other = self.arranged.get(key)
            record(key, len(values))
            if other is None:
                return
            pairs = 0
            for t2, vals in other.entries.items():
                if len(t2) != tlen:
                    # The arrangement was entered from an outer scope:
                    # its times are shorter and behave as if padded
                    # with zero loop coordinates.
                    t2 = t2 + (0,) * (tlen - len(t2))
                out_time = lub(time, t2)
                slot = outputs.setdefault(out_time, {})
                pairs += len(vals)
                for value, mult in values.items():
                    for v2, m2 in vals.items():
                        out = f(key, value, v2)
                        slot[out] = slot.get(out, 0) + mult * m2
            if pairs:
                record(key, pairs * len(values))
        else:
            # The ArrangeOp already stored this diff before forwarding;
            # pair it against the private left trace only.
            self.left_trace.maybe_compact(key, epoch)
            mine = self.left_trace.get(key)
            record(key, len(values))
            if mine is None:
                return
            pairs = 0
            for t2, vals in mine.entries.items():
                out_time = lub(time, t2)
                slot = outputs.setdefault(out_time, {})
                pairs += len(vals)
                for value, mult in values.items():
                    for v2, m2 in vals.items():
                        out = f(key, v2, value)
                        slot[out] = slot.get(out, 0) + mult * m2
            if pairs:
                record(key, pairs * len(values))

    def local_traces(self):
        # The arranged side is owned (and compacted) by its ArrangeOp.
        return (self.left_trace,)
