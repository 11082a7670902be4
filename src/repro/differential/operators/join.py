"""Bilinear equi-join on keyed records.

Both inputs must carry ``(key, value)`` records. For every pair of
differences ``δa @ t1`` (left) and ``δb @ t2`` (right) with the same key,
the join emits ``f(key, va, vb)`` with multiplicity ``ma * mb`` at timestamp
``lub(t1, t2)``.

Processing each arriving difference against the *other* side's trace counts
every pair exactly once, and emitting at the least upper bound is what makes
the join correct under partially ordered times: e.g. an edge added at view
``(1, 0)`` must produce corrections against distance diffs from iterations
``(0, j)`` of the previous view at times ``(1, j)`` — timestamps at which
neither input carries a difference (cf. the Bellman-Ford trace in the
paper's Table 1).

The per-key work — trace update, compaction probe, pairing — lives in
:meth:`JoinOp._join_key`, which the batched ``on_delta`` calls once per
key in arrival order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.differential.multiset import Diff, consolidate
from repro.differential.operators.base import Operator
from repro.differential.timestamp import Time, lub
from repro.differential.trace import Trace


class JoinOp(Operator):
    """``left.join(right)`` with a result-builder ``f(key, va, vb)``."""

    def __init__(self, dataflow, scope, name, left, right,
                 f: Callable[[Any, Any, Any], Any]):
        super().__init__(dataflow, scope, name, [left, right])
        self.f = f
        self.traces = (Trace(name + ".left"), Trace(name + ".right"))

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        # Group the incoming batch by key: one trace touch, one compaction
        # probe and one meter call per key instead of one per record. The
        # pairing below is bilinear, so pairing the whole per-key value
        # diff at once produces exactly the per-record pairs.
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
            self._join_key(port, time, key, values, record, outputs)
        for out_time in sorted(outputs):
            self.send(out_time, consolidate(outputs[out_time]))

    def _join_key(self, port: int, time: Time, key: Any, values: Diff,
                  record: Callable[[Any, int], None],
                  outputs: Dict[Time, Diff]) -> None:
        """Per-key join kernel; ``record`` is the meter's hook."""
        mine = self.traces[port]
        other = self.traces[1 - port]
        f = self.f
        epoch = time[0]
        # First incorporate into our own trace so the opposite side's
        # future deltas at this timestamp pair against it (each pair of
        # diffs is thus counted exactly once).
        mine.update(key, time, values)
        other.maybe_compact(key, epoch)
        other_key = other.get(key)
        record(key, len(values))
        if other_key is None:
            return
        pairs = 0
        for t2, vals in other_key.entries.items():
            out_time = lub(time, t2)
            slot = outputs.setdefault(out_time, {})
            pairs += len(vals)
            if port == 0:
                for value, mult in values.items():
                    for v2, m2 in vals.items():
                        out = f(key, value, v2)
                        slot[out] = slot.get(out, 0) + mult * m2
            else:
                for value, mult in values.items():
                    for v2, m2 in vals.items():
                        out = f(key, v2, value)
                        slot[out] = slot.get(out, 0) + mult * m2
        if pairs:
            record(key, pairs * len(values))

    def local_traces(self):
        return self.traces
