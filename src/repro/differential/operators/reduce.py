"""The keyed reduce family.

``ReduceOp`` applies a user ``logic(key, values)`` to the accumulated
multiset of a key's values and emits ``(key, out_value)`` records. A key is
recomputed only at timestamps scheduled by the lub-closure scheduler —
untouched keys cost nothing, which is precisely the computation sharing
differential computation provides across the views of a collection.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable

from repro.differential.multiset import Diff, add_into, consolidate
from repro.differential.operators.base import Operator
from repro.differential.timestamp import Time
from repro.differential.trace import TimeSchedule, Trace


class ReduceOp(Operator):
    """Generic keyed reduction.

    ``logic(key, values)`` receives the accumulated input values for the key
    as a dict ``{value: multiplicity}`` with strictly positive
    multiplicities, and returns an iterable of output values (each emitted
    with multiplicity 1). When the accumulated input is empty the key's
    output is empty — ``logic`` is not called.
    """

    def __init__(self, dataflow, scope, name, source,
                 logic: Callable[[Any, Dict[Any, int]], Iterable[Any]]):
        super().__init__(dataflow, scope, name, [source])
        self.logic = logic
        self.in_trace = Trace(name + ".in")
        self.out_trace = Trace(name + ".out")
        self.schedule = TimeSchedule()

    def on_delta(self, port: int, time: Time, diff: Diff) -> None:
        # Batched path: one trace touch and one schedule call per key
        # instead of one per record.
        grouped: Dict[Any, Diff] = {}
        for rec, mult in diff.items():
            try:
                key, value = rec
            except (TypeError, ValueError):
                raise TypeError(
                    f"reduce input records must be (key, value) pairs; "
                    f"operator {self.name} got {rec!r}"
                ) from None
            slot = grouped.get(key)
            if slot is None:
                grouped[key] = {value: mult}
            else:
                slot[value] = slot.get(value, 0) + mult
        self.in_trace.update_batch(time, grouped)
        schedule = self.schedule.schedule
        for key in grouped:
            schedule(key, time)

    def flush(self, time: Time) -> None:
        keys = self.schedule.tasks_at(time)
        if not keys:
            return
        record = self.dataflow.meter.record
        out_diff: Diff = {}
        for key in keys:
            emit = self._flush_key(key, time, record)
            for value, mult in emit.items():
                rec = (key, value)
                out_diff[rec] = out_diff.get(rec, 0) + mult
        self.send(time, consolidate(out_diff))

    def _flush_key(self, key: Any, time: Time,
                   record: Callable[[Any, int], None]) -> Diff:
        """Per-key reduction kernel; ``record`` is the meter's hook."""
        epoch = time[0]
        self.in_trace.maybe_compact(key, epoch)
        self.out_trace.maybe_compact(key, epoch)
        acc_in = self.in_trace.accumulate(key, time)
        consolidate(acc_in)
        record(key, max(1, len(acc_in)))
        target: Diff = {}
        if acc_in:
            for value, mult in acc_in.items():
                if mult < 0:
                    raise ValueError(
                        f"reduce {self.name}: key {key!r} accumulated "
                        f"negative multiplicity {mult} for {value!r} "
                        f"at {time}"
                    )
            for out_value in self.logic(key, acc_in):
                target[out_value] = target.get(out_value, 0) + 1
        current = self.out_trace.accumulate_strict(key, time)
        # Desired diff at `time`: target minus what earlier times give.
        delta = dict(target)
        add_into(delta, current, factor=-1)
        # Replace whatever we previously stored at exactly `time`.
        prior = self.out_trace.get(key)
        stored = prior.take(time) if prior is not None else {}
        emit = dict(delta)
        add_into(emit, stored, factor=-1)
        if delta:
            self.out_trace.update(key, time, delta)
        if emit:
            record(key, len(emit))
        return emit

    def local_traces(self):
        return (self.in_trace, self.out_trace)

    def pending_times(self) -> Iterable[Time]:
        return self.schedule.pending_times()

    def discard_pending_beyond(self, prefix: Time, max_iter: int) -> None:
        drop = [
            t for t in self.schedule.pending_times()
            if t[:len(prefix)] == prefix and t[len(prefix)] > max_iter
        ]
        for t in drop:
            self.schedule.tasks_at(t)
