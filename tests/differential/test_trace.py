"""Tests for difference traces, accumulation, compaction, and scheduling."""

from hypothesis import given
from hypothesis import strategies as st

from repro.differential.timestamp import leq, lub_closure
from repro.differential.trace import KeyTrace, TimeSchedule, Trace

times2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
entries = st.lists(
    st.tuples(times2, st.integers(0, 3), st.integers(-3, 3).filter(bool)),
    max_size=14)


class TestKeyTrace:
    def test_accumulate_respects_partial_order(self):
        trace = KeyTrace()
        trace.update((0, 0), {"a": 1})
        trace.update((0, 2), {"b": 1})
        trace.update((1, 1), {"c": 1})
        # (1, 1) sees (0,0) and itself, but not (0,2).
        assert trace.accumulate((1, 1)) == {"a": 1, "c": 1}

    def test_accumulate_strict_excludes_self(self):
        trace = KeyTrace()
        trace.update((0,), {"a": 1})
        trace.update((1,), {"b": 1})
        assert trace.accumulate_strict((1,)) == {"a": 1}

    def test_update_cancellation_removes_slot(self):
        trace = KeyTrace()
        trace.update((0,), {"a": 1})
        trace.update((0,), {"a": -1})
        assert trace.is_empty()

    @given(entries)
    def test_accumulation_identity(self, updates):
        """S_t == Σ_{s<=t} δS_s for every queried t (the core invariant)."""
        trace = KeyTrace()
        for time, record, mult in updates:
            trace.update(time, {record: mult})
        for probe in [(0, 0), (2, 2), (4, 4), (4, 0), (0, 4)]:
            expected = {}
            for time, record, mult in updates:
                if leq(time, probe):
                    expected[record] = expected.get(record, 0) + mult
            expected = {r: m for r, m in expected.items() if m}
            assert trace.accumulate(probe) == expected


class TestCompaction:
    @given(entries, st.integers(1, 5))
    def test_compaction_preserves_future_accumulations(self, updates, epoch):
        trace = KeyTrace()
        compacted = KeyTrace()
        for time, record, mult in updates:
            trace.update(time, {record: mult})
            compacted.update(time, {record: mult})
        compacted.compact_below(epoch)
        # Any probe at or after `epoch` must accumulate identically.
        for probe in [(epoch, 0), (epoch, 4), (epoch + 1, 2), (5, 5)]:
            assert compacted.accumulate(probe) == trace.accumulate(probe)

    def test_compaction_merges_per_suffix(self):
        trace = KeyTrace()
        trace.update((0, 3), {"a": 1})
        trace.update((1, 3), {"a": 2})
        trace.update((2, 3), {"a": -1})
        trace.compact_below(3)
        assert trace.entries == {(0, 3): {"a": 2}}

    def test_compaction_keeps_current_epoch_separate(self):
        trace = KeyTrace()
        trace.update((0, 1), {"a": 1})
        trace.update((2, 1), {"b": 1})
        trace.compact_below(2)
        assert (2, 1) in trace.entries
        assert trace.entries[(0, 1)] == {"a": 1}


class TestTrace:
    def test_unknown_key_accumulates_empty(self):
        trace = Trace()
        assert trace.accumulate("nope", (0,)) == {}

    def test_record_count(self):
        trace = Trace()
        trace.update("k", (0,), {"a": 1, "b": 1})
        trace.update("k", (1,), {"a": -1})
        trace.update("j", (0,), {"c": 1})
        assert trace.record_count() == 4

    def test_maybe_compact_only_past_threshold(self):
        trace = Trace()
        for epoch in range(30):
            trace.update("k", (epoch, 0), {"a": 1})
        trace.maybe_compact("k", 30, threshold=24)
        assert len(trace.get("k").entries) == 1
        assert trace.accumulate("k", (30, 0)) == {"a": 30}


class TestTimeSchedule:
    def test_simple_scheduling(self):
        schedule = TimeSchedule()
        schedule.schedule("k", (0, 1))
        assert schedule.tasks_at((0, 1)) == {"k"}
        assert not list(schedule.pending_times())

    def test_lub_closure_scheduling(self):
        schedule = TimeSchedule()
        schedule.schedule("k", (0, 5))
        schedule.tasks_at((0, 5))
        # A later diff at an incomparable time must also schedule the join.
        schedule.schedule("k", (1, 2))
        pending = set(schedule.pending_times())
        assert (1, 2) in pending
        assert (1, 5) in pending

    def test_redirty_reschedules_later_joins(self):
        schedule = TimeSchedule()
        schedule.schedule("k", (0, 5))
        schedule.schedule("k", (1, 2))
        for time in list(schedule.pending_times()):
            schedule.tasks_at(time)
        # Re-dirtying (1, 2) must re-enqueue (1, 5) too.
        schedule.schedule("k", (1, 2))
        assert (1, 5) in set(schedule.pending_times())

    @given(st.lists(times2, min_size=1, max_size=6))
    def test_scheduled_times_cover_upward_closure(self, arrival_times):
        """Every closure element >= the last arrival gets a task."""
        schedule = TimeSchedule()
        for time in arrival_times:
            schedule.schedule("k", time)
        closure = lub_closure(arrival_times)
        last = arrival_times[-1]
        pending = set(schedule.pending_times())
        for element in closure:
            if leq(last, element):
                assert element in pending
