"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(30.0, order.append, "c")
        sim.schedule(10.0, order.append, "a")
        sim.schedule(20.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_fire_fifo(self, sim):
        order = []
        for tag in range(5):
            sim.schedule(10.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(42.5, lambda: None)
        sim.run()
        assert sim.now == 42.5

    def test_schedule_at_absolute_time(self, sim):
        hits = []
        sim.schedule_at(100.0, hits.append, 1)
        sim.run()
        assert sim.now == 100.0
        assert hits == [1]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_past_rejected(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_callback_can_schedule_more_events(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(5.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 6.0

    def test_callback_can_schedule_at_current_time(self, sim):
        order = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, order.append, "now"))
        sim.run()
        assert order == ["now"]


    def test_reserve_seq_consumes_a_block(self, sim):
        """Reserved numbers are skipped by later events, one per count."""
        assert sim.reserve_seq() == 0
        assert sim.reserve_seq(3) == 1
        event = sim.schedule(1.0, lambda: None)
        assert event.seq == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        hits = []
        event = sim.schedule(10.0, hits.append, 1)
        sim.cancel(event)
        sim.run()
        assert hits == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(10.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        sim.run()  # must not raise

    def test_cancel_after_fire_is_noop(self, sim):
        event = sim.schedule(10.0, lambda: None)
        sim.run()
        sim.cancel(event)

    def test_other_events_survive_cancellation(self, sim):
        hits = []
        keep = sim.schedule(10.0, hits.append, "keep")
        drop = sim.schedule(5.0, hits.append, "drop")
        sim.cancel(drop)
        sim.run()
        assert hits == ["keep"]
        assert keep.time == 10.0


class TestRunControl:
    def test_run_until_is_inclusive(self, sim):
        hits = []
        sim.schedule(10.0, hits.append, 1)
        sim.run(until=10.0)
        assert hits == [1]

    def test_run_until_stops_before_later_events(self, sim):
        hits = []
        sim.schedule(10.0, hits.append, "early")
        sim.schedule(20.0, hits.append, "late")
        sim.run(until=15.0)
        assert hits == ["early"]
        assert sim.now == 15.0
        sim.run()
        assert hits == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self, sim):
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_max_events_bounds_execution(self, sim):
        hits = []
        for i in range(10):
            sim.schedule(float(i + 1), hits.append, i)
        sim.run(max_events=3)
        assert hits == [0, 1, 2]

    def test_stop_halts_run(self, sim):
        hits = []
        sim.schedule(1.0, hits.append, "a")
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, hits.append, "b")
        sim.run()
        assert hits == ["a"]
        sim.run()
        assert hits == ["a", "b"]

    def test_run_is_not_reentrant(self, sim):
        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run()

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_step_executes_single_event(self, sim):
        hits = []
        sim.schedule(1.0, hits.append, 1)
        sim.schedule(2.0, hits.append, 2)
        assert sim.step() is True
        assert hits == [1]


class TestEdgeCases:
    """Regression territory: cancellation after firing, stop() from
    inside callbacks, FIFO tie-breaking under mutation, and the
    until/max_events clock-advance contract."""

    def test_cancel_fired_event_leaves_future_events_alone(self, sim):
        hits = []
        fired = sim.schedule(1.0, hits.append, "first")
        sim.run()
        sim.cancel(fired)  # harmless no-op on an already-fired event
        sim.schedule(1.0, hits.append, "second")
        sim.run()
        assert hits == ["first", "second"]
        assert sim.events_processed == 2

    def test_cancel_fired_event_does_not_cancel_reused_slot(self, sim):
        # Cancelling a fired event must only flag THAT event object,
        # never a later event that happens to share time/seq patterns.
        first = sim.schedule(5.0, lambda: None)
        sim.run()
        later = sim.schedule(5.0, lambda: None)
        sim.cancel(first)
        assert later.cancelled is False

    def test_stop_inside_callback_skips_same_time_events(self, sim):
        hits = []

        def stopper():
            hits.append("stopper")
            sim.stop()

        sim.schedule(10.0, stopper)
        sim.schedule(10.0, hits.append, "same-time")
        sim.schedule(11.0, hits.append, "later")
        sim.run()
        assert hits == ["stopper"]
        assert sim.now == 10.0
        sim.run()  # a fresh run resumes with the remaining events
        assert hits == ["stopper", "same-time", "later"]

    def test_stop_inside_callback_does_not_clamp_to_until(self, sim):
        # stop() means "the run was cut short": pending work before
        # `until` has not happened, so the clock must not pretend it has.
        sim.schedule(10.0, sim.stop)
        sim.schedule(20.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 10.0

    def test_fifo_ties_survive_interleaved_cancellation(self, sim):
        hits = []
        sim.schedule(10.0, hits.append, "a")
        b = sim.schedule(10.0, hits.append, "b")
        sim.schedule(10.0, hits.append, "c")
        sim.cancel(b)
        sim.run()
        assert hits == ["a", "c"]

    def test_callback_scheduling_now_runs_after_existing_ties(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "injected")

        sim.schedule(10.0, first)
        sim.schedule(10.0, order.append, "second")
        sim.run()
        # The injected same-time event got a later sequence number, so
        # it fires after every event scheduled before it.
        assert order == ["first", "second", "injected"]

    def test_max_events_exhaustion_does_not_clamp_to_until(self, sim):
        hits = []
        for i in range(5):
            sim.schedule(float(i + 1), hits.append, i)
        sim.run(until=100.0, max_events=2)
        assert hits == [0, 1]
        assert sim.now == 2.0  # not 100.0: three events never ran

    def test_until_clamps_when_budget_not_exhausted(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=50.0, max_events=10)
        assert sim.now == 50.0

    def test_max_events_takes_precedence_on_simultaneous_drain(self, sim):
        # Budget exhausted by the exact event that drains the heap: the
        # run counts as truncated, so no clamp to `until`.
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=50.0, max_events=2)
        assert sim.now == 2.0

    def test_run_resumes_cleanly_after_max_events(self, sim):
        hits = []
        for i in range(4):
            sim.schedule(float(i + 1), hits.append, i)
        sim.run(max_events=2)
        sim.run(until=100.0)
        assert hits == [0, 1, 2, 3]
        assert sim.now == 100.0

    def test_cancelled_events_do_not_consume_max_events_budget(self, sim):
        hits = []
        doomed = [sim.schedule(1.0, hits.append, f"dead{i}") for i in range(3)]
        for event in doomed:
            sim.cancel(event)
        sim.schedule(2.0, hits.append, "alive")
        sim.run(max_events=1)
        assert hits == ["alive"]


class TestIntrospection:
    def test_events_processed_counts(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_pending_reflects_heap(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0

    def test_args_are_passed(self, sim):
        result = {}
        sim.schedule(1.0, lambda a, b: result.update(a=a, b=b), 7, "x")
        sim.run()
        assert result == {"a": 7, "b": "x"}


class TestPendingCounters:
    """``pending`` vs ``pending_active`` under lazy cancellation.

    ``cancel`` only flags an event, so cancelled entries linger in the
    heap until popped (or compacted): ``pending`` deliberately counts
    them (heap memory), while ``pending_active`` counts only events that
    will actually fire.
    """

    def test_pending_includes_lazily_cancelled_entries(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        sim.cancel(events[0])
        sim.cancel(events[3])
        # The cancelled entries are still physically in the heap.
        assert sim.pending == 5
        assert sim.pending_active == 3

    def test_pending_active_matches_events_that_fire(self, sim):
        fired = []
        events = [
            sim.schedule(float(i + 1), fired.append, i) for i in range(6)
        ]
        for ev in events[::2]:
            sim.cancel(ev)
        expected = sim.pending_active
        sim.run()
        assert len(fired) == expected == 3
        assert sim.pending == 0
        assert sim.pending_active == 0

    def test_cancel_after_fire_does_not_skew_counters(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)  # fires ev
        sim.cancel(ev)  # no-op: already fired
        assert sim.pending == 1
        assert sim.pending_active == 1

    def test_double_cancel_counts_once(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending == 2
        assert sim.pending_active == 1

    def test_compaction_reaps_dead_entries(self, sim):
        from repro.sim.engine import _COMPACT_MIN_DEAD

        keep = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        doomed = [
            sim.schedule(1000.0 + i, lambda: None)
            for i in range(2 * _COMPACT_MIN_DEAD)
        ]
        for ev in doomed:
            sim.cancel(ev)
        # Compaction kicked in once dead entries dominated: the heap no
        # longer holds every cancelled entry, and the live count is exact.
        assert sim.pending < len(keep) + len(doomed)
        assert sim.pending_active == len(keep)
        sim.run()
        assert sim.events_processed == len(keep)
