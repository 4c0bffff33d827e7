"""Unit tests for the discrete-event simulation engine."""

from heapq import heappop, heappush, heapreplace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import ParkedTimers, SimulationError, Simulator


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

    def test_step_with_nothing_pending_leaves_clock_and_cut(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=50.0)
        sim.cancel(sim.schedule(5.0, lambda: None))  # dead, not pending
        cut = sim.end_cut
        assert sim.step() is False
        assert sim.now == 50.0
        assert sim.end_cut == cut

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

    @pytest.mark.parametrize("cancel", [False, True])
    def test_recycled_event_comes_back_pending(self, sim, cancel):
        # A handle-less Event is recycled after it fires or, cancelled,
        # when it is reaped; its reuse must start pending either way.
        hits = []
        event = sim.schedule(1.0, hits.append, "old")
        if cancel:
            sim.cancel(event)
        del event
        sim.run()
        assert len(sim._free) == 1
        reused = sim.schedule(1.0, hits.append, "new")
        assert not reused.cancelled and not reused.fired
        sim.run()
        assert hits == ([] if cancel else ["old"]) + ["new"]
        assert reused.fired

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

    def test_cut_records_the_key_a_rearmed_timer_fired_at(self, sim):
        """A timer re-keys its event when it re-arms; a run cut right
        after it reports the key it fired at, not its next one."""
        def tick():
            sim.rearm(event, 10.0)

        event = sim.schedule_timer(10.0, tick)
        sim.run(max_events=3)
        assert sim.now == 30.0
        assert sim.end_cut == (30.0, 2)

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


class TestPostedEntries:
    """Handle-free entries (``post``/``post_at``) share the Event
    entries' sequence counter, counters and run-control contract."""

    def test_post_and_schedule_at_equal_times_fire_in_seq_order(self, sim):
        order = []
        sim.post(5.0, order.append, 0)
        sim.schedule(5.0, order.append, 1)
        sim.post_at(5.0, order.append, 2)
        sim.schedule_at(5.0, order.append, 3)
        sim.post(5.0, order.append, 4)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_post_returns_no_handle(self, sim):
        assert sim.post(1.0, lambda: None) is None
        assert sim.post_at(2.0, lambda: None) is None

    def test_post_passes_args(self, sim):
        got = []
        sim.post(1.0, lambda *a: got.append(a), 1, "x")
        sim.post(2.0, lambda *a: got.append(a))
        sim.run()
        assert got == [(1, "x"), ()]

    def test_post_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.post(-1.0, lambda: None)
        assert sim.pending == 0

    def test_post_at_in_past_rejected(self, sim):
        sim.post(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post_at(5.0, lambda: None)
        assert sim.pending == 0

    def test_compaction_keeps_every_post_entry(self, sim):
        from repro.sim.engine import _COMPACT_MIN_DEAD

        fired = []
        for i in range(10):
            sim.post(2000.0 + i, fired.append, ("post", i))
        keep = [sim.schedule(float(i + 1), fired.append, ("keep", i))
                for i in range(4)]
        doomed = [
            sim.schedule(1000.0 + i, fired.append, ("doomed", i))
            for i in range(2 * _COMPACT_MIN_DEAD)
        ]
        for ev in doomed:
            sim.cancel(ev)
        assert sim.pending < 10 + len(keep) + len(doomed)  # compacted
        assert sum(entry[3] is not None for entry in sim._heap) == 10
        assert sim.pending_active == 10 + len(keep)
        sim.run()
        assert fired == [("keep", i) for i in range(4)] + [
            ("post", i) for i in range(10)]

    def test_pending_counts_post_entries(self, sim):
        sim.post(1.0, lambda: None)
        sim.post_at(2.0, lambda: None)
        ev = sim.schedule(3.0, lambda: None)
        sim.schedule(4.0, lambda: None)
        sim.cancel(ev)
        assert sim.pending == 4
        assert sim.pending_active == 3

    def test_step_runs_post_entries(self, sim):
        hits = []
        sim.post(2.0, hits.append, "post")
        sim.schedule(1.0, hits.append, "event")
        assert sim.step() and hits == ["event"]
        assert sim.step() and hits == ["event", "post"]
        assert sim.now == 2.0 and sim.events_processed == 2
        assert sim.pending == sim.pending_active == 0
        assert not sim.step()

    def test_max_events_counts_post_entries(self, sim):
        hits = []
        for i in range(3):
            sim.post(float(i + 1), hits.append, i)
        sim.run(until=10.0, max_events=2)
        assert hits == [0, 1]
        assert sim.now == 2.0 and sim.end_cut == (2.0, 1)
        assert sim.pending == 1
        sim.run(until=10.0)
        assert hits == [0, 1, 2] and sim.now == 10.0
        assert sim.end_cut == (10.0, INF)

    def test_stop_inside_a_post_skips_same_time_entries(self, sim):
        hits = []
        sim.post(1.0, sim.stop)
        sim.post(1.0, hits.append, "post")
        sim.schedule(1.0, hits.append, "event")
        sim.run(until=5.0)
        assert hits == [] and sim.now == 1.0
        assert sim.end_cut == (1.0, 0)
        sim.run()
        assert hits == ["post", "event"]
        assert sim.end_cut == (INF, INF)

    def test_posts_at_parked_key_times_fire_by_seq(self):
        """Posts at a parked key's time fire on either side of it by
        seq, exactly as heap-kept timer firings would order them."""
        logs = []
        for cls in (ToyParked, HeapOnly):
            sim = Simulator()
            timers = cls(sim, 10.0, 2, {})
            timers.start("a", 10.0)
            for at in (10.0, 20.0, 20.0, 35.0):
                sim.post_at(at, lambda: timers.log.append(
                    ("post", sim.now, sim.reserve_seq(0))))
            sim.run(until=40.0)
            logs.append((timers.log, _state(sim)))
        assert logs[0] == logs[1]
        assert [entry[0] for entry in logs[0][0]][:3] == [
            "parked", "post", "post"]


# ----------------------------------------------------------------------
# Parked timer keys (ParkedTimers merged into run / step)
# ----------------------------------------------------------------------
INF = float("inf")


class ToyParked(ParkedTimers):
    """Periodic timers that park while idle.

    A firing while idle logs ``("parked", time, first, name)`` and takes
    ``stride`` sequence numbers, ``first`` to ``first + stride - 1``, the
    last for its next key; a firing while busy logs ``("busy", time,
    name)`` and re-arms on the heap.  :class:`HeapOnly` is the same
    timer with every firing on the heap.
    """

    def __init__(self, sim, period, stride, busy):
        self.sim = sim
        self.period = period
        self.stride = stride
        self.busy = busy
        self.keys = []
        self.events = {}
        self.log = []
        sim.add_parked(self)

    def __len__(self):
        return len(self.keys)

    def start(self, name, delay):
        sim = self.sim

        def tick():
            if self.busy.get(name):
                self.log.append(("busy", sim.now, name))
                sim.rearm(event, self.period)
                return
            heappush(self.keys, (event.time, event.seq, name))
            self.fire(event.time, event.seq + 1, 1)
            sim.parked_moved()

        event = sim.schedule_timer(delay, tick)
        self.events[name] = event

    def fire(self, time, seq, limit):
        sim = self.sim
        keys = self.keys
        fired = 0
        while keys and fired != limit:
            at, key_seq, name = keys[0]
            if (at, key_seq) >= (time, seq):
                break
            if self.busy.get(name):
                heappop(keys)
                sim.resume(self.events[name], at, key_seq)
                break
            first = sim.reserve_seq(self.stride)
            self.log.append(("parked", at, first, name))
            heapreplace(keys, (at + self.period, first + self.stride - 1, name))
            sim.now = self.last_time = at
            self.last_seq = key_seq
            fired += 1
        self.next_time, self.next_seq = keys[0][:2] if keys else (INF, INF)
        return fired


class HeapOnly:
    """:class:`ToyParked`'s timers with every firing on the heap."""

    def __init__(self, sim, period, stride, busy):
        self.sim = sim
        self.period = period
        self.stride = stride
        self.busy = busy
        self.log = []

    def start(self, name, delay):
        sim = self.sim

        def tick():
            if self.busy.get(name):
                self.log.append(("busy", sim.now, name))
            else:
                first = sim.reserve_seq(self.stride - 1)
                self.log.append(("parked", sim.now, first, name))
            sim.rearm(event, self.period)

        event = sim.schedule_timer(delay, tick)


def _state(sim):
    return (sim.now, sim.events_processed, sim.end_cut, sim.pending,
            sim.pending_active)


class TestParkedKeys:
    """A parked key fires exactly where its heap event would have."""

    def _pair(self, period=10.0, stride=3, names=("a",)):
        """A parked-timer simulator and its heap-only reference."""
        out = []
        for cls in (ToyParked, HeapOnly):
            sim = Simulator()
            busy = {}
            timers = cls(sim, period, stride, busy)
            for index, name in enumerate(names):
                timers.start(name, period + index)
            out.append((sim, timers, busy))
        return out

    def test_parked_firings_take_the_heap_events_seqs(self):
        (sim, parked, _), (ref, heap_only, _) = self._pair(names=("a", "b"))
        for s in (sim, ref):
            s.run(until=55.0)
        assert parked.log == heap_only.log
        assert len(parked.log) == 10
        assert _state(sim) == _state(ref)
        assert sim.pending == 2 and len(sim._heap) == 0

    def test_until_is_inclusive_for_parked_keys(self):
        (sim, parked, _), _ = self._pair()
        sim.run(until=30.0)
        assert [entry[1] for entry in parked.log] == [10.0, 20.0, 30.0]
        assert sim.now == 30.0
        assert sim.end_cut == (30.0, INF)

    def test_max_events_counts_parked_firings(self):
        (sim, parked, _), (ref, heap_only, _) = self._pair(names=("a", "b"))
        hits = []
        for s in (sim, ref):
            s.schedule(15.5, hits.append, s)
            s.run(until=100.0, max_events=5)
        assert parked.log == heap_only.log
        assert _state(sim) == _state(ref)
        # a@10, b@11, a@20 ... the fifth event is b's parked key at 21.
        assert sim.now == 21.0 and sim.events_processed == 5
        assert sim.end_cut[0] == 21.0
        assert hits == [sim, ref]

    def test_budget_spent_by_parked_keys_after_the_heap_drains(self):
        (sim, parked, _), (ref, heap_only, _) = self._pair()
        for s in (sim, ref):
            s.run(until=1000.0, max_events=4)
        assert parked.log == heap_only.log
        assert _state(sim) == _state(ref)
        assert sim.now == 40.0

    def test_stop_leaves_later_parked_keys_pending(self):
        (sim, parked, _), (ref, heap_only, _) = self._pair()
        for s in (sim, ref):
            s.schedule(25.0, s.stop)
            s.run(until=100.0)
        assert parked.log == heap_only.log
        assert len(parked.log) == 2
        assert _state(sim) == _state(ref)
        assert sim.now == 25.0
        for s in (sim, ref):
            s.run(until=100.0)
        assert parked.log == heap_only.log
        assert _state(sim) == _state(ref)

    def test_step_fires_parked_keys_in_key_order(self):
        (sim, parked, _), (ref, heap_only, _) = self._pair(names=("a", "b"))
        hits = []
        for s in (sim, ref):
            s.schedule(20.0, hits.append, "event")
        for _ in range(6):
            for s in (sim, ref):
                assert s.step() is True
            assert parked.log == heap_only.log
            assert _state(sim) == _state(ref)
        assert [entry[1] for entry in parked.log] == [10.0, 11.0, 20.0, 21.0,
                                                      30.0]
        assert hits == ["event", "event"]

    def test_equal_time_ties_follow_seq(self):
        """A heap entry keyed below a parked key at the same time fires
        first; one keyed above it fires after."""
        sim = Simulator()
        timers = ToyParked(sim, 10.0, 2, {})
        early = sim.schedule_at(20.0, timers.log.append, "early")
        timers.start("a", 10.0)
        sim.run(until=15.0)  # parks a's next key, (20.0, seq > early's)
        late = sim.schedule_at(20.0, timers.log.append, "late")
        assert early.seq < timers.keys[0][1] < late.seq
        sim.run(until=20.0)
        assert timers.log == [("parked", 10.0, 2, "a"), "early",
                              ("parked", 20.0, 5, "a"), "late"]

    def test_resume_within_the_firing_timestamp(self):
        """An event at a parked key's time, keyed below it, makes the
        timer busy: the key goes back on the heap unchanged and fires
        there, at the same time."""
        for cls in (ToyParked, HeapOnly):
            sim = Simulator()
            busy = {}
            timers = cls(sim, 10.0, 3, busy)
            sim.schedule_at(20.0, busy.__setitem__, "a", True)
            timers.start("a", 10.0)
            sim.run(until=20.0)
            if cls is ToyParked:
                parked, state = timers.log, _state(sim)
                assert not timers.keys and len(sim._heap) == 1
            else:
                assert timers.log == parked and _state(sim) == state
        assert parked == [("parked", 10.0, 2, "a"), ("busy", 20.0, "a")]

    def test_owners_interleave_by_key(self):
        """Two owners with different strides and periods on one
        simulator: their parked keys merge in key order."""
        logs = []
        for parked in (True, False):
            sim = Simulator()
            cls = ToyParked if parked else HeapOnly
            one = cls(sim, 10.0, 4, {})
            two = cls(sim, 7.5, 2, {})
            one.start("a", 10.0)
            two.start("b", 7.5)
            sim.run(until=100.0, max_events=17)
            logs.append((one.log, two.log, _state(sim)))
        assert logs[0] == logs[1]
        assert logs[0][2][1] == 17

    def test_resume_ends_a_merge_across_owners(self):
        """Owner one fires its first key, then finds its second busy and
        resumes it onto the heap; owner two's key above that one must
        wait for it."""
        logs = []
        for parked in (True, False):
            sim = Simulator()
            cls = ToyParked if parked else HeapOnly
            busy = {}
            one = cls(sim, 10.0, 2, busy)
            two = cls(sim, 10.0, 2, {})
            one.start("a", 10.0)
            one.start("b", 10.5)
            two.start("c", 10.75)
            log = one.log = two.log = []
            sim.schedule_at(15.0, busy.__setitem__, "b", True)
            sim.run(until=30.0)
            logs.append((log, _state(sim)))
        assert logs[0] == logs[1]
        assert [entry[0] for entry in logs[0][0][3:6]] == [
            "parked", "busy", "parked"]

    def test_pending_counts_parked_keys(self):
        sim = Simulator()
        timers = ToyParked(sim, 10.0, 2, {})
        timers.start("a", 10.0)
        sim.schedule(50.0, lambda: None)
        sim.run(until=15.0)
        assert len(sim._heap) == 1 and len(timers) == 1
        assert sim.pending == sim.pending_active == 2



_OWNER = st.tuples(
    st.sampled_from([2.0, 2.5, 7.0, 10.0]),  # period
    st.integers(1, 4),  # stride
    st.lists(st.sampled_from([0.0, 1.0, 2.5, 5.0]), min_size=1,
             max_size=3),  # timers' first delays
)
_EVENT = st.tuples(
    st.integers(0, 80).map(lambda half: half / 2.0),
    st.sampled_from(["toggle", "toggle_now", "stop"]),
    st.integers(0, 1),  # owner
    st.integers(0, 2),  # timer
)
_CONTROL = st.one_of(
    st.tuples(st.just("run"), st.integers(0, 100).map(lambda t: t / 2.0),
              st.one_of(st.none(), st.integers(0, 12))),
    st.tuples(st.just("run"), st.none(), st.integers(0, 12)),
    st.tuples(st.just("step"), st.integers(1, 4), st.none()),
)


def _scenario(parked, owners, events, controls, post=False):
    """Run one scenario and record the state after every control;
    ``post`` puts the toggles and stops on the heap as posted entries
    instead of Events."""
    sim = Simulator()
    log = []
    groups = []
    for period, stride, delays in owners:
        busy = {}
        cls = ToyParked if parked else HeapOnly
        timers = cls(sim, period, stride, busy)
        timers.log = log
        for name, delay in enumerate(delays):
            timers.start(name, delay)
        groups.append(busy)

    def toggle(owner, name, tag):
        busy = groups[owner % len(groups)]
        busy[name] = not busy.get(name)
        log.append((tag, sim.now, sim.reserve_seq(0), owner, name))

    def stop():
        log.append(("stop", sim.now, sim.reserve_seq(0)))
        sim.stop()

    at = sim.post_at if post else sim.schedule_at
    later = sim.post if post else sim.schedule
    for time, kind, owner, name in events:
        if kind == "stop":
            at(time, stop)
        elif kind == "toggle":
            at(time, toggle, owner, name, "toggle")
        else:
            # A toggle scheduled at its own firing time: it takes the
            # next seq there, behind every key already pending then.
            at(time, later, 0.0, toggle, owner, name, "toggle_now")
    states = []
    for kind, arg, budget in controls:
        if kind == "run":
            sim.run(until=arg, max_events=budget)
        else:
            for _ in range(arg):
                sim.step()
        states.append((_state(sim), len(log)))
    return log, states


@settings(max_examples=300, deadline=None)
@given(
    owners=st.lists(_OWNER, min_size=1, max_size=2),
    events=st.lists(_EVENT, max_size=12),
    controls=st.lists(_CONTROL, min_size=1, max_size=5),
)
def test_parked_keys_match_a_heap_only_timer(owners, events, controls):
    """Any mix of parked timers, busy/idle toggles (also at a parked
    key's own time), stops, step() calls and runs cut by ``until`` or
    ``max_events`` leaves the same firings, seqs and engine state as
    the same timers kept on the heap."""
    assert _scenario(True, owners, events, controls) == _scenario(
        False, owners, events, controls
    )


@settings(max_examples=150, deadline=None)
@given(
    owners=st.lists(_OWNER, min_size=1, max_size=2),
    events=st.lists(_EVENT, max_size=12),
    controls=st.lists(_CONTROL, min_size=1, max_size=5),
)
def test_parked_keys_merge_with_post_entries(owners, events, controls):
    """The same scenarios with every toggle and stop posted (no Event
    handles) fire in the same order and leave the same engine state as
    heap-kept timers with Event toggles."""
    assert _scenario(True, owners, events, controls, post=True) == _scenario(
        False, owners, events, controls
    )
