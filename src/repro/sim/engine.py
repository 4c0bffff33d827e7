"""The discrete-event simulation engine.

A :class:`Simulator` owns a binary-heap event queue and a monotonically
advancing clock.  Everything in the reproduction -- NIC arrivals, core
completions, NoC message deliveries, the Altocumulus runtime's periodic
ticks -- is a callback scheduled on one shared simulator, so causal
ordering across subsystems falls out of the single clock.  A callback is
either *posted* (:meth:`Simulator.post`, fire-and-forget) or scheduled as
an :class:`Event` (:meth:`Simulator.schedule`), whose handle can cancel it.

Design notes
------------
* Events at equal timestamps fire in scheduling (FIFO) order; a sequence
  number breaks heap ties deterministically, which keeps whole simulations
  reproducible for a fixed seed.
* Cancellation is lazy: a cancelled event stays in the heap but is skipped
  when popped.  This keeps :meth:`Simulator.cancel` O(1), which matters
  because preemptive schedulers cancel completion events frequently.  When
  dead entries come to dominate the heap the simulator compacts it in
  place (see :meth:`Simulator.cancel`), so pathological cancel-heavy
  workloads cannot grow the heap without bound.
* Callbacks run synchronously inside :meth:`Simulator.run`.  A callback
  may schedule further events (including at the current time) but must not
  schedule into the past.

Fast-path engineering (all behavior-preserving)
-----------------------------------------------
The event kernel is the hottest code in the repository -- every simulated
nanosecond flows through it -- so it trades a little uniformity for
throughput:

* **C-level heap ordering.**  Heap entries are ``(time, seq, fn, args)``
  tuples, not :class:`Event` objects, so ``heapq``'s C implementation
  compares floats/ints directly and ``Event.__lt__`` is never invoked on
  the hot path (it is retained for API compatibility).  Sequence numbers
  are unique, so the comparison never reaches ``fn``.
* **Handle-free events.**  Most callbacks are never cancelled, so their
  callers keep no handle: :meth:`Simulator.post` pushes
  ``(time, seq, fn, args)`` and :meth:`Simulator.run` calls
  ``fn(*args)`` with no :class:`Event` object, no ``fired``/``cancelled``
  flags and no free-list check.  Only a caller that keeps a handle pays
  for an Event: :meth:`Simulator.schedule` and the timer paths push
  ``(time, seq, event, None)``, and ``args is None`` sends the entry down
  the Event path.  Both kinds share one sequence counter, so they fire
  in one ``(time, seq)`` order.
* **Event free list.**  After an Event's callback returns, or when a
  cancelled Event is reaped, the object is recycled onto a bounded free
  list *iff* no caller kept a handle to it (checked via the CPython
  reference count, which is exact and deterministic).  With every
  fire-and-forget caller on :meth:`Simulator.post`, the list serves
  cancelled handles their owners have let go (client timeouts) and
  ``schedule`` calls that drop their handle.  Handles that escape --
  anything a caller might still :meth:`Simulator.cancel` -- are never
  recycled, which preserves the documented "cancel after fire is a
  no-op" contract verbatim.  A recycled Event goes on the list with
  both flags clear, so :meth:`Simulator.schedule` re-keys it without
  resetting them; its old ``fn``/``args`` stay until then (at most
  ``_FREE_LIST_MAX`` of them).
* **Timer reuse.**  Periodic machinery (manager runtime ticks, periodic
  timers, the control loop) reschedules the *same* Event object via
  :meth:`Simulator.schedule_timer` (or, from inside its own callback,
  :meth:`Simulator.rearm`) instead of allocating one per period.
* **Parked timers off the heap.**  A periodic timer whose owner is idle
  (an idle manager's tick) does only fixed bookkeeping per firing, so
  its owner keeps its next ``(time, seq)`` key off the heap
  (:class:`ParkedTimers`).  :meth:`Simulator.run` merges those keys
  with the heap: before it fires a heap entry it lets the owners fire
  every parked key below that entry's key, in key order, as a batch.
  A parked firing takes the sequence numbers its heap event would have
  taken, so every other event keeps its key and every equal-time
  tie-break is unchanged; it counts in :attr:`events_processed`,
  against ``max_events`` and in :attr:`end_cut`, and a pending parked
  key counts in :attr:`pending`.  The loop pays one float compare per
  heap entry against the earliest parked time.  When an owner is no
  longer idle at a key, that key goes back onto the heap unchanged
  (:meth:`Simulator.resume`).
* **Monomorphic run loop.**  :meth:`Simulator.run` binds the heap, the
  ``heapq`` primitives and the free list to locals and inlines the pop
  path; :meth:`Simulator.step` is a one-event run.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: Exact reference counting is a CPython detail; on other interpreters the
#: free list simply never recycles (correct, just slower).
_getrefcount = getattr(sys, "getrefcount", lambda obj: 0)

#: Upper bound on the event free list.  Steady-state simulations recycle
#: through a handful of entries; the cap only matters after bursts.
_FREE_LIST_MAX = 1024

#: Compaction policy: rebuild the heap once at least this many cancelled
#: entries exist *and* they outnumber the live ones.
_COMPACT_MIN_DEAD = 64

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on invalid simulator operations (e.g. scheduling in the past)."""


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code holds them only to cancel.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        elif self.fired:
            state = "fired"
        else:
            state = "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.1f}ns #{self.seq} {name} {state}>"


#: The heap entry layout: ``(time, seq, fn, args)`` for a posted
#: callback, ``(time, seq, event, None)`` for an :class:`Event`.
_Entry = Tuple[float, int, Any, Optional[tuple]]


class ParkedTimers:
    """An owner of periodic timers that it holds off the event heap.

    While a timer's owner is idle, each firing of the timer does a
    fixed amount of bookkeeping and re-arms it.  Such a timer is
    *parked*: its next ``(time, seq)`` key stays with the owner, and
    :meth:`Simulator.run` merges the parked keys with the heap.  Before
    the loop fires a heap entry it calls :meth:`fire` for the parked
    keys below that entry's key, so a parked firing happens exactly
    where the timer's heap event would have, takes the sequence numbers
    that event would have taken, and leaves every later event's key
    unchanged.  When the owner is no longer idle at a key, it puts the
    timer back on the heap at that key (:meth:`Simulator.resume`).

    A subclass keeps its earliest key in :attr:`next_time` and
    :attr:`next_seq` (``inf`` when it holds none), tells the simulator
    when that key moves outside a :meth:`fire` call
    (:meth:`Simulator.parked_moved`), and has ``len()`` parked keys.
    """

    #: The earliest parked key.
    next_time: float = _INF
    next_seq: float = _INF
    #: The key :meth:`fire` fired last.
    last_time: float = -_INF
    last_seq: float = -_INF

    def __len__(self) -> int:
        raise NotImplementedError

    def fire(self, time: float, seq: float, limit: int) -> int:
        """Fire the parked keys below ``(time, seq)`` in key order, at
        most ``limit`` of them (no limit when negative), and return how
        many fired.

        A firing sets the simulator's clock to its time and takes its
        sequence numbers from the simulator's counter as its event
        would have; its next key, or the timer itself, stays parked.  A
        key whose timer must run instead is resumed onto the heap
        (:meth:`Simulator.resume`) and ends the call.  Leaves
        :attr:`next_time`/:attr:`next_seq` at the earliest key still
        parked and :attr:`last_time`/:attr:`last_seq` at the last one
        fired.
        """
        raise NotImplementedError


class Simulator:
    """A nanosecond-resolution discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule(10.0, hits.append, "a")
    >>> _ = sim.schedule(5.0, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    10.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[_Entry] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        #: Recycled Event objects with no outstanding handles.
        self._free: List[Event] = []
        #: Cancelled events still sitting in the heap (exact count).
        self._dead: int = 0
        #: ``(time, seq)`` bound of the work the last run executed: an
        #: event keyed strictly below it has fired (see :meth:`run`).
        self.end_cut: Tuple[float, float] = (-_INF, -_INF)
        #: Owners of timers held off the heap (:class:`ParkedTimers`),
        #: the earliest of their keys, and the key of the last one
        #: :meth:`_fire_parked` fired.
        self._parked: List[ParkedTimers] = []
        self._parked_time: float = _INF
        self._parked_seq: float = _INF
        self._parked_cut: Tuple[float, float] = (-_INF, -_INF)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` nanoseconds from now, with no
        handle: the handle-free form of :meth:`schedule`, for callbacks
        nobody cancels."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at an absolute simulation time, with no
        handle (the handle-free form of :meth:`schedule_at`)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} (now = {self.now}); time is monotonic"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now
        and return its :class:`Event`, the handle that can cancel it."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
        else:
            event = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, event, None))
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} (now = {self.now}); time is monotonic"
            )
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
        else:
            event = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, event, None))
        return event

    def reserve_seq(self, count: int = 1) -> int:
        """Consume the next ``count`` sequence numbers without scheduling
        and return the first of them.

        For work that happens at a known ``(time, seq)`` key but is
        applied later by its reader instead of by a heap event (see
        :meth:`repro.hw.messaging.ManagerTileHw.broadcast_update`): the
        reserved numbers keep every later event's seq, and so every
        equal-time FIFO tie-break, exactly as if the events existed.
        """
        seq = self._seq
        self._seq = seq + count
        return seq

    def schedule_timer(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        event: Optional[Event] = None,
    ) -> Event:
        """Schedule a periodic-tick callback, reusing ``event`` if possible.

        The dedicated path for self-rescheduling machinery (the manager
        runtime's ``Period`` tick, :class:`~repro.sim.timer.PeriodicTimer`):
        pass the Event returned by the previous firing and, provided it
        has already fired, the same object is re-armed and re-pushed
        instead of allocating a new one.

        The returned Event must be owned exclusively by the calling
        timer: handing it to other code that might cancel a stale
        incarnation is undefined.  An ``event`` that never fired (e.g. a
        stopped timer's cancelled entry, which may still sit in the
        heap) is ignored and a fresh Event allocated.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        if event is not None and event.fired and not event.cancelled:
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
            event.fired = False
        else:
            event = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, event, None))
        return event

    def rearm(self, event: Event, delay: float) -> None:
        """Re-push ``event``, a timer whose callback is running now, to
        fire the same callback ``delay`` ns from now.

        The lean form of :meth:`schedule_timer` for a timer that re-arms
        itself from its own callback (the manager runtime's tick): no
        argument packing and no checks.  ``delay`` must be non-negative
        and ``event`` must have fired and not been cancelled.
        """
        seq = self._seq
        self._seq = seq + 1
        time = self.now + delay
        event.time = time
        event.seq = seq
        event.fired = False
        heappush(self._heap, (time, seq, event, None))

    def resume(self, event: Event, time: float, seq: int) -> None:
        """Put ``event``, a timer whose next key ``(time, seq)`` a
        :class:`ParkedTimers` owner has held off the heap, back on the
        heap at that key (which must not lie below the last key fired).
        The key is unchanged, so the timer fires exactly where it
        would have."""
        event.time = time
        event.seq = seq
        event.fired = False
        heappush(self._heap, (time, seq, event, None))

    def add_parked(self, owner: "ParkedTimers") -> None:
        """Merge ``owner``'s parked keys into every later run."""
        self._parked.append(owner)
        self.parked_moved()

    def parked_moved(self) -> None:
        """Re-read the earliest parked key; an owner calls it
        whenever it parks or resumes a timer outside :meth:`run`'s
        calls to :meth:`ParkedTimers.fire`."""
        earliest = (_INF, _INF)
        for owner in self._parked:
            key = (owner.next_time, owner.next_seq)
            if key < earliest:
                earliest = key
        self._parked_time, self._parked_seq = earliest

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling twice, or after it has fired,
        is a harmless no-op.

        O(1): the event is only flagged; the heap entry is reaped when it
        reaches the top -- or, once dead entries are numerous *and*
        outnumber live ones, by an immediate in-place compaction, keeping
        cancel-heavy simulations (preemptive schedulers) from accumulating
        unbounded garbage.
        """
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        dead = self._dead + 1
        self._dead = dead
        if (
            dead >= _COMPACT_MIN_DEAD
            and dead * 2 > len(self._heap)  # cheap half of the next test
            and dead * 2 > self.pending
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.  Posted
        entries (``args`` not None) cannot be cancelled and all stay.

        In place matters: :meth:`run` binds the heap list to a local, so
        compaction (triggered by ``cancel`` inside a callback) must mutate
        the same list object rather than rebind ``self._heap``.
        """
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[3] is not None or not entry[2].cancelled
        ]
        heapify(heap)
        self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event, parked keys included: a
        one-event :meth:`run`.  Returns False, leaving the clock and
        :attr:`end_cut` as they are, if nothing is pending."""
        if not self.pending_active:
            return False
        executed = self._events_processed
        self.run(max_events=1)
        return self._events_processed != executed

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, the clock passes ``until``, or
        ``max_events`` callbacks have executed.

        ``until`` is inclusive: an event scheduled exactly at ``until``
        still fires.  Parked keys (:class:`ParkedTimers`) are events
        here: they fire in key order among the heap's, count as
        executed, and keep the run going after the heap drains.

        Clock-advance contract: the clock is clamped forward to ``until``
        only when every event at or before ``until`` actually ran -- the
        heap drained, or the next pending event lies beyond ``until`` --
        so periodic processes observe a consistent end time.  When the
        run is cut short, by :meth:`stop` or by the ``max_events``
        budget, the clock stays at the last executed event: pending work
        at or before ``until`` has *not* happened, and pretending time
        passed it would let callers mistake a truncated run for a
        completed one.  ``max_events`` takes precedence when the budget
        is exhausted exactly as the heap drains.

        On exit the run records :attr:`end_cut`, the ``(time, seq)`` key
        below which every event has fired: the stopping event's key when
        cut short (a parked firing's key, when that was the last),
        ``(until, inf)`` when the clock is clamped to ``until``,
        ``(inf, inf)`` when the heap drained with no ``until``.
        Reserved-seq work (:meth:`reserve_seq`) is counted against it;
        the loop itself pays nothing for it.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        limit_hit = False
        # Local bindings for the hot loop.
        heap = self._heap
        free = self._free
        free_max = _FREE_LIST_MAX
        pop = heappop
        getref = _getrefcount
        horizon = until if until is not None else _INF
        budget = max_events if max_events is not None else -1
        time = seq = None
        try:
            while True:
                while heap:
                    if self._stopped:
                        break
                    if executed == budget:
                        limit_hit = True
                        break
                    # No local keeps the entry tuple, for the recycle
                    # checks below; ``(time, seq)`` outlives the pop
                    # because a timer re-keys its event in place.  On
                    # the Event path (``args is None``) ``fn`` is the
                    # Event.
                    time, seq, fn, args = heap[0]
                    if args is None and fn.cancelled:
                        pop(heap)
                        self._dead -= 1
                        if getref(fn) == 2 and len(free) < free_max:
                            fn.cancelled = False  # free-list Events are clear
                            free.append(fn)
                        continue
                    if time >= self._parked_time and (
                        time > self._parked_time or seq > self._parked_seq
                    ):
                        # Parked keys may lie below this entry's: fire them
                        # first, then look at the heap top again (a parked
                        # timer may have resumed onto it).
                        fired = self._fire_parked(
                            time, seq, horizon,
                            budget - executed if budget >= 0 else -1,
                        )
                        if fired:
                            executed += fired
                            time, seq = self._parked_cut
                            continue
                        if heap[0][1] != seq:
                            continue
                    if time > horizon:
                        break
                    pop(heap)
                    self.now = time
                    self._events_processed += 1
                    executed += 1
                    if args is not None:
                        fn(*args)
                        continue
                    fn.fired = True
                    fn.fn(*fn.args)
                    # Recycle iff nothing outside this frame holds the event
                    # (2 == the `fn` local + getrefcount's argument), i.e.
                    # no one can ever cancel this incarnation.
                    if getref(fn) == 2 and len(free) < free_max:
                        fn.fired = False
                        free.append(fn)
                else:
                    # Loop fell through: drained, but for parked keys up
                    # to the horizon.  Back to the heap if one resumed a
                    # timer onto it.  A drained heap still counts as
                    # limit-exhausted when the last executed event spent
                    # the budget.
                    if (
                        not self._stopped
                        and executed != budget
                        and self._parked_time <= horizon
                    ):
                        fired = self._fire_parked(
                            _INF, _INF, horizon,
                            budget - executed if budget >= 0 else -1,
                        )
                        if fired:
                            executed += fired
                            time, seq = self._parked_cut
                        if heap:
                            continue
                    limit_hit = executed == budget >= 0
                break
            if self._stopped or limit_hit:
                # Both exits are taken before the next heap entry is
                # looked at, so ``(time, seq)`` is the last key executed.
                if executed:
                    self._advance_cut((time, seq))
            else:
                if until is not None and self.now < until:
                    self.now = until
                self._advance_cut((horizon, _INF))
        finally:
            self._running = False

    def _fire_parked(
        self, time: float, seq: float, horizon: float, limit: int
    ) -> int:
        """Fire the parked keys below ``(time, seq)`` and at or before
        ``horizon``, in key order across every :class:`ParkedTimers`,
        at most ``limit`` of them (all when negative).  Returns how many
        fired and leaves the last one's key in ``_parked_cut``; stops
        early where an owner resumes a timer onto the heap instead.
        """
        if time > horizon:
            time, seq = horizon, _INF
        parked = self._parked
        if len(parked) == 1:
            owner = parked[0]
            fired = owner.fire(time, seq, limit)
            self._parked_time = owner.next_time
            self._parked_seq = owner.next_seq
            if fired:
                self._events_processed += fired
                self._parked_cut = (owner.last_time, owner.last_seq)
            return fired
        fired = 0
        if parked:
            heap = self._heap
            queued = len(heap)
            while fired != limit and len(heap) == queued:
                # The earliest owner fires up to the next owner's key;
                # a resumed timer (a heap push) ends the merge.
                first, second = sorted(
                    parked, key=lambda owner: (owner.next_time, owner.next_seq)
                )[:2]
                bound = min((time, seq), (second.next_time, second.next_seq))
                count = first.fire(
                    bound[0], bound[1], limit - fired if limit >= 0 else -1
                )
                if not count:
                    break
                fired += count
                self._parked_cut = (first.last_time, first.last_seq)
        self._events_processed += fired
        self.parked_moved()
        return fired

    def _advance_cut(self, cut: Tuple[float, float]) -> None:
        """Move :attr:`end_cut` forward to ``cut`` (never back: a run
        that ends below an earlier one has not un-fired anything)."""
        if cut > self.end_cut:
            self.end_cut = cut

    def stop(self) -> None:
        """Request that :meth:`run` return after the current callback."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events still pending: the heap, *including*
        lazily-cancelled entries that have not been reaped yet, plus the
        parked keys (:class:`ParkedTimers`).

        Cancellation only flags an event (see :meth:`cancel`), so this
        gauges queue memory, not future work.  Use :attr:`pending_active`
        for the number of events that will actually fire.
        """
        return len(self._heap) + sum(map(len, self._parked))

    @property
    def pending_active(self) -> int:
        """Number of live (non-cancelled) events awaiting execution,
        parked keys included."""
        return self.pending - self._dead

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far."""
        return self._events_processed

    def register_metrics(self, registry, prefix: str = "sim") -> None:
        """Expose clock and event-pool state as bound telemetry gauges.

        The instruments read live attributes at snapshot time; nothing
        is added to the event loop itself.
        """
        registry.gauge(f"{prefix}.now_ns", fn=lambda: self.now)
        registry.counter(
            f"{prefix}.events_processed", fn=lambda: self._events_processed
        )
        registry.gauge(f"{prefix}.heap_pending", fn=lambda: self.pending)
        registry.gauge(
            f"{prefix}.heap_pending_active", fn=lambda: self.pending_active
        )
        registry.gauge(
            f"{prefix}.event_free_list", fn=lambda: len(self._free)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.1f}ns pending={self.pending}>"
