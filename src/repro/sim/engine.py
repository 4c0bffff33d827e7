"""The discrete-event simulation engine.

A :class:`Simulator` owns a binary-heap event queue and a monotonically
advancing clock.  Everything in the reproduction -- NIC arrivals, core
completions, NoC message deliveries, the Altocumulus runtime's periodic
ticks -- is an :class:`Event` scheduled on one shared simulator, so causal
ordering across subsystems falls out of the single clock.

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
* Callbacks run synchronously inside :meth:`Simulator.step`.  A callback
  may schedule further events (including at the current time) but must not
  schedule into the past.

Fast-path engineering (all behavior-preserving)
-----------------------------------------------
The event kernel is the hottest code in the repository -- every simulated
nanosecond flows through it -- so it trades a little uniformity for
throughput:

* **C-level heap ordering.**  Heap entries are ``(time, seq, event)``
  tuples, not the :class:`Event` objects themselves, so ``heapq``'s C
  implementation compares floats/ints directly and ``Event.__lt__`` is
  never invoked on the hot path (it is retained for API compatibility).
* **Event free list.**  After a callback returns, its Event object is
  recycled onto a bounded free list *iff* no caller kept a handle to it
  (checked via the CPython reference count, which is exact and
  deterministic).  Handles that escape -- anything a caller might still
  :meth:`Simulator.cancel` -- are never recycled, which preserves the
  documented "cancel after fire is a no-op" contract verbatim.
* **Timer reuse.**  Periodic machinery (manager runtime ticks, preemption
  quanta) reschedules the *same* Event object via
  :meth:`Simulator.schedule_timer` (or, from inside its own callback,
  :meth:`Simulator.rearm`) instead of allocating one per period.
* **Monomorphic run loop.**  :meth:`Simulator.run` binds the heap, the
  ``heapq`` primitives and the free list to locals and inlines the pop
  path rather than calling :meth:`step` per event.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: Exact reference counting is a CPython detail; on other interpreters the
#: free list simply never recycles (correct, just slower).
_getrefcount = getattr(sys, "getrefcount", None)

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


#: The heap entry layout: (time, seq, event).
_Entry = Tuple[float, int, Event]


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

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now."""
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
            event.cancelled = False
            event.fired = False
        else:
            event = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, event))
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
            event.cancelled = False
            event.fired = False
        else:
            event = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, event))
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
        runtime's ``Period`` tick, preemption quanta): pass the Event
        returned by the previous firing and, provided it has already
        fired, the same object is re-armed and re-pushed instead of
        allocating a new one.

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
        heappush(self._heap, (time, seq, event))
        return event

    def rearm(self, event: Event, delay: float, reserve: int = 0) -> int:
        """Re-push ``event``, a timer whose callback is running now, to
        fire the same callback ``delay`` ns from now; first consume
        ``reserve`` sequence numbers as :meth:`reserve_seq` does, and
        return the first of them.

        The lean form of :meth:`schedule_timer` for a timer that re-arms
        itself from its own callback (the manager runtime's tick): no
        argument packing and no checks.  ``delay`` must be non-negative
        and ``event`` must have fired and not been cancelled.
        """
        first = self._seq
        seq = first + reserve
        self._seq = seq + 1
        time = self.now + delay
        event.time = time
        event.seq = seq
        event.fired = False
        heappush(self._heap, (time, seq, event))
        return first

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
        if dead >= _COMPACT_MIN_DEAD and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place matters: :meth:`run` binds the heap list to a local, so
        compaction (triggered by ``cancel`` inside a callback) must mutate
        the same list object rather than rebind ``self._heap``.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False if the heap is empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            self.now = event.time
            self._events_processed += 1
            event.fired = True
            self._advance_cut((event.time, event.seq))
            event.fn(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, the clock passes ``until``, or
        ``max_events`` callbacks have executed.

        ``until`` is inclusive: an event scheduled exactly at ``until``
        still fires.

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
        cut short, ``(until, inf)`` when the clock is clamped to
        ``until``, ``(inf, inf)`` when the heap drained with no
        ``until``.  Reserved-seq work (:meth:`reserve_seq`) is counted
        against it; the loop itself pays nothing for it.
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
        pop = heappop
        getref = _getrefcount
        horizon = until if until is not None else _INF
        budget = max_events if max_events is not None else -1
        event = None
        try:
            while heap:
                if self._stopped:
                    break
                if executed == budget:
                    limit_hit = True
                    break
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    pop(heap)
                    self._dead -= 1
                    entry = None
                    if (
                        getref is not None
                        and getref(event) == 2
                        and len(free) < _FREE_LIST_MAX
                    ):
                        event.fn = None
                        event.args = None
                        free.append(event)
                    continue
                time = entry[0]
                if time > horizon:
                    break
                pop(heap)
                entry = None  # drop the tuple's reference for the recycle check
                self.now = time
                self._events_processed += 1
                event.fired = True
                event.fn(*event.args)
                executed += 1
                # Recycle iff nothing outside this frame holds the event
                # (2 == the `event` local + getrefcount's argument), i.e.
                # no one can ever cancel this incarnation.
                if (
                    getref is not None
                    and getref(event) == 2
                    and len(free) < _FREE_LIST_MAX
                ):
                    event.fn = None
                    event.args = None
                    free.append(event)
            else:
                # Loop fell through: drained.  A drained heap still
                # counts as limit-exhausted when the last executed event
                # spent the budget.
                limit_hit = executed == budget >= 0
            if self._stopped or limit_hit:
                # Both exits are taken before the next heap entry is
                # looked at, so ``event`` is the last one executed.
                if executed:
                    self._advance_cut((event.time, event.seq))
            else:
                if until is not None and self.now < until:
                    self.now = until
                self._advance_cut((horizon, _INF))
        finally:
            self._running = False

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
        """Number of events still in the heap, *including* lazily-cancelled
        entries that have not been reaped yet.

        Cancellation only flags an event (see :meth:`cancel`), so this
        gauges heap memory, not future work.  Use :attr:`pending_active`
        for the number of events that will actually fire.
        """
        return len(self._heap)

    @property
    def pending_active(self) -> int:
        """Number of live (non-cancelled) events awaiting execution."""
        return len(self._heap) - self._dead

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
        registry.gauge(f"{prefix}.heap_pending", fn=lambda: len(self._heap))
        registry.gauge(
            f"{prefix}.heap_pending_active",
            fn=lambda: len(self._heap) - self._dead,
        )
        registry.gauge(
            f"{prefix}.event_free_list", fn=lambda: len(self._free)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.1f}ns pending={self.pending}>"
