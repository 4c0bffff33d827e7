"""Periodic timers built on the event heap.

:class:`PeriodicTimer` wraps the schedule/reschedule dance and supports
clean cancellation mid-simulation.  RSS++'s indirection-table rebalance
and fig09's NetRX sampler use it.  The Altocumulus runtime's ``Period``
tick and the cores' preemption quanta re-arm their own events instead
(:meth:`~repro.sim.engine.Simulator.schedule_timer`,
:meth:`~repro.sim.engine.Simulator.rearm`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator


class PeriodicTimer:
    """Invoke a callback every ``period`` nanoseconds until stopped.

    The callback runs first at ``start_at`` (default: one period from
    creation time) and then every ``period`` thereafter.  The period can
    be changed on the fly with :meth:`set_period`; the new period takes
    effect after the next firing.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        fn: Callable[..., Any],
        *args: Any,
        start_at: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"timer period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self.fn = fn
        self.args = args
        self.fires = 0
        self._stopped = False
        first = start_at if start_at is not None else sim.now + period
        self._event: Optional[Event] = sim.schedule_at(first, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fires += 1
        self.fn(*self.args)
        if not self._stopped:
            # The just-fired event is exclusively ours: re-arm it via the
            # engine's timer-reuse path instead of allocating a new one.
            self._event = self.sim.schedule_timer(
                self.period, self._fire, event=self._event
            )

    def set_period(self, period: float) -> None:
        """Change the firing interval (effective after the next firing)."""
        if period <= 0:
            raise ValueError(f"timer period must be positive, got {period}")
        self.period = period

    def stop(self) -> None:
        """Cancel the timer; pending firings are suppressed."""
        self._stopped = True
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    @property
    def active(self) -> bool:
        """True while the timer will keep firing."""
        return not self._stopped
