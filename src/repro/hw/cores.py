"""CPU core model.

A :class:`Core` executes one request at a time.  Two execution modes
cover every scheduler in the evaluation:

* **Run-to-completion** (RSS, IX, ZygOS, Nebula, Altocumulus workers):
  the request occupies the core for its full remaining service time.
* **Quantum-preemptive** (Shinjuku's 5 us preemption, nanoPU's bounded
  quantum): the request runs for at most ``quantum_ns``, then is handed
  back to the scheduler with its ``remaining`` decremented and the
  preemption overhead charged.

The core never chooses work -- scheduling policy lives entirely in the
owning system, which supplies the ``on_complete`` / ``on_preempt``
callbacks.  Utilization accounting (busy ns) feeds the CPU-efficiency
analysis.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.workload.request import Request

CompleteFn = Callable[["Core", Request], None]
PreemptFn = Callable[["Core", Request], None]


class Core:
    """One hardware thread executing RPC handlers run-to-completion or
    under a preemption quantum."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        on_complete: CompleteFn,
        on_preempt: Optional[PreemptFn] = None,
    ) -> None:
        self.sim = sim
        self.core_id = int(core_id)
        self.on_complete = on_complete
        self.on_preempt = on_preempt
        self.current: Optional[Request] = None
        #: Wall-clock stretch factor applied to service time (fault
        #: injection's core-stall/straggler knob).  1.0 = healthy; the
        #: multiply is guarded so the healthy path stays bit-identical.
        self.slowdown: float = 1.0
        self.busy_ns: float = 0.0
        self.completed: int = 0
        self.preemptions: int = 0
        self._run_started: float = 0.0

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a request occupies the core."""
        return self.current is not None

    def assign(
        self,
        request: Request,
        startup_ns: float = 0.0,
        quantum_ns: Optional[float] = None,
        switch_overhead_ns: float = 0.0,
    ) -> None:
        """Begin executing ``request``.

        Parameters
        ----------
        startup_ns:
            Latency before useful work starts (e.g. fetching the request
            across the coherence fabric, a steal's cache misses).  It is
            charged to the core *and* to the request.
        quantum_ns:
            If set, preempt after this much service; ``on_preempt`` fires
            with the request's ``remaining`` updated.
        switch_overhead_ns:
            Context-switch cost added on preemption (charged to the
            request as ``extra_latency`` and to the core as busy time).
        """
        if self.busy:
            raise RuntimeError(f"core {self.core_id} is already busy")
        if quantum_ns is not None and quantum_ns <= 0:
            raise ValueError(f"quantum must be positive, got {quantum_ns}")
        self.current = request
        request.core_id = self.core_id
        if request.started is None:
            request.started = self.sim.now + startup_ns
        run = request.remaining
        preempting = quantum_ns is not None and run > quantum_ns
        if preempting:
            run = quantum_ns
        self._run_started = self.sim.now
        wall_run = run if self.slowdown == 1.0 else run * self.slowdown
        total = startup_ns + wall_run + (switch_overhead_ns if preempting else 0.0)
        if preempting:
            request.extra_latency += switch_overhead_ns
        if startup_ns:
            request.extra_latency += startup_ns
        # Nothing cancels a core's completion, so it needs no handle.
        self.sim.post(total, self._finish_slice, request, run, preempting)

    def _finish_slice(self, request: Request, ran_ns: float, preempted: bool) -> None:
        self.busy_ns += self.sim.now - self._run_started
        self.current = None
        request.remaining -= ran_ns
        if preempted:
            self.preemptions += 1
            if self.on_preempt is None:
                raise RuntimeError(
                    f"core {self.core_id} preempted without an on_preempt handler"
                )
            self.on_preempt(self, request)
        else:
            request.remaining = 0.0
            request.finished = self.sim.now
            self.completed += 1
            self.on_complete(self, request)

    # ------------------------------------------------------------------
    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` this core spent executing."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"running #{self.current.req_id}" if self.current else "idle"
        return f"<Core {self.core_id} {state} done={self.completed}>"
