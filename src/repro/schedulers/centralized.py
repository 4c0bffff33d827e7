"""Shinjuku: centralized c-FCFS with microsecond-scale preemption.

One core is a dedicated dispatcher (it processes no RPCs); the rest are
workers.  The dispatcher pulls from a single central queue and hands
requests to idle workers, one at a time -- so its per-dispatch cost caps
system throughput.  The paper quotes the published Shinjuku ceiling of
5 M requests/s (Sec. II-D), i.e. 200 ns per dispatch, the default here.

Workers run under a preemption quantum (5 us in Shinjuku): a request
exceeding its quantum is interrupted and re-queued at the central
queue's tail, which breaks head-of-line blocking behind long requests at
the cost of switch overhead and extra dispatcher work.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.hw.cores import Core
from repro.hw.nic import DeliveryModel
from repro.schedulers.base import RpcSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.request import Request


class ShinjukuSystem(RpcSystem):
    """Centralized dispatcher + preemptive workers (Shinjuku model)."""

    name = "shinjuku"

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        n_cores: int,
        delivery: Optional[DeliveryModel] = None,
        constants: HwConstants = DEFAULT_CONSTANTS,
        dispatch_ns: float = 200.0,
        quantum_ns: float = 5_000.0,
        switch_overhead_ns: float = 500.0,
    ) -> None:
        if n_cores < 2:
            raise ValueError("Shinjuku needs >= 2 cores (dispatcher + worker)")
        super().__init__(sim, streams, n_cores, delivery, constants)
        self._m_preemptions = self.metrics.counter("sched.preemptions")
        if dispatch_ns < 0 or switch_overhead_ns < 0:
            raise ValueError("overheads must be non-negative")
        if quantum_ns <= 0:
            raise ValueError(f"quantum must be positive, got {quantum_ns}")
        self.dispatch_ns = float(dispatch_ns)
        self.quantum_ns = float(quantum_ns)
        self.switch_overhead_ns = float(switch_overhead_ns)
        #: Core 0 is the dedicated dispatcher; it never executes RPCs.
        self.workers = self.cores[1:]
        self.central: Deque[Request] = deque()
        self._dispatch_busy = False

    # ------------------------------------------------------------------
    def _deliver(self, request: Request) -> None:
        request.enqueued = self.sim.now
        request.queue_len_at_arrival = len(self.central)
        self.central.append(request)
        self._pump()

    def _pump(self) -> None:
        """Dispatcher main loop: one hand-off in flight at a time."""
        if self._dispatch_busy or not self.central:
            return
        worker = self._idle_worker()
        if worker is None:
            return
        request = self.central.popleft()
        self._dispatch_busy = True
        self._charge_scheduling(self.dispatch_ns)
        self.sim.post(self.dispatch_ns, self._hand_off, worker, request)

    def _hand_off(self, worker: Core, request: Request) -> None:
        self._dispatch_busy = False
        if worker.busy:
            # The reservation was broken by a racing assignment; requeue
            # at the head so ordering is preserved.  Cannot happen with a
            # serialized dispatcher, but guard for subclass safety.
            self.central.appendleft(request)
        else:
            worker.assign(
                request,
                startup_ns=self._execute_ns(request),
                quantum_ns=self.quantum_ns,
                switch_overhead_ns=self.switch_overhead_ns,
            )
        self._pump()

    def _idle_worker(self) -> Optional[Core]:
        for worker in self.workers:
            if not worker.busy:
                return worker
        return None

    # ------------------------------------------------------------------
    def _after_complete(self, core: Core, request: Request) -> None:
        self._pump()

    def _after_preempt(self, core: Core, request: Request) -> None:
        # Preempted requests go to the tail: newly arrived short requests
        # get ahead of a long request's continuation (processor sharing
        # in the limit).
        self.central.append(request)
        self._m_preemptions.value += 1
        self._pump()

    # ------------------------------------------------------------------
    @property
    def dispatcher_capacity_rps(self) -> float:
        """Upper bound on dispatch throughput, requests/second."""
        if self.dispatch_ns == 0:
            return float("inf")
        return 1e9 / self.dispatch_ns
