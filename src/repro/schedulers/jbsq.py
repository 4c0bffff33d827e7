"""NIC-driven hardware JBSQ(n) schedulers: RPCValet, Nebula, nanoPU.

Join-Bounded-Shortest-Queue keeps a central queue *in the NIC* and
pushes its head to the core with the fewest locally queued requests,
provided that core holds fewer than ``n``.  A hardware scheduler has no
dispatcher-core throughput cap; its cost is the NIC-to-core transfer
latency, which differs per system:

* **RPCValet** -- NI integrated into the coherence fabric; transfers go
  through shared caches (~1 coherence message).
* **Nebula** -- NIC-terminated stack, in-LLC buffers; slightly faster
  hand-off, JBSQ(2), *no preemption* -- hence its long-request
  head-of-line blocking in Figs. 10 and 14.
* **nanoPU** -- direct NIC-to-register-file path (~5 ns hand-off) plus a
  bounded-quantum preemption mechanism piggybacked on each core, which
  rescues it from JBSQ's long-request blindness.

``ideal_cfcfs`` (bound=1, zero overheads) degenerates to the textbook
M/G/k c-FCFS used by the Fig. 3 and Fig. 7 methodology studies; its
``startup_overhead_ns`` knob injects the per-request scheduling overhead
swept in Fig. 3.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.hw.cores import Core
from repro.hw.nic import DeliveryModel, HwTerminatedDelivery
from repro.schedulers.base import RpcSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.request import Request


class JbsqSystem(RpcSystem):
    """Central NIC queue + JBSQ(n) push to bounded per-core queues.

    Gang admission: a request with ``core_demand == c > 1`` waits at the
    central queue's *head* until ``c`` cores are fully idle (FCFS with
    head-of-line gang blocking, the admission discipline of "Zero
    Queueing for Multi-Server Jobs"), then the primary plus ``c - 1``
    gang shadows dispatch to those cores together.  Gangs are intended
    for the non-preemptive configurations; under a preemption quantum a
    displaced shadow re-queues like any request, conserving work but
    relaxing the all-cores-simultaneous guarantee.
    """

    name = "jbsq"
    supports_gang = True

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        n_cores: int,
        delivery: Optional[DeliveryModel] = None,
        constants: HwConstants = DEFAULT_CONSTANTS,
        bound: int = 2,
        dispatch_ns: float = 20.0,
        quantum_ns: Optional[float] = None,
        switch_overhead_ns: float = 100.0,
        startup_overhead_ns: float = 0.0,
    ) -> None:
        super().__init__(sim, streams, n_cores, delivery, constants)
        self._m_preemptions = self.metrics.counter("sched.preemptions")
        if bound <= 0:
            raise ValueError(f"JBSQ bound must be positive, got {bound}")
        if dispatch_ns < 0 or startup_overhead_ns < 0:
            raise ValueError("overheads must be non-negative")
        if quantum_ns is not None and quantum_ns <= 0:
            raise ValueError(f"quantum must be positive, got {quantum_ns}")
        self.bound = int(bound)
        self.dispatch_ns = float(dispatch_ns)
        self.quantum_ns = quantum_ns
        self.switch_overhead_ns = float(switch_overhead_ns)
        self.startup_overhead_ns = float(startup_overhead_ns)
        self.central: Deque[Request] = deque()
        #: Requests at / in flight to each core (JBSQ occupancy).
        self.occupancy: List[int] = [0] * n_cores
        self.local_wait: List[Deque[Request]] = [deque() for _ in range(n_cores)]
        #: Gang jobs whose core demand exceeds the machine (plain
        #: attribute, not a registry instrument: gang counters must not
        #: widen the pinned metrics schema of flat-request builds).
        self.gang_infeasible_drops = 0

    # ------------------------------------------------------------------
    def _deliver(self, request: Request) -> None:
        request.enqueued = self.sim.now
        request.queue_len_at_arrival = len(self.central) + sum(self.occupancy)
        if request.core_demand > len(self.cores):
            # No schedule can ever admit this gang; drop it visibly
            # rather than wedging the queue head forever.
            self.gang_infeasible_drops += 1
            self._drop(request)
            return
        self.central.append(request)
        self._pump()

    def _pump(self) -> None:
        """Push central-queue heads to the least-occupied eligible cores."""
        while self.central:
            head = self.central[0]
            if head.core_demand > 1:
                if not self._admit_gang(head):
                    return
                continue
            target = self._pick_core()
            if target is None:
                return
            request = self.central.popleft()
            self.occupancy[target] += 1
            self._charge_scheduling(self.dispatch_ns)
            if self.dispatch_ns > 0:
                self.sim.post(self.dispatch_ns, self._arrive_at_core, target, request)
            else:
                self._arrive_at_core(target, request)

    def _admit_gang(self, request: Request) -> bool:
        """Dispatch the head gang iff ``core_demand`` cores are idle.

        Idle means zero JBSQ occupancy -- nothing running, queued or in
        flight -- so all gang members start together the moment they
        land.  Returns False (head stays, blocking the queue) when too
        few cores are free right now.
        """
        from repro.workload.jobs import make_gang_shadow

        demand = request.core_demand
        idle = [i for i, occ in enumerate(self.occupancy) if occ == 0]
        if len(idle) < demand:
            return False
        self.central.popleft()
        members = [request] + [
            make_gang_shadow(request, slot) for slot in range(1, demand)
        ]
        for target, member in zip(idle, members):
            self.occupancy[target] += 1
            self._charge_scheduling(self.dispatch_ns)
            if self.dispatch_ns > 0:
                self.sim.post(
                    self.dispatch_ns, self._arrive_at_core, target, member
                )
            else:
                self._arrive_at_core(target, member)
        return True

    def _pick_core(self) -> Optional[int]:
        """Shortest queue among cores under the bound; None if all full."""
        best = None
        best_occ = self.bound
        for core_id, occ in enumerate(self.occupancy):
            if occ < best_occ:
                best = core_id
                best_occ = occ
        return best

    def _arrive_at_core(self, core_id: int, request: Request) -> None:
        core = self.cores[core_id]
        if core.busy:
            self.local_wait[core_id].append(request)
        else:
            self._start(core, request)

    def _start(self, core: Core, request: Request) -> None:
        core.assign(
            request,
            startup_ns=self.startup_overhead_ns + self._execute_ns(request),
            quantum_ns=self.quantum_ns,
            switch_overhead_ns=self.switch_overhead_ns,
        )

    # ------------------------------------------------------------------
    def _after_complete(self, core: Core, request: Request) -> None:
        self.occupancy[core.core_id] -= 1
        waiting = self.local_wait[core.core_id]
        if waiting:
            self._start(core, waiting.popleft())
        self._pump()

    def _after_preempt(self, core: Core, request: Request) -> None:
        # Preempted work returns to the central queue's tail and competes
        # again for any core (nanoPU behaviour).
        self.occupancy[core.core_id] -= 1
        self.central.append(request)
        self._m_preemptions.value += 1
        waiting = self.local_wait[core.core_id]
        if waiting:
            self._start(core, waiting.popleft())
        self._pump()


# ----------------------------------------------------------------------
# Named configurations from the paper's methodology (Sec. VII-A)
# ----------------------------------------------------------------------
def rpcvalet(
    sim: Simulator,
    streams: RandomStreams,
    n_cores: int,
    constants: HwConstants = DEFAULT_CONSTANTS,
) -> JbsqSystem:
    """RPCValet: NI-driven single-request balancing through shared caches."""
    system = JbsqSystem(
        sim,
        streams,
        n_cores,
        delivery=HwTerminatedDelivery(constants),
        constants=constants,
        bound=1,
        dispatch_ns=constants.coherence_msg_ns,
        quantum_ns=None,
    )
    system.name = "rpcvalet"
    return system


def nebula(
    sim: Simulator,
    streams: RandomStreams,
    n_cores: int,
    constants: HwConstants = DEFAULT_CONSTANTS,
) -> JbsqSystem:
    """Nebula: hardware JBSQ(2), in-LLC buffers, no preemption."""
    system = JbsqSystem(
        sim,
        streams,
        n_cores,
        delivery=HwTerminatedDelivery(constants),
        constants=constants,
        bound=2,
        dispatch_ns=20.0,
        quantum_ns=None,
    )
    system.name = "nebula"
    return system


def nanopu(
    sim: Simulator,
    streams: RandomStreams,
    n_cores: int,
    constants: HwConstants = DEFAULT_CONSTANTS,
    quantum_ns: float = 1_000.0,
) -> JbsqSystem:
    """nanoPU: JBSQ(2) into core register files + bounded-quantum preemption."""
    system = JbsqSystem(
        sim,
        streams,
        n_cores,
        delivery=HwTerminatedDelivery(constants),
        constants=constants,
        bound=2,
        dispatch_ns=5.0,
        quantum_ns=quantum_ns,
        switch_overhead_ns=100.0,
    )
    system.name = "nanopu"
    return system


def ideal_cfcfs(
    sim: Simulator,
    streams: RandomStreams,
    n_cores: int,
    constants: HwConstants = DEFAULT_CONSTANTS,
    startup_overhead_ns: float = 0.0,
) -> JbsqSystem:
    """Textbook M/G/k c-FCFS (zero-cost central queue); the methodology
    substrate for the Fig. 3 overhead sweep and Fig. 7 threshold study."""
    system = JbsqSystem(
        sim,
        streams,
        n_cores,
        delivery=HwTerminatedDelivery(constants),
        constants=constants,
        bound=1,
        dispatch_ns=0.0,
        quantum_ns=None,
        startup_overhead_ns=startup_overhead_ns,
    )
    system.name = "cfcfs"
    return system
