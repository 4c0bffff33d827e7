"""ZygOS: d-FCFS with software work stealing.

ZygOS keeps RSS's per-core queues but lets idle cores steal pending
requests from busy ones.  The paper's critique (Sec. II-D) pins two
costs on this design, both modelled here:

* **Load-blind victim selection** -- the thief probes *random* queues;
  empty probes still cost a remote cache miss.  At low load most probes
  miss; at high load ~60% of requests end up moved.
* **Steal cost** -- finding + fetching work takes 2-3 cache misses,
  200-400 ns, charged to the thief core (it is busy probing/fetching,
  not processing).

Stealing is still SLO-unaware: the thief takes the head of whatever
queue it lands on, whether or not that request was in danger.
"""

from __future__ import annotations

from typing import Deque, Optional

from repro.hw.coherence import CoherenceModel
from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.hw.cores import Core
from repro.hw.nic import DeliveryModel
from repro.schedulers.rss import RssSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.request import Request


class ZygosSystem(RssSystem):
    """d-FCFS + work stealing (ZygOS model)."""

    name = "zygos"

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        n_cores: int,
        delivery: Optional[DeliveryModel] = None,
        constants: HwConstants = DEFAULT_CONSTANTS,
        steering_policy: str = "connection",
        probe_ns: float = 100.0,
        max_probes: int = 3,
        per_request_overhead_ns: float = 0.0,
    ) -> None:
        super().__init__(
            sim,
            streams,
            n_cores,
            delivery,
            constants,
            steering_policy,
            per_request_overhead_ns=per_request_overhead_ns,
        )
        if max_probes <= 0:
            raise ValueError(f"max_probes must be positive, got {max_probes}")
        self.coherence = CoherenceModel(constants)
        self.probe_ns = float(probe_ns)
        self.max_probes = int(max_probes)
        self._draws = streams.draws("steal")
        #: Bit ``i`` set while core ``i`` is neither busy nor probing.
        #: Such a core's own queue is always empty: arrivals start it
        #: directly and it only goes idle after draining its queue.
        self._idle = (1 << n_cores) - 1
        #: Number of non-empty receive queues.
        self._backlog = 0
        self.steal_attempts = 0
        self.steal_hits = 0

    # ------------------------------------------------------------------
    def _deliver(self, request: Request) -> None:
        idx = self.steering.pick_queue(request)
        request.enqueued = self.sim.now
        bit = 1 << idx
        if self._idle & bit:
            request.queue_len_at_arrival = 0
            self._idle ^= bit
            self._start(self.cores[idx], request)
            return
        queue = self.queues[idx]
        request.queue_len_at_arrival = len(queue) + (1 if self.cores[idx].busy else 0)
        if not queue:
            self._backlog += 1
        queue.append(request)
        # Wake one genuinely idle core to come steal this queue's backlog.
        thief = self._find_idle_thief()
        if thief is not None:
            self._begin_probe(thief, probes_left=self.max_probes)

    def _after_complete(self, core: Core, request: Request) -> None:
        queue = self.queues[core.core_id]
        if queue:
            self._start(core, self._pop(queue))
        else:
            self._idle |= 1 << core.core_id
            self._begin_probe(core, probes_left=self.max_probes)

    def _pop(self, queue: Deque[Request]) -> Request:
        request = queue.popleft()
        if not queue:
            self._backlog -= 1
        return request

    # ------------------------------------------------------------------
    # Stealing machinery
    # ------------------------------------------------------------------
    def _find_idle_thief(self) -> Optional[Core]:
        """The lowest-id core that is neither busy nor probing."""
        idle = self._idle
        if not idle:
            return None
        return self.cores[(idle & -idle).bit_length() - 1]

    def _begin_probe(self, thief: Core, probes_left: int) -> None:
        """Start one random-victim probe; each probe costs a cache miss."""
        bit = 1 << thief.core_id
        # An idle thief's own queue is empty, so any backlog is remote.
        if not self._idle & bit or not self._backlog:
            return  # nothing to steal anywhere; stay idle until woken
        self._idle ^= bit
        self.steal_attempts += 1
        n_cores = len(self.cores)
        victim = self._draws.integers(0, n_cores)
        if victim == thief.core_id:
            victim = (victim + 1) % n_cores
        self.sim.post(self.probe_ns, self._finish_probe, thief, victim, probes_left)

    def _finish_probe(self, thief: Core, victim: int, probes_left: int) -> None:
        # A probing core is never started meanwhile (its idle bit is
        # clear), but local work may have queued behind it; prefer it.
        own = self.queues[thief.core_id]
        if own:
            self._start(thief, self._pop(own))
            return
        vqueue = self.queues[victim]
        if vqueue:
            request = self._pop(vqueue)
            request.steals += 1
            self.steal_hits += 1
            cost = self.coherence.steal_ns(self._draws)
            self._charge_scheduling(cost)
            # A stolen request still pays the dataplane's per-request
            # stack work on the thief core.
            thief.assign(
                request,
                startup_ns=cost + self.per_request_overhead_ns
                + self._execute_ns(request),
            )
            return
        self._idle |= 1 << thief.core_id
        if probes_left > 1:
            self._begin_probe(thief, probes_left - 1)

    # ------------------------------------------------------------------
    @property
    def steal_hit_rate(self) -> float:
        """Fraction of probes that found work."""
        if self.steal_attempts == 0:
            return 0.0
        return self.steal_hits / self.steal_attempts
