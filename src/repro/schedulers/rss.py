"""RSS d-FCFS systems: the commodity-NIC baseline and IX.

Receive Side Scaling hashes each flow to a per-core queue (Fig. 4's
"d-FCFS" model).  Dispatch decisions are load-oblivious -- each core
polls only its private queue -- which scales perfectly but suffers
head-of-line blocking and imbalance under dispersive service times
(Sec. II-D).

:class:`IxSystem` layers IX's adaptive batching on top: the dataplane
processes its receive queue in batches run-to-completion, paying a small
per-batch kernel-bypass overhead amortized over the batch.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.hw.cores import Core
from repro.hw.nic import DeliveryModel, RssSteering
from repro.schedulers.base import RpcSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.request import Request


class RssSystem(RpcSystem):
    """Pure d-FCFS: one unbounded FIFO per core, RSS steering."""

    name = "rss"

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        n_cores: int,
        delivery: Optional[DeliveryModel] = None,
        constants: HwConstants = DEFAULT_CONSTANTS,
        steering_policy: str = "connection",
        per_request_overhead_ns: float = 0.0,
    ) -> None:
        super().__init__(sim, streams, n_cores, delivery, constants)
        self.queues: List[Deque[Request]] = [deque() for _ in range(n_cores)]
        self.steering = RssSteering(
            n_cores, policy=steering_policy, rng=streams.draws("rss")
        )
        self.per_request_overhead_ns = float(per_request_overhead_ns)

    # ------------------------------------------------------------------
    def _deliver(self, request: Request) -> None:
        idx = self.steering.pick_queue(request)
        queue = self.queues[idx]
        request.enqueued = self.sim.now
        request.queue_len_at_arrival = len(queue) + (1 if self.cores[idx].busy else 0)
        core = self.cores[idx]
        if not core.busy and not queue:
            self._start(core, request)
        else:
            queue.append(request)

    def _start(self, core: Core, request: Request) -> None:
        overhead = self.per_request_overhead_ns
        if overhead:
            self._charge_scheduling(overhead)
        core.assign(request, startup_ns=overhead + self._execute_ns(request))

    def _after_complete(self, core: Core, request: Request) -> None:
        queue = self.queues[core.core_id]
        if queue:
            self._start(core, queue.popleft())


class IxSystem(RssSystem):
    """IX: kernel-bypass dataplane on RSS d-FCFS with adaptive batching.

    Each core drains its receive queue in batches run-to-completion.
    The batch entry cost (``batch_overhead_ns``) models the dataplane's
    poll + protocol work per batch; it is amortized over up to
    ``batch_size`` requests, so IX's per-request overhead shrinks under
    load -- exactly IX's adaptive-batching behaviour.  The policy is
    still d-FCFS, so it inherits RSS's imbalance and head-of-line
    blocking (the scalability bottleneck Table I lists for IX).
    """

    name = "ix"

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        n_cores: int,
        delivery: Optional[DeliveryModel] = None,
        constants: HwConstants = DEFAULT_CONSTANTS,
        steering_policy: str = "connection",
        batch_overhead_ns: float = 300.0,
        batch_size: int = 16,
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
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        self.batch_overhead_ns = float(batch_overhead_ns)
        self.batch_size = int(batch_size)
        self._batch_left = [0] * n_cores

    def _start(self, core: Core, request: Request) -> None:
        idx = core.core_id
        if self._batch_left[idx] <= 0:
            # Entering a new batch: charge the dataplane poll cost and
            # claim up to batch_size requests for it.
            self._batch_left[idx] = min(
                self.batch_size, 1 + len(self.queues[idx])
            )
            self._charge_scheduling(self.batch_overhead_ns)
            startup = self.batch_overhead_ns
        else:
            startup = 0.0
        self._batch_left[idx] -= 1
        # Per-request dataplane stack work rides on top of the amortized
        # batch entry cost.
        core.assign(
            request,
            startup_ns=startup + self.per_request_overhead_ns
            + self._execute_ns(request),
        )
