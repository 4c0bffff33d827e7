"""NIC models: steering policies and NIC-to-core delivery costs.

Two orthogonal concerns live here:

* **Steering** -- which receive queue gets a packet.  :class:`RssSteering`
  implements the commodity load-oblivious policies the paper models in
  Fig. 9: ``connection`` (hash of the flow tuple, real RSS), ``random``
  and ``round-robin``.
* **Delivery** -- the latency from wire arrival until the request is
  visible to the scheduling layer.  :class:`PcieDelivery` models a
  commodity PCIe-attached NIC; :class:`HwTerminatedDelivery` models the
  integrated NICs of Nebula/nanoPU/AC_int where the network stack is
  terminated in hardware (~30 ns total).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.hw.pcie import PcieLink
from repro.sim.rng import ExactDraws
from repro.workload.connections import ConnectionPool
from repro.workload.request import Request


class DeliveryModel(abc.ABC):
    """Latency from NIC wire arrival to scheduler visibility.

    Concrete models keep two running counters -- requests delivered and
    total delivery latency charged -- exposed to a telemetry registry as
    bound ``nic.*`` instruments via :meth:`register_metrics`.
    """

    def __init__(self) -> None:
        self.delivered = 0
        self.delivery_ns_total = 0.0

    @abc.abstractmethod
    def delivery_ns(self, request: Request) -> float:
        """Per-request NIC -> host delivery latency in ns."""

    def register_metrics(self, registry, prefix: str = "nic") -> None:
        """Register bound delivery counters into ``registry``."""
        registry.counter(
            f"{prefix}.delivered", fn=lambda: getattr(self, "delivered", 0)
        )
        registry.counter(
            f"{prefix}.delivery_ns_total",
            fn=lambda: getattr(self, "delivery_ns_total", 0.0),
        )


class HwTerminatedDelivery(DeliveryModel):
    """Hardware-terminated network stack: MAC + serial I/O + transport
    interpretation, ~30 ns total (nanoPU/Nebula style)."""

    def __init__(self, constants: HwConstants = DEFAULT_CONSTANTS) -> None:
        super().__init__()
        self.constants = constants

    def delivery_ns(self, request: Request) -> float:
        ns = self.constants.nic_terminate_ns
        self.delivered += 1
        self.delivery_ns_total += ns
        return ns


class PcieDelivery(DeliveryModel):
    """Commodity NIC behind PCIe: termination plus a size-dependent
    PCIe transfer (200-800 ns)."""

    def __init__(self, constants: HwConstants = DEFAULT_CONSTANTS) -> None:
        super().__init__()
        self.constants = constants
        self._pcie = PcieLink(constants)

    def delivery_ns(self, request: Request) -> float:
        ns = self.constants.nic_terminate_ns + self._pcie.transfer_ns(
            request.size_bytes
        )
        self.delivered += 1
        self.delivery_ns_total += ns
        return ns

    def register_metrics(self, registry, prefix: str = "nic") -> None:
        super().register_metrics(registry, prefix)
        self._pcie.register_metrics(registry, prefix=f"{prefix}.pcie")


class RssSteering:
    """Load-oblivious receive-queue selection.

    Policies (Fig. 9):

    * ``"connection"`` -- hash the flow id (default; real RSS behaviour).
      Hot flows pin to one queue, creating persistent imbalance.
    * ``"random"`` -- uniformly random queue per packet.
    * ``"round_robin"`` -- strict rotation; the most balanced oblivious
      policy, but still ignorant of queue occupancy and service times.
    """

    POLICIES = ("connection", "random", "round_robin")

    def __init__(
        self,
        n_queues: int,
        policy: str = "connection",
        rng: Optional[ExactDraws] = None,
        pool: Optional[ConnectionPool] = None,
    ) -> None:
        if n_queues <= 0:
            raise ValueError(f"need at least one queue, got {n_queues}")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; pick from {self.POLICIES}")
        if policy == "random" and rng is None:
            raise ValueError("random policy requires an rng")
        self.n_queues = int(n_queues)
        self.policy = policy
        self.rng = rng
        self.pool = pool or ConnectionPool(1 << 16)
        self._rr_next = 0

    def pick_queue(self, request: Request) -> int:
        """Choose the receive queue for a request."""
        if self.policy == "connection":
            return self.pool.hash_to_queue(request.connection, self.n_queues)
        if self.policy == "random":
            assert self.rng is not None
            return self.rng.integers(0, self.n_queues)
        # round_robin
        queue = self._rr_next
        self._rr_next = (self._rr_next + 1) % self.n_queues
        return queue
