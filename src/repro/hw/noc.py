"""Network-on-chip message transport.

Altocumulus messages (MIGRATE, UPDATE, ACK/NACK) travel over the NoC on
a dedicated virtual network with deterministic routing (Sec. V-B).  The
model charges:

* per-hop latency (3 ns default) times the XY hop count, plus
* serialization of the message's flits at the injection port, plus
* endpoint congestion -- each receiver drains messages one at a time,
  so bursts of migrations toward one manager queue up.

Because the paper observes the NoC is lightly loaded for scheduling
traffic [58], link-level contention is *not* modelled; endpoint
serialization captures the only congestion the protocol can create
(many-to-one migration bursts).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.engine import Simulator
from repro.hw.topology import MeshTopology
from repro.telemetry import MetricRegistry, trace_sink

#: Width of one NoC flit in bytes (typical 128-bit links).
FLIT_BYTES = 16

#: Serialization time of one flit (one flit per cycle at 1 GHz).
FLIT_NS = 1.0

#: Messages are allocated once per MIGRATE/ACK/NACK, which at tick
#: rates means tens of thousands per run -- slotted where the runtime
#: supports it (``dataclass(slots=True)`` needs Python 3.10).
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTTED)
class NocMessage:
    """One message in flight: source/destination tiles and opaque payload."""

    src: int
    dst: int
    payload: Any
    size_bytes: int = FLIT_BYTES
    vnet: int = 0


class Noc:
    """Delivers messages between mesh tiles with hop + serialization delay."""

    def __init__(
        self,
        sim: Simulator,
        topology: MeshTopology,
        per_hop_ns: float = 3.0,
        link_contention: bool = False,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if per_hop_ns < 0:
            raise ValueError("latencies must be non-negative")
        self.sim = sim
        self.topology = topology
        self.per_hop_ns = float(per_hop_ns)
        #: Optional higher-fidelity mode: serialize messages on each
        #: XY-route link, not just the ejection port.  Off by default
        #: because scheduling traffic leaves the NoC lightly loaded
        #: ([58], Sec. V-B) -- the mode exists to *verify* that claim.
        self.link_contention = link_contention
        # Accounting lives in owned registry instruments (a slotted
        # ``value`` attribute costs the same to bump as the old
        # dataclass fields); a standalone NoC gets a private registry.
        self.registry = registry if registry is not None else MetricRegistry()
        self._m_messages = self.registry.counter("noc.messages")
        self._m_bytes = self.registry.counter("noc.bytes")
        self._m_latency = self.registry.counter("noc.latency_ns_total")
        self._by_vnet: Dict[int, int] = {}
        self.registry.gauge(
            "noc.by_vnet",
            fn=lambda: {str(v): n for v, n in sorted(self._by_vnet.items())},
        )
        self._trace = trace_sink()
        # Earliest time each receiver's ejection port frees up.
        self._ejection_free: Dict[int, float] = {}
        # Earliest time each directed link (a -> b) frees up.
        self._link_free: Dict[Tuple[int, int], float] = {}
        # Deferred sends and the callback that accounts them (defer()).
        self._pending: Sequence[Any] = ()
        self._settle: Callable[[], None] = lambda: None

    def wire_times(
        self, src: int, dst: int, size_bytes: int
    ) -> Tuple[float, float]:
        """``(hop_ns, flit_time)`` of a ``src -> dst`` message: its
        uncontended route latency and its serialization time.

        Both are fixed for a tile pair and message size, so a sender
        that repeats one message shape can compute them once.  Integer
        ceil is exact for byte counts.
        """
        hop_ns = self.topology.hops(src, dst) * self.per_hop_ns
        flit_time = max(1, -(-size_bytes // FLIT_BYTES)) * FLIT_NS
        return hop_ns, flit_time

    def transmit(
        self,
        src: int,
        dst: int,
        size_bytes: int,
        vnet: int,
        hop_ns: float,
        flit_time: float,
    ) -> float:
        """Inject one message now and return its arrival time: a
        one-message :meth:`transmit_many`."""
        return self.transmit_many(
            src, ((dst, hop_ns, flit_time),), size_bytes, vnet
        )[0]

    def transmit_many(
        self,
        src: int,
        wires: Sequence[Tuple[int, float, float]],
        size_bytes: int,
        vnet: int,
    ) -> List[float]:
        """Inject one ``size_bytes`` message from ``src`` per
        ``(dst, hop_ns, flit_time)`` in ``wires``, in order, now; return
        their arrival times in the same order.

        Deferred sends (:meth:`defer`) are accounted first, so they
        occupy the ports and the counters ahead of these messages, as
        they would have when they were sent; the accounting itself is
        :meth:`transmit_log`'s.  Delivery is the caller's: :meth:`send`
        schedules an event at the returned time, while an UPDATE
        broadcast is written into the receivers' registers
        (:meth:`repro.hw.messaging.ManagerTileHw.broadcast_update`).
        """
        if self._pending:
            self._settle()
        return self.transmit_log(
            ((self.sim.now, 0),), ((src, wires),), size_bytes, vnet
        )

    def transmit_log(
        self,
        log: Iterable[Tuple[float, int]],
        routes: Sequence[Tuple[int, Sequence[Tuple[int, float, float]]]],
        size_bytes: int,
        vnet: int,
    ) -> List[float]:
        """Account messages sent at or before now and return their
        arrival times, flat, in order.

        ``log`` holds ``(time, sender)`` sends in the order they were
        made: each injects one ``size_bytes`` message at ``time`` from
        tile ``src`` along every ``(dst, hop_ns, flit_time)`` of
        ``wires``, where ``routes[sender]`` is ``(src, wires)`` and
        ``hop_ns``/``flit_time`` are a wire's :meth:`wire_times`.  No
        later message may have been accounted yet (:meth:`defer`).
        This is the NoC's one accounting path -- link and ejection-port
        occupancy, the ``noc.*`` counters and the trace spans -- and
        each message is accounted exactly as if injected alone at its
        ``time``, in order: the float latency total gets one addition
        per message.  If a destination's ejection port is still
        draining an earlier message, that arrival is pushed back
        accordingly.
        """
        contended = self.link_contention
        ejection_free = self._ejection_free
        free_of = ejection_free.get
        trace = self._trace
        tracing = trace.enabled
        m_latency = self._m_latency
        latency = m_latency.value
        arrivals: List[float] = []
        append = arrivals.append
        for time, sender in log:
            src, wires = routes[sender]
            for dst, hop_ns, flit_time in wires:
                if contended:
                    arrival = self._contended_arrival(src, dst, flit_time, time)
                else:
                    arrival = time + hop_ns + flit_time
                free_at = free_of(dst, 0.0)
                if free_at > arrival:
                    arrival = free_at
                # The ejection port is busy for the message's flit time.
                ejection_free[dst] = arrival + flit_time
                latency += arrival - time
                if tracing:
                    trace.span("noc", dst, f"vnet{vnet}", time, arrival)
                append(arrival)
        count = len(arrivals)
        if count:
            m_latency.value = latency
            self._m_messages.value += count
            self._m_bytes.value += count * size_bytes
            by_vnet = self._by_vnet
            by_vnet[vnet] = by_vnet.get(vnet, 0) + count
        return arrivals

    def defer(self, pending: List[Any], settle: Callable[[], None]) -> None:
        """Let an owner defer sends: while ``pending`` is non-empty,
        ``settle()`` runs before any message is injected, and must
        account the deferred sends through :meth:`transmit_log` and
        empty ``pending``.  The owner also settles before the counters
        are read
        (:meth:`repro.telemetry.MetricRegistry.before_snapshot`).  Parked
        manager ticks use it for their zero UPDATEs
        (:meth:`repro.core.scheduler.AltocumulusSystem.fill_in_parked`).
        """
        self._pending = pending
        self._settle = settle

    def send(
        self,
        msg: NocMessage,
        on_delivery: Callable[[NocMessage], None],
    ) -> float:
        """Inject ``msg`` now; invoke ``on_delivery(msg)`` at arrival.

        Returns the scheduled delivery time (see :meth:`transmit`).
        """
        src = msg.src
        dst = msg.dst
        size_bytes = msg.size_bytes
        hop_ns, flit_time = self.wire_times(src, dst, size_bytes)
        arrival = self.transmit(
            src, dst, size_bytes, msg.vnet, hop_ns, flit_time
        )
        self.sim.post_at(arrival, on_delivery, msg)
        return arrival

    def _contended_arrival(
        self, src: int, dst: int, serialization: float, time: float
    ) -> float:
        """Wormhole-style traversal with per-link serialization.

        The head flit waits for each link on the XY route to free, then
        holds it for the message's serialization time; the tail flit
        arrives one serialization window after the head.  The head
        enters at ``time``.
        """
        t = time
        for link in self.topology.route_links(src, dst):
            t = max(t, self._link_free.get(link, 0.0))
            self._link_free[link] = t + serialization
            t += self.per_hop_ns
        return t + serialization
