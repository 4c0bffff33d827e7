"""The switch-port model every fabric tier forwards through.

A switch sits between a load source and N downstream ports.  Every
request forwarded through it pays:

* **store-and-forward serialization** on the egress port -- the wire
  time of the request's bytes at the configured port bandwidth
  (requests to the same port serialize behind each other), and
* **a fixed per-port forwarding latency** -- the switching pipeline plus
  propagation to the downstream NIC (commodity cut-through latency is a
  few hundred nanoseconds).

Each egress port buffers at most ``port_queue_depth`` requests; arrivals
beyond that are tail-dropped and accounted per port, in the style of the
drop accounting :mod:`repro.hw.nic` does for bounded receive queues.
Switches deliberately model only the downstream direction: response
traffic leaves the latency measurement at the server (the paper measures
server-side latency), so modelling it would only dilute the signal the
cluster and datacenter tiers study.

:class:`SwitchCore` carries the whole mechanism; a rack's ToR and a
datacenter's spine differ only in the trace track and metric prefix
their :class:`~repro.cluster.fabric.Fabric` passes (from its tier's
names) and in the port-speed defaults of the config presets, so their
timing and drop semantics can never drift apart.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.engine import Simulator
from repro.telemetry import trace_sink
from repro.workload.request import Request

#: Default downlink bandwidth: a 100 GbE port moves one bit per
#: hundredth of a nanosecond, i.e. a 300 B request serializes in 24 ns.
DEFAULT_BANDWIDTH_GBPS = 100.0

#: Default port-to-port forwarding latency (cut-through ToR class).
DEFAULT_FORWARD_LATENCY_NS = 250.0

#: Default per-port buffer, in requests.
DEFAULT_PORT_QUEUE_DEPTH = 256

DeliverFn = Callable[[Request], None]
DropFn = Callable[[Request, int], None]


class SwitchCore:
    """An output-queued switch stage with bounded per-port buffers.

    The owning fabric passes the trace track (from which the
    ``queue_mark`` and ``tx_mark`` names derive) and the default
    metrics prefix; the forwarding mechanics -- serialization,
    queueing, tail-drop, partition blackholing, fault knobs -- live
    here once.

    Parameters
    ----------
    sim:
        The shared simulation kernel.
    n_ports:
        Number of downstream-facing egress ports.
    bandwidth_gbps:
        Bandwidth per port; sets the serialization time of each
        forwarded request (``size_bytes * 8 / bandwidth_gbps`` ns).
    forward_latency_ns:
        Fixed switching-pipeline + propagation latency added after the
        request finishes serializing.
    port_queue_depth:
        Maximum requests buffered per egress port (``None`` =
        unbounded).  Arrivals to a full port are tail-dropped.
    on_drop:
        Called as ``on_drop(request, port)`` for every tail-dropped
        request, after the switch's own accounting.
    track:
        Trace span track; request marks are ``<track>_queue`` and
        ``<track>_tx``, so a trace crossing several switch tiers stays
        readable (a fabric passes its tier's label: ``tor``, ``spine``).
    metrics_prefix:
        Default instrument prefix for :meth:`register_metrics`.
    """

    def __init__(
        self,
        sim: Simulator,
        n_ports: int,
        bandwidth_gbps: float = DEFAULT_BANDWIDTH_GBPS,
        forward_latency_ns: float = DEFAULT_FORWARD_LATENCY_NS,
        port_queue_depth: Optional[int] = DEFAULT_PORT_QUEUE_DEPTH,
        on_drop: Optional[DropFn] = None,
        track: str = "switch",
        metrics_prefix: str = "switch",
    ) -> None:
        if n_ports <= 0:
            raise ValueError(f"need at least one port, got {n_ports}")
        if bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_gbps}")
        if forward_latency_ns < 0:
            raise ValueError(
                f"forwarding latency must be >= 0, got {forward_latency_ns}"
            )
        if port_queue_depth is not None and port_queue_depth <= 0:
            raise ValueError(
                f"port queue depth must be positive (or None), got {port_queue_depth}"
            )
        self.sim = sim
        self.n_ports = int(n_ports)
        self.bandwidth_gbps = float(bandwidth_gbps)
        self.forward_latency_ns = float(forward_latency_ns)
        self.port_queue_depth = port_queue_depth
        self.on_drop = on_drop
        self.track = track
        self.queue_mark = f"{track}_queue"
        self.tx_mark = f"{track}_tx"
        self.metrics_prefix = metrics_prefix
        #: Time each port's serializer frees up.
        self._free_at: List[float] = [0.0] * self.n_ports
        #: Fault-injection state: per-port bandwidth factor (1.0 =
        #: healthy; a degraded port serializes slower by 1/factor) and
        #: partition flags (a partitioned port silently blackholes).
        self._bw_factor: List[float] = [1.0] * self.n_ports
        self._partitioned: List[bool] = [False] * self.n_ports
        self.partition_dropped: int = 0
        #: Called as ``on_partition_drop(request, port)`` per blackholed
        #: request (the fault injector's accounting hook); distinct from
        #: ``on_drop`` because a partition loss is *silent* -- it must
        #: not count as a visible rack terminal.
        self.on_partition_drop: Optional[DropFn] = None
        #: Requests currently buffered (queued or serializing) per port.
        self._occupancy: List[int] = [0] * self.n_ports
        self.forwarded: int = 0
        self.dropped: int = 0
        self.dropped_per_port: List[int] = [0] * self.n_ports
        #: Cumulative ns requests spent waiting for their port serializer.
        self.queue_wait_ns: float = 0.0
        self._trace = trace_sink()

    def register_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Register bound switch accounting instruments into ``registry``."""
        if prefix is None:
            prefix = self.metrics_prefix
        registry.counter(f"{prefix}.forwarded", fn=lambda: self.forwarded)
        registry.counter(f"{prefix}.dropped", fn=lambda: self.dropped)
        registry.counter(
            f"{prefix}.queue_wait_ns", fn=lambda: self.queue_wait_ns
        )
        registry.gauge(
            f"{prefix}.dropped_per_port",
            fn=lambda: list(self.dropped_per_port),
        )

    # ------------------------------------------------------------------
    def serialization_ns(self, size_bytes: int, port: Optional[int] = None) -> float:
        """Wire time of ``size_bytes`` at the port bandwidth, in ns.

        A degraded port (fault injection) serializes slower by its
        bandwidth factor; the healthy path skips the divide so fault-free
        runs stay bit-identical.
        """
        base = size_bytes * 8.0 / self.bandwidth_gbps
        if port is not None:
            factor = self._bw_factor[port]
            if factor != 1.0:
                return base / factor
        return base

    def set_port_bandwidth_factor(self, port: int, factor: float) -> None:
        """Throttle (or restore) one port: 0 < factor <= 1."""
        if not 0 < factor <= 1.0:
            raise ValueError(f"bandwidth factor must be in (0, 1], got {factor}")
        self._bw_factor[port] = float(factor)

    def set_port_partitioned(self, port: int, partitioned: bool) -> None:
        """Partition (or heal) one port; partitioned ports blackhole."""
        self._partitioned[port] = bool(partitioned)

    def port_partitioned(self, port: int) -> bool:
        return self._partitioned[port]

    def occupancy(self, port: int) -> int:
        """Requests currently buffered on ``port`` (incl. serializing)."""
        return self._occupancy[port]

    # ------------------------------------------------------------------
    def forward(self, request: Request, port: int, deliver: DeliverFn) -> bool:
        """Forward ``request`` out of ``port``; ``deliver`` fires when it
        reaches the downstream NIC.  Returns False when tail-dropped."""
        if not 0 <= port < self.n_ports:
            raise ValueError(f"port {port} out of range [0, {self.n_ports})")
        if self._partitioned[port]:
            # Silent in-fabric loss: no tail-drop accounting, no visible
            # terminal -- only the client's timeout can observe it.
            self.partition_dropped += 1
            if self.on_partition_drop is not None:
                self.on_partition_drop(request, port)
            return False
        if (
            self.port_queue_depth is not None
            and self._occupancy[port] >= self.port_queue_depth
        ):
            self.dropped += 1
            self.dropped_per_port[port] += 1
            request.dropped = True
            trace = self._trace
            if trace.enabled and trace.sampled(request.req_id):
                trace.mark(request.req_id, "dropped", self.sim.now)
            if self.on_drop is not None:
                self.on_drop(request, port)
            return False
        now = self.sim.now
        start = self._free_at[port]
        if start < now:
            start = now
        self.queue_wait_ns += start - now
        done = start + self.serialization_ns(request.size_bytes, port)
        self._free_at[port] = done
        self._occupancy[port] += 1
        trace = self._trace
        if trace.enabled:
            # Every endpoint of this request's switch transit is known
            # here; the downstream marks pick up at delivery time.
            if trace.sampled(request.req_id):
                trace.mark(request.req_id, self.queue_mark, now)
                trace.mark(request.req_id, self.tx_mark, start)
            trace.span(self.track, port, "tx", start, done)
        self.sim.post(done - now, self._tx_done, request, port, deliver)
        return True

    def _tx_done(self, request: Request, port: int, deliver: DeliverFn) -> None:
        """Serialization finished: free the buffer slot, then deliver
        after the forwarding pipeline."""
        self._occupancy[port] -= 1
        self.forwarded += 1
        self.sim.post(self.forward_latency_ns, deliver, request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.track} ports={self.n_ports} "
            f"forwarded={self.forwarded} dropped={self.dropped}>"
        )
