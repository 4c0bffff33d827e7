"""The fabric tier: one recursive node for racks, datacenters and beyond.

Altocumulus schedules RPCs *within* one server; every tier above it
repeats one step -- steer a request to a member, cross a switch, hand it
to the member.  :class:`Fabric` is that step, once.  A rack is a fabric
whose members are leaf servers (any name :func:`repro.api.build_system`
accepts); a datacenter is a fabric whose members are rack fabrics; a pod
of datacenters is one more level of the same config, with no new class.

:class:`FabricConfig` describes a fabric declaratively and
:func:`build_fabric` wires it onto a shared simulator.
:meth:`FabricConfig.rack` and :meth:`FabricConfig.datacenter` are the
two presets holding each historical tier's defaults.

A fabric presents the same duck interface as a single
:class:`~repro.schedulers.base.RpcSystem` (``offer`` / ``expect`` /
``shutdown`` / ``utilization`` / ``stats``), so everything built for one
server -- :func:`repro.api.run_workload`, the sweep runner, tracing,
fault plans -- drives any fabric unchanged.  Request flow::

    load generator --offer--> steering policy picks a member
        --> switch (serialization + queueing + forwarding latency)
        --> member ingress (a server's NIC, or a nested fabric's offer)

Every name that differs between tiers -- instrument namespace, member
registry prefix, switch trace labels and metric prefix, RNG spawn names,
the system-name label -- is looked up from the fabric's *depth* (1 =
members are leaf servers) by :func:`tier_names`, never configured.

Determinism: each member gets RNG streams spawned from its parent's
under a stable per-member name, and the steering policy draws from the
fabric's own ``"steering"`` stream, so runs are bit-identical for a
fixed seed regardless of shape or process placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple, Union

from repro.cluster.metrics import TenantSlo, register_fabric_instruments
from repro.cluster.policies import (
    DEFAULT_D,
    DEFAULT_SAMPLE_PERIOD_NS,
    POLICY_NAMES,
    SteeringPolicy,
    make_policy,
)
from repro.cluster.switch import (
    DEFAULT_BANDWIDTH_GBPS,
    DEFAULT_FORWARD_LATENCY_NS,
    DEFAULT_PORT_QUEUE_DEPTH,
    SwitchCore,
)
from repro.schedulers.base import SystemStats
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import MetricRegistry
from repro.workload.request import Request
from repro.workload.tenants import TenantClass


class TierNames(NamedTuple):
    """The depth-derived vocabulary of one fabric tier."""

    #: System-name label (``rack[...]``).
    label: str
    #: Instrument namespace (``cluster.*``).
    namespace: str
    #: Member registry and steering-key prefix (``srv<i>``, ``steer_srv<i>``).
    member: str
    #: Switch metric segment (``cluster.switch.*``).
    switch: str
    #: Switch trace track and mark prefix (``tor``, ``tor_queue``); also
    #: the prefix of the fault kinds that address this switch.
    track: str
    #: Per-member RNG spawn prefix (``rack-server-<i>``).
    spawn: str


_TIER_NAMES = {
    1: TierNames("rack", "cluster", "srv", "switch", "tor", "rack-server-"),
    2: TierNames("datacenter", "datacenter", "rack", "spine", "spine",
                 "dc-rack-"),
}


def tier_names(depth: int) -> TierNames:
    """Names of a depth-``depth`` fabric.  Depths 1 and 2 keep the
    historical rack and datacenter names; deeper tiers are named
    ``tier<depth>`` with members named after the tier below."""
    names = _TIER_NAMES.get(depth)
    if names is not None:
        return names
    below = tier_names(depth - 1).label
    label = f"tier{depth}"
    return TierNames(label, label, below, "switch", label, f"{label}-{below}-")


#: Registered system names that build fabrics themselves.  A fabric
#: nests another through a :class:`FabricConfig` member instead.
_FABRIC_SYSTEMS = ("rack", "datacenter")


@dataclass(frozen=True)
class FabricConfig:
    """Declarative description of one fabric node.

    Attributes
    ----------
    n_members:
        Members behind the switch.
    member:
        What each member is: a leaf system name accepted by
        :func:`repro.api.build_system` ("altocumulus", "rss", ...), or a
        nested :class:`FabricConfig` every member is built from.
    cores_per_server:
        Cores of each leaf server (used when ``member`` names a system).
    policy:
        Steering policy across members (see
        :data:`repro.cluster.policies.POLICY_NAMES`).
    d, staleness_ns:
        Power-of-d parameters: members sampled per decision and how old
        a cached load estimate may get before it is re-probed.
    sample_period_ns:
        RackSched-style policies: period of the full load sample.
    forward_latency_ns, bandwidth_gbps, port_queue_depth:
        Switch model (see :class:`repro.cluster.switch.SwitchCore`).
    tenants:
        Optional multi-tenant traffic classes.  When non-empty the fabric
        accounts per-tenant SLO attainment live (instruments under
        ``tenant.<name>.*``); the workload should then draw connections
        from the matching
        :class:`~repro.workload.tenants.TenantConnectionPool`.
    """

    n_members: int = 4
    member: Union[str, "FabricConfig"] = "altocumulus"
    cores_per_server: int = 16
    policy: str = "power_of_d"
    d: int = DEFAULT_D
    staleness_ns: float = 0.0
    sample_period_ns: float = DEFAULT_SAMPLE_PERIOD_NS
    forward_latency_ns: float = DEFAULT_FORWARD_LATENCY_NS
    bandwidth_gbps: float = DEFAULT_BANDWIDTH_GBPS
    port_queue_depth: Optional[int] = DEFAULT_PORT_QUEUE_DEPTH
    tenants: Tuple[TenantClass, ...] = ()

    def __post_init__(self) -> None:
        if self.n_members <= 0:
            raise ValueError(f"need at least one member, got {self.n_members}")
        if self.cores_per_server <= 0:
            raise ValueError(
                f"need at least one core per server, got {self.cores_per_server}"
            )
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown steering policy {self.policy!r}; "
                f"pick from {POLICY_NAMES}"
            )
        if self.member in _FABRIC_SYSTEMS:
            raise ValueError(
                f"member system {self.member!r} is itself a fabric; nest "
                "fabrics by passing a FabricConfig as the member, e.g. "
                "FabricConfig.datacenter(rack=FabricConfig.rack(...))"
            )
        # Tolerate list input (hand-written configs) by freezing it.
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))

    # -- presets ---------------------------------------------------------
    @classmethod
    def rack(
        cls,
        n_servers: int = 4,
        cores_per_server: int = 16,
        system: str = "altocumulus",
        **knobs,
    ) -> "FabricConfig":
        """A rack: ``n_servers`` leaf servers behind a 100 GbE ToR,
        power-of-d steered (the field defaults)."""
        return cls(n_members=n_servers, member=system,
                   cores_per_server=cores_per_server, **knobs)

    @classmethod
    def datacenter(
        cls,
        n_racks: int = 2,
        rack: Optional["FabricConfig"] = None,
        policy: str = "shortest_wait",
        forward_latency_ns: float = 500.0,
        bandwidth_gbps: float = 400.0,
        port_queue_depth: Optional[int] = 1024,
        **knobs,
    ) -> "FabricConfig":
        """A spine-leaf datacenter: ``n_racks`` racks (default
        :meth:`rack`) behind a spine of 400 GbE ports with a fabric
        hop's 500 ns pipeline and deep buffers, steered by
        shortest-expected-wait."""
        return cls(
            n_members=n_racks,
            member=rack if rack is not None else cls.rack(),
            policy=policy,
            forward_latency_ns=forward_latency_ns,
            bandwidth_gbps=bandwidth_gbps,
            port_queue_depth=port_queue_depth,
            **knobs,
        )

    # -- derived shape ---------------------------------------------------
    @property
    def depth(self) -> int:
        """1 when members are leaf servers, one more per nesting level."""
        if isinstance(self.member, FabricConfig):
            return self.member.depth + 1
        return 1

    @property
    def member_cores(self) -> int:
        """Cores inside one member (a server, or a whole nested fabric)."""
        if isinstance(self.member, FabricConfig):
            return self.member.total_cores
        return self.cores_per_server

    @property
    def total_cores(self) -> int:
        return self.n_members * self.member_cores

    @property
    def shape(self) -> str:
        """``<n>x<n>x...x<system>x<cores>``, as the system name shows it."""
        if isinstance(self.member, FabricConfig):
            return f"{self.n_members}x{self.member.shape}"
        return f"{self.n_members}x{self.member}x{self.cores_per_server}"

    def capacity_rps(self, mean_service_ns: float) -> float:
        """Aggregate service capacity at a given mean service time."""
        return self.total_cores / mean_service_ns * 1e9


class Fabric:
    """Members behind one switch and one steering policy.

    Implements the system duck interface :func:`repro.api.run_workload`
    expects, so a fabric of any depth can be driven (and cached, and
    fanned out by the sweep runner) exactly like a single server.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        config: FabricConfig,
        members: List[object],
    ) -> None:
        self.sim = sim
        self.config = config
        self.members = members
        self.depth = config.depth
        self.names = names = tier_names(self.depth)
        self.name = f"{names.label}[{config.shape}/{config.policy}]"
        self.metrics = MetricRegistry()
        sim.register_metrics(self.metrics)
        self.stats = SystemStats(self.metrics)
        self._expected: Optional[int] = None
        #: Fabric-level terminal hooks, mirroring RpcSystem's: fired after
        #: the fabric's own accounting for every member completion, member
        #: drop, and switch tail-drop.  Tenant accounting, the retry
        #: client and a job-shaped load generator attach here.
        self.completion_hooks: List[object] = []
        self.drop_hooks: List[object] = []
        #: Live per-tenant SLO accounting, when tenants are configured.
        self.tenant_slo: Optional[TenantSlo] = None
        if config.tenants:
            self.tenant_slo = TenantSlo(config.tenants)
            self.completion_hooks.append(self.tenant_slo.record)
        self.switch = SwitchCore(
            sim,
            n_ports=config.n_members,
            bandwidth_gbps=config.bandwidth_gbps,
            forward_latency_ns=config.forward_latency_ns,
            port_queue_depth=config.port_queue_depth,
            on_drop=self._switch_dropped,
            track=names.track,
            metrics_prefix=f"{names.namespace}.{names.switch}",
        )
        self.policy: SteeringPolicy = make_policy(
            config.policy,
            n_servers=config.n_members,
            probe=self.outstanding,
            sim=sim,
            rng=streams.draws("steering"),
            cores_per_server=config.member_cores,
            d=config.d,
            staleness_ns=config.staleness_ns,
            sample_period_ns=config.sample_period_ns,
        )
        self._deliver = [member.offer for member in members]
        #: Liveness view over members; the fault injector swaps in a live
        #: HealthView (shared with ``policy.health``) when a plan is
        #: attached.
        self.health = self.policy.health
        self.switch.register_metrics(self.metrics)
        register_fabric_instruments(self, self.metrics)
        if self.tenant_slo is not None:
            self.tenant_slo.register_instruments(self.metrics)
        for i, member in enumerate(members):
            member.completion_hooks.append(self._member_completed)
            member.drop_hooks.append(self._member_dropped)
            child = getattr(member, "metrics", None)
            if child is not None:
                self.metrics.attach_child(f"{names.member}{i}", child)
        self.policy.start()

    # ------------------------------------------------------------------
    # Load-generator interface (duck-compatible with RpcSystem)
    # ------------------------------------------------------------------
    def offer(self, request: Request) -> None:
        """Fabric ingress: steer to a member, then cross the switch."""
        self.stats.offered += 1
        member = self.policy.pick_server(request)
        self.switch.forward(request, member, self._deliver[member])

    def expect(self, n_requests: int) -> None:
        """Stop the simulation once ``n_requests`` terminate anywhere in
        the fabric (completed or dropped at a member, or dropped at this
        fabric's switch)."""
        if n_requests <= 0:
            raise ValueError(
                f"expected count must be positive, got {n_requests}"
            )
        self._expected = n_requests

    # ------------------------------------------------------------------
    # Terminal accounting
    # ------------------------------------------------------------------
    def _member_completed(self, request: Request) -> None:
        self.stats.completed += 1
        for hook in self.completion_hooks:
            hook(request)
        self._check_done()

    def _member_dropped(self, request: Request) -> None:
        self.stats.dropped += 1
        for hook in self.drop_hooks:
            hook(request)
        self._check_done()

    def _switch_dropped(self, request: Request, port: int) -> None:
        """Tail-drop callback for this fabric's switch (port is unused by
        the accounting but part of the switch's drop signature)."""
        self._member_dropped(request)

    def _check_done(self) -> None:
        if (
            self._expected is not None
            and self.stats.completed + self.stats.dropped >= self._expected
        ):
            self.sim.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def outstanding(self, member: int) -> float:
        """Requests in flight inside ``member`` (its queues, cores, and
        any switches below it) -- the load signal steering probes."""
        stats = self.members[member].stats
        return float(stats.offered - stats.completed - stats.dropped)

    def leaves(self) -> List[object]:
        """Every leaf server below this fabric, in member order."""
        out: List[object] = []
        for member in self.members:
            if isinstance(member, Fabric):
                out.extend(member.leaves())
            else:
                out.append(member)
        return out

    def policies(self) -> List[SteeringPolicy]:
        """Every steering policy in this subtree, top-down (this fabric's
        own first)."""
        out = [self.policy]
        for member in self.members:
            if isinstance(member, Fabric):
                out.extend(member.policies())
        return out

    @property
    def finished_requests(self) -> List[Request]:
        """All completed requests, in per-member completion order."""
        merged: List[Request] = []
        for member in self.members:
            merged.extend(member.finished_requests)
        return merged

    def utilization(self, elapsed_ns: float) -> float:
        """Mean core utilization across every leaf core."""
        if elapsed_ns <= 0:
            return 0.0
        leaves = self.leaves()
        total_cores = sum(len(leaf.cores) for leaf in leaves)
        if total_cores == 0:
            return 0.0
        busy = sum(core.busy_ns for leaf in leaves for core in leaf.cores)
        return busy / (elapsed_ns * total_cores)

    def shutdown(self) -> None:
        """Stop periodic machinery, here and in every member."""
        self.policy.shutdown()
        for member in self.members:
            member.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Fabric {self.name} "
            f"done={self.stats.completed}/{self.stats.offered}>"
        )


def build_fabric(
    sim: Simulator, streams: RandomStreams, config: FabricConfig
) -> Fabric:
    """Instantiate a fabric: its members (recursively), then its switch
    and steering policy.  Member ``i`` draws from streams spawned under
    the tier's stable name (``rack-server-<i>``, ``dc-rack-<i>``, ...),
    so fingerprints are independent of build order and placement."""
    # Imported here: repro.api registers the preset system names and
    # imports this module, so a module-scope import would cycle.
    from repro.api import build_system

    spawn = tier_names(config.depth).spawn
    members = []
    for i in range(config.n_members):
        member_streams = streams.spawn(f"{spawn}{i}")
        if isinstance(config.member, FabricConfig):
            members.append(build_fabric(sim, member_streams, config.member))
        else:
            members.append(build_system(
                config.member, sim, member_streams, config.cores_per_server
            ))
    return Fabric(sim, streams, config, members)


__all__ = [
    "Fabric",
    "FabricConfig",
    "TierNames",
    "build_fabric",
    "tier_names",
]
