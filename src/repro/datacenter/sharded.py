"""Sharded datacenter: per-rack subtrees behind a window coordinator.

A serial :class:`~repro.cluster.fabric.Fabric` runs the whole fabric on
one event heap.  This module cuts the graph at the top switch -- the one
place every cross-member byte passes -- and rebuilds the same topology
as:

* a **coordinator** (:class:`ShardedDatacenter`, in the main process):
  the load generator, top-level steering policy, top switch, fault
  injector and retry client all run here, exactly as serial;
* N **shards** (:class:`repro.sim.sharded.InProcessShard` /
  ``ProcessShard``): each hosts a contiguous group of member subtrees
  (for a datacenter: racks with their ToR, servers and intra-rack
  policy) on its own simulator, built from the same per-member RNG seeds
  the serial run spawns;
* **mirror racks** (:class:`MirrorRack`) standing in for the real members
  on the coordinator, so the unmodified ``Fabric`` wiring (policy
  probes, per-member stats instruments, completion hook chains, fault
  guards) binds to coordinator-side state.

Why the top-switch cut gives lookahead: the switch's dispatch pipeline
adds a fixed ``forward_latency_ns`` *after* serialization finishes, so a
message leaving the switch serializer at time ``t`` reaches a member at
exactly ``t + H`` (``H`` = the switch's
:meth:`~repro.cluster.switch.SwitchCore.min_transit_ns` at size 0).
With windows aligned to multiples of ``H``, everything a window
generates is deliverable only in later windows -- the conservative-PDES
guarantee :class:`~repro.sim.sharded.WindowDriver` runs on.

Bit-identity argument, per window:

* shard subtrees receive exactly the serial deliveries at the serial
  timestamps and consume the serial per-member RNG streams, so their
  event evolution is the serial one verbatim;
* the coordinator replays shard terminal records interleaved with its
  own events in timestamp order, so global side effects (tenant
  accounting, retry clients, ``expect`` stops) land on the serial clock;
* fault admission (health gate + NIC drop coin) is mirrored at
  message-ship time from a static timeline of the fault plan, drawing
  the injector's own ``"faults"`` stream in switch-serialization order
  -- which equals the serial delivery-guard order, because delivery time
  is serialization-done time plus the constant ``H``.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.fabric import Fabric, FabricConfig, build_fabric, tier_names
from repro.cluster.switch import SwitchCore
from repro.schedulers.base import SystemStats
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.sharded import (
    InProcessShard,
    ProcessShard,
    ShardHandle,
    WindowDriver,
)
from repro.telemetry import MetricRegistry
from repro.workload.request import Request

#: Terminal-record kinds (shard -> coordinator).
_COMPLETED = "c"
_DROPPED = "d"
#: Admission-bump record kinds (coordinator-internal, applied at the
#: mirrored delivery time so truncated runs count exactly like serial).
_BLACKHOLED = "b"
_NIC_DROPPED = "n"


# ----------------------------------------------------------------------
# Request packing (process shards only; in-process shards share objects)
# ----------------------------------------------------------------------
def _pack_request(request: Request) -> tuple:
    """Ship-side fields: everything set before a request crosses the
    top switch.  Post-delivery fields are still at their defaults here."""
    return (
        request.req_id, request.arrival, request.service_time,
        request.size_bytes, request.connection, request.kind,
        request.key, request.value, request.logical_id, request.attempt,
    )


def _unpack_request(fields: tuple) -> Request:
    (req_id, arrival, service_time, size_bytes, connection, kind,
     key, value, logical_id, attempt) = fields
    request = Request(
        req_id=req_id, arrival=arrival, service_time=service_time,
        size_bytes=size_bytes, connection=connection, kind=kind,
        key=key, value=value,
    )
    request.logical_id = logical_id
    request.attempt = attempt
    return request


def _pack_sync(request: Request) -> tuple:
    """Outcome fields a shard stamps onto its copy; applied back onto
    the coordinator's original so fingerprints read the shard truth."""
    return (
        request.enqueued, request.started, request.finished,
        request.core_id, request.group_id, request.queue_len_at_arrival,
        request.migrations, request.steals, request.dropped,
        request.no_migration_eta, request.extra_latency,
        request.remaining, request.app_result,
    )


def _apply_sync(request: Request, sync: tuple) -> None:
    (request.enqueued, request.started, request.finished,
     request.core_id, request.group_id, request.queue_len_at_arrival,
     request.migrations, request.steals, request.dropped,
     request.no_migration_eta, request.extra_latency,
     request.remaining, request.app_result) = sync


# ----------------------------------------------------------------------
# Coordinator-side stand-ins
# ----------------------------------------------------------------------
class MirrorRack:
    """Coordinator-side stand-in for one shard-hosted member.

    Presents exactly the surface the unmodified ``Fabric`` wiring
    touches -- ``offer`` (never legitimately called: the sharded switch
    exports instead of delivering, so it raises loudly), hook lists the
    fault/retry layers append to, a private ``stats`` whose counters the
    per-member instruments read, and an empty child registry.  Terminal
    state is written only by the coordinator's replay, which makes the
    mirror's counters serial-exact by construction even when the shard
    itself overran a truncated run.
    """

    def __init__(self) -> None:
        self.metrics = MetricRegistry()
        self.stats = SystemStats(self.metrics)
        self.completion_hooks: List[Any] = []
        self.drop_hooks: List[Any] = []
        self.finished: List[Request] = []

    def offer(self, request: Request) -> None:
        raise RuntimeError(
            "MirrorRack.offer called: a sharded switch must export "
            "messages to its shard, never deliver them locally"
        )

    # Replay application: the mirrored tail of a member fabric's
    # _member_completed / _member_dropped / _switch_dropped chains.
    def apply_completion(self, request: Request) -> None:
        self.stats.completed += 1
        self.finished.append(request)
        for hook in self.completion_hooks:
            hook(request)

    def apply_drop(self, request: Request) -> None:
        self.stats.dropped += 1
        for hook in self.drop_hooks:
            hook(request)

    @property
    def finished_requests(self) -> List[Request]:
        return self.finished

    def shutdown(self) -> None:
        """The real member shuts down shard-side (at harvest)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MirrorRack done={self.stats.completed}>"


class _FaultTimeline:
    """Static replay of a fault plan's admission-relevant state.

    The live injector fires its events on the coordinator heap -- but
    admission is mirrored at window *end*, before those events' times
    have been replayed, so the mirror reads this timeline instead: the
    plan's expanded events (the exact list, in the exact (time,
    declaration) order the injector schedules) filtered to the kinds
    that move ``down``/``drop_p`` at this tier -- member crashes, NIC
    drop bursts, and partitions of the top switch's ports (the
    ``<track>_partition`` kinds).  Every other kind either acts on
    coordinator-side live state (switch bandwidth, steering health
    penalties) or is structurally inert at this tier.  Events at exactly
    the delivery time apply first, matching the serial heap order (fault
    events are scheduled at construction, so their sequence numbers
    precede any delivery's).
    """

    def __init__(self, plan, n_members: int, track: str) -> None:
        self._partition = f"{track}_partition"
        self._heal = f"{track}_heal"
        kinds = (
            "server_crash", "server_recover", "nic_drop", "nic_drop_stop",
            self._partition, self._heal,
        )
        self._events = [
            event for event in plan.expanded_events()
            if event.kind in kinds and 0 <= event.target < n_members
        ]
        self._next = 0
        self.down = [False] * n_members
        self.drop_p = [0.0] * n_members

    def advance(self, time_ns: float) -> None:
        events = self._events
        i = self._next
        down = self.down
        drop_p = self.drop_p
        while i < len(events) and events[i].time_ns <= time_ns:
            event = events[i]
            i += 1
            kind = event.kind
            if kind == "server_crash" or kind == self._partition:
                down[event.target] = True
            elif kind == "server_recover" or kind == self._heal:
                down[event.target] = False
            elif kind == "nic_drop":
                drop_p[event.target] = event.magnitude
            else:  # nic_drop_stop
                drop_p[event.target] = 0.0
        self._next = i


class ShardedSwitch(SwitchCore):
    """A switch whose forwarding pipeline exports to shard batches.

    Serialization, queueing, tail-drop and partition blackholing are the
    inherited (coordinator-live, serial-exact) mechanics; only the final
    dispatch changes: instead of scheduling local delivery at
    ``now + forward_latency_ns``, the message is buffered for the
    coordinator's window-end admission, which ships it to the owning
    shard at exactly that delivery time.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: (serialization-done time, port, request), in execution order;
        #: drained by the coordinator at every window end.
        self.exported: List[tuple] = []

    def _dispatch(self, request: Request, port: int, deliver) -> None:
        # `deliver` is the (possibly fault-guarded) mirror offer; it
        # must never run here -- delivery happens shard-side.
        self.exported.append((self.sim.now, port, request))


# ----------------------------------------------------------------------
# Shard-side model
# ----------------------------------------------------------------------
class _RackShardModel:
    """What one shard simulates: a group of member fabrics on their own
    simulator, with terminal records captured via the members' hook
    chains (the exact seam the serial parent wires itself into)."""

    def __init__(self, sim: Simulator, racks: Sequence[Fabric], packed: bool) -> None:
        self.sim = sim
        self.racks = list(racks)
        self._packed = packed
        self._records: List[tuple] = []
        for local, rack in enumerate(self.racks):
            rack.completion_hooks.append(self._capture(local, _COMPLETED))
            rack.drop_hooks.append(self._capture(local, _DROPPED))

    def _capture(self, local: int, kind: str):
        records = self._records
        sim = self.sim
        if self._packed:
            def hook(request: Request) -> None:
                records.append(
                    (sim.now, kind, local, request.req_id, _pack_sync(request))
                )
        else:
            def hook(request: Request) -> None:
                records.append((sim.now, kind, local, request, None))
        return hook

    def deliver(self, deliveries: Sequence[tuple]) -> None:
        sim = self.sim
        racks = self.racks
        unpack = _unpack_request if self._packed else None
        for delivery_time, local, payload in deliveries:
            request = unpack(payload) if unpack is not None else payload
            sim.schedule_at(delivery_time, racks[local].offer, request)

    def run_until(self, horizon: float) -> None:
        self.sim.run_until_horizon(horizon)

    def drain_records(self) -> List[tuple]:
        # The capture hooks hold a reference to this list: clear it in
        # place, never rebind it.
        records = self._records
        out = list(records)
        records.clear()
        return out

    def next_time(self) -> Optional[float]:
        return self.sim.peek_time()

    def harvest(self) -> List[Tuple[dict, List[float]]]:
        out = []
        for rack in self.racks:
            rack.shutdown()
            # Per-core values, not a partial sum: the coordinator's
            # utilization flat-sums them in the serial iteration order,
            # so even the float addition order matches bit-for-bit.
            busy_ns = [
                core.busy_ns for leaf in rack.leaves() for core in leaf.cores
            ]
            out.append((rack.metrics.snapshot(), busy_ns))
        return out


def _build_shard_model(
    seeds: Sequence[int], member: FabricConfig, packed: bool
) -> _RackShardModel:
    """Module-level shard factory (crosses the process boundary by
    name).  Each member is built exactly as the serial
    :func:`~repro.cluster.fabric.build_fabric` builds it: a fresh
    simulator plus ``RandomStreams`` re-seeded with the value the serial
    per-member spawn (``dc-rack-<i>`` for a datacenter) derives, so the
    shard-side member consumes bit-for-bit the serial member's streams."""
    sim = Simulator()
    racks = [build_fabric(sim, RandomStreams(seed), member) for seed in seeds]
    return _RackShardModel(sim, racks, packed)


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class ShardedDatacenter(Fabric):
    """The window-coordinator fabric: serial surface, sharded core.

    Constructed by :func:`build_sharded_topology`; implements the
    coordinator protocol :class:`~repro.sim.sharded.WindowDriver`
    drives (``window_ns`` / ``shards`` / ``take_batches`` / ``replay``
    / ``end_window`` / ``next_delivery_time`` / ``finish``) on top of
    the unmodified ``Fabric`` wiring bound to mirror racks.
    """

    switch_class = ShardedSwitch

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        config: FabricConfig,
        mirrors: List[MirrorRack],
        shard_handles: List[ShardHandle],
        groups: List[List[int]],
        packed: bool,
    ) -> None:
        if config.forward_latency_ns <= 0:
            raise ValueError(
                "sharded execution needs forward_latency_ns > 0 at the top "
                "switch: the forwarding latency is the conservative lookahead"
            )
        self.shards = shard_handles
        self._groups = groups
        #: member index -> (owning shard, index within that shard).
        self._placement: Dict[int, Tuple[int, int]] = {
            rack: (shard, local)
            for shard, group in enumerate(groups)
            for local, rack in enumerate(group)
        }
        self._packed = packed
        self._batches: List[List[tuple]] = [[] for _ in shard_handles]
        self._bumps: List[tuple] = []
        #: Admitted delivery times per member (monotone: switch ports
        #: serialize in order), walked against the clock to mirror the
        #: serial member's `offered` counter.  Initialized before the
        #: serial constructor runs: the steering policy probes
        #: :meth:`outstanding` at start().
        self._admitted_d: List[List[float]] = [[] for _ in mirrors]
        self._offered_ptr: List[int] = [0] * len(mirrors)
        #: Coordinator originals of requests shipped to process shards.
        self._shipped: Dict[int, Request] = {}
        self._injector = None
        self._timeline: Optional[_FaultTimeline] = None
        self._harvested: Dict[int, Tuple[dict, float]] = {}
        self._finished = False
        super().__init__(sim, streams, config, mirrors)
        self.window_ns = self.switch.min_transit_ns(0)

    # ------------------------------------------------------------------
    # Fault-layer integration
    # ------------------------------------------------------------------
    def on_fault_injector_attached(self, injector) -> None:
        self._injector = injector
        self._timeline = _FaultTimeline(
            injector.plan, self.config.n_members, self.switch.track
        )

    # ------------------------------------------------------------------
    # Coordinator protocol (driven by WindowDriver)
    # ------------------------------------------------------------------
    def take_batches(self) -> List[List[tuple]]:
        batches = self._batches
        self._batches = [[] for _ in self.shards]
        return batches

    def next_delivery_time(self) -> Optional[float]:
        best: Optional[float] = None
        for batch in self._batches:
            if batch and (best is None or batch[0][0] < best):
                best = batch[0][0]
        return best

    def end_window(self, horizon: float) -> None:
        """Admit the window's switch traffic and build next batches.

        The export buffer holds (serialization-done, port, request) in
        execution order, which equals the serial delivery-event order
        (delivery = done + H, a constant shift).  Admission therefore
        draws the injector's ``"faults"`` coins in exactly the serial
        sequence; rejects become bump records applied at the delivery
        time, so a truncated run counts them iff the serial run would.
        """
        injector = self._injector
        timeline = self._timeline
        rng = injector._rng if injector is not None else None
        window = self.window_ns
        placement = self._placement
        batches = self._batches
        admitted = self._admitted_d
        packed = self._packed
        exported = self.switch.exported
        for done, port, request in exported:
            delivery = done + window
            if injector is not None:
                timeline.advance(delivery)
                request.server_id = port
                if timeline.down[port]:
                    self._bumps.append(
                        (delivery, _BLACKHOLED, None, None, None)
                    )
                    continue
                p = timeline.drop_p[port]
                if p > 0.0 and rng.random() < p:
                    self._bumps.append(
                        (delivery, _NIC_DROPPED, None, None, None)
                    )
                    continue
            shard, local = placement[port]
            admitted[port].append(delivery)
            if packed:
                self._shipped[request.req_id] = request
                payload = _pack_request(request)
            else:
                payload = request
            batches[shard].append((delivery, local, payload))
        exported.clear()

    def replay(self, horizon: float, shard_records: List[List[tuple]]) -> None:
        """Interleave shard terminals (and pending admission bumps) with
        the coordinator's own heap in timestamp order, applying each
        record with the clock parked at its serial time."""
        sim = self.sim
        groups = self._groups
        streams = [
            [
                (time, kind, groups[shard][local], ref, sync)
                for time, kind, local, ref, sync in records
            ]
            for shard, records in enumerate(shard_records)
        ]
        bumps = self._bumps
        self._bumps = []
        for record in heapq.merge(*streams, bumps, key=lambda r: r[0]):
            time = record[0]
            sim.run_until_horizon(time)
            if sim.stopped:
                return
            sim.advance_clock(time)
            self._apply(record)
            if sim.stopped:
                return
        sim.run_until_horizon(horizon)

    def _apply(self, record: tuple) -> None:
        _, kind, rack, ref, sync = record
        if kind == _COMPLETED or kind == _DROPPED:
            if self._packed:
                request = self._shipped.pop(ref)
                _apply_sync(request, sync)
            else:
                request = ref
            mirror = self.members[rack]
            if kind == _COMPLETED:
                mirror.apply_completion(request)
            else:
                mirror.apply_drop(request)
        elif kind == _BLACKHOLED:
            self._injector._m_blackholed.value += 1
        else:  # _NIC_DROPPED
            self._injector._m_nic_dropped.value += 1

    def finish(self) -> None:
        """Harvest shard telemetry and finalize mirror counters; runs
        once, at the end of the window loop (before ``shutdown``)."""
        if self._finished:
            return
        self._finished = True
        for shard, handle in enumerate(self.shards):
            group = self._groups[shard]
            for local, harvested in enumerate(handle.harvest()):
                self._harvested[group[local]] = harvested
            handle.close()
        now = self.sim.now
        for rack, mirror in enumerate(self.members):
            mirror.stats.offered = self._walk_offered(rack, now)

    # ------------------------------------------------------------------
    # Serial-surface overrides
    # ------------------------------------------------------------------
    def _walk_offered(self, rack: int, now: float) -> int:
        deliveries = self._admitted_d[rack]
        ptr = self._offered_ptr[rack]
        while ptr < len(deliveries) and deliveries[ptr] <= now:
            ptr += 1
        self._offered_ptr[rack] = ptr
        return ptr

    def outstanding(self, rack: int) -> float:
        """Serial semantics: deliveries that have reached the member
        minus its terminals.  Arrivals come from the admitted-delivery
        walk (the shard-side ``offered`` bump, mirrored); terminals from
        the replay-maintained mirror stats."""
        stats = self.members[rack].stats
        offered = self._walk_offered(rack, self.sim.now)
        return float(offered - stats.completed - stats.dropped)

    def utilization(self, elapsed_ns: float) -> float:
        if elapsed_ns <= 0 or not self._harvested:
            return 0.0
        total_cores = self.config.total_cores
        if total_cores == 0:
            return 0.0
        # Flat left-to-right sum over members in index order: the serial
        # Fabric.utilization addition order, bit-for-bit.
        busy = sum(
            core_busy
            for rack in range(len(self.members))
            for core_busy in self._harvested[rack][1]
        )
        return busy / (elapsed_ns * total_cores)

    def shutdown(self) -> None:
        super().shutdown()
        for rack, mirror in enumerate(self.members):
            harvested = self._harvested.get(rack)
            if harvested is None:
                continue
            snapshot = dict(harvested[0])
            # The shard may have overrun a truncated (stopped) run; the
            # replay-exact mirror counters are the serial truth.
            stats = mirror.stats
            snapshot["system.offered"] = stats.offered
            snapshot["system.completed"] = stats.completed
            snapshot["system.dropped"] = stats.dropped
            self.metrics.attach_snapshot(
                f"{self.names.member}{rack}", snapshot
            )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def build_sharded_topology(
    sim: Simulator,
    streams: RandomStreams,
    config: FabricConfig,
    shards: int,
    mode: str = "process",
) -> ShardedDatacenter:
    """Build a fabric of fabrics partitioned across ``shards`` workers.

    ``config`` is a depth >= 2 fabric (a datacenter, or deeper): the cut
    is at its top switch, so every shard hosts whole member fabrics.
    ``sim`` must be a :class:`~repro.sim.sharded.ShardedSimulator`; the
    window driver is bound to it here, so ``sim.run(...)`` transparently
    runs the conservative window loop.  ``mode`` is ``"process"``
    (worker processes; the speedup configuration) or ``"inprocess"``
    (same-process shards sharing Request objects; the ``shards=1``
    overhead baseline and the transport-free test mode).  Members are
    assigned to shards in contiguous balanced groups.
    """
    if mode not in ("process", "inprocess"):
        raise ValueError(f"unknown shard mode {mode!r}")
    if not isinstance(config.member, FabricConfig):
        raise ValueError(
            "sharding cuts at the top switch and needs fabric members "
            f"(a datacenter or deeper); got leaf system {config.member!r}"
        )
    n_members = config.n_members
    if not 1 <= shards <= n_members:
        raise ValueError(
            f"shards must be in [1, n_members={n_members}], got {shards}"
        )
    bind = getattr(sim, "bind_driver", None)
    if bind is None:
        raise TypeError(
            "build_sharded_topology needs a ShardedSimulator "
            f"(got {type(sim).__name__})"
        )
    groups: List[List[int]] = [[] for _ in range(shards)]
    for rack in range(n_members):
        groups[rack * shards // n_members].append(rack)
    packed = mode == "process"
    spawn = tier_names(config.depth).spawn
    handles: List[ShardHandle] = []
    for group in groups:
        seeds = [streams.spawn(f"{spawn}{rack}").master_seed for rack in group]
        if packed:
            handles.append(
                ProcessShard(_build_shard_model, (seeds, config.member, True))
            )
        else:
            handles.append(
                InProcessShard(_build_shard_model(seeds, config.member, False))
            )
    mirrors = [MirrorRack() for _ in range(n_members)]
    datacenter = ShardedDatacenter(
        sim, streams, config, mirrors, handles, groups, packed
    )
    bind(WindowDriver(sim, datacenter))
    return datacenter
