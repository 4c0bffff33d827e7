"""The complete Altocumulus system: two-tier scheduling plus proactive
hardware-assisted migration (Secs. III, V, VI).

Topology
--------
``n_groups`` groups of ``group_size`` cores each.  The first core of a
group is its *manager* (it runs the runtime and, in the AC_rss variant,
software request dispatch); the rest are *workers*.  Managers never
execute RPC handlers -- the 6.25% throughput sacrifice quantified in
Sec. VIII-A.

Data path
---------
NIC --(steering)--> manager NetRX (the MR file) --(local JBSQ(2))-->
worker.  Variants:

* **AC_int** -- hardware-terminated NIC (~30 ns), hardware JBSQ push
  into the group (~20 ns, not serialized on the manager core).
* **AC_rss** -- commodity PCIe NIC (200-800 ns), manager dispatches in
  software at >= 70 cycles per message (theoretical 28 MRPS per manager,
  Sec. VIII-B), serialized with the runtime's own tick cost -- which is
  how the ISA-vs-MSR interface difference becomes visible end to end.

Control path
------------
Each manager's :class:`~repro.core.runtime.ManagerRuntime` ticks every
``Period`` ns and triggers MIGRATEs through the
:class:`~repro.hw.messaging.ManagerTileHw` protocol over the NoC.  A tick
first reads the UPDATE registers peers wrote since the last one; a tick
with nothing to do parks instead, off the event heap, and its effects
are filled in later (:class:`ParkedTicks`).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import Any, Deque, List, Optional, Set, Tuple

from repro.core.config import AltocumulusConfig
from repro.core.interface import HwInterface
from repro.core.runtime import LoadEstimator, ManagerRuntime, RuntimeHooks
from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.hw.cores import Core
from repro.hw.messaging import ManagerTileHw, ParkedUpdates
from repro.hw.nic import HwTerminatedDelivery, PcieDelivery, RssSteering
from repro.hw.noc import Noc
from repro.hw.topology import MeshTopology
from repro.schedulers.base import RpcSystem
from repro.sim.engine import Event, ParkedTimers, Simulator
from repro.sim.rng import RandomStreams
from repro.workload.request import Request

#: Parked ticks logged before they are filled in regardless (see
#: :class:`ParkedTicks`): bounds the log's memory.
PARK_LOG_LIMIT = 256

_INF = float("inf")


class AltocumulusSystem(RpcSystem):
    """Two-tier decentralized scheduling with proactive migrations.

    Gang admission: a request with ``core_demand == c > 1`` waits at the
    head of its group's NetRX until ``c`` of the group's workers are
    fully idle, then the primary plus ``c - 1`` gang shadows dispatch to
    those workers together (see :mod:`repro.workload.jobs`).  A demand
    wider than the group is dropped visibly at dispatch time -- the
    MIGRATE machinery may still move a queued gang head to another group
    first, since descriptors migrate before they dispatch.
    """

    name = "altocumulus"
    supports_gang = True

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        config: AltocumulusConfig,
        constants: HwConstants = DEFAULT_CONSTANTS,
    ) -> None:
        delivery = (
            PcieDelivery(constants)
            if config.variant == "rss"
            else HwTerminatedDelivery(constants)
        )
        super().__init__(sim, streams, config.n_cores, delivery, constants)
        self.config = config
        self.name = f"ac_{config.variant}_{config.interface}"

        g = config.n_groups
        self.topology = MeshTopology(config.n_cores)
        self.noc = Noc(
            sim,
            self.topology,
            per_hop_ns=constants.noc_hop_ns,
            link_contention=config.noc_link_contention,
            registry=self.metrics,
        )
        self.steering = RssSteering(
            g, policy=config.steering_policy, rng=streams.draws("rss")
        )
        self.interface = HwInterface.of(config.interface, constants)

        # Per-group structures -------------------------------------------------
        self.managers: List[ManagerTileHw] = []
        self.runtimes: List[ManagerRuntime] = []
        self.estimators: List[LoadEstimator] = [LoadEstimator() for _ in range(g)]
        #: Worker occupancy (in service + in flight + locally waiting).
        self.occupancy: List[List[int]] = []
        self.local_wait: List[List[Deque[Request]]] = []
        #: Whether managers dispatch in software (fixed by the config).
        self._sw_dispatch = config.effective_dispatch == "sw"
        #: Software dispatch: when each manager core next frees up.
        self._mgr_free_at: List[float] = [0.0] * g
        #: Interface cost of each manager's most recent tick.
        self._tick_cost: List[float] = [0.0] * g
        #: Interface cost of a tick that sends no MIGRATE (a parked
        #: tick's charge, see :class:`ParkedTicks`).
        self._idle_tick_cost = self.interface.tick_cost_ns(0, queue_reads=g)
        self._tick_running = False
        #: Requests ever selected for migration (prediction-accuracy metric).
        self.predicted_ids: Set[int] = set()
        self._m_desc_received = self.metrics.counter(
            "sched.descriptors_received"
        )
        self._m_sw_migrate = self.metrics.counter(
            "sched.sw_migrate_descriptors"
        )
        self.metrics.gauge(
            "sched.predicted_unique", fn=lambda: len(self.predicted_ids)
        )

        for group in range(g):
            tile = group * config.group_size  # the manager's mesh tile
            hw = ManagerTileHw(
                sim,
                self.noc,
                tile_id=tile,
                manager_index=group,
                constants=constants,
                on_migrate_in=self._make_on_migrate_in(group),
                migrator_ns_per_entry=(
                    constants.coherence_msg_ns if config.messaging == "sw" else 0.5
                ),
                registry=self.metrics,
            )
            self.managers.append(hw)
            self.occupancy.append([0] * config.workers_per_group)
            self.local_wait.append(
                [deque() for _ in range(config.workers_per_group)]
            )
        for hw in self.managers:
            hw.connect(self.managers)
            hw.on_dead_nack = self._on_dead_nack
        #: Parked ticks not yet filled in, in key order, as flat ``time,
        #: seq, group`` triples: no tuple per tick, whose memory CPython
        #: would keep on its free list once the log is cleared
        #: (:class:`ParkedTicks`, :meth:`fill_in_parked`).
        self._park_log: List[Any] = []
        self._parked_updates = ParkedUpdates(self.managers)
        self.noc.defer(self._park_log, self.fill_in_parked)
        self.metrics.before_snapshot(self.fill_in_parked)
        #: Descriptors lost to a NACK returning after a manager crash
        #: (plain attribute: fault instruments must not widen the pinned
        #: metrics schema of fault-free builds).
        self.dead_nack_descriptors = 0
        #: Gang jobs whose core demand exceeded their group's worker
        #: count at dispatch time (plain attribute, same schema rule).
        self.gang_infeasible_drops = 0

        #: Running per-group occupancy totals, kept in lock-step with
        #: ``occupancy`` (mutated only at dispatch/complete): the arrival
        #: path needs the group total once per request, and summing the
        #: worker list there was pure per-request overhead.
        self._occ_total: List[int] = [0] * g
        #: Worker Core objects per (group, worker), and the inverse maps
        #: from core_id back to (group, worker) -- precomputed so the
        #: per-dispatch / per-completion paths skip the index arithmetic.
        self._worker_cores: List[List[Core]] = [
            [
                self.cores[group * config.group_size + 1 + worker]
                for worker in range(config.workers_per_group)
            ]
            for group in range(g)
        ]
        self._core_group: List[int] = [
            core_id // config.group_size for core_id in range(len(self.cores))
        ]
        self._core_worker: List[int] = [
            core_id % config.group_size - 1 for core_id in range(len(self.cores))
        ]
        #: Hardware JBSQ push latency per (group, worker): a pure
        #: function of mesh geometry, precomputed once instead of walking
        #: the topology on every dispatch.
        self._hw_dispatch_ns: List[List[float]] = [
            [self._hw_push_ns(group, core.core_id) for core in cores]
            for group, cores in enumerate(self._worker_cores)
        ]

        for group in range(g):
            runtime = ManagerRuntime(
                group_index=group,
                n_groups=g,
                config=config,
                hooks=self._make_hooks(group),
                interface=self.interface,
                estimator=self.estimators[group],
            )
            self.runtimes.append(runtime)
        #: The idle groups' ticks, held off the event heap.
        self._parked: Optional[ParkedTicks] = None
        if config.runtime_enabled and g > 1:
            self._tick_running = True
            self._parked = ParkedTicks(self)
            for group in range(g):
                self._start_ticks(group)

    # ------------------------------------------------------------------
    # NIC arrival path
    # ------------------------------------------------------------------
    def _deliver(self, request: Request) -> None:
        group = self.steering.pick_queue(request)
        request.group_id = group
        request.enqueued = self.sim.now
        mrs = self.managers[group].mrs
        request.queue_len_at_arrival = len(mrs.entries) + self._occ_total[group]
        self.estimators[group].record_arrival(self.sim.now)
        mrs.enqueue(request)
        trace = self.trace
        if trace.enabled and trace.sampled(request.req_id):
            trace.mark(request.req_id, "netrx_queue", self.sim.now)
        self._pump_group(group)

    # ------------------------------------------------------------------
    # Local c-FCFS dispatch (JBSQ(worker_bound) within the group)
    # ------------------------------------------------------------------
    def _pump_group(self, group: int) -> None:
        cfg = self.config
        mrs = self.managers[group].mrs
        entries = mrs.entries
        occ = self.occupancy[group]
        trace = self.trace
        tracing = trace.enabled
        while entries:
            head = entries[0]
            if head.core_demand > 1:
                if not self._admit_gang(group, head):
                    return
                continue
            worker = self._least_occupied(occ, cfg.worker_bound)
            if worker is None:
                return
            request = mrs.dequeue_head()
            occ[worker] += 1
            self._occ_total[group] += 1
            delay = self._dispatch_delay(group, worker)
            self._charge_scheduling(delay)
            if tracing and trace.sampled(request.req_id):
                trace.mark(request.req_id, "dispatch", self.sim.now)
            self.sim.post(delay, self._arrive_at_worker, group, worker, request)

    def _admit_gang(self, group: int, request: Request) -> bool:
        """Dispatch the group's head gang iff ``core_demand`` workers
        are fully idle; returns False when the head must keep waiting
        (head-of-line gang blocking).  Demands wider than the group are
        dropped visibly -- no schedule of this group can admit them.
        """
        from repro.workload.jobs import make_gang_shadow

        mrs = self.managers[group].mrs
        occ = self.occupancy[group]
        demand = request.core_demand
        if demand > len(occ):
            mrs.dequeue_head()
            self.gang_infeasible_drops += 1
            self._drop(request)
            return True  # head consumed; keep pumping
        idle = [w for w, v in enumerate(occ) if v == 0]
        if len(idle) < demand:
            return False
        mrs.dequeue_head()
        members = [request] + [
            make_gang_shadow(request, slot) for slot in range(1, demand)
        ]
        trace = self.trace
        for worker, member in zip(idle, members):
            occ[worker] += 1
            self._occ_total[group] += 1
            delay = self._dispatch_delay(group, worker)
            self._charge_scheduling(delay)
            if trace.enabled and trace.sampled(member.req_id):
                trace.mark(member.req_id, "dispatch", self.sim.now)
            self.sim.post(
                delay, self._arrive_at_worker, group, worker, member
            )
        return True

    @staticmethod
    def _least_occupied(occ: List[int], bound: int) -> Optional[int]:
        best = None
        best_v = bound
        for idx, v in enumerate(occ):
            if v < best_v:
                if v == 0:
                    # Occupancy can't go below zero, so the first idle
                    # worker is already the scan's final answer.
                    return idx
                best = idx
                best_v = v
        return best

    def _hw_push_ns(self, group: int, core_id: int) -> float:
        """Hardware JBSQ push latency from ``group``'s manager tile to
        worker core ``core_id``."""
        return (
            20.0
            + self.topology.hops(group * self.config.group_size, core_id)
            * self.constants.noc_hop_ns
        )

    def _dispatch_delay(self, group: int, worker: int) -> float:
        """Latency until the dispatched request reaches its worker."""
        if not self._sw_dispatch:
            # Hardware JBSQ push: LLC-speed hand-off plus the on-chip
            # distance from the manager tile to the worker tile -- the
            # "variance in remote cache access latency" that penalizes
            # very large groups (Sec. VIII-B).  Precomputed per
            # (group, worker) at construction.
            return self._hw_dispatch_ns[group][worker]
        # Software dispatch: the manager core moves the message through
        # the coherence protocol, one op at a time.
        now = self.sim.now
        free_at = self._mgr_free_at[group]
        end = (free_at if free_at > now else now) + self.constants.coherence_msg_ns
        self._mgr_free_at[group] = end
        return end - now

    def _arrive_at_worker(self, group: int, worker: int, request: Request) -> None:
        core = self._worker_cores[group][worker]
        trace = self.trace
        if trace.enabled and trace.sampled(request.req_id):
            trace.mark(request.req_id, "worker_queue", self.sim.now)
        if core.busy:
            self.local_wait[group][worker].append(request)
        else:
            self._start(core, request)

    def _start(self, core: Core, request: Request) -> None:
        trace = self.trace
        if trace.enabled and trace.sampled(request.req_id):
            trace.mark(request.req_id, "service", self.sim.now)
        core.assign(request, startup_ns=self._execute_ns(request))

    def _after_complete(self, core: Core, request: Request) -> None:
        core_id = core.core_id
        group = self._core_group[core_id]
        worker = self._core_worker[core_id]
        self.occupancy[group][worker] -= 1
        self._occ_total[group] -= 1
        self.estimators[group].record_completion(request.service_time)
        waiting = self.local_wait[group][worker]
        if waiting:
            self._start(core, waiting.popleft())
        self._pump_group(group)

    # ------------------------------------------------------------------
    # Runtime hooks (Algorithm 1's interface to the system)
    # ------------------------------------------------------------------
    def _make_hooks(self, group: int) -> RuntimeHooks:
        return RuntimeHooks(
            local_queue_len=lambda entries=self.managers[group].mrs.entries: len(
                entries
            ),
            take_batch=lambda size: self._take_batch(group, size),
            restore_batch=lambda batch: self._restore_batch(group, batch),
            send_migrate=lambda dst, batch: self._send_migrate(group, dst, batch),
            broadcast_update=lambda qlen: self.managers[group].broadcast_update(
                qlen
            ),
            charge=lambda ns: self._charge_manager(group, ns),
            flag_predicted=lambda count: self._flag_predicted(group, count),
        )

    def _flag_predicted(self, group: int, count: int) -> None:
        trace = self.trace
        tracing = trace.enabled
        for request in self.managers[group].mrs.peek_tail(count):
            self.predicted_ids.add(request.req_id)
            if tracing and trace.sampled(request.req_id):
                trace.mark(request.req_id, "predicted", self.sim.now)

    def _take_batch(self, group: int, size: int) -> List[Request]:
        """Pop migration-eligible descriptors from the NetRX tail and
        stamp their no-migration counterfactual ETA."""
        cfg = self.config
        mrs = self.managers[group].mrs
        if cfg.allow_remigration:
            eligible = lambda r: True  # noqa: E731 - tiny predicate
        else:
            eligible = lambda r: r.migrations == 0  # noqa: E731
        batch = mrs.dequeue_tail_where(size, eligible)
        if not batch:
            return batch
        workers = max(1, len(self.occupancy[group]))
        mean_service = self.estimators[group].mean_service_ns or 0.0
        ahead = len(mrs) + self._occ_total[group]
        trace = self.trace
        tracing = trace.enabled
        for offset, request in enumerate(batch):
            if request.no_migration_eta is None:
                est_wait = (ahead + offset) / workers * mean_service
                request.no_migration_eta = (
                    self.sim.now + est_wait + request.service_time
                )
            self.predicted_ids.add(request.req_id)
            if tracing and trace.sampled(request.req_id):
                trace.mark(request.req_id, "migrate", self.sim.now)
        return batch

    def _send_migrate(self, group: int, dst: int, batch: List[Request]) -> bool:
        """Route a MIGRATE through the configured messaging mechanism.

        Software messaging (case-study ablation) charges the manager one
        coherence message per descriptor on top of the transfer -- the
        cost the register-level hardware path exists to avoid.
        """
        if self.config.messaging == "sw":
            self._charge_manager(
                group, len(batch) * self.constants.coherence_msg_ns
            )
            self._m_sw_migrate.value += len(batch)
        return self.managers[group].send_migrate(dst, batch)

    def _restore_batch(self, group: int, batch: List[Request]) -> None:
        mrs = self.managers[group].mrs
        for request in batch:
            mrs.enqueue(request)

    def _charge_manager(self, group: int, ns: float) -> None:
        """Account manager-core time.

        It always stretches the runtime's own tick cadence (a tick
        cannot start before the previous one's work retired -- the
        MSR-interface effect of Fig. 14), and when the manager is also
        the software dispatcher the same busy time delays dispatches.
        """
        # Conditional expressions, not max(): this runs on every tick.
        tick_cost = self._tick_cost
        if ns > tick_cost[group]:
            tick_cost[group] = ns
        if self._sw_dispatch:
            now = self.sim.now
            free_at = self._mgr_free_at[group]
            self._mgr_free_at[group] = (free_at if free_at > now else now) + ns

    # ------------------------------------------------------------------
    # Messaging-hardware callbacks
    # ------------------------------------------------------------------
    def _make_on_migrate_in(self, group: int):
        def on_migrate_in(requests: List[Request], src: int) -> None:
            self._m_desc_received.value += len(requests)
            trace = self.trace
            tracing = trace.enabled
            for request in requests:
                request.group_id = group  # now owned by this manager
                if tracing and trace.sampled(request.req_id):
                    trace.mark(request.req_id, "migrated_netrx", self.sim.now)
            self._pump_group(group)

        return on_migrate_in

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_manager(self, group: int) -> Tuple[int, int]:
        """Crash-restart one manager (fault injection).

        The manager's migration protocol state is forgotten -- in-flight
        MIGRATE batches it sent may be lost if the destination NACKs
        them (:meth:`_on_dead_nack` drops those) -- and every descriptor
        queued in its MR file is orphaned.  Orphans are re-dispatched
        round-robin into peer groups' MR files (RackSched-style
        failover of queue state); a single-group system, with no peers,
        drops them visibly so the client can retry.

        Returns ``(in_flight_forgotten, orphans_redispatched)``.
        """
        cfg = self.config
        if not 0 <= group < cfg.n_groups:
            raise ValueError(
                f"manager group {group} out of range [0, {cfg.n_groups})"
            )
        hw = self.managers[group]
        forgotten = hw.in_flight_descriptors
        orphans = hw.fail()
        if cfg.n_groups == 1:
            for request in orphans:
                self._drop(request)
            return forgotten, 0
        peers = [(group + 1 + i) % cfg.n_groups for i in range(cfg.n_groups - 1)]
        for index, request in enumerate(orphans):
            dst = peers[index % len(peers)]
            self.managers[dst].mrs.enqueue(request)
            request.group_id = dst
        for dst in sorted(peers[:len(orphans)]):
            self._pump_group(dst)
        return forgotten, len(orphans)

    def _on_dead_nack(self, requests: List[Request]) -> None:
        """Descriptors bounced back to a crashed manager are gone."""
        self.dead_nack_descriptors += len(requests)
        for request in requests:
            self._drop(request)

    # ------------------------------------------------------------------
    # Control-plane actuation
    # ------------------------------------------------------------------
    def reassign_worker(self, src_group: int, dst_group: int) -> bool:
        """Move one idle worker core from ``src_group`` to ``dst_group``.

        The control plane's capacity-rebalance actuator.  Only a worker
        with no running request, an empty local queue, and zero JBSQ
        occupancy may move (moving a busy core would strand its in-flight
        work), and a group never gives up its last worker.  Returns True
        when a core actually moved; both runtimes adopt their new worker
        counts so thresholds track live capacity.
        """
        cfg = self.config
        for group in (src_group, dst_group):
            if not 0 <= group < cfg.n_groups:
                raise ValueError(
                    f"manager group {group} out of range [0, {cfg.n_groups})"
                )
        if src_group == dst_group:
            raise ValueError("source and destination group must differ")
        src_occ = self.occupancy[src_group]
        if len(src_occ) <= 1:
            return False
        worker = len(src_occ) - 1
        core = self._worker_cores[src_group][worker]
        if src_occ[worker] != 0 or self.local_wait[src_group][worker]:
            return False
        if core.busy:
            return False
        src_occ.pop()
        self.local_wait[src_group].pop()
        self._worker_cores[src_group].pop()
        self._hw_dispatch_ns[src_group].pop()
        dst_occ = self.occupancy[dst_group]
        new_worker = len(dst_occ)
        dst_occ.append(0)
        self.local_wait[dst_group].append(deque())
        self._worker_cores[dst_group].append(core)
        self._hw_dispatch_ns[dst_group].append(
            self._hw_push_ns(dst_group, core.core_id)
        )
        self._core_group[core.core_id] = dst_group
        self._core_worker[core.core_id] = new_worker
        self.runtimes[src_group].set_workers(len(src_occ))
        self.runtimes[dst_group].set_workers(len(dst_occ))
        self._pump_group(dst_group)
        return True

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------
    def netrx_lengths(self) -> List[int]:
        """Current NetRX occupancy per group (the Fig. 9 snapshot)."""
        return [len(hw.mrs) for hw in self.managers]

    def group_outstanding(self) -> List[int]:
        """Per-group outstanding work: NetRX backlog plus dispatched
        occupancy (the control plane's rebalance signal)."""
        return [
            len(hw.mrs) + self._occ_total[group]
            for group, hw in enumerate(self.managers)
        ]

    def total_migrated(self) -> int:
        """Requests that completed at least one migration."""
        return sum(
            self.metrics.get(f"messaging.m{group}.descriptors_accepted").read()
            for group in range(self.config.n_groups)
        )

    def _start_ticks(self, group: int) -> None:
        """Start the group's self-rescheduling runtime tick.

        A tick that finds its group idle (:meth:`ParkedTicks.idle`)
        parks: Algorithm 1 would broadcast 0, send nothing and charge
        the cost of a tick that sends no MIGRATE, and the group's ticks
        stay parked, off the event heap, for as long as it stays idle
        (:class:`ParkedTicks`).  Ticks never park while tracing is on: a
        trace records events in the order they run.

        Any other tick runs Algorithm 1 (:meth:`_tick_loop`).  The next
        tick starts one Period later, or once the tick's interface work
        retired if that took longer -- a slow interface (MSR syscalls)
        therefore stretches the effective migration cadence rather than
        queueing ticks.
        """
        may_park = not self.trace.enabled
        parked = self._parked
        run = self._tick_loop

        def tick() -> None:
            if not self._tick_running:
                return
            if may_park and parked.idle(group):
                parked.park(group, event)
                return
            run(group, event)

        event = self.sim.schedule_timer(self.config.period_ns, tick)
        parked.events[group] = event

    def _tick_loop(self, group: int, event: Event) -> None:
        """A tick that runs Algorithm 1 (see :meth:`_start_ticks`).

        It fills the parked-tick log in, reads the peers' UPDATE
        registers -- exactly the writes whose delivery would have
        preceded this tick event -- runs :meth:`ManagerRuntime.tick`
        and re-arms ``event``.
        """
        if self._park_log:
            self.fill_in_parked()
        runtime = self.runtimes[group]
        tick_cost = self._tick_cost
        tick_cost[group] = 0.0
        self.managers[group].read_updates(runtime.q_view, event.time, event.seq)
        runtime.tick()
        delay = self.config.period_ns
        if tick_cost[group] > delay:
            delay = tick_cost[group]
        self.sim.rearm(event, delay)

    def fill_in_parked(self) -> None:
        """Write the logged parked ticks' zero UPDATE broadcasts, in key
        order (:class:`~repro.hw.messaging.ParkedUpdates`).

        Runs before anything could observe what they left out: any NoC
        transmit (:meth:`repro.hw.noc.Noc.defer`), any tick that runs
        Algorithm 1 (its register read), a registry snapshot, shutdown,
        and every :data:`PARK_LOG_LIMIT` parked ticks.
        """
        log = self._park_log
        if not log:
            return
        self._parked_updates.fill_in(
            log, [runtime.q_view for runtime in self.runtimes], self.sim.now
        )
        log.clear()

    def shutdown(self) -> None:
        self._tick_running = False
        if self._parked is not None:
            # Each tick fires once more from the heap and stops there.
            self._parked.resume_all()
        self.fill_in_parked()


class ParkedTicks(ParkedTimers):
    """The ticks of an :class:`AltocumulusSystem`'s idle groups, held
    off the event heap at their next ``(time, seq)`` keys.

    A parked tick is one whose group's MR queue is empty when it fires
    (:meth:`idle`): Algorithm 1 would broadcast 0, send nothing and
    charge the cost of a tick that sends no MIGRATE.  Firing it counts
    it, under software dispatch charges that cost to ``_mgr_free_at``
    as :meth:`AltocumulusSystem._charge_manager` would, logs its key
    with the first of the sequence numbers its UPDATE copies take, and
    parks its next key one cadence later with the sequence number after
    them, exactly as re-arming its heap event would have.  Its UPDATE
    copies' NoC accounting and register writes are filled in later, in
    order, before anything can observe them
    (:meth:`AltocumulusSystem.fill_in_parked`); its register read waits
    for the group's next tick that runs Algorithm 1.  The rest of the
    skipped tick leaves nothing to observe: that next tick writes the
    local queue-length slot before anything reads it, and the threshold
    cache is reused only for an identical load, so a skipped threshold
    read changes no later one.

    A group parks when a tick fired from the heap finds it idle
    (:meth:`park`).  Idleness can only end in an event -- an MR
    enqueue, a MIGRATE in or a NACK restore, a manager crash's
    redispatch -- and :meth:`fire` tests it again at each parked key,
    so the first key at which the group is not idle goes back onto the
    heap unchanged and runs Algorithm 1 there.  Nothing else a parked
    tick reads can change.  :meth:`AltocumulusSystem.shutdown` resumes
    every parked tick onto the heap, where it fires once and stops.
    """

    def __init__(self, system: AltocumulusSystem) -> None:
        cfg = system.config
        self.sim = system.sim
        self._config = cfg
        self._idle_cost = system._idle_tick_cost
        self._entries = [hw.mrs.entries for hw in system.managers]
        #: Each group's tick event (:meth:`AltocumulusSystem._start_ticks`).
        self.events: List[Optional[Event]] = [None] * cfg.n_groups
        #: The parked groups' next keys, a heap of ``(time, seq, group)``.
        self._keys: List[Tuple[float, int, int]] = []
        #: What every :meth:`fire` call reads, in one tuple: most calls
        #: fire one or two ticks.  ``n_groups`` is the sequence numbers
        #: a tick takes: one per UPDATE copy, then its next key's.
        self._bound = (
            self.sim, self._keys, self._entries, system.runtimes,
            system._mgr_free_at if system._sw_dispatch else None,
            system._park_log, 3 * PARK_LOG_LIMIT, cfg.n_groups,
            system.fill_in_parked, self.events,
        )
        self.sim.add_parked(self)

    def __len__(self) -> int:
        return len(self._keys)

    def idle(self, group: int) -> bool:
        """Whether ``group``'s tick parks now: its MR queue is empty.
        :meth:`fire` makes the same test."""
        return not self._entries[group]

    def park(self, group: int, event: Event) -> None:
        """``group``'s tick, firing from the heap at ``event``'s key,
        found the group idle: fire it as a parked tick and keep the
        group's next key parked."""
        # Every parked key lies above the firing one, so it fires alone.
        heappush(self._keys, (event.time, event.seq, group))
        self.fire(event.time, event.seq + 1, 1)
        self.sim.parked_moved()

    def resume_all(self) -> None:
        """Put every parked tick back on the heap at its key."""
        sim = self.sim
        for time, seq, group in self._keys:
            sim.resume(self.events[group], time, seq)
        self._keys.clear()
        self.next_time = self.next_seq = _INF
        sim.parked_moved()

    def fire(self, time: float, seq: float, limit: int) -> int:
        (sim, keys, entries, runtimes, free_at, log, slots, stride, fill_in,
         events) = self._bound
        if not keys:
            return 0
        cost = self._idle_cost
        delay = self._config.period_ns
        if cost > delay:
            delay = cost
        copies = stride - 1
        counter = sim._seq
        fired = 0
        key = keys[0]
        last = key
        while fired != limit:
            at = key[0]
            if at > time or (at == time and key[1] > seq):
                break
            group = key[2]
            if entries[group]:
                heappop(keys)
                sim.resume(events[group], at, key[1])
                break
            runtimes[group].ticks += 1
            log += (at, counter, group)
            if free_at is not None:
                busy = free_at[group]
                free_at[group] = (busy if busy > at else at) + cost
            heapreplace(keys, (at + delay, counter + copies, group))
            counter += stride
            fired += 1
            last = key
            key = keys[0]
            if len(log) >= slots:
                sim._seq = counter
                sim.now = at
                fill_in()
        sim._seq = counter
        if fired:
            sim.now = self.last_time = last[0]
            self.last_seq = last[1]
        if keys:
            self.next_time, self.next_seq, _ = keys[0]
        else:
            self.next_time = self.next_seq = _INF
        return fired
