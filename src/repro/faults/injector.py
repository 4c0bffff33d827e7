"""Drives a :class:`~repro.faults.plan.FaultPlan` into a live system.

The injector is built once per run, after the system and before the
load generator starts.  It

* schedules every expanded plan event at its absolute simulator time
  (``schedule_at``), so fault timing is part of the deterministic event
  order;
* wraps each server's delivery entry point so requests steered at a
  downed server are blackholed at the NIC (and NIC drop bursts flip a
  per-request coin from the dedicated ``"faults"`` stream);
* writes the rack's :class:`~repro.faults.health.HealthView` so
  health-aware steering policies route around the blast radius;
* applies per-layer knobs: :attr:`Core.slowdown` for stalls/stragglers,
  the ToR switch's per-port bandwidth factor and partition flag, and
  :meth:`AltocumulusSystem.fail_manager` for manager loss;
* accounts everything under ``faults.*`` instruments and records one
  trace span per fault window on the ``"faults"`` track, so a Chrome
  trace shows the blast radius alongside the request lifecycles.

Runs without a plan never construct an injector: the delivery path,
policies (via :data:`~repro.faults.health.ALL_HEALTHY`), and switch all
keep their zero-overhead fast paths, mirroring ``NullSink``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import MetricRegistry
from repro.workload.request import Request

from repro.faults.health import HealthView
from repro.faults.plan import (
    PORT_FAULT_LABELS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
)


class FaultInjector:
    """Wires one plan into one system (single server or rack)."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        plan: FaultPlan,
        system,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.system = system
        self._rng = streams.draws("faults")
        registry: MetricRegistry = getattr(system, "metrics", None)
        if registry is None:
            registry = MetricRegistry()
        self.registry = registry
        # Imported here: repro.cluster imports this package's health
        # view, so a module-scope import would cycle.
        from repro.cluster.fabric import Fabric

        # A fabric's members are its unit of failure (servers in a rack,
        # racks in a datacenter): crash/blackhole faults address them,
        # and its switch answers the port-fault kinds carrying the
        # switch's tier label.  A single server is its own only target.
        self._is_fabric = isinstance(system, Fabric)
        self._servers = list(system.members) if self._is_fabric else [system]
        self._switch = system.switch if self._is_fabric else None
        health = getattr(system, "health", None)
        if health is None or not isinstance(health, HealthView):
            health = HealthView(len(self._servers))
        self.health = health
        if self._is_fabric:
            system.health = health
            system.policy.health = health
        self.trace = getattr(system, "trace", None)
        if self.trace is None and self._servers:
            self.trace = getattr(self._servers[0], "trace", None)

        # faults.* instruments -- registered only here, so plain builds
        # keep the pinned metrics schema untouched.
        counter = registry.counter
        self._m_events = counter("faults.events_fired")
        self._m_skipped = counter("faults.events_skipped")
        self._m_crashes = counter("faults.server_crashes")
        self._m_recoveries = counter("faults.server_recoveries")
        self._m_blackholed = counter("faults.requests_blackholed")
        self._m_nic_dropped = counter("faults.nic_burst_dropped")
        self._m_partition_dropped = counter("faults.partition_dropped")
        self._m_responses_lost = counter("faults.responses_lost")
        self._m_core_stalls = counter("faults.core_stalls")
        #: Window-opening port faults, keyed by kind (``tor_degrade``...).
        self._m_port_faults = {
            f"{label}_{action}": counter(f"faults.{label}_{action}s")
            for label in PORT_FAULT_LABELS
            for action in ("degrade", "partition")
        }
        self._m_manager_fails = counter("faults.manager_fails")
        self._m_in_flight_forgotten = counter("faults.in_flight_forgotten")
        self._m_orphans_redispatched = counter("faults.orphans_redispatched")
        counter(
            "faults.dead_nack_descriptors",
            fn=lambda: sum(
                getattr(s, "dead_nack_descriptors", 0) for s in self._servers
            ),
        )

        #: Per-server NIC burst drop probability (0 = no burst active).
        self._nic_drop_p: List[float] = [0.0] * len(self._servers)
        #: Open fault windows: (kind, target, subtarget) -> start time.
        self._open_windows: Dict[Tuple[str, int, int], float] = {}

        self._wrap_delivery()
        for event in plan.expanded_events():
            sim.post_at(max(event.time_ns, sim.now), self._fire, event)

    # ------------------------------------------------------------------
    # Ingress guards
    # ------------------------------------------------------------------
    def _wrap_delivery(self) -> None:
        if self._is_fabric:
            deliver = self.system._deliver
            for idx in range(len(deliver)):
                deliver[idx] = self._make_guard(idx, deliver[idx])
            self._switch.on_partition_drop = self.on_partition_drop
        else:
            # Single server: everything the client sends flows through
            # one guard in front of the system's NIC.
            self._single_offer = self.system.offer

    @property
    def ingress(self):
        """Where the retry client sends attempts: the fabric's own
        steering ingress, or the single-server guard."""
        return self.system.offer if self._is_fabric else self.guarded_offer

    def guarded_offer(self, request: Request) -> None:
        """Single-server ingress: the client sends through this."""
        request.server_id = 0
        if not self._admit(request, 0):
            return
        self._single_offer(request)

    def _make_guard(self, idx: int, deliver):
        def guarded(request: Request) -> None:
            request.server_id = idx
            if self._admit(request, idx):
                deliver(request)

        return guarded

    def _admit(self, request: Request, server: int) -> bool:
        """NIC-edge fate of one arriving request at ``server``."""
        if not self.health.usable(server):
            # Crashed or partitioned away: the packet is silently lost;
            # only the client's timeout will notice.
            self._m_blackholed.value += 1
            self._mark(request, "fault_blackholed")
            return False
        p = self._nic_drop_p[server]
        if p > 0.0 and self._rng.random() < p:
            self._m_nic_dropped.value += 1
            self._mark(request, "fault_nic_dropped")
            return False
        return True

    def _mark(self, request: Request, phase: str) -> None:
        trace = self.trace
        if trace is not None and trace.enabled:
            rid = (
                request.logical_id
                if request.logical_id is not None
                else request.req_id
            )
            if trace.sampled(rid):
                trace.mark(rid, phase, self.sim.now)

    # ------------------------------------------------------------------
    # Response fencing (the client consults this per completion)
    # ------------------------------------------------------------------
    def response_delivered(self, request: Request) -> bool:
        server = request.server_id
        if server is None or self.health.usable(server):
            return True
        self._m_responses_lost.value += 1
        return False

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _fire(self, event: FaultEvent) -> None:
        label, _, action = event.kind.partition("_")
        if label in PORT_FAULT_LABELS:
            applied = self._on_port_fault(event, label, action)
        else:
            handler = getattr(self, f"_on_{event.kind}", None)
            if handler is None:  # pragma: no cover - kinds are validated
                raise FaultPlanError(
                    f"no handler for fault kind {event.kind!r}"
                )
            applied = handler(event)
        if applied:
            self._m_events.value += 1
        else:
            # Structurally inapplicable (ToR fault on a single server,
            # manager_fail on a non-Altocumulus system): counted, not
            # fatal, so one plan can sweep across heterogeneous systems.
            self._m_skipped.value += 1

    def _check_server(self, event: FaultEvent) -> bool:
        if not 0 <= event.target < len(self._servers):
            raise FaultPlanError(
                f"{event.kind} target {event.target} out of range "
                f"[0, {len(self._servers)})"
            )
        return True

    # -- server crash / recover ----------------------------------------
    def _on_server_crash(self, event: FaultEvent) -> bool:
        self._check_server(event)
        self.health.set_down(event.target, True)
        self._m_crashes.value += 1
        self._window_open("server_crash", event.target, 0)
        return True

    def _on_server_recover(self, event: FaultEvent) -> bool:
        self._check_server(event)
        self.health.set_down(event.target, False)
        self._m_recoveries.value += 1
        self._window_close("server_crash", event.target, 0)
        return True

    # -- NIC drop bursts -----------------------------------------------
    def _on_nic_drop(self, event: FaultEvent) -> bool:
        self._check_server(event)
        self._nic_drop_p[event.target] = event.magnitude
        self.health.add_degraded(event.target)
        self._window_open("nic_drop", event.target, 0)
        return True

    def _on_nic_drop_stop(self, event: FaultEvent) -> bool:
        self._check_server(event)
        self._nic_drop_p[event.target] = 0.0
        self.health.remove_degraded(event.target)
        self._window_close("nic_drop", event.target, 0)
        return True

    # -- core stall / straggler ----------------------------------------
    def _on_core_stall(self, event: FaultEvent) -> bool:
        self._check_server(event)
        cores = getattr(self._servers[event.target], "cores", None)
        if cores is None:
            # The targeted unit has no directly addressable cores (a
            # rack inside a datacenter): structurally inapplicable.
            return False
        if not 0 <= event.subtarget < len(cores):
            raise FaultPlanError(
                f"core_stall core {event.subtarget} out of range "
                f"[0, {len(cores)})"
            )
        cores[event.subtarget].slowdown = event.magnitude
        self.health.add_degraded(event.target)
        self._m_core_stalls.value += 1
        self._window_open("core_stall", event.target, event.subtarget)
        return True

    def _on_core_resume(self, event: FaultEvent) -> bool:
        self._check_server(event)
        cores = getattr(self._servers[event.target], "cores", None)
        if cores is None:
            return False
        cores[event.subtarget].slowdown = 1.0
        self.health.remove_degraded(event.target)
        self._window_close("core_stall", event.target, event.subtarget)
        return True

    # -- switch port faults (<label>_degrade/restore/partition/heal) ---
    def _on_port_fault(self, event: FaultEvent, label: str, action: str) -> bool:
        """Flip one port knob on this fabric's switch when its tier label
        matches the kind's (``tor`` at depth 1, ``spine`` at depth 2);
        structurally inapplicable anywhere else."""
        switch = self._switch
        if switch is None or switch.track != label:
            return False
        port = event.target
        if action == "degrade":
            switch.set_port_bandwidth_factor(port, event.magnitude)
            self.health.add_degraded(port)
            self._m_port_faults[event.kind].value += 1
            self._window_open(event.kind, port, 0)
        elif action == "restore":
            switch.set_port_bandwidth_factor(port, 1.0)
            self.health.remove_degraded(port)
            self._window_close(f"{label}_degrade", port, 0)
        elif action == "partition":
            switch.set_port_partitioned(port, True)
            # A partitioned port is indistinguishable from a crash of the
            # member behind it to the client and the steering layer:
            # unreachable, responses lost.
            self.health.set_down(port, True)
            self._m_port_faults[event.kind].value += 1
            self._window_open(event.kind, port, 0)
        else:  # heal
            switch.set_port_partitioned(port, False)
            self.health.set_down(port, False)
            self._window_close(f"{label}_partition", port, 0)
        return True

    def on_partition_drop(self, request: Request, port: int) -> None:
        """Switch callback: a request hit a partitioned port mid-flight."""
        self._m_partition_dropped.value += 1
        self._mark(request, "fault_partition_dropped")

    # -- manager failure (Altocumulus only) ----------------------------
    def _on_manager_fail(self, event: FaultEvent) -> bool:
        self._check_server(event)
        server = self._servers[event.target]
        fail = getattr(server, "fail_manager", None)
        if fail is None:
            return False
        forgotten, redispatched = fail(event.subtarget)
        self._m_manager_fails.value += 1
        self._m_in_flight_forgotten.value += forgotten
        self._m_orphans_redispatched.value += redispatched
        return True

    # ------------------------------------------------------------------
    # Blast-radius trace spans
    # ------------------------------------------------------------------
    def _window_open(self, kind: str, target: int, subtarget: int) -> None:
        self._open_windows[(kind, target, subtarget)] = self.sim.now

    def _window_close(self, kind: str, target: int, subtarget: int) -> None:
        start = self._open_windows.pop((kind, target, subtarget), None)
        if start is None:
            return
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.span("faults", target, kind, start, self.sim.now)

    def finalize(self) -> None:
        """Close any still-open fault windows' trace spans (call after
        ``sim.run``)."""
        trace = self.trace
        if trace is not None and trace.enabled:
            for (kind, target, _sub), start in self._open_windows.items():
                trace.span("faults", target, kind, start, self.sim.now)
        self._open_windows.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector events={len(self.plan.events)} "
            f"fired={self._m_events.value}>"
        )
