"""The actuation surface of the control plane.

:class:`Actuators` is the only object controllers mutate the system
through.  It reaches a fabric's members, leaf servers and steering
policies through :class:`~repro.cluster.fabric.Fabric` (a single server
has only its own knobs), exposes every runtime-mutable knob behind one
facade, and accounts each actuation -- a ``control.*`` instrument bump
plus a TraceSink span on the ``"control"`` track -- so every decision is
auditable after the run.

Admin drains (the scale-in half of rack autoscaling, and the rule
controllers' response to degradation) are implemented as
:class:`AdminHealthView`: a wrapper composed over the policy's existing
health view.  Steering stops picking a drained unit, but -- unlike a
fault -- nothing is blackholed: the injector's NIC-edge admission still
consults the *raw* :class:`~repro.faults.health.HealthView`, so
in-flight work on a drained unit completes normally.  The wrapper is
installed lazily on the first drain, which keeps never-draining runs
structurally identical to uncontrolled ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.fabric import Fabric
from repro.cluster.policies import SteeringPolicy, make_policy
from repro.control.config import ControlConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import MetricRegistry

#: Floor for escalated shortest-wait sampling (ns); sampling faster than
#: this models telemetry the fabric cannot physically deliver.
MIN_SAMPLE_PERIOD_NS = 250.0


class AdminHealthView:
    """Admin-drain overlay over a policy's health view.

    Read surface mirrors :class:`~repro.faults.health.HealthView` (the
    superset every policy consults): ``usable`` is the inner view's
    verdict AND-ed with the admin state; degradation/penalty pass
    through untouched so the controller's drains never mask fault
    signals.
    """

    def __init__(self, inner, n_units: int) -> None:
        self.inner = inner
        self.n_units = int(n_units)
        self._admin_down: List[bool] = [False] * self.n_units
        self._n_admin_down = 0

    # -- admin write side ----------------------------------------------
    def set_admin_down(self, unit: int, down: bool) -> bool:
        """Returns True when the flag actually changed."""
        if not 0 <= unit < self.n_units:
            raise ValueError(f"unit {unit} out of range [0, {self.n_units})")
        if self._admin_down[unit] == down:
            return False
        self._admin_down[unit] = down
        self._n_admin_down += 1 if down else -1
        return True

    def admin_down(self, unit: int) -> bool:
        return self._admin_down[unit]

    @property
    def n_admin_down(self) -> int:
        return self._n_admin_down

    # -- policy read side ----------------------------------------------
    @property
    def impaired(self) -> bool:
        return self._n_admin_down > 0 or self.inner.impaired

    def usable(self, unit: int) -> bool:
        return not self._admin_down[unit] and self.inner.usable(unit)

    def penalty(self, unit: int) -> float:
        return self.inner.penalty(unit)

    def usable_servers(self) -> List[int]:
        return [u for u in range(self.n_units) if self.usable(u)]

    def down(self, unit: int) -> bool:
        inner_down = getattr(self.inner, "down", None)
        return self._admin_down[unit] or (
            inner_down(unit) if inner_down is not None else False
        )

    def degraded(self, unit: int) -> bool:
        inner_degraded = getattr(self.inner, "degraded", None)
        return inner_degraded(unit) if inner_degraded is not None else False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        drained = [u for u, d in enumerate(self._admin_down) if d]
        return f"<AdminHealthView drained={drained} inner={self.inner!r}>"


def _carry_policy_state(old: SteeringPolicy, new: SteeringPolicy) -> None:
    """Preserve cumulative accounting across a runtime policy swap.

    The cluster/datacenter registries bind ``steer_*`` instruments to
    ``<system>.policy`` at construction (``decisions`` by index, plus
    ``refreshes`` / ``samples_taken`` when the *initial* policy had
    them), so the replacement must keep every bound read valid and
    monotonic: decisions carry over as the new policy's starting counts,
    and telemetry counters the new policy lacks are frozen onto it as
    plain attributes.
    """
    new.decisions = list(old.decisions)
    for attr in ("refreshes", "samples_taken"):
        carried = getattr(old, attr, None)
        if carried is None:
            continue
        native = getattr(new, attr, None)
        setattr(new, attr, carried + (native or 0))


class Actuators:
    """Every runtime-mutable knob of one system, behind one facade."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        system,
        config: ControlConfig,
        registry: MetricRegistry,
        trace=None,
    ) -> None:
        self.sim = sim
        self.system = system
        self.config = config
        self.trace = trace
        self._streams = streams
        # A fabric's members are the steerable units and its policy the
        # swappable one; a single server has neither.
        fabric = system if isinstance(system, Fabric) else None
        self._fabric = fabric
        self._units = list(fabric.members) if fabric is not None else []
        #: Construction-time policy name -- what a controller swaps back
        #: to when an escalation episode ends.
        self.base_policy_name = fabric.policy.name if fabric is not None else ""
        #: Per-policy construction-time knob baseline for the
        #: escalation ladder (captured lazily; keyed by policy identity,
        #: refreshed across swaps).
        self._knob_base: Dict[int, Dict[str, float]] = {}
        self._admin: Optional[AdminHealthView] = None
        self._open_drains: Dict[int, float] = {}
        self.level = 0
        #: Cores per steerable unit (a server's cores, or a whole
        #: rack's at the datacenter tier) -- the autoscaler's capacity
        #: normalizer.
        self.unit_cores = (
            fabric.config.member_cores if fabric is not None else 1
        )

        counter = registry.counter
        self._m_actuations = counter("control.actuations")
        self._m_drains = counter("control.drains")
        self._m_restores = counter("control.restores")
        self._m_policy_swaps = counter("control.policy_swaps")
        self._m_knob_updates = counter("control.knob_updates")
        self._m_worker_moves = counter("control.worker_moves")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_units(self) -> int:
        """Steerable units below this system (servers or racks)."""
        return len(self._units)

    def active_units(self) -> int:
        """Units not currently admin-drained."""
        drained = self._admin.n_admin_down if self._admin is not None else 0
        return len(self._units) - drained

    def is_drained(self, unit: int) -> bool:
        return self._admin is not None and self._admin.admin_down(unit)

    def _live_policies(self) -> List[SteeringPolicy]:
        """Every steering policy below this system, top level first."""
        return self._fabric.policies() if self._fabric is not None else []

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _span(self, lane: int, name: str, start: Optional[float] = None) -> None:
        trace = self.trace
        if trace is not None and trace.enabled:
            now = self.sim.now
            trace.span("control", lane, name,
                       now if start is None else start, now)

    def _record(self, counter, lane: int, name: str) -> None:
        counter.value += 1
        self._m_actuations.value += 1
        self._span(lane, name)

    # ------------------------------------------------------------------
    # Steering knob ladder (staleness / d / sample period)
    # ------------------------------------------------------------------
    def _base_knobs(self, policy: SteeringPolicy) -> Dict[str, float]:
        base = self._knob_base.get(id(policy))
        if base is None:
            base = {}
            for attr in ("d", "staleness_ns", "sample_period_ns"):
                value = getattr(policy, attr, None)
                if value is not None:
                    base[attr] = value
            self._knob_base[id(policy)] = base
        return base

    def apply_level(self, level: int) -> bool:
        """Set the telemetry-escalation ladder rung.

        Rung 0 is the construction-time knobs; each higher rung samples
        one more server per power-of-d decision, halves estimate
        staleness, and halves the shortest-wait sample period -- fresher
        (costlier) steering telemetry in exchange for tighter tails.
        Returns True when any knob actually moved.
        """
        level = max(0, min(int(level), self.config.max_level))
        changed = False
        for policy in self._live_policies():
            base = self._base_knobs(policy)
            if "d" in base:
                d = min(policy.n_servers, int(base["d"]) + level)
                if policy.d != d:
                    policy.set_d(d)
                    changed = True
            if "staleness_ns" in base:
                staleness = base["staleness_ns"] / (2.0 ** level)
                if policy.staleness_ns != staleness:
                    policy.set_staleness(staleness)
                    changed = True
            if "sample_period_ns" in base:
                period = max(
                    MIN_SAMPLE_PERIOD_NS, base["sample_period_ns"] / (2.0 ** level)
                )
                if policy.sample_period_ns != period:
                    policy.set_sample_period(period)
                    changed = True
        self.level = level
        if changed:
            self._record(self._m_knob_updates, 0, f"level{level}")
        return changed

    # ------------------------------------------------------------------
    # Admin drain / restore (rack autoscaling, degradation response)
    # ------------------------------------------------------------------
    def _ensure_admin(self) -> AdminHealthView:
        if self._admin is None:
            policy = self.system.policy
            self._admin = AdminHealthView(policy.health, len(self._units))
            policy.health = self._admin
            self.system.health = self._admin
        return self._admin

    def drain(self, unit: int) -> bool:
        """Remove ``unit`` from the steering set (in-flight work still
        completes; nothing is blackholed).  No-op below ``min_active``."""
        if self._fabric is None or not self._units:
            return False
        if self.active_units() <= self.config.min_active:
            return False
        admin = self._ensure_admin()
        if not admin.set_admin_down(unit, True):
            return False
        self._open_drains[unit] = self.sim.now
        self._record(self._m_drains, unit, "drain")
        return True

    def restore(self, unit: int) -> bool:
        """Return a drained unit to the steering set."""
        if self._admin is None or not self._admin.set_admin_down(unit, False):
            return False
        start = self._open_drains.pop(unit, None)
        self._m_restores.value += 1
        self._m_actuations.value += 1
        self._span(unit, "drained", start)
        return True

    # ------------------------------------------------------------------
    # Steering policy swap (rack / spine level)
    # ------------------------------------------------------------------
    def swap_policy(self, name: str) -> bool:
        """Replace the system's top-level steering policy at runtime.

        Rebuilt through the same :func:`make_policy` registry and the
        same ``"steering"`` stream reader the construction-time policy
        used (``draws()`` returns one instance per stream, so the
        rebuilt policy continues its predecessor's draws); cumulative decision counts and telemetry counters carry
        over so bound ``steer_*`` instruments stay valid and monotonic,
        and the current health view (admin overlay included) transplants
        onto the replacement.
        """
        if self._fabric is None:
            return False
        old = self.system.policy
        if old.name == name:
            return False
        config = self.system.config
        # Construct from the *base* (construction-time) knobs, not the
        # old policy's possibly-escalated live ones, then re-apply the
        # current ladder rung so swaps compose with the knob ladder.
        base = self._base_knobs(old)
        new = make_policy(
            name,
            n_servers=len(self._units),
            probe=self.system.outstanding,
            sim=self.sim,
            rng=self._streams.draws("steering"),
            cores_per_server=self.unit_cores,
            d=int(base.get("d", getattr(config, "d", 2))),
            staleness_ns=base.get("staleness_ns", config.staleness_ns),
            sample_period_ns=base.get(
                "sample_period_ns", config.sample_period_ns
            ),
        )
        _carry_policy_state(old, new)
        new.health = old.health
        old.shutdown()
        self.system.policy = new
        new.start()
        self._knob_base.pop(id(old), None)
        self._record(self._m_policy_swaps, 0, f"swap:{name}")
        return True

    # ------------------------------------------------------------------
    # Worker <-> manager group reassignment (Altocumulus tier)
    # ------------------------------------------------------------------
    def reassign_worker(self, src_group: int, dst_group: int) -> bool:
        """Move one idle worker between manager groups (single-server
        Altocumulus systems only; False elsewhere or when no worker of
        ``src_group`` is currently drained/idle)."""
        move = getattr(self.system, "reassign_worker", None)
        if move is None:
            return False
        if not move(src_group, dst_group):
            return False
        self._record(self._m_worker_moves, dst_group,
                     f"worker:{src_group}->{dst_group}")
        return True

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close still-open drain spans (call after ``sim.run``)."""
        for unit, start in self._open_drains.items():
            self._span(unit, "drained", start)
        self._open_drains.clear()
