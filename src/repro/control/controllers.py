"""Decision policies for the adaptive control plane.

A :class:`Controller` consumes one :class:`EpochObservation` per control
epoch and mutates the system exclusively through the
:class:`~repro.control.actuators.Actuators` facade.  Three ship behind
the registry:

* ``static`` -- the no-op baseline.  It senses (so the ``control.*``
  epoch instruments are live) but never actuates and never draws
  randomness, which is what keeps static-controller runs bit-identical
  to uncontrolled ones.
* ``hysteresis`` -- a threshold rule controller.  Degraded-but-reachable
  units (lossy NICs, throttled ToR ports, stragglers) are admin-drained
  after a debounce and restored once healthy again -- the move static
  health-aware policies cannot make, since a penalty only *biases* load
  away from a loss source.  Sustained p99 pressure against a slow EWMA
  baseline escalates the steering-telemetry ladder (more power-of-d
  samples, fresher estimates, faster shortest-wait sampling); calm
  de-escalates.  Optional extras: datacenter rack autoscaling and
  Altocumulus worker<->group rebalancing.
* ``bandit`` -- an epsilon-greedy optimizer over the same ladder: each
  epoch's negated p99 is the reward for the rung that produced it, and
  exploration draws come only from the dedicated ``"control"`` RNG
  stream (so a fixed seed + config reproduces the run bit-for-bit).
  The hysteresis drain rule runs underneath as a deterministic safety
  net.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.control.actuators import Actuators
from repro.control.config import CONTROLLER_NAMES, ControlConfig


@dataclass
class EpochObservation:
    """What the control loop sensed during one epoch."""

    index: int
    t_start: float
    t_end: float
    #: Completions / drop delta observed during the epoch.
    completed: int
    dropped: int
    #: Epoch latency statistics (None when nothing completed).
    p99_ns: Optional[float]
    mean_ns: Optional[float]
    #: Per-unit outstanding work (servers or racks; empty below tiers).
    outstanding: List[float] = field(default_factory=list)
    #: Raw fault state per unit (from the injector's HealthView; admin
    #: drains are deliberately invisible here).
    degraded: List[bool] = field(default_factory=list)
    unusable: List[bool] = field(default_factory=list)
    #: Per-group NetRX+occupancy (single-server Altocumulus tier only).
    group_outstanding: Optional[List[int]] = None


class Controller(abc.ABC):
    """Base class: one ``decide`` call per control epoch."""

    name = "abstract"

    def __init__(self, config: ControlConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.decisions = 0
        # Shared drain-rule state (per-unit debounce counters).
        self._degraded_epochs: List[int] = []
        self._healthy_epochs: List[int] = []
        self._drain_reason: dict = {}

    @abc.abstractmethod
    def decide(self, obs: EpochObservation, act: Actuators) -> None:
        """Observe one epoch and (possibly) actuate."""

    # ------------------------------------------------------------------
    # Shared degradation drain rule (deterministic; used by the rule
    # controllers, inert for static).
    # ------------------------------------------------------------------
    def _update_drains(self, obs: EpochObservation, act: Actuators) -> None:
        cfg = self.config
        n = act.n_units
        if not n or len(obs.degraded) != n:
            return
        if len(self._degraded_epochs) != n:
            self._degraded_epochs = [0] * n
            self._healthy_epochs = [0] * n
        for unit in range(n):
            if obs.degraded[unit]:
                self._degraded_epochs[unit] += 1
                self._healthy_epochs[unit] = 0
            else:
                self._healthy_epochs[unit] += 1
                self._degraded_epochs[unit] = 0
            drained = act.is_drained(unit)
            if (
                not drained
                and self._degraded_epochs[unit] >= cfg.drain_after_epochs
            ):
                if act.drain(unit):
                    self._drain_reason[unit] = "fault"
            elif (
                drained
                and self._drain_reason.get(unit) == "fault"
                and self._healthy_epochs[unit] >= cfg.restore_after_epochs
            ):
                if act.restore(unit):
                    self._drain_reason.pop(unit, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} decisions={self.decisions}>"


class StaticController(Controller):
    """The do-nothing baseline every adaptive run is judged against."""

    name = "static"

    def decide(self, obs: EpochObservation, act: Actuators) -> None:
        self.decisions += 1


class HysteresisController(Controller):
    """Debounced threshold rules over the epoch observations."""

    name = "hysteresis"

    def __init__(self, config: ControlConfig, rng: np.random.Generator) -> None:
        super().__init__(config, rng)
        self._baseline: Optional[float] = None
        self._level = 0
        self._calm_epochs = 0
        self._low_epochs = 0
        self._rebalance_cooldown = 0
        self._defensive = False
        self._swapped = False

    # -- p99 pressure ladder -------------------------------------------
    def _update_pressure(self, obs: EpochObservation, act: Actuators) -> None:
        cfg = self.config
        p99 = obs.p99_ns
        if p99 is None:
            return
        if self._baseline is None:
            self._baseline = p99
            return
        if p99 > cfg.escalate_ratio * self._baseline:
            self._calm_epochs = 0
            if self._level < cfg.max_level:
                self._level += 1
                if not self._defensive:
                    self._set_rung(act)
            return  # anomalies don't teach the baseline
        if p99 < cfg.relax_ratio * self._baseline:
            self._calm_epochs += 1
            if self._calm_epochs >= cfg.relax_after_epochs:
                self._calm_epochs = 0
                if self._level > 0:
                    self._level -= 1
                    if not self._defensive:
                        self._set_rung(act)
        else:
            self._calm_epochs = 0
        self._baseline += cfg.baseline_alpha * (p99 - self._baseline)

    def _set_rung(self, act: Actuators) -> None:
        """Actuate the pressure ladder's current rung.

        Below ``swap_at_level`` the rung is a knob escalation of the
        construction-time policy; at and above it, the *policy swap* is
        the escalation (exact queue information instead of wider
        stale-sample probing -- probing more servers with stale
        estimates herds load onto whichever momentarily looks shortest,
        which is why the knob ladder stops here).
        """
        cfg = self.config
        if cfg.swap_policy and self._level >= cfg.swap_at_level:
            act.apply_level(cfg.swap_at_level - 1)
            if not self._swapped:
                act.swap_policy(cfg.swap_policy)
                self._swapped = True
        else:
            if self._swapped and act.base_policy_name:
                act.swap_policy(act.base_policy_name)
                self._swapped = False
            act.apply_level(self._level)

    # -- fault-episode defensive posture -------------------------------
    def _update_posture(self, obs: EpochObservation, act: Actuators) -> None:
        """While the steering set is impaired, jump to the top ladder
        rung for the whole episode, then return to the pressure ladder's
        state when it ends.  Two flavors of impairment get different
        treatment:

        * A unit *we* fault-drained (lossy NIC, throttled ToR port) also
          swaps to the exact-information policy -- the drain already
          removed the hazard, and precise queue placement across the
          smaller healthy set is worth its telemetry cost.
        * A unit that is outright unusable (crash, partition) only
          escalates the construction policy's knobs.  The health view
          already excludes the corpse; the survivors run uniformly hot,
          where wider fresh-sample probing spreads load and exact-queue
          chasing herds it.
        """
        cfg = self.config
        drained = any(
            reason == "fault" for reason in self._drain_reason.values()
        )
        impaired = drained or any(obs.unusable)
        if impaired and not self._defensive:
            self._defensive = True
            if drained and cfg.swap_policy and not self._swapped:
                act.swap_policy(cfg.swap_policy)
                self._swapped = True
            act.apply_level(cfg.max_level)
        elif not impaired and self._defensive:
            self._defensive = False
            self._set_rung(act)

    # -- datacenter rack autoscaling -----------------------------------
    def _update_autoscale(self, obs: EpochObservation, act: Actuators) -> None:
        cfg = self.config
        n = act.n_units
        if not cfg.autoscale or not n or len(obs.outstanding) != n:
            return
        active = [
            u for u in range(n)
            if not act.is_drained(u) and not obs.unusable[u]
        ]
        if not active:
            return
        cores = max(1, act.unit_cores)
        per_core = sum(obs.outstanding[u] for u in active) / (
            len(active) * cores
        )
        if per_core > cfg.autoscale_high:
            self._low_epochs = 0
            for unit in range(n):
                if self._drain_reason.get(unit) == "scale":
                    if act.restore(unit):
                        self._drain_reason.pop(unit, None)
                    return
            return
        if per_core < cfg.autoscale_low:
            self._low_epochs += 1
            if (
                self._low_epochs >= cfg.drain_after_epochs
                and len(active) > cfg.min_active
            ):
                self._low_epochs = 0
                idle = min(active, key=lambda u: (obs.outstanding[u], u))
                if act.drain(idle):
                    self._drain_reason[idle] = "scale"
        else:
            self._low_epochs = 0

    # -- Altocumulus worker rebalancing --------------------------------
    def _update_rebalance(self, obs: EpochObservation, act: Actuators) -> None:
        cfg = self.config
        groups = obs.group_outstanding
        if not cfg.rebalance_workers or not groups or len(groups) < 2:
            return
        if self._rebalance_cooldown > 0:
            self._rebalance_cooldown -= 1
            return
        hot = max(groups)
        cold = min(groups)
        if hot >= cfg.rebalance_ratio * max(1, cold):
            src = groups.index(cold)
            dst = groups.index(hot)
            if src != dst and act.reassign_worker(src, dst):
                self._rebalance_cooldown = cfg.rebalance_cooldown

    def decide(self, obs: EpochObservation, act: Actuators) -> None:
        self.decisions += 1
        self._update_drains(obs, act)
        self._update_posture(obs, act)
        self._update_pressure(obs, act)
        self._update_autoscale(obs, act)
        self._update_rebalance(obs, act)


class BanditController(Controller):
    """Epsilon-greedy over the telemetry ladder, rewarded by -p99."""

    name = "bandit"

    def __init__(self, config: ControlConfig, rng: np.random.Generator) -> None:
        super().__init__(config, rng)
        self._arm_value: List[Optional[float]] = [None] * (config.max_level + 1)
        self._current_arm: Optional[int] = None

    def _credit(self, obs: EpochObservation) -> None:
        arm = self._current_arm
        if arm is None or obs.p99_ns is None:
            return
        reward = -obs.p99_ns
        value = self._arm_value[arm]
        if value is None:
            self._arm_value[arm] = reward
        else:
            self._arm_value[arm] = value + self.config.reward_alpha * (
                reward - value
            )

    def _choose(self) -> int:
        # One exploration draw per epoch, always taken, so the RNG
        # stream's consumption pattern is a pure function of epoch count.
        explore = self.rng.random() < self.config.explore
        untried = [a for a, v in enumerate(self._arm_value) if v is None]
        if untried:
            # Optimistic initialization: visit every rung once, in order.
            return untried[0]
        if explore:
            return int(self.rng.integers(0, len(self._arm_value)))
        best = 0
        best_value = -float("inf")
        for arm, value in enumerate(self._arm_value):
            if value is not None and value > best_value:
                best = arm
                best_value = value
        return best

    def decide(self, obs: EpochObservation, act: Actuators) -> None:
        self.decisions += 1
        self._update_drains(obs, act)
        self._credit(obs)
        arm = self._choose()
        if arm != self._current_arm:
            act.apply_level(arm)
            self._current_arm = arm


def make_controller(
    config: ControlConfig, rng: np.random.Generator
) -> Controller:
    """Construct a controller by registry name."""
    if config.controller == "static":
        return StaticController(config, rng)
    if config.controller == "hysteresis":
        return HysteresisController(config, rng)
    if config.controller == "bandit":
        return BanditController(config, rng)
    raise ValueError(
        f"unknown controller {config.controller!r}; "
        f"pick from {CONTROLLER_NAMES}"
    )
