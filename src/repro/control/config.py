"""Frozen configuration for the adaptive control plane.

:class:`ControlConfig` is the whole identity of a controller run: a
frozen dataclass of primitives, so it pickles across runner worker
processes, content-hashes stably into the result-cache key
(:func:`repro.runner.spec.fingerprint`), and -- together with the
master seed -- fully determines the control loop's behavior.  Two runs
with the same workload, seed, and ``ControlConfig`` are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Controller registry names (see :mod:`repro.control.controllers`).
CONTROLLER_NAMES = ("static", "hysteresis", "bandit")

#: Default control epoch: 20 us.  Long enough that an epoch at the
#: experiments' offered rates observes hundreds of completions (a stable
#: p99 estimate), short enough to react several times within a chaos
#: fault window.
DEFAULT_CONTROL_EPOCH_NS = 20_000.0


@dataclass(frozen=True)
class ControlConfig:
    """Everything the control plane needs, as plain frozen data."""

    #: Registry name of the decision policy (``CONTROLLER_NAMES``).
    controller: str = "static"
    #: Sensing/decision period in simulated nanoseconds.
    epoch_ns: float = DEFAULT_CONTROL_EPOCH_NS
    #: Consecutive epochs a unit must be degraded before it is
    #: admin-drained (scaled in) by the rule controllers.
    drain_after_epochs: int = 2
    #: Consecutive healthy epochs before a drained unit is restored.
    restore_after_epochs: int = 2
    #: Escalate the steering-telemetry ladder when the epoch p99 exceeds
    #: ``escalate_ratio`` x the slow baseline.
    escalate_ratio: float = 1.5
    #: De-escalate when the epoch p99 falls back under ``relax_ratio`` x
    #: the slow baseline for ``relax_after_epochs`` epochs.
    relax_ratio: float = 1.1
    relax_after_epochs: int = 4
    #: Highest rung of the escalation ladder (0 = construction knobs).
    max_level: int = 3
    #: EWMA smoothing for the controllers' p99 baseline.
    baseline_alpha: float = 0.1
    #: Steering policy the hysteresis controller swaps the top level to
    #: while the fabric is impaired (a unit is fault-drained) or the
    #: pressure ladder reaches ``swap_at_level``; the construction-time
    #: policy is restored when the episode ends.  Empty string disables
    #: swapping.
    swap_policy: str = "shortest_wait"
    swap_at_level: int = 2
    #: Bandit exploration probability (epsilon-greedy over the ladder).
    explore: float = 0.1
    #: Reward smoothing for the bandit's per-arm estimates.
    reward_alpha: float = 0.3
    #: Rack autoscaling at the datacenter tier: scale-in (admin-drain a
    #: rack) when mean outstanding per active rack stays below
    #: ``autoscale_low`` for ``drain_after_epochs`` epochs; scale-out on
    #: the first epoch above ``autoscale_high``.  Off by default.
    autoscale: bool = False
    autoscale_low: float = 0.25
    autoscale_high: float = 0.75
    #: Autoscaling never drains below this many active units.
    min_active: int = 1
    #: Rebalance worker<->manager group assignment (single-server
    #: Altocumulus tier only) when per-group outstanding skew exceeds
    #: ``rebalance_ratio``; at most one move per ``rebalance_cooldown``
    #: epochs.
    rebalance_workers: bool = True
    rebalance_ratio: float = 3.0
    rebalance_cooldown: int = 8

    def __post_init__(self) -> None:
        if self.controller not in CONTROLLER_NAMES:
            raise ValueError(
                f"unknown controller {self.controller!r}; "
                f"pick from {CONTROLLER_NAMES}"
            )
        if self.epoch_ns <= 0:
            raise ValueError(f"epoch_ns must be > 0, got {self.epoch_ns}")
        if self.drain_after_epochs < 1 or self.restore_after_epochs < 1:
            raise ValueError("drain/restore epoch counts must be >= 1")
        if not self.escalate_ratio > self.relax_ratio > 0:
            raise ValueError(
                "need escalate_ratio > relax_ratio > 0, got "
                f"{self.escalate_ratio} / {self.relax_ratio}"
            )
        if self.max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {self.max_level}")
        if not 0 < self.baseline_alpha <= 1:
            raise ValueError("baseline_alpha must be in (0, 1]")
        if not 0 <= self.explore <= 1:
            raise ValueError(f"explore must be in [0, 1], got {self.explore}")
        if not 0 < self.reward_alpha <= 1:
            raise ValueError("reward_alpha must be in (0, 1]")
        if self.swap_at_level < 1:
            raise ValueError(
                f"swap_at_level must be >= 1, got {self.swap_at_level}"
            )
        if not self.autoscale_high > self.autoscale_low >= 0:
            raise ValueError("need autoscale_high > autoscale_low >= 0")
        if self.min_active < 1:
            raise ValueError(f"min_active must be >= 1, got {self.min_active}")
        if self.rebalance_ratio <= 1:
            raise ValueError("rebalance_ratio must be > 1")
        if self.rebalance_cooldown < 1:
            raise ValueError("rebalance_cooldown must be >= 1")
