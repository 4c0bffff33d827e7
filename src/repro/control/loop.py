"""The control loop: sensing -> decision -> actuation, every epoch.

Built by :func:`repro.api.run_workload` when a
:class:`~repro.control.config.ControlConfig` is passed (a sweep carries
it in ``PointSpec.control``), mirroring how the fault injector wires
in.  The loop runs entirely on the simulated
clock: a reusable engine timer fires every ``epoch_ns``, the loop
distills what the epoch produced into one
:class:`~repro.control.controllers.EpochObservation`, hands it to the
controller, and the controller actuates through the
:class:`~repro.control.actuators.Actuators` facade.

Sensing sources, cheapest first:

* a completion hook on the system (latency of every completed request
  this epoch -- the per-epoch p99/mean);
* live drop counters and per-unit outstanding probes;
* the injector's raw :class:`~repro.faults.health.HealthView` (captured
  *before* any admin overlay, so the controller never mistakes its own
  drains for faults);
* a namespace-filtered ``registry.snapshot("faults")`` for the
  loss-accounting delta -- the cheap filtered read that exists so an
  every-epoch poll does not pay full-registry serialization.

Determinism contract: the loop's timer is ordinary engine machinery
(extra events never reorder existing ones), sensing is pure reads, and
the ``static`` controller never actuates and never draws randomness --
so a static-controller run is bit-identical to an uncontrolled one,
which the golden determinism gate pins.  Adaptive controllers draw only
from the dedicated ``"control"`` RNG stream, so a fixed seed + config
reproduces every decision exactly.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cluster.fabric import Fabric
from repro.control.actuators import Actuators
from repro.control.config import ControlConfig
from repro.control.controllers import EpochObservation, make_controller
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import MetricRegistry

#: ``faults.*`` counters summed into the epoch loss signal.
_LOSS_COUNTERS = (
    "faults.requests_blackholed",
    "faults.nic_burst_dropped",
    "faults.responses_lost",
)


class ControlLoop:
    """Wires one controller into one system for the duration of a run."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        config: ControlConfig,
        system,
    ) -> None:
        self.sim = sim
        self.config = config
        self.system = system
        registry: Optional[MetricRegistry] = getattr(system, "metrics", None)
        if registry is None:
            registry = MetricRegistry()
        self.registry = registry
        self.trace = getattr(system, "trace", None)
        members = system.members if isinstance(system, Fabric) else []
        if self.trace is None and members:
            self.trace = getattr(members[0], "trace", None)
        #: The injector's raw health view, captured before any admin
        #: overlay so fault state and admin state stay distinguishable.
        self._raw_health = getattr(system, "health", None)
        self._units = list(members)
        self._probe = getattr(system, "outstanding", None)
        self._group_probe = getattr(system, "group_outstanding", None)
        #: Sense fault-loss accounting only when an injector registered
        #: its namespace (plain runs skip the read entirely).
        self._sense_faults = _LOSS_COUNTERS[0] in registry

        self.actuators = Actuators(
            sim, streams, system, config, registry, trace=self.trace
        )
        self.controller = make_controller(config, streams.get("control"))

        # control.* epoch instruments -- registered only here, so plain
        # builds keep the pinned metrics schema untouched.
        self._m_epochs = registry.counter("control.epochs")
        self._m_completed = registry.counter("control.epoch_completed")
        self._m_last_p99 = registry.gauge("control.last_p99_ns")
        self._m_last_mean = registry.gauge("control.last_mean_ns")
        registry.gauge("control.level", fn=lambda: self.actuators.level)
        registry.gauge(
            "control.drained_units",
            fn=lambda: len(self._units) - self.actuators.active_units(),
        )

        # Epoch accumulation state.
        self._lat: List[float] = []
        self._epoch_index = 0
        self._epoch_start = sim.now
        self._last_dropped = self._read_dropped()
        self._last_lost = self._read_lost()

        hooks = getattr(system, "completion_hooks", None)
        if hooks is not None:
            hooks.append(self._on_complete)
        self._event: Optional[Event] = sim.schedule_timer(
            config.epoch_ns, self._tick
        )

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------
    def _on_complete(self, request) -> None:
        self._lat.append(request.latency)

    def _read_dropped(self) -> int:
        stats = getattr(self.system, "stats", None)
        return getattr(stats, "dropped", 0) if stats is not None else 0

    def _read_lost(self) -> int:
        if not self._sense_faults:
            return 0
        snap = self.registry.snapshot("faults")
        return sum(int(snap.get(name, 0)) for name in _LOSS_COUNTERS)

    def _observe(self) -> EpochObservation:
        lat = self._lat
        if lat:
            p99: Optional[float] = float(np.percentile(lat, 99.0))
            mean: Optional[float] = float(sum(lat) / len(lat))
        else:
            p99 = mean = None
        dropped = self._read_dropped()
        lost = self._read_lost()
        n = len(self._units)
        outstanding: List[float] = []
        degraded = [False] * n
        unusable = [False] * n
        if n and self._probe is not None:
            outstanding = [float(self._probe(u)) for u in range(n)]
        health = self._raw_health
        if n and health is not None:
            health_degraded = getattr(health, "degraded", None)
            for unit in range(n):
                unusable[unit] = not health.usable(unit)
                if health_degraded is not None:
                    degraded[unit] = health_degraded(unit)
        obs = EpochObservation(
            index=self._epoch_index,
            t_start=self._epoch_start,
            t_end=self.sim.now,
            completed=len(lat),
            dropped=dropped - self._last_dropped + lost - self._last_lost,
            p99_ns=p99,
            mean_ns=mean,
            outstanding=outstanding,
            degraded=degraded,
            unusable=unusable,
            group_outstanding=(
                self._group_probe() if self._group_probe is not None else None
            ),
        )
        self._last_dropped = dropped
        self._last_lost = lost
        return obs

    # ------------------------------------------------------------------
    # The epoch tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        obs = self._observe()
        self._m_epochs.value += 1
        self._m_completed.value += obs.completed
        if obs.p99_ns is not None:
            self._m_last_p99.set(obs.p99_ns)
            self._m_last_mean.set(obs.mean_ns)
        self.controller.decide(obs, self.actuators)
        self._epoch_index += 1
        self._epoch_start = self.sim.now
        self._lat.clear()
        self._event = self.sim.schedule_timer(
            self.config.epoch_ns, self._tick, event=self._event
        )

    def finalize(self) -> None:
        """Stop the epoch timer and flush open actuation spans (call
        after ``sim.run``)."""
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None
        self.actuators.finalize()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ControlLoop {self.controller.name} "
            f"epochs={self._m_epochs.value}>"
        )
