"""Adaptive control plane vs static steering under chaos and drift.

Not a paper artifact -- the flagship experiment of the control-plane
subsystem (:mod:`repro.control`).  Two families of cells run identical
workloads:

* **Static** cells are the established steering policies (connection
  hash, power-of-2, shortest-expected-wait) with no control loop --
  whatever knobs they were constructed with are the knobs they die with.
* **Adaptive** cells start from the *weakest reasonable* configuration
  (power-of-d with d=2, default staleness) and attach a
  :class:`~repro.control.ControlLoop` with the hysteresis or bandit
  controller, which may escalate probe width / estimate freshness,
  admin-drain impaired servers, relax or tighten migration thresholds,
  and swap steering weights mid-run.

The comparison runs across three chaos scenarios on the 4x16 rack (a
mid-run server crash, a degraded ToR downlink, and a lossy NIC -- the
same window geometry as :mod:`~repro.experiments.fig_chaos`) plus a
non-stationary drifting-MMPP multi-tenant load on the datacenter tier.
The chaos scenarios report during-window p99; the drift scenario
reports whole-run p99 and SLO violation ratio.

The punchline the adaptive-smoke CI gate pins: on the lossy-NIC
scenario the hysteresis controller's during-window p99 is no worse than
the best static policy's, because draining a degraded-but-reachable
server beats merely biasing load away from it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.control import ControlConfig
from repro.experiments.common import ExperimentResult, scaled
from repro.experiments.fig_chaos import (
    CORES_PER_SERVER,
    CRASH_DURATION_FRACTION,
    CRASH_START_FRACTION,
    N_SERVERS,
    RETRY,
    SERVICE_NS,
    windowed_p99,
)
from repro.experiments.fig_datacenter import datacenter_builder, tenant_pool
from repro.experiments.fig_rack import rack_builder, skewed_connections
from repro.faults import FaultEvent, FaultPlan
from repro.runner import PointSpec, ref, run_points
from repro.workload.arrivals import DriftingMMPPArrivals
from repro.workload.service import Exponential

#: Control epoch: ~5 us gives the controller tens of decision points
#: inside a chaos window at every scale the CI runs.
CONTROL_EPOCH_NS = 5_000.0

#: Offered load for the chaos scenarios, as a fraction of aggregate
#: capacity.  Deliberately higher than fig_chaos's 0.5: with deeper
#: queues a static policy's degradation *penalty* (a fixed handicap in
#: load units) stops being an effective exclusion -- healthy servers
#: routinely carry enough outstanding work that the impaired one wins
#: comparisons again -- while an admin drain excludes it outright.
CHAOS_LOAD_FRACTION = 0.7

#: Chaos scenarios: (label, fault kind, magnitude), all targeting
#: server 0 with the fig_chaos window geometry.
CHAOS_SCENARIOS: Tuple[Tuple[str, str, float], ...] = (
    ("crash", "server_crash", 0.0),
    ("tor_degrade", "tor_degrade", 0.1),
    ("nic_drop", "nic_drop", 0.9),
)

#: Static cells: the fig_chaos policy lineup, no control loop.
STATIC_CELLS: Tuple[Tuple[str, dict], ...] = (
    ("hash", {"policy": "hash"}),
    ("power_of_2", {"policy": "power_of_d", "d": 2}),
    ("shortest_wait", {"policy": "shortest_wait"}),
)

#: Adaptive cells: weakest-reasonable base policy + a controller.
ADAPTIVE_CELLS: Tuple[Tuple[str, str], ...] = (
    ("adaptive_hyst", "hysteresis"),
    ("adaptive_bandit", "bandit"),
)

#: Drift scenario shape (datacenter tier): mean load fraction and the
#: sinusoidal envelope the MMPP mean wanders along.  The burstiness is
#: tamed relative to the MMPP defaults so transient overload does not
#: saturate every cell identically -- steering quality has to be what
#: separates them.
DRIFT_LOAD_FRACTION = 0.45
DRIFT_PERIOD_NS = 200_000.0
DRIFT_AMPLITUDE = 0.35
DRIFT_BURST_FACTOR = 2.0
DRIFT_BATCH_MEAN = 2.0

#: Datacenter shape mirrored from fig_datacenter.
DC_RACKS = 4
DC_SERVERS = 4
DC_CORES = 8
DC_SLO_NS = 10 * SERVICE_NS


def drift_arrivals(rate_rps: float) -> DriftingMMPPArrivals:
    """Module-level arrivals factory (``ref``-able): drifting MMPP."""
    return DriftingMMPPArrivals(
        rate_rps,
        period_ns=DRIFT_PERIOD_NS,
        amplitude=DRIFT_AMPLITUDE,
        burst_factor=DRIFT_BURST_FACTOR,
        batch_mean=DRIFT_BATCH_MEAN,
    )


def _control(controller: str) -> ControlConfig:
    # drain_after_epochs=1: at a 5 us epoch the epoch itself is the
    # debounce, and every epoch of continued leakage onto a lossy
    # server costs retry-scale latency.  swap_at_level=1: under
    # sustained pressure the first escalation goes straight to the
    # exact-information swap policy -- widening power-of-d probes over
    # stale estimates herds load instead of spreading it.  max_level=1:
    # one knob rung is the sweet spot for the fault-episode posture too;
    # deeper rungs over-sample and re-herd (measured: rung 1 beats both
    # rung 2 and rung 3 on every chaos scenario).
    return ControlConfig(
        controller=controller,
        epoch_ns=CONTROL_EPOCH_NS,
        drain_after_epochs=1,
        swap_at_level=1,
        max_level=1,
    )


def _chaos_plan(kind: str, magnitude: float, duration_ns: float,
                start_ns: float) -> FaultPlan:
    return FaultPlan(
        events=(
            FaultEvent(
                time_ns=start_ns,
                kind=kind,
                target=0,
                magnitude=magnitude,
                duration_ns=duration_ns,
            ),
        ),
        retry=RETRY,
    )


def _chaos_specs(
    n_requests: int, seed: int
) -> Tuple[List[Tuple[str, str, PointSpec]], float, float]:
    """One spec per (scenario x cell); returns specs + window bounds."""
    capacity = N_SERVERS * CORES_PER_SERVER / SERVICE_NS * 1e9
    rate_rps = CHAOS_LOAD_FRACTION * capacity
    duration_ns = n_requests / rate_rps * 1e9
    start_ns = CRASH_START_FRACTION * duration_ns
    window_ns = CRASH_DURATION_FRACTION * duration_ns
    end_ns = start_ns + window_ns
    specs: List[Tuple[str, str, PointSpec]] = []
    for scenario, kind, magnitude in CHAOS_SCENARIOS:
        plan = _chaos_plan(kind, magnitude, window_ns, start_ns)
        cells: List[Tuple[str, dict, Optional[ControlConfig]]] = [
            (name, polkw, None) for name, polkw in STATIC_CELLS
        ]
        cells.extend(
            (name, {"policy": "power_of_d", "d": 2}, _control(controller))
            for name, controller in ADAPTIVE_CELLS
        )
        for name, polkw, control in cells:
            specs.append((
                scenario,
                name,
                PointSpec(
                    builder=ref(rack_builder, n_servers=N_SERVERS,
                                cores_per_server=CORES_PER_SERVER, **polkw),
                    service=Exponential(SERVICE_NS),
                    rate_rps=rate_rps,
                    n_requests=n_requests,
                    seed=seed,
                    connections=ref(skewed_connections),
                    metrics=ref(windowed_p99, crash_start_ns=start_ns,
                                crash_end_ns=end_ns),
                    faults=plan,
                    control=control,
                    tag=f"adaptive:{scenario}:{name}",
                ),
            ))
    return specs, start_ns, end_ns


def _drift_specs(
    n_requests: int, seed: int
) -> List[Tuple[str, str, PointSpec]]:
    capacity = DC_RACKS * DC_SERVERS * DC_CORES / SERVICE_NS * 1e9
    rate_rps = DRIFT_LOAD_FRACTION * capacity
    specs: List[Tuple[str, str, PointSpec]] = []
    cells: List[Tuple[str, dict, Optional[ControlConfig]]] = [
        (name, polkw, None) for name, polkw in STATIC_CELLS
    ]
    cells.extend(
        (name, {"policy": "power_of_d", "d": 2}, _control(controller))
        for name, controller in ADAPTIVE_CELLS
    )
    for name, polkw, control in cells:
        specs.append((
            "drift",
            name,
            PointSpec(
                builder=ref(datacenter_builder, mix="skewed",
                            n_racks=DC_RACKS, n_servers=DC_SERVERS,
                            cores_per_server=DC_CORES, **polkw),
                service=Exponential(SERVICE_NS),
                rate_rps=rate_rps,
                n_requests=n_requests,
                seed=seed,
                arrivals=ref(drift_arrivals),
                connections=ref(tenant_pool, mix="skewed"),
                slo_ns=DC_SLO_NS,
                control=control,
                tag=f"adaptive:drift:{name}",
            ),
        ))
    return specs


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Regenerate the adaptive-vs-static comparison."""
    n_requests = scaled(30_000, scale)
    chaos, start_ns, end_ns = _chaos_specs(n_requests, seed)
    drift = _drift_specs(scaled(40_000, scale), seed)
    labeled = chaos + drift
    results = run_points([spec for _, _, spec in labeled],
                         label="fig_adaptive")

    rows: List[List[object]] = []
    series: Dict[str, List[Optional[float]]] = {}
    for (scenario, name, spec), point in zip(labeled, results):
        inst = point.instruments
        if scenario == "drift":
            headline = point.p99_ns
            violation = point.violation_ratio
        else:
            headline = point.metrics.get("p99_during_ns")
            violation = None
        series.setdefault(scenario, []).append(
            None if headline is None or headline != headline
            else headline / 1000.0
        )
        rows.append([
            scenario,
            name,
            "-" if headline is None or headline != headline
            else round(headline / 1000.0, 2),
            "-" if violation is None else round(violation, 4),
            int(inst.get("control.epochs", 0)),
            int(inst.get("control.actuations", 0)),
            int(inst.get("control.drains", 0)),
            int(inst.get("control.knob_updates", 0)),
            int(inst.get("control.worker_moves", 0)),
            int(inst.get("client.retry.retries", 0)),
        ])
    return ExperimentResult(
        exp_id="fig_adaptive",
        title="adaptive controllers vs static steering (chaos + drift)",
        headers=["scenario", "cell", "p99_us", "slo_viol", "epochs",
                 "actuations", "drains", "knobs", "moves", "retries"],
        rows=rows,
        notes=(
            "Chaos scenarios: 4x16 rack at "
            f"{CHAOS_LOAD_FRACTION:.0%} load, fault window on server 0 for "
            f"arrivals in [{start_ns / 1000.0:.0f} us, "
            f"{end_ns / 1000.0:.0f} us); p99_us is during-window p99.\n"
            f"Drift scenario: {DC_RACKS}-rack datacenter at "
            f"{DRIFT_LOAD_FRACTION:.0%} mean load under a drifting MMPP "
            f"(amplitude {DRIFT_AMPLITUDE}); p99_us is whole-run p99 and "
            f"slo_viol the {DC_SLO_NS / 1000.0:.0f} us-SLO violation "
            "ratio.\n"
            "Static cells never touch their knobs; adaptive cells start "
            "from power-of-2 steering\n"
            "and let the controller escalate probe width / estimate "
            "freshness and drain impaired\n"
            "servers from live control.* telemetry."
        ),
        series=series,
    )
