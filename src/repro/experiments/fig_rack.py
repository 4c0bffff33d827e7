"""Rack-scale steering study: servers x offered load x policy.

Not a paper artifact -- the first experiment of the cluster tier that
grows the reproduction beyond one machine.  A rack of identical
Altocumulus servers sits behind a ToR switch
(:mod:`repro.cluster.switch`) and an inter-server steering policy
(:mod:`repro.cluster.policies`); traffic is connection-skewed (Zipf hot
flows), the regime where load-oblivious steering pins hot flows to one
server.

The sweep asks the RackSched question: given near-perfect *intra*-server
scheduling, how much rack-level tail does the *inter*-server layer leave
on the table?  Expected shape:

* ``hash`` (RSS/ECMP-style) falls apart as load grows -- the hot-flow
  server saturates while its neighbours idle (imbalance well above 1).
* ``round_robin`` fixes request-count imbalance but still ignores
  queue-depth skew from service-time variance.
* ``power_of_d`` (d=2 sampled queues) and ``shortest_wait`` (RackSched's
  periodically-sampled shortest expected wait) track the aggregate
  capacity almost perfectly; stale variants degrade gracefully toward
  round-robin.

Every (servers, load, policy) cell is one
:class:`~repro.runner.PointSpec` routed through :mod:`repro.runner`, so
the sweep fans out over ``--jobs`` workers, caches per point, and is
bit-identical serial vs parallel like every other experiment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.fabric import FabricConfig, build_fabric
from repro.experiments.common import ExperimentResult, scaled
from repro.runner import PointSpec, ref, run_points
from repro.workload.connections import ConnectionPool
from repro.workload.service import Exponential

#: Mean per-request service time (the quickstart's 1 us RPC handlers).
SERVICE_NS = 1_000.0

#: Rack-level SLO: p99 under 10x mean service.
SLO_NS = 10.0 * SERVICE_NS

#: Rack shapes swept: (n_servers, cores_per_server).
RACK_SHAPES: Tuple[Tuple[int, int], ...] = ((4, 16), (8, 16))

#: Offered load as a fraction of aggregate rack capacity.
LOAD_FRACTIONS: Tuple[float, ...] = (0.5, 0.7, 0.85)

#: Steering policies compared; extra kwargs parameterize the builder.
POLICIES: Tuple[Tuple[str, dict], ...] = (
    ("hash", {"policy": "hash"}),
    ("round_robin", {"policy": "round_robin"}),
    ("power_of_2", {"policy": "power_of_d", "d": 2}),
    ("power_of_2_stale", {"policy": "power_of_d", "d": 2,
                          "staleness_ns": 10_000.0}),
    ("shortest_wait", {"policy": "shortest_wait"}),
)

#: Hot-flow traffic: few connections dominate, so hash steering pins
#: them to one server.  1024 flows at Zipf 1.1 puts ~28% of traffic on
#: the hottest flow.
CONNECTIONS = 1024
ZIPF_S = 1.1


def rack_builder(
    sim,
    streams,
    n_servers: int = 4,
    cores_per_server: int = 16,
    system: str = "altocumulus",
    policy: str = "power_of_d",
    d: int = 2,
    staleness_ns: float = 0.0,
    sample_period_ns: float = 2_000.0,
):
    """Module-level (picklable) rack builder for sweep workers."""
    return build_fabric(
        sim,
        streams,
        FabricConfig.rack(
            n_servers=n_servers,
            cores_per_server=cores_per_server,
            system=system,
            policy=policy,
            d=d,
            staleness_ns=staleness_ns,
            sample_period_ns=sample_period_ns,
        ),
    )


def skewed_connections() -> ConnectionPool:
    """The hot-flow connection mix every sweep point shares."""
    return ConnectionPool.skewed(CONNECTIONS, zipf_s=ZIPF_S)


def _specs(n_requests: int, seed: int) -> List[PointSpec]:
    specs: List[PointSpec] = []
    for n_servers, cores in RACK_SHAPES:
        capacity = n_servers * cores / SERVICE_NS * 1e9
        for name, polkw in POLICIES:
            for fraction in LOAD_FRACTIONS:
                specs.append(
                    PointSpec(
                        builder=ref(rack_builder, n_servers=n_servers,
                                    cores_per_server=cores, **polkw),
                        service=Exponential(SERVICE_NS),
                        rate_rps=fraction * capacity,
                        n_requests=n_requests,
                        seed=seed,
                        connections=ref(skewed_connections),
                        slo_ns=SLO_NS,
                        tag=f"rack:{n_servers}x{cores}:{name}:{fraction}",
                    )
                )
    return specs


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Regenerate the rack-scale steering comparison."""
    n_requests = scaled(30_000, scale)
    specs = _specs(n_requests, seed)
    results = run_points(specs, label="fig_rack")

    rows: List[List[object]] = []
    series: dict = {}
    cursor = 0
    for n_servers, cores in RACK_SHAPES:
        for name, _polkw in POLICIES:
            p99_curve: List[Optional[float]] = []
            for fraction in LOAD_FRACTIONS:
                point = results[cursor]
                cursor += 1
                p99_us = point.p99_ns / 1000.0
                p99_curve.append(p99_us)
                rows.append([
                    f"{n_servers}x{cores}",
                    name,
                    fraction,
                    round(p99_us, 2),
                    round(point.mean_ns / 1000.0, 2),
                    round(point.throughput_rps / 1e6, 2),
                    round(point.instruments.get("cluster.imbalance_index", 0.0), 3),
                    point.violation_ratio or 0.0,
                    point.dropped,
                ])
            series[f"{n_servers}x{cores}:{name}"] = p99_curve
    return ExperimentResult(
        exp_id="fig_rack",
        title="rack-scale inter-server steering (skewed flows)",
        headers=["rack", "policy", "load", "p99_us", "mean_us",
                 "thr_mrps", "imbalance", "viol", "dropped"],
        rows=rows,
        notes=(
            "Racks of Altocumulus servers behind a ToR switch; traffic is\n"
            f"connection-skewed (Zipf {ZIPF_S} over {CONNECTIONS} flows), "
            "exponential 1 us service.\n"
            "imbalance = max/mean of per-server completions (1.0 = even).\n"
            "Expect hash steering to blow up its p99 and imbalance as load\n"
            "grows (hot flows pin to one server), round-robin to fix counts\n"
            "but not queue skew, and power-of-2 / shortest-wait to hold the\n"
            "SLO close to aggregate capacity; staleness degrades p2c only\n"
            "mildly thanks to optimistic in-flight tracking."
        ),
        series=series,
    )
