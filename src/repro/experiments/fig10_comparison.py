"""Fig. 10 -- tail latency vs throughput for seven scheduling systems
(16 cores, high-dispersion bimodal service, SLO: p99 < 300 us).

Systems: IX, ZygOS, Shinjuku, RPCValet, Nebula, nanoPU, AC_rss.

Workload: the Shinjuku bimodal -- 99.5% x 0.5 us, 0.5% x 500 us (mean
3 us; 16-core capacity ~5.33 MRPS).  With a 300 us SLO *below* the long
service time, the figure discriminates exactly as the paper argues:
d-FCFS systems lose short requests behind long ones, non-preemptive
JBSQ commits shorts into blocked per-core queues during long-request
clusters, preemption (Shinjuku, nanoPU) timeshares the longs away, and
Altocumulus holds work at the managers and migrates it around clogged
groups.  (The paper's x-axis extends to 20 MRPS, which is unreachable
at this mix's mean service time on 16 cores; we sweep to capacity.)
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.experiments.common import (
    ExperimentResult,
    SweepPoint,
    scaled,
    throughput_at_slo,
)
from repro.hw.nic import PcieDelivery
from repro.runner import PointSpec, ref, run_points
from repro.schedulers.centralized import ShinjukuSystem
from repro.schedulers.jbsq import nanopu, nebula, rpcvalet
from repro.schedulers.rss import IxSystem
from repro.schedulers.work_stealing import ZygosSystem
from repro.workload.service import Bimodal

N_CORES = 16
SLO_NS = 300_000.0
SERVICE = Bimodal(short_ns=500.0, long_ns=500_000.0, long_fraction=0.005)
#: Offered rates in MRPS (ideal capacity ~5.35 MRPS at 2.99 us mean).
RATES_MRPS = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]


# IX and ZygOS run a traditional network stack on the worker cores
# themselves (Sec. VII-A); ~2 us per small message of on-core stack
# work rides on every request (Fig. 1's processing gap).
def _ix_builder(sim, streams):
    return IxSystem(sim, streams, N_CORES, delivery=PcieDelivery(),
                    per_request_overhead_ns=2_000.0)


def _zygos_builder(sim, streams):
    return ZygosSystem(sim, streams, N_CORES, delivery=PcieDelivery(),
                       per_request_overhead_ns=2_000.0)


def _shinjuku_builder(sim, streams):
    return ShinjukuSystem(sim, streams, N_CORES, delivery=PcieDelivery())


def _rpcvalet_builder(sim, streams):
    return rpcvalet(sim, streams, N_CORES)


def _nebula_builder(sim, streams):
    return nebula(sim, streams, N_CORES)


def _nanopu_builder(sim, streams):
    return nanopu(sim, streams, N_CORES)


def _ac_rss_builder(sim, streams):
    config = AltocumulusConfig(
        n_groups=2,
        group_size=8,
        variant="rss",
        interface="isa",
        period_ns=200.0,
        bulk=8,
        concurrency=1,
        slo_multiplier=SLO_NS / SERVICE.mean,
        steering_policy="round_robin",
    )
    return AltocumulusSystem(sim, streams, config)


_SYSTEMS = {
    "ix": _ix_builder,
    "zygos": _zygos_builder,
    "shinjuku": _shinjuku_builder,
    "rpcvalet": _rpcvalet_builder,
    "nebula": _nebula_builder,
    "nanopu": _nanopu_builder,
    "ac_rss": _ac_rss_builder,
}


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Regenerate Fig. 10 (seven-system latency-throughput curves).

    All 7 systems x 11 rates dispatch as one 77-point batch, so a
    parallel run keeps every worker busy across system boundaries.
    """
    from repro.analysis.ascii_plot import line_chart

    n_requests = scaled(150_000, scale, minimum=5_000)
    specs = [
        PointSpec(
            builder=ref(builder),
            service=SERVICE,
            rate_rps=r * 1e6,
            n_requests=n_requests,
            seed=seed,
            slo_ns=SLO_NS,
            tag=name,
        )
        for name, builder in _SYSTEMS.items()
        for r in RATES_MRPS
    ]
    results = run_points(specs, label="fig10")

    rows: List[List[object]] = []
    at_slo: Dict[str, float] = {}
    curves: Dict[str, list] = {}
    for name in _SYSTEMS:
        points = [
            SweepPoint(
                rate_rps=r.rate_rps,
                p99_ns=r.p99_ns,
                mean_ns=r.mean_ns,
                throughput_rps=r.throughput_rps,
                violation_ratio=r.violation_ratio or 0.0,
            )
            for r in results
            if r.tag == name
        ]
        at_slo[name] = throughput_at_slo(points, SLO_NS) / 1e6
        curves[name] = [
            (p.rate_rps / 1e6, max(p.p99_ns / 1000.0, 0.1)) for p in points
        ]
        for p in points:
            rows.append(
                [name, p.rate_rps / 1e6, p.p99_ns / 1000.0, p.violation_ratio]
            )
    notes = [
        line_chart(curves, title="p99 latency vs offered load",
                   x_label="offered MRPS", y_label="p99 us", log_y=True),
        "",
        "throughput@SLO (p99 < 300us), MRPS:",
    ]
    for name, mrps in sorted(at_slo.items(), key=lambda kv: kv[1]):
        notes.append(f"  {name:10s}: {mrps:6.2f}")
    if at_slo.get("zygos", 0) > 0:
        notes.append(
            f"AC_rss / ZygOS throughput ratio: "
            f"{at_slo['ac_rss'] / at_slo['zygos']:.1f}x (paper: 24.6x)"
        )
    if at_slo.get("shinjuku", 0) > 0 and at_slo.get("nebula", 0) > 0:
        notes.append(
            f"Nebula / Shinjuku ratio: "
            f"{at_slo['nebula'] / at_slo['shinjuku']:.1f}x (paper: 3.9-4.4x)"
        )
    return ExperimentResult(
        exp_id="fig10",
        title="p99 latency vs throughput, 16 cores, bimodal service",
        headers=["system", "offered_mrps", "p99_us", "violation_ratio"],
        rows=rows,
        notes="\n".join(notes),
        series={"throughput_at_slo_mrps": at_slo},
    )
