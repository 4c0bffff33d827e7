"""Job-structured requests: scatter-gather fan-out and multi-core gangs.

Not a paper artifact -- the flagship experiment of the job model
(:mod:`repro.workload.jobs`).  Two panels:

* **Panel A -- fan-out vs steering.**  A rack runs scatter-gather jobs
  of width ``k`` in {1, 2, 4, 8} at constant *sub-request* load (the
  job rate shrinks as ``1/k``), across four sibling-routing policies.
  Connection-hash steering with shared sibling flows pins every scatter
  to one server -- a self-inflicted k-request incast whose job p99
  blows up with ``k`` (tail-at-scale: the job completes on its slowest
  sibling, and hash makes all siblings share one queue).  The spread
  policy statically stripes siblings across servers; shortest-wait
  finds the same mitigation dynamically.  The gap between hash and
  either mitigation *grows* with ``k`` -- the regression gate in
  tests/test_fanout_gate.py pins that separation.

* **Panel B -- gang admission and the zero-queueing boundary.**  A
  single c-FCFS server runs multi-core jobs of demand ``c`` in
  {1, 2, 4} over a sweep of *core* load (the job rate shrinks as
  ``1/c``, so every cell offers the same core-seconds).  Gang admission
  holds a demand-``c`` job at the queue head until ``c`` cores are
  simultaneously idle, so the admission wait is driven by the
  idle-coincidence probability: at low core load every demand admits
  with near-zero wait (the zero-queueing regime of "Zero Queueing for
  Multi-Server Jobs"), while past a demand-dependent load boundary the
  head-of-line gang blocks the whole queue and waits diverge -- wider
  gangs cross the boundary at *lower* core load.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.common import ExperimentResult, scaled
from repro.experiments.fig_rack import rack_builder
from repro.runner import PointResult, PointSpec, ref, run_points
from repro.schedulers.jbsq import ideal_cfcfs
from repro.workload.jobs import FixedDegree, JobShape
from repro.workload.service import Exponential

#: Panel A rack shape: small servers make the k-wide incast visible at
#: moderate fan-out (k=8 saturates one 8-core server's worth of queue).
N_SERVERS = 4
CORES_PER_SERVER = 8
SERVICE_NS = 1000.0

#: Sub-request load for panel A, as a fraction of aggregate capacity.
#: 0.65 puts the hash incast well past the knee (the hash-vs-mitigated
#: p99 gap grows monotonically with k) while the mitigated policies
#: stay comfortably stable.
FANOUT_LOAD_FRACTION = 0.65

#: Scatter widths swept in panel A.
FANOUTS: Tuple[int, ...] = (1, 2, 4, 8)

#: Sibling-routing policies compared in panel A.
FANOUT_POLICIES: Tuple[str, ...] = ("hash", "sticky", "spread",
                                    "shortest_wait")

#: Panel B server shape and sweep: gang demands x core-load fractions.
GANG_CORES = 8
GANG_DEMANDS: Tuple[int, ...] = (1, 2, 4)
GANG_LOADS: Tuple[float, ...] = (0.3, 0.5, 0.7, 0.85)


def gang_builder(sim, streams, n_cores: int = GANG_CORES):
    """Module-level (picklable) single-server gang-capable builder."""
    return ideal_cfcfs(sim, streams, n_cores)


def gang_admission_metrics(result) -> Dict[str, float]:
    """Admission wait of measured sub-requests: enqueue to dispatch.

    For a gang this is exactly the time the job spent at the queue head
    (plus its queueing behind earlier work) waiting for ``c`` cores to
    coincide idle -- the quantity whose collapse defines the
    zero-queueing regime.
    """
    waits = [
        r.started - r.enqueued
        for r in result.requests
        if r.started is not None and r.enqueued is not None
    ]
    if not waits:
        return {"mean_wait_ns": float("nan"), "p99_wait_ns": float("nan")}
    return {
        "mean_wait_ns": float(np.mean(waits)),
        "p99_wait_ns": float(np.percentile(waits, 99.0)),
    }


def _fanout_specs(
    base_jobs: int, seed: int
) -> List[Tuple[str, int, PointSpec]]:
    """One spec per (policy x k), constant sub-request load."""
    capacity = N_SERVERS * CORES_PER_SERVER / SERVICE_NS * 1e9
    sub_rate = FANOUT_LOAD_FRACTION * capacity
    specs: List[Tuple[str, int, PointSpec]] = []
    for policy in FANOUT_POLICIES:
        for k in FANOUTS:
            n_jobs = max(1_000, base_jobs // k)
            specs.append((
                policy,
                k,
                PointSpec(
                    builder=ref(rack_builder, n_servers=N_SERVERS,
                                cores_per_server=CORES_PER_SERVER,
                                policy=policy),
                    service=Exponential(SERVICE_NS),
                    rate_rps=sub_rate / k,
                    n_requests=n_jobs,
                    seed=seed,
                    jobs=JobShape(fanout=FixedDegree(k),
                                  sibling_connections="shared"),
                    tag=f"fanout:{policy}:k{k}",
                ),
            ))
    return specs


def _gang_specs(
    base_jobs: int, seed: int
) -> List[Tuple[int, float, PointSpec]]:
    """One spec per (demand x core load), constant offered core-seconds."""
    specs: List[Tuple[int, float, PointSpec]] = []
    for demand in GANG_DEMANDS:
        for load in GANG_LOADS:
            job_rate = load * GANG_CORES / (SERVICE_NS * demand) * 1e9
            n_jobs = max(1_000, base_jobs // demand)
            specs.append((
                demand,
                load,
                PointSpec(
                    builder=ref(gang_builder, n_cores=GANG_CORES),
                    service=Exponential(SERVICE_NS),
                    rate_rps=job_rate,
                    n_requests=n_jobs,
                    seed=seed,
                    metrics=ref(gang_admission_metrics),
                    jobs=JobShape(core_demand=FixedDegree(demand)),
                    tag=f"gang:c{demand}:rho{load}",
                ),
            ))
    return specs


def _outcome(point: PointResult) -> List[int]:
    """``[completed, dropped]`` jobs of one point.  A k=1 or c=1 point
    compiles down to the flat path (no ``job.*`` instruments), where a
    1-wide job's outcome is its request's -- counted over every request,
    like ``job.*``, not just the measured post-warm-up ones."""
    instruments = point.instruments
    return [
        int(instruments.get("job.completed", instruments["system.completed"])),
        int(instruments.get("job.dropped", point.dropped)),
    ]


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Regenerate the fan-out / gang-admission comparison."""
    fanout = _fanout_specs(scaled(16_000, scale), seed)
    gang = _gang_specs(scaled(12_000, scale), seed)
    results = run_points(
        [spec for _, _, spec in fanout] + [spec for _, _, spec in gang],
        label="fig_fanout",
    )
    fanout_results = results[:len(fanout)]
    gang_results = results[len(fanout):]

    rows: List[List[object]] = []
    series: Dict[str, List[Optional[float]]] = {}
    for (policy, k, spec), point in zip(fanout, fanout_results):
        # k=1 compiles down to the flat request path (no job.* instruments
        # by contract); a 1-wide job's latency IS its request's latency.
        job_p99 = point.instruments.get("job.p99_ns", point.latency.p99)
        job_mean = point.instruments.get("job.mean_ns", point.latency.mean)
        series.setdefault(f"fanout:{policy}", []).append(job_p99 / 1000.0)
        rows.append([
            "fanout",
            policy,
            k,
            round(job_p99 / 1000.0, 2),
            round(job_mean / 1000.0, 2),
            *_outcome(point),
        ])
    for (demand, load, spec), point in zip(gang, gang_results):
        wait = point.metrics.get("mean_wait_ns")
        series.setdefault(f"gang:c{demand}", []).append(
            None if wait is None or wait != wait else wait / 1000.0
        )
        rows.append([
            "gang",
            f"c={demand}",
            load,
            round(point.instruments.get("job.p99_ns", point.latency.p99)
                  / 1000.0, 2),
            "-" if wait is None or wait != wait
            else round(wait / 1000.0, 3),
            *_outcome(point),
        ])
    return ExperimentResult(
        exp_id="fig_fanout",
        title="scatter-gather fan-out and multi-core gang admission",
        headers=["panel", "cell", "k_or_load", "job_p99_us",
                 "mean_us_or_wait", "completed", "dropped"],
        rows=rows,
        notes=(
            f"Panel A (fanout): {N_SERVERS}x{CORES_PER_SERVER}-core rack "
            f"at {FANOUT_LOAD_FRACTION:.0%} sub-request load; jobs "
            "scatter k shared-flow siblings and complete on the last "
            "response.\nHash steering pins each scatter to one server "
            "(incast: job p99 blows up with k); spread stripes siblings "
            "statically and shortest-wait dynamically -- the hash gap "
            "grows with k.\n"
            f"Panel B (gang): one {GANG_CORES}-core c-FCFS server; "
            "demand-c jobs hold the queue head until c cores are idle "
            "at once.  mean_us_or_wait is the mean admission wait -- "
            "near zero in the low-load zero-queueing regime, diverging "
            "past a boundary that wider gangs hit at lower core load."
        ),
        series=series,
    )
