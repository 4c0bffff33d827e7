"""One benchmark run: build a workload, time ``run_workload``, read its
public results, and check them.

A run returns a plain record and keeps nothing of the simulation alive:
the system, its result and every cycle between them are collected before
:func:`run_once` returns, so one run's garbage cannot slow the next.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import pstats
import time
import tracemalloc
from statistics import median
from typing import Any, Dict, List, Optional

from repro.api import run_workload
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals

from reference import reference_s
from workloads import Workload

#: Warm-up runs before the memory pass, which runs in a fresh process.
#: tracemalloc counts only objects allocated while it traces, so the peak
#: depends on what earlier runs in the process left allocated: in one
#: process, successive identical server runs peaked at 9.19, 7.47, then
#: 8.03 MiB, dropping back to 7.47 every few runs.  After two warm-ups in
#: a fresh process it read 8.03 MiB on every seed from 1 to 10.
MEMORY_WARMUPS = 2

#: A benchmark point must be a steady state, not a transient: the server
#: keeps up with the offered load, and latency does not drift upward.
#: Drift compares medians: a growing backlog moves the median, while the
#: mean jumps with every rare 50 us SCAN on the kvs workload.
MIN_ACHIEVED_OVER_OFFERED = 0.95
MAX_LATENCY_DRIFT = 1.5


def run_once(workload: Workload, seed: int, scale: float,
             mode: Optional[str] = None) -> Dict[str, Any]:
    """Run ``workload`` once and return its record.

    ``mode`` is ``None`` for a timed run, which also times the reference
    loop just before and after it (``ref_s``, their mean); ``"mem"`` to
    record the ``tracemalloc`` peak across ``run_workload``
    (``peak_bytes``); or ``"trace"`` to profile it (``profile``, a
    :class:`pstats.Stats`).
    """
    record = _run(workload, seed, scale, mode)
    gc.collect()  # _run's frame, holding the system and result, is gone
    return record


def memory_run(workload: Workload, seed: int, scale: float) -> Dict[str, Any]:
    """The memory pass; call it in a fresh process (``python3
    bench/measure.py NAME SEED SCALE`` prints its record as JSON)."""
    for _ in range(MEMORY_WARMUPS):
        run_once(workload, seed, scale)
    return run_once(workload, seed, scale, "mem")


def _run(workload: Workload, seed: int, scale: float,
         mode: Optional[str]) -> Dict[str, Any]:
    n = max(1, round(workload.n * scale))
    sim = Simulator()
    streams = RandomStreams(seed)
    start = time.perf_counter()
    system, options = workload.build(sim, streams, n)
    build_s = time.perf_counter() - start
    arrivals = PoissonArrivals(workload.rate_rps)
    gc.collect()
    record: Dict[str, Any] = {"build_s": build_s}
    profiler = cProfile.Profile() if mode == "trace" else None
    if mode is None:
        ref_before = reference_s()
    elif mode == "mem":
        tracemalloc.start()
    elif profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    result = run_workload(system, sim, streams, arrivals, workload.service,
                          n, **options)
    record["host_s"] = time.perf_counter() - start
    if mode is None:
        record["ref_s"] = (ref_before + reference_s()) / 2
    elif mode == "mem":
        record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    elif profiler is not None:
        profiler.disable()
        record["profile"] = pstats.Stats(profiler)
    record.update(observe(result, n))
    return record


def fingerprint(requests) -> str:
    """SHA-256 over every measured request's record, with the fields and
    float formatting of the repository's determinism goldens."""
    hasher = hashlib.sha256()
    for r in requests:
        hasher.update(json.dumps((
            r.req_id, repr(r.arrival), repr(r.enqueued), repr(r.started),
            repr(r.finished), r.migrations, r.steals, r.core_id, r.group_id,
        )).encode())
    return hasher.hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _total(metrics: Dict[str, Any], name: str) -> float:
    """Sum of instrument ``name`` over every component that has it
    (``noc.messages``, ``srv0.noc.messages``, ...)."""
    return sum(v for k, v in metrics.items()
               if k == name or k.endswith("." + name))


def observe(result, n: int) -> Dict[str, Any]:
    """Outcome counts, stability, fingerprint and simulated work counts,
    all read from the run's public results."""
    system = result.system
    stats = system.stats
    metrics = result.metrics
    jobs = result.jobs
    if jobs is not None:
        attempted, completed, failed = jobs.count, jobs.completed, jobs.dropped
    else:
        attempted, completed, failed = n, stats.completed, stats.dropped
    measured = result.requests  # completed, past warm-up, in arrival order
    latencies = [r.finished - r.arrival for r in measured]
    half = len(latencies) // 2
    # Achieved over offered throughput, both taken over the arrival
    # window: the share of requests arriving in it that also complete in
    # it.  Unlike completions over the whole span, it ignores the drain
    # tail after the last arrival, so short runs are not penalised.
    last_arrival = measured[-1].arrival if measured else 0.0
    offered = stats.offered
    steal_attempts = getattr(system, "steal_attempts", 0)
    injected = metrics.get("client.retry.injected", 0)
    work = {
        "sim.events_per_req": _ratio(metrics["sim.events_processed"], offered),
        "hw.noc_msgs_per_req": _ratio(_total(metrics, "noc.messages"), offered),
        "core.migrations_per_req": _ratio(
            sum(r.migrations for r in measured), len(measured)),
        "schedulers.probes_per_req": _ratio(steal_attempts, offered),
        "schedulers.steal_hit_ratio": _ratio(
            getattr(system, "steal_hits", 0), steal_attempts),
        "cluster.switch_wait_ns_mean": _ratio(
            _total(metrics, "cluster.switch.queue_wait_ns"),
            _total(metrics, "cluster.switch.forwarded")),
        "datacenter.spine_wait_ns_mean": _ratio(
            metrics.get("datacenter.spine.queue_wait_ns", 0),
            metrics.get("datacenter.spine.forwarded", 0)),
        "kvs.admission_wait_ns_mean": _ratio(
            metrics.get("kvs.ownership.wait_ns", 0),
            metrics.get("kvs.ownership.admissions", 0)),
        "kvs.stale_read_ratio": _ratio(
            metrics.get("kvs.ownership.stale_reads", 0),
            metrics.get("kvs.ownership.mv_reads", 0)),
        "faults.attempts_per_req": _ratio(
            injected + metrics.get("client.retry.retries", 0), injected),
        "control.actuations": metrics.get("control.actuations", 0),
        "workload.subreq_per_job": (
            _ratio(jobs.subrequests, jobs.count) if jobs is not None else 0.0),
    }
    return {
        "offered": offered,
        "attempted": attempted,
        "completed": completed,
        "failed": failed,
        "achieved_over_offered": _ratio(
            sum(r.finished <= last_arrival for r in measured), len(measured)),
        "latency_drift": _ratio(median(latencies[half:]), median(latencies[:half]))
        if half else 0.0,
        "fingerprint": fingerprint(measured),
        "work": work,
    }


def check(name: str, record: Dict[str, Any]) -> List[str]:
    """The output checks one run must pass; returns what failed."""
    problems = []
    if record["completed"] + record["failed"] != record["attempted"]:
        problems.append(
            f"{name}: conservation: completed {record['completed']} + failed "
            f"{record['failed']} != attempted {record['attempted']}")
    if record["achieved_over_offered"] < MIN_ACHIEVED_OVER_OFFERED:
        problems.append(
            f"{name}: unstable: achieved/offered "
            f"{record['achieved_over_offered']:.4f} < {MIN_ACHIEVED_OVER_OFFERED}")
    if not 0 < record["latency_drift"] <= MAX_LATENCY_DRIFT:
        problems.append(
            f"{name}: unstable: second-half/first-half median latency "
            f"{record['latency_drift']:.3f} not in (0, {MAX_LATENCY_DRIFT}]")
    return problems


if __name__ == "__main__":
    import sys

    from workloads import WORKLOADS

    name, seed, scale = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    print(json.dumps(memory_run(WORKLOADS[name], seed, scale)))
