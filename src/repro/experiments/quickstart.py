"""Quickstart: one small Altocumulus run with its telemetry surfaced.

Not a paper artifact -- this is the smoke-test experiment the telemetry
layer is demonstrated on::

    altocumulus-exp quickstart --trace trace.json --metrics-out m.json

It drives a single 32-core Altocumulus server at moderate load and
reports the headline instruments from the system's metric registry.
The run is one :class:`~repro.runner.PointSpec`, so ``--faults``,
``--controller`` and the cache apply to it like to any sweep.  Because
``--trace`` forces in-process execution, the capture context sees
every request lifecycle, so the exported Chrome trace contains the
full per-request span chain (nic_delivery -> netrx_queue -> dispatch
-> worker_queue -> service -> completed) plus NoC message spans.
"""

from __future__ import annotations

from typing import List

from repro.api import build_system
from repro.experiments.common import ExperimentResult, scaled
from repro.runner import PointSpec, ref, run_points
from repro.workload.service import Exponential

#: The run shape: one tuned server, ~50% of saturation, 1us mean service.
N_CORES = 32
RATE_RPS = 12e6
MEAN_SERVICE_NS = 1000.0

#: Registry instruments surfaced in the table (missing ones are skipped,
#: so the table stays valid if a subsystem is reconfigured away).
HEADLINE_INSTRUMENTS = (
    "system.offered",
    "system.completed",
    "system.dropped",
    "system.scheduling_ops",
    "sched.descriptors_received",
    "sched.sw_migrate_descriptors",
    "sched.predicted_unique",
    "noc.messages",
    "noc.bytes",
    "nic.delivered",
)


def _build_server(sim, streams):
    """The quickstart server: the registry's tuned Altocumulus preset."""
    return build_system("altocumulus", sim, streams, N_CORES)


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Run the quickstart workload and tabulate its telemetry."""
    n_requests = scaled(20_000, scale)
    spec = PointSpec(
        builder=ref(_build_server),
        service=Exponential(MEAN_SERVICE_NS),
        rate_rps=RATE_RPS,
        n_requests=n_requests,
        seed=seed,
    )
    (result,) = run_points([spec], label="quickstart")
    rows: List[List[object]] = [
        ["latency.p50_us", round(result.latency.p50 / 1000.0, 3)],
        ["latency.p99_us", round(result.latency.p99 / 1000.0, 3)],
        ["throughput_mrps", round(result.throughput_rps / 1e6, 3)],
        ["utilization", round(result.utilization, 3)],
    ]
    for name in HEADLINE_INSTRUMENTS:
        if name in result.instruments:
            rows.append([name, result.instruments[name]])
    return ExperimentResult(
        exp_id="quickstart",
        title="telemetry smoke run (1 server, 32 cores)",
        headers=["metric", "value"],
        rows=rows,
        notes=(
            f"One Altocumulus server, {N_CORES} cores, Poisson "
            f"{RATE_RPS / 1e6:.0f} MRPS, exponential "
            f"{MEAN_SERVICE_NS:.0f}ns service, {n_requests} requests.\n"
            "Run with --trace PATH to export a Chrome-loadable request "
            "trace,\nand --metrics-out PATH for the full registry "
            "snapshot as JSON."
        ),
        series={"metrics": dict(result.instruments)},
    )
