"""Fig. 3 -- Why RPC scheduling matters now: p99 latency vs offered load
for per-request scheduling overheads of 5-360 ns on a 64-core system.

The paper's motivational study: with sub-microsecond RPCs, even tens of
nanoseconds of per-request scheduling overhead cost a large fraction of
sustainable load at a fixed tail-latency target (5 us p99).  45 ns is
one memory access; 360 ns is one software work-steal [54].

Substrate: ideal c-FCFS (the paper combines all layers' overheads into
one number), fixed 200 ns service so the sub-1 us regime is exercised,
overhead charged as per-request startup on the assigned core.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, best_at_slo, scaled
from repro.runner import PointSpec, ref, run_points
from repro.schedulers.jbsq import ideal_cfcfs
from repro.workload.service import Fixed

N_CORES = 64
SERVICE_NS = 200.0
SLO_P99_NS = 5_000.0
OVERHEADS_NS = [5.0, 45.0, 90.0, 135.0, 180.0, 360.0]
LOADS = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]


def _builder(sim, streams, overhead_ns: float = 0.0):
    return ideal_cfcfs(sim, streams, N_CORES, startup_overhead_ns=overhead_ns)


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Regenerate Fig. 3 (p99 vs load across scheduling overheads)."""
    n_requests = scaled(30_000, scale)
    base_capacity_rps = N_CORES / SERVICE_NS * 1e9
    grid = [(overhead, load) for overhead in OVERHEADS_NS for load in LOADS]
    specs = [
        PointSpec(
            builder=ref(_builder, overhead_ns=overhead),
            service=Fixed(SERVICE_NS),
            rate_rps=load * base_capacity_rps,
            n_requests=n_requests,
            seed=seed,
            slo_ns=SLO_P99_NS,
            tag=f"overhead={overhead:.0f}ns",
        )
        for overhead, load in grid
    ]
    results = run_points(specs, label="fig03")
    rows = [
        [overhead, load, result.latency.p99 / 1000.0]
        for (overhead, load), result in zip(grid, results)
    ]
    tput_at_slo = {}
    for i, overhead in enumerate(OVERHEADS_NS):
        curve = results[i * len(LOADS):(i + 1) * len(LOADS)]
        best = best_at_slo(curve, SLO_P99_NS)
        tput_at_slo[overhead] = (
            LOADS[curve.index(best)] if best is not None else 0.0
        )
    ratio = (
        tput_at_slo[OVERHEADS_NS[0]] / tput_at_slo[OVERHEADS_NS[-1]]
        if tput_at_slo[OVERHEADS_NS[-1]] > 0
        else float("inf")
    )
    notes_lines = ["Sustainable load at p99 <= 5us, by scheduling overhead:"]
    for overhead in OVERHEADS_NS:
        notes_lines.append(f"  {overhead:6.0f} ns -> load {tput_at_slo[overhead]:.2f}")
    notes_lines.append(
        f"Throughput gain of 5ns vs 360ns overhead: {ratio:.2f}x "
        "(paper reports ~3x)."
    )
    return ExperimentResult(
        exp_id="fig03",
        title="p99 vs offered load for scheduling overheads 5-360ns (64 cores)",
        headers=["overhead_ns", "offered_load", "p99_us"],
        rows=rows,
        notes="\n".join(notes_lines),
        series={"throughput_at_slo": tput_at_slo},
    )
