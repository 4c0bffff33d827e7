#!/usr/bin/env python3
"""An in-memory key-value store served by Altocumulus (the paper's
end-to-end scenario, Sec. IX).

Builds a MICA-like EREW store with one partition per manager group,
offers Zipf-skewed GET/SET traffic with a sliver of long SCANs over
bursty arrivals, and reports both the *scheduling* outcome (latency,
migrations) and the *application* outcome (store hit rates, ops).

Usage::

    python examples/kvs_server.py
"""

from repro.analysis.tables import format_table
from repro.api import run_workload
from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.experiments.common import real_world_arrivals
from repro.kvs import MicaServiceModel, MicaWorkload, build_dataset
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.service import Fixed


def main() -> None:
    n_groups, group_size = 4, 16
    dataset = build_dataset(n_partitions=n_groups, n_keys=10_000, seed=7)
    workload = MicaWorkload(
        dataset,
        MicaServiceModel.nanorpc(),
        n_groups=n_groups,
        get_fraction=0.5,
        scan_fraction=0.005,
        zipf_s=0.9,  # hot keys -> one hot EREW partition
        seed=7,
    )

    sim, streams = Simulator(), RandomStreams(7)
    config = AltocumulusConfig(
        n_groups=n_groups,
        group_size=group_size,
        variant="rss",
        dispatch_mode="hw",
        period_ns=100.0,
        bulk=40,
        concurrency=3,
        slo_multiplier=10.0,
    )
    system = AltocumulusSystem(sim, streams, config)
    system.execute = workload.execute

    result = run_workload(
        system,
        sim,
        streams,
        real_world_arrivals(100e6),  # 100 MRPS of bursty cloud traffic
        Fixed(100.0),  # placeholder; the factory sets per-op times
        n_requests=60_000,
        request_factory=workload.request_factory,
    )

    print(format_table(
        ["metric", "value"],
        [
            ["p50 latency (us)", result.latency.p50 / 1000.0],
            ["p99 latency (us)", result.latency.p99 / 1000.0],
            ["throughput (MRPS)", result.throughput_rps / 1e6],
            ["requests migrated", system.total_migrated()],
            ["EREW remote accesses", workload.remote_accesses],
            ["ops executed", workload.executed],
        ],
        title="Altocumulus serving MICA (64 cores, 4 groups)",
    ))

    rows = []
    for partition in dataset.store.partitions:
        s = partition.stats
        rows.append([partition.partition_id, s.gets, s.sets, s.scans,
                     f"{s.hit_rate:.3f}"])
    print()
    print(format_table(
        ["partition", "gets", "sets", "scans", "hit_rate"],
        rows,
        title="Per-partition store activity (note the hot partition)",
    ))


if __name__ == "__main__":
    main()
