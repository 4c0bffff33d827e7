#!/usr/bin/env python3
"""Rack-scale tour: one ToR switch, four servers, four steering policies.

Builds a rack of d-FCFS (RSS) servers behind the cluster tier's
top-of-rack switch and drives the same Zipf-skewed flow mix through each
inter-server steering policy.  The point of the exercise: with hot
flows, *where* a request lands in the rack dominates the tail long
before per-server scheduling does -- connection hashing pins the hot
flows to one server and its p99 explodes, while the load-aware policies
(power-of-2 choices, RackSched-style shortest expected wait) hold the
rack near its aggregate capacity.

Usage::

    python examples/rack_scale.py
"""

from repro.analysis.tables import format_table
from repro.api import run_workload
from repro.cluster import FabricConfig, build_fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.connections import ConnectionPool
from repro.workload.service import Exponential


def main() -> None:
    n_servers = 4
    cores_per_server = 4
    mean_service_ns = 1_000.0
    rate_rps = 12e6  # 75% of the rack's 16 MRPS aggregate capacity

    rows = []
    for policy in ("hash", "round_robin", "power_of_d", "shortest_wait"):
        sim = Simulator()
        streams = RandomStreams(3)
        rack = build_fabric(
            sim, streams,
            FabricConfig.rack(
                n_servers=n_servers,
                cores_per_server=cores_per_server,
                system="rss",
                policy=policy,
            ),
        )
        result = run_workload(
            rack, sim, streams,
            arrivals=PoissonArrivals(rate_rps),
            service=Exponential(mean_service_ns),
            n_requests=6_000,
            connections=ConnectionPool.skewed(512, zipf_s=1.2),
        )
        rows.append([
            policy,
            result.latency.p50 / 1000.0,
            result.latency.p99 / 1000.0,
            result.throughput_rps / 1e6,
            result.metrics["cluster.imbalance_index"],
        ])

    print(
        format_table(
            ["steering", "p50_us", "p99_us", "throughput_mrps", "imbalance"],
            rows,
            title=f"{n_servers}x{cores_per_server}-core rack, "
            f"{rate_rps / 1e6:.0f} MRPS offered, Zipf-skewed flows",
        )
    )
    print(
        "\nReading the table: imbalance is max/mean of per-server\n"
        "completions (1.0 = even).  Flow hashing concentrates the hot\n"
        "flows on one server, so its queue -- and the rack's p99 -- blows\n"
        "up while the other servers idle.  Round-robin evens out request\n"
        "counts but still ignores queue-depth skew from service-time\n"
        "variance.  The load-aware policies (power-of-2 sampled queues,\n"
        "periodically sampled shortest expected wait) keep every server\n"
        "busy and the tail an order of magnitude lower at the same load."
    )


if __name__ == "__main__":
    main()
