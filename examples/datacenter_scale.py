#!/usr/bin/env python3
"""Datacenter tour: a spine-leaf fabric serving multi-tenant traffic.

Builds a 4-rack fabric of Altocumulus servers (each rack internally
steered by power-of-2 choices) behind a spine switch and drives a
three-tenant mix through each inter-rack steering policy.  The hot
tenant keeps few connections at high Zipf skew and arrives as a
drifting burst (diurnal MMPP) superposed on Poisson background
tenants -- production-shaped load, not a uniform stream.

The rack tier's lesson repeats one level up: flow hashing pins the hot
tenant's connections to whichever racks they hash to, so those racks
saturate -- and the hot tenant misses its SLO -- while neighbouring
racks idle.  The load-aware inter-rack policies hold every tenant near
full attainment at the same offered load.

Usage::

    python examples/datacenter_scale.py
"""

from repro.analysis.tables import format_table
from repro.api import run_workload
from repro.cluster import FabricConfig, build_fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import DriftingMMPPArrivals, PoissonArrivals
from repro.workload.service import Exponential
from repro.workload.tenants import (
    SuperposedArrivals,
    TenantClass,
    TenantConnectionPool,
    TenantMix,
)

TENANTS = (
    TenantClass("hot", share=0.5, slo_ns=10_000.0, zipf_s=1.3,
                n_connections=64),
    TenantClass("cache", share=0.3, slo_ns=10_000.0, zipf_s=1.1,
                n_connections=4096),
    TenantClass("batch", share=0.2, slo_ns=50_000.0, n_connections=4096),
)


def main() -> None:
    n_racks = 4
    n_servers = 4
    cores_per_server = 4
    mean_service_ns = 1_000.0
    rate_rps = 44.8e6  # 70% of the fabric's 64 MRPS aggregate capacity

    mix = TenantMix(TENANTS)
    rows = []
    for policy in ("hash", "power_of_d", "shortest_wait"):
        sim = Simulator()
        streams = RandomStreams(3)
        dc = build_fabric(
            sim, streams,
            FabricConfig.datacenter(
                n_racks=n_racks,
                rack=FabricConfig.rack(
                    n_servers=n_servers,
                    cores_per_server=cores_per_server,
                    system="altocumulus",
                    policy="power_of_d",
                ),
                policy=policy,
                tenants=TENANTS,
            ),
        )
        # The hot tenant bursts (drifting MMPP); the rest are Poisson.
        arrivals = SuperposedArrivals([
            DriftingMMPPArrivals(
                TENANTS[0].share * rate_rps, burst_factor=4.0,
                period_ns=2e5, amplitude=0.3,
            ),
            PoissonArrivals(TENANTS[1].share * rate_rps),
            PoissonArrivals(TENANTS[2].share * rate_rps),
        ])
        result = run_workload(
            dc, sim, streams,
            arrivals=arrivals,
            service=Exponential(mean_service_ns),
            n_requests=8_000,
            connections=TenantConnectionPool(mix),
        )
        rows.append([
            policy,
            result.latency.p50 / 1000.0,
            result.latency.p99 / 1000.0,
            result.metrics["datacenter.imbalance_index"],
            " ".join(
                f"{name}={result.metrics[f'tenant.{name}.attainment']:.3f}"
                for name in mix.names
            ),
        ])

    print(
        format_table(
            ["steering", "p50_us", "p99_us", "rack_imbalance",
             "slo_attainment"],
            rows,
            title=f"{n_racks}x{n_servers}x{cores_per_server}-core fabric, "
            f"{rate_rps / 1e6:.0f} MRPS offered, 3-tenant mix",
        )
    )
    print(
        "\nReading the table: rack_imbalance is max/mean of per-rack\n"
        "completions (1.0 = even).  Inter-rack flow hashing pins the hot\n"
        "tenant's few connections to whichever racks they hash to, so\n"
        "those racks saturate and the hot tenant's SLO attainment drops,\n"
        "even though every rack steers internally with power-of-2.  The\n"
        "load-aware inter-rack policies even out the racks and hold every\n"
        "tenant near full attainment at the same offered load."
    )


if __name__ == "__main__":
    main()
