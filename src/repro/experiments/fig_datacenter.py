"""Datacenter-scale steering study: inter-rack policy x tenant skew.

Not a paper artifact -- the fabric-tier experiment that grows the
reproduction from one rack to a spine-leaf datacenter.  R racks of
Altocumulus servers (each internally steered by power-of-2, the rack
tier's winner) sit behind a spine switch and an *inter-rack* steering
policy; traffic is a multi-tenant mix (:mod:`repro.workload.tenants`)
whose hot tenant concentrates its load on a few hot flows.

The sweep asks RackSched's question one level up: given a well-steered
rack, how much *datacenter* tail does the inter-rack layer leave on the
table?  Expected shape:

* ``hash`` (ECMP-style flow hashing across racks) pins the hot tenant's
  flows to whichever racks they hash to; those racks saturate while
  their neighbours idle, so the fabric p99 and the hot tenant's SLO
  attainment fall apart under skew -- even though every rack is
  internally load-aware.
* ``power_of_2`` (two sampled racks per decision) and ``shortest_wait``
  (RackSched-style periodic rack samples) close the imbalance per-rack
  policies cannot see, holding p99 near the one-rack baseline and every
  tenant near full attainment.
* Under a uniform tenant mix all policies look alike -- cross-rack
  steering only pays when tenancy is skewed, which is the point.

Every (policy, mix) cell is one :class:`~repro.runner.PointSpec` routed
through :mod:`repro.runner`, so the sweep fans out over ``--jobs``
workers, caches per point, and is bit-identical serial vs parallel.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.fabric import FabricConfig, build_fabric
from repro.experiments.common import ExperimentResult, scaled
from repro.runner import PointSpec, ref, run_points
from repro.workload.service import Exponential
from repro.workload.tenants import (
    TenantClass,
    TenantConnectionPool,
    TenantMix,
)

#: Mean per-request service time (the quickstart's 1 us RPC handlers).
SERVICE_NS = 1_000.0

#: Fabric shape: R racks x S servers x C cores (Altocumulus inside,
#: power-of-2 across servers -- the rack tier's winner -- so any tail
#: left over is the inter-rack layer's responsibility).
N_RACKS = 4
N_SERVERS = 4
CORES_PER_SERVER = 8

#: Offered load as a fraction of aggregate fabric capacity.
LOAD_FRACTION = 0.7

#: Inter-rack steering policies compared.
POLICIES: Tuple[Tuple[str, dict], ...] = (
    ("hash", {"policy": "hash"}),
    ("power_of_2", {"policy": "power_of_d", "d": 2}),
    ("shortest_wait", {"policy": "shortest_wait"}),
)

#: Tenant mixes swept.  Shares sum to 1; ``slo_ns`` is each tenant's
#: latency target.  The skewed mix concentrates a dominant tenant on few
#: connections at high Zipf skew, so flow hashing pins most of the
#: fabric's load onto the racks its hot flows map to.
TENANT_MIXES: Dict[str, Tuple[TenantClass, ...]] = {
    "uniform": (
        TenantClass("web", 0.34, slo_ns=10 * SERVICE_NS, n_connections=4096),
        TenantClass("cache", 0.33, slo_ns=10 * SERVICE_NS, n_connections=4096),
        TenantClass("batch", 0.33, slo_ns=50 * SERVICE_NS, n_connections=4096),
    ),
    "skewed": (
        TenantClass("hot", 0.6, slo_ns=10 * SERVICE_NS, zipf_s=1.3,
                    n_connections=64),
        TenantClass("cache", 0.25, slo_ns=10 * SERVICE_NS, zipf_s=1.1,
                    n_connections=4096),
        TenantClass("batch", 0.15, slo_ns=50 * SERVICE_NS, n_connections=4096),
    ),
}


def datacenter_builder(
    sim,
    streams,
    mix: str = "skewed",
    policy: str = "shortest_wait",
    d: int = 2,
    n_racks: int = N_RACKS,
    n_servers: int = N_SERVERS,
    cores_per_server: int = CORES_PER_SERVER,
):
    """Module-level (picklable) datacenter builder for sweep workers."""
    return build_fabric(
        sim,
        streams,
        FabricConfig.datacenter(
            n_racks=n_racks,
            rack=FabricConfig.rack(
                n_servers=n_servers,
                cores_per_server=cores_per_server,
                system="altocumulus",
                policy="power_of_d",
                d=2,
            ),
            policy=policy,
            d=d,
            tenants=TENANT_MIXES[mix],
        ),
    )


def tenant_pool(mix: str = "skewed") -> TenantConnectionPool:
    """The tenant-partitioned connection mix every sweep point shares."""
    return TenantConnectionPool(TenantMix(TENANT_MIXES[mix]))


def _specs(n_requests: int, seed: int) -> List[PointSpec]:
    capacity = N_RACKS * N_SERVERS * CORES_PER_SERVER / SERVICE_NS * 1e9
    specs: List[PointSpec] = []
    for mix in TENANT_MIXES:
        for name, polkw in POLICIES:
            specs.append(
                PointSpec(
                    builder=ref(datacenter_builder, mix=mix, **polkw),
                    service=Exponential(SERVICE_NS),
                    rate_rps=LOAD_FRACTION * capacity,
                    n_requests=n_requests,
                    seed=seed,
                    connections=ref(tenant_pool, mix=mix),
                    slo_ns=10 * SERVICE_NS,
                    tag=f"datacenter:{mix}:{name}",
                )
            )
    return specs


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Regenerate the inter-rack steering x tenant skew comparison."""
    n_requests = scaled(30_000, scale)
    specs = _specs(n_requests, seed)
    results = run_points(specs, label="fig_datacenter")

    rows: List[List[object]] = []
    series: dict = {}
    cursor = 0
    for mix in TENANT_MIXES:
        tenant_names = [t.name for t in TENANT_MIXES[mix]]
        for name, _polkw in POLICIES:
            point = results[cursor]
            cursor += 1
            attain = [
                point.instruments[f"tenant.{t}.attainment"]
                for t in tenant_names
            ]
            rows.append([
                mix,
                name,
                round(point.p99_ns / 1000.0, 2),
                round(point.mean_ns / 1000.0, 2),
                round(point.throughput_rps / 1e6, 2),
                round(point.instruments["datacenter.imbalance_index"], 3),
                " ".join(
                    f"{t}={a:.3f}" for t, a in zip(tenant_names, attain)
                ),
                point.dropped,
            ])
            series[f"{mix}:{name}"] = [point.p99_ns / 1000.0]
    return ExperimentResult(
        exp_id="fig_datacenter",
        title="datacenter-scale inter-rack steering (multi-tenant skew)",
        headers=["mix", "policy", "p99_us", "mean_us", "thr_mrps",
                 "rack_imbalance", "slo_attainment", "dropped"],
        rows=rows,
        notes=(
            f"{N_RACKS} racks x {N_SERVERS} Altocumulus servers x "
            f"{CORES_PER_SERVER} cores behind a spine switch at "
            f"{LOAD_FRACTION:.0%} load,\nexponential 1 us service; racks "
            "internally steer with power-of-2.\nrack_imbalance = max/mean "
            "of per-rack completions (1.0 = even).\nExpect inter-rack hash "
            "to blow up p99 and the hot tenant's attainment\nunder the "
            "skewed mix (hot flows pin to few racks), while power-of-2\n"
            "and shortest-wait hold both; under the uniform mix the "
            "policies tie."
        ),
        series=series,
    )
