"""Serial-vs-sharded equivalence battery.

The conservative parallel-in-time coordinator
(:mod:`repro.datacenter.sharded`) claims **bit-identical** results to
the serial engine -- not statistically close, identical.  This battery
runs one fixed datacenter workload serially and through every sharded
configuration that matters (1/2/3/4 shards, in-process and process
transports, fault-free, faulted, and multi-tenant) and compares:

* per-request fingerprints (every timestamp, placement and counter on
  every measured request, ``repr``-exact floats);
* run scalars (sim time, throughput, utilization, drops, ``extra``);
* the full telemetry snapshot, minus engine-internal ``sim.*``
  instruments (each shard legitimately runs its own heap) and the
  sharded tier's own ``shard.*`` overhead counters.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.api import run_workload
from repro.cluster.fabric import FabricConfig, build_fabric
from repro.datacenter.sharded import build_sharded_topology
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.sharded import ShardedSimulator
from repro.workload.arrivals import PoissonArrivals
from repro.workload.service import Exponential
from repro.workload.tenants import (
    TenantClass,
    TenantConnectionPool,
    TenantMix,
)

#: 4 racks x 2 servers x 4 cores = 32 cores at ~70% load.
N_RACKS = 4
SERVICE_NS = 1000.0
RATE_RPS = 0.7 * 32 / SERVICE_NS * 1e9
N_REQUESTS = 1500
SEED = 11

TENANTS = (
    TenantClass("web", 0.5, slo_ns=10 * SERVICE_NS, n_connections=64),
    TenantClass("batch", 0.5, slo_ns=50 * SERVICE_NS, n_connections=256),
)

#: Datacenter-applicable fault kinds (targets are racks), overlapping so
#: ship-time admission, live spine faults and retries all interact.
FAULT_PLAN = FaultPlan(
    events=(
        FaultEvent(time_ns=8_000.0, kind="server_crash", target=1,
                   duration_ns=25_000.0),
        FaultEvent(time_ns=12_000.0, kind="nic_drop", target=0,
                   magnitude=0.3, duration_ns=25_000.0),
        FaultEvent(time_ns=18_000.0, kind="spine_degrade", target=2,
                   magnitude=0.25, duration_ns=20_000.0),
        FaultEvent(time_ns=25_000.0, kind="spine_partition", target=3,
                   duration_ns=15_000.0),
    ),
    retry=RetryPolicy(timeout_ns=40_000.0, max_retries=3,
                      backoff_base_ns=15_000.0, backoff_cap_ns=80_000.0,
                      jitter=0.5),
)


def _config(tenants: bool = False) -> FabricConfig:
    return FabricConfig.datacenter(
        n_racks=N_RACKS,
        rack=FabricConfig.rack(
            n_servers=2,
            cores_per_server=4,
            system="altocumulus",
            policy="power_of_d",
            d=2,
        ),
        policy="shortest_wait",
        tenants=TENANTS if tenants else (),
    )


def _run(
    shards: Optional[int],
    mode: str = "process",
    faults: Optional[FaultPlan] = None,
    tenants: bool = False,
):
    config = _config(tenants=tenants)
    streams = RandomStreams(SEED)
    if shards is None:
        sim = Simulator()
        system = build_fabric(sim, streams, config)
    else:
        sim = ShardedSimulator()
        system = build_sharded_topology(sim, streams, config, shards,
                                        mode=mode)
    connections = (
        TenantConnectionPool(TenantMix(TENANTS)) if tenants else None
    )
    return run_workload(
        system,
        sim,
        streams,
        arrivals=PoissonArrivals(RATE_RPS),
        service=Exponential(SERVICE_NS),
        n_requests=N_REQUESTS,
        connections=connections,
        faults=faults,
    )


def _request_fingerprint(result):
    return [
        (
            r.req_id,
            repr(r.arrival),
            repr(r.enqueued),
            repr(r.started),
            repr(r.finished),
            r.core_id,
            r.group_id,
            r.migrations,
            r.steals,
            r.dropped,
        )
        for r in result.requests
    ]


def _scalar_fingerprint(result):
    return (
        repr(result.sim_time_ns),
        repr(result.throughput_rps),
        repr(result.utilization),
        result.dropped,
        {key: repr(value) for key, value in sorted(result.extra.items())},
        repr(result.latency.p50),
        repr(result.latency.p99),
        repr(result.latency.mean),
    )


def _curated_metrics(result):
    """The telemetry snapshot minus legitimately-diverging keys.

    ``sim.*`` (at any nesting depth) are engine internals -- event
    counts and free-list sizes differ across heaps by construction.
    ``shard.*`` exists only in sharded runs.  Everything else -- every
    ``system.*``, switch, policy, fault and tenant instrument at every
    level -- must match exactly.
    """
    return {
        key: value
        for key, value in result.metrics.items()
        if "sim" not in key.split(".") and not key.startswith("shard.")
    }


def _assert_equivalent(serial, sharded):
    assert _request_fingerprint(serial) == _request_fingerprint(sharded)
    assert _scalar_fingerprint(serial) == _scalar_fingerprint(sharded)
    assert _curated_metrics(serial) == _curated_metrics(sharded)


@pytest.fixture(scope="module")
def serial_result():
    return _run(shards=None)


@pytest.fixture(scope="module")
def serial_faulted_result():
    return _run(shards=None, faults=FAULT_PLAN)


@pytest.fixture(scope="module")
def serial_tenant_result():
    return _run(shards=None, tenants=True)


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["inprocess", "process"])
def test_fault_free_bit_identity(serial_result, shards, mode):
    _assert_equivalent(serial_result, _run(shards=shards, mode=mode))


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_faulted_bit_identity(serial_faulted_result, shards):
    _assert_equivalent(
        serial_faulted_result, _run(shards=shards, faults=FAULT_PLAN)
    )


def test_faulted_bit_identity_inprocess(serial_faulted_result):
    _assert_equivalent(
        serial_faulted_result,
        _run(shards=2, mode="inprocess", faults=FAULT_PLAN),
    )


@pytest.mark.parametrize("mode", ["inprocess", "process"])
def test_tenant_bit_identity(serial_tenant_result, mode):
    _assert_equivalent(
        serial_tenant_result, _run(shards=2, mode=mode, tenants=True)
    )


def test_faulted_counters_match_serial(serial_faulted_result):
    """The fault layer's own instruments (admission blackholes, NIC drop
    coin flips, responses lost) reproduce exactly: the ship-time
    admission mirror draws the serial decision stream."""
    sharded = _run(shards=4, faults=FAULT_PLAN)
    serial_faults = {
        key: value
        for key, value in serial_faulted_result.metrics.items()
        if key.startswith("faults.")
    }
    sharded_faults = {
        key: value
        for key, value in sharded.metrics.items()
        if key.startswith("faults.")
    }
    assert serial_faults == sharded_faults
    assert serial_faults["faults.requests_blackholed"] >= 0


def test_sharded_overhead_instruments_present():
    """Sharded runs expose the ``shard.*`` overhead accounting."""
    result = _run(shards=2)
    assert result.metrics["shard.windows"] > 0
    assert result.metrics["shard.messages_out"] >= N_REQUESTS
    assert result.metrics["shard.messages_in"] >= N_REQUESTS
    assert result.metrics["shard.barrier_stall_ns"] >= 0
    for key in ("shard.windows", "shard.messages_out"):
        assert isinstance(result.metrics[key], int)
