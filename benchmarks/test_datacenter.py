"""Datacenter-tier benchmark: the serial fabric simulation rate.

The fig_datacenter-shaped workload (skewed tenant mix, shortest-wait
inter-rack steering, 4 racks x 4 servers x 8 cores at 70% load) on the
serial engine, so the datacenter tier's simulation rate stays tracked
in the committed ``BENCH_*.json`` trajectory.  The timed run is
asserted identical to one untimed reference run (a fast wrong answer
must fail the bench).
"""

from __future__ import annotations

import pytest

from repro.api import run_workload
from repro.experiments.fig_datacenter import (
    CORES_PER_SERVER,
    LOAD_FRACTION,
    N_RACKS,
    N_SERVERS,
    SERVICE_NS,
    datacenter_builder,
    tenant_pool,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.service import Exponential

N_REQUESTS = 40_000
SEED = 3
RATE_RPS = (
    LOAD_FRACTION * N_RACKS * N_SERVERS * CORES_PER_SERVER / SERVICE_NS * 1e9
)


def _run():
    streams = RandomStreams(SEED)
    sim = Simulator()
    system = datacenter_builder(sim, streams, mix="skewed")
    return run_workload(
        system,
        sim,
        streams,
        PoissonArrivals(RATE_RPS),
        Exponential(SERVICE_NS),
        n_requests=N_REQUESTS,
        connections=tenant_pool("skewed"),
    )


def _outcome(result):
    return (result.latency.p99, result.throughput_rps, result.utilization,
            result.dropped)


@pytest.fixture(scope="module")
def reference():
    """One untimed run; the identity oracle for the timed one."""
    return _outcome(_run())


def test_bench_datacenter(benchmark, reference):
    """The serial fabric's simulation rate."""
    result = benchmark.pedantic(_run, rounds=2, iterations=1)
    assert _outcome(result) == reference
