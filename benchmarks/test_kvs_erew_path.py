"""Benchmarks for the MICA data-layer hot path.

The ownership layer (``repro.kvs.ownership``) gates admission only for
the wired CREW/CRCW/d-CREW modes; plain EREW workloads never construct
an ``OwnershipTable`` and must pay nothing for the feature.  The first
benchmark pins the legacy EREW request path so any accidental coupling
shows up in the benchmark history; the second tracks the gated CREW
admission path itself so its own cost stays attributable; the third
runs the whole gated path -- request factory, admission, multiversion
epochs and the store access -- on the benchmark's ``kvs`` mix under a
moving clock, so admissions contend as they do in a run.
"""

import random
from itertools import accumulate
from types import SimpleNamespace

from repro.kvs.dataset import build_dataset
from repro.kvs.handlers import MicaServiceModel, MicaWorkload
from repro.kvs.ownership import KvsSpec, OwnershipTable
from repro.workload.request import Request

N_REQUESTS = 10_000


def _drive_workload(workload):
    requests = []
    for i in range(N_REQUESTS):
        req = Request(req_id=i, arrival=float(i), service_time=0.0)
        workload.request_factory(req)
        requests.append(req)
    for req in requests:
        workload.execute(req)
    return workload.executed


def test_erew_request_path_rate(benchmark):
    """Legacy EREW draw + execute loop (no ownership table in play)."""

    def spin():
        dataset = build_dataset(n_partitions=4, n_keys=400, seed=3)
        workload = MicaWorkload(dataset, MicaServiceModel.nanorpc(),
                                n_groups=4, scan_fraction=0.005, seed=5)
        return _drive_workload(workload)

    executed = benchmark(spin)
    assert executed == N_REQUESTS


def test_crew_admission_rate(benchmark):
    """Raw admit/abort cost of the gated admission path under a skewed
    key population (every request consults the ownership table)."""

    def spin():
        table = OwnershipTable(n_partitions=4, mode="crew")
        waits = 0.0
        for i in range(N_REQUESTS):
            decision = table.admit(
                partition=i % 4,
                write=(i % 10 == 0),
                now=float(i) * 40.0,
                hold_ns=100.0,
                group=i % 3,
            )
            waits += decision
        return table.admissions, waits

    admissions, waits = benchmark(spin)
    assert admissions == N_REQUESTS
    assert waits >= 0.0


#: The data layer of ``bench/workloads.py``'s ``kvs`` workload: CREW with
#: multiversion reads on the 25% hot-key mix with rare SCANs.
HOT_KEY_SPEC = KvsSpec(
    mode="crew", multiversion=True, mix="hot_key",
    hot_key_fraction=0.25, scan_fraction=0.002,
)

#: Poisson arrivals at the ``kvs`` workload's 12 MRPS.
ARRIVAL_RATE_PER_NS = 12e6 / 1e9


def test_crew_mv_hot_key_path_rate(benchmark):
    """Request factory plus execute on the hot-key mix, each request at
    its Poisson arrival time on a moving clock: writers on the hot
    partition overlap, so writes wait, reads go stale and versions
    defer."""

    def setup():
        clock = SimpleNamespace(now=0.0)
        mix = HOT_KEY_SPEC.mix_params()
        table = OwnershipTable(4, HOT_KEY_SPEC.mode, multiversion=True)
        workload = MicaWorkload(
            build_dataset(n_partitions=4, n_keys=HOT_KEY_SPEC.n_keys, seed=1),
            MicaServiceModel.nanorpc(), n_groups=4,
            get_fraction=mix["get_fraction"],
            scan_fraction=mix["scan_fraction"],
            delete_fraction=mix["delete_fraction"], zipf_s=mix["zipf_s"],
            mode=HOT_KEY_SPEC.mode, seed=1, ownership=table,
            hot_key_fraction=mix["hot_key_fraction"],
            hot_keys=HOT_KEY_SPEC.hot_keys, sim=clock,
        )
        gaps = random.Random(1)
        arrivals = accumulate(
            gaps.expovariate(ARRIVAL_RATE_PER_NS) for _ in range(N_REQUESTS)
        )
        requests = [Request(req_id=i, arrival=t, service_time=0.0)
                    for i, t in enumerate(arrivals)]
        return (workload, clock, requests), {}

    def spin(workload, clock, requests):
        make, execute = workload.request_factory, workload.execute
        for req in requests:
            make(req)
            clock.now = req.arrival
            execute(req)
        return workload

    workload = benchmark.pedantic(spin, setup=setup, rounds=10)
    table = workload.ownership
    assert workload.executed == N_REQUESTS
    assert table.total_waits > 0
    assert table.mv.stale_reads > 0
    assert table.mv.reclaimed > 0
