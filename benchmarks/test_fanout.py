"""Job-model benchmarks: the scatter-gather path vs the flat path.

Three entries over the same rack shape (4 servers x 8 cores,
shortest-wait steering, exponential 1 us service at 65% sub-request
load), each offering the *same number of sub-requests* so their
``stats.min`` values are directly comparable in a committed
``BENCH_*.json``:

* ``flat`` -- the plain request path, the baseline;
* ``trivial`` -- the same workload passed through ``jobs=`` with a
  1-wide shape.  Trivial shapes compile down to the flat path by
  contract (``result.jobs is None``, bit-identical requests), so this
  entry measures that the job seam costs nothing when unused -- the
  run is asserted identical to the flat baseline;
* the headline ``test_bench_fanout_jobs`` -- 4-wide scatter-gather
  jobs through the full machinery (pre-drawn degrees, the generator's
  terminal hooks, gather-on-last bookkeeping).  This entry is gated in
  ``make bench-gate`` and CI's A/B gate: its ``stats.min`` must stay within 2% of the
  committed baseline, which is what pins the job path's overhead
  budget against refactors.
"""

from __future__ import annotations

import pytest

from repro.api import run_workload
from repro.cluster.fabric import FabricConfig, build_fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.jobs import FixedDegree, JobShape
from repro.workload.service import Exponential

N_SERVERS = 4
CORES_PER_SERVER = 8
SERVICE_NS = 1000.0
LOAD_FRACTION = 0.65
#: Sub-requests offered per entry; the job entries shrink the job count
#: by the fan-out so every benchmark simulates the same request volume.
N_SUBREQUESTS = 20_000
FANOUT = 4
SEED = 3

SUB_RATE_RPS = (
    LOAD_FRACTION * N_SERVERS * CORES_PER_SERVER / SERVICE_NS * 1e9
)


def _run(jobs=None, fanout=1):
    streams = RandomStreams(SEED)
    sim = Simulator()
    rack = build_fabric(sim, streams, FabricConfig.rack(
        n_servers=N_SERVERS,
        cores_per_server=CORES_PER_SERVER,
        policy="shortest_wait",
    ))
    return run_workload(
        rack,
        sim,
        streams,
        PoissonArrivals(SUB_RATE_RPS / fanout),
        Exponential(SERVICE_NS),
        n_requests=N_SUBREQUESTS // fanout,
        jobs=jobs,
    )


@pytest.fixture(scope="module")
def flat_reference():
    """One untimed flat run; the identity oracle for the trivial entry."""
    result = _run()
    return (result.latency.p99, result.throughput_rps, result.utilization,
            result.dropped)


def _assert_identical(result, reference):
    assert (result.latency.p99, result.throughput_rps, result.utilization,
            result.dropped) == reference


def test_bench_fanout_flat(benchmark, flat_reference):
    """The flat request path: the baseline the job seam is measured
    against."""
    result = benchmark.pedantic(_run, rounds=2, iterations=1)
    _assert_identical(result, flat_reference)


def test_bench_fanout_trivial_overhead(benchmark, flat_reference):
    """A 1-wide job shape compiles down to the flat path: same requests
    bit-for-bit, no job machinery in the event loop."""
    result = benchmark.pedantic(
        lambda: _run(jobs=JobShape(fanout=FixedDegree(1))),
        rounds=2, iterations=1,
    )
    assert result.jobs is None
    _assert_identical(result, flat_reference)


def test_bench_fanout_jobs(benchmark):
    """The headline (gated): 4-wide scatter-gather jobs, same offered
    sub-request volume as the flat baseline."""
    result = benchmark.pedantic(
        lambda: _run(
            jobs=JobShape(fanout=FixedDegree(FANOUT),
                          sibling_connections="shared"),
            fanout=FANOUT,
        ),
        rounds=2, iterations=1,
    )
    assert result.jobs is not None
    assert result.jobs.count == N_SUBREQUESTS // FANOUT
    assert result.jobs.subrequests == N_SUBREQUESTS
    benchmark.extra_info["jobs_completed"] = result.jobs.completed
    benchmark.extra_info["jobs_dropped"] = result.jobs.dropped
    benchmark.extra_info["job_p99_us"] = result.jobs.latency.p99 / 1000.0
