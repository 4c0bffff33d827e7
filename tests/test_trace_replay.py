"""Replay integration: recorded arrival gaps and service times fed back
through :class:`TraceArrivals`/:class:`TraceService` drive a
bit-identical second run (the foundation of the Fig. 12 replay study)."""

from repro.api import run_workload
from repro.schedulers.jbsq import ideal_cfcfs
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals, TraceArrivals
from repro.workload.service import Exponential, TraceService


def _record(seed=4, n=500):
    """Run once with stochastic arrivals/service; capture gaps/services."""
    sim, streams = Simulator(), RandomStreams(seed)
    system = ideal_cfcfs(sim, streams, 4)
    result = run_workload(
        system, sim, streams, PoissonArrivals(2e6), Exponential(1_000.0),
        n_requests=n, warmup_fraction=0.0,
    )
    reqs = sorted(result.requests, key=lambda r: r.req_id)
    gaps = [reqs[0].arrival] + [
        b.arrival - a.arrival for a, b in zip(reqs, reqs[1:])
    ]
    return gaps, [r.service_time for r in reqs], [r.latency for r in reqs]


def _replay(gaps, services):
    sim, streams = Simulator(), RandomStreams(999)  # different seed: unused
    system = ideal_cfcfs(sim, streams, 4)
    result = run_workload(
        system, sim, streams,
        TraceArrivals(gaps),
        TraceService(services),
        n_requests=len(gaps), warmup_fraction=0.0,
    )
    return [r.latency for r in
            sorted(result.requests, key=lambda r: r.req_id)]


def test_replay_reproduces_latencies_exactly():
    gaps, services, original = _record()
    assert _replay(gaps, services) == original
