"""Property-based tests over whole simulations (hypothesis).

These check structural invariants that must hold for *any* workload and
configuration: event causality, request conservation, latency sanity,
and seed determinism.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_system, run_workload
from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.connections import ConnectionPool
from repro.workload.service import Bimodal

SYSTEMS = ["rss", "zygos", "shinjuku", "nebula", "nanopu", "altocumulus"]


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(SYSTEMS),
    n_cores=st.sampled_from([4, 8, 16]),
    rho=st.floats(0.1, 0.95),
    long_fraction=st.floats(0.0, 0.1),
    seed=st.integers(0, 10_000),
)
def test_simulation_invariants(name, n_cores, rho, long_fraction, seed):
    """For any system/load/seed: conservation, causality, non-negative
    latency, and exact service accounting."""
    service = Bimodal(500.0, 20_000.0, long_fraction)
    rate = rho * n_cores / service.mean * 1e9
    sim, streams = Simulator(), RandomStreams(seed)
    system = build_system(name, sim, streams, n_cores)
    n = 300
    result = run_workload(
        system, sim, streams, PoissonArrivals(rate), service,
        n_requests=n, warmup_fraction=0.0,
    )
    ids = [r.req_id for r in result.requests]
    assert len(ids) == n and len(set(ids)) == n
    for r in result.requests:
        assert r.finished is not None
        assert r.started is not None
        assert r.arrival <= r.started <= r.finished
        assert r.remaining == 0.0
        # Latency covers at least the intrinsic service time.
        assert r.latency >= r.service_time - 1e-6


@settings(max_examples=10, deadline=None)
@given(
    n_groups=st.sampled_from([2, 4]),
    group_size=st.sampled_from([4, 8]),
    bulk=st.integers(2, 32),
    concurrency=st.integers(1, 3),
    period=st.sampled_from([50.0, 200.0, 1000.0]),
    seed=st.integers(0, 1_000),
)
def test_altocumulus_invariants(n_groups, group_size, bulk, concurrency,
                                period, seed):
    """Any Altocumulus configuration conserves requests and respects the
    at-most-once migration rule, even under a single hot connection."""
    sim, streams = Simulator(), RandomStreams(seed)
    config = AltocumulusConfig(
        n_groups=n_groups, group_size=group_size, bulk=bulk,
        concurrency=min(concurrency, n_groups - 1) or 1,
        period_ns=period, offered_load=0.9,
    )
    system = AltocumulusSystem(sim, streams, config)
    workers = config.n_workers
    rate = 0.9 * workers / 1_000.0 * 1e9
    result = run_workload(
        system, sim, streams, PoissonArrivals(rate),
        Bimodal(500.0, 5_000.0, 0.1),
        n_requests=300, warmup_fraction=0.0,
        connections=ConnectionPool(1),
    )
    assert len(result.requests) == 300
    for r in result.requests:
        assert r.migrations <= 1
        if r.migrations:
            assert r.no_migration_eta is not None
    # Hardware protocol balanced: every sent descriptor was acked,
    # nacked, or is no longer in flight (run drained).
    snap = system.metrics.snapshot("messaging")
    for group, hw in enumerate(system.managers):
        assert hw.in_flight_descriptors == 0
        m = f"messaging.m{group}."
        assert snap[m + "migrates_acked"] + snap[m + "migrates_nacked"] == (
            snap[m + "migrates_sent"]
        )


@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(SYSTEMS),
    seed=st.integers(0, 1_000),
)
def test_seed_determinism(name, seed):
    """Identical (system, seed) -> bit-identical latency trajectories."""

    def run():
        sim, streams = Simulator(), RandomStreams(seed)
        system = build_system(name, sim, streams, 8)
        result = run_workload(
            system, sim, streams, PoissonArrivals(2e6),
            Bimodal(500.0, 10_000.0, 0.05),
            n_requests=200, warmup_fraction=0.0,
        )
        return [r.latency for r in result.requests]

    assert run() == run()
