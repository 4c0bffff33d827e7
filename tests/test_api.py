"""Unit tests for the public API facade."""

import pytest

from repro.api import (
    SimulationResult,
    available_systems,
    build_system,
    quick_run,
    register_system,
    run_workload,
)
from repro.schedulers.rss import RssSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.service import Fixed


class TestRegistry:
    def test_all_paper_systems_registered(self):
        names = set(available_systems())
        assert {"rss", "ix", "zygos", "shinjuku", "rpcvalet", "nebula",
                "nanopu", "cfcfs", "altocumulus"} <= names

    def test_build_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            build_system("warp", Simulator(), RandomStreams(0), 4)

    def test_register_custom_system(self):
        register_system(
            "custom-rss-for-test",
            lambda sim, streams, n: RssSystem(sim, streams, n),
        )
        system = build_system("custom-rss-for-test", Simulator(),
                              RandomStreams(0), 4)
        assert isinstance(system, RssSystem)
        with pytest.raises(ValueError, match="already registered"):
            register_system("custom-rss-for-test", lambda s, r, n: None)

    def test_altocumulus_grouping_heuristic(self):
        sim, streams = Simulator(), RandomStreams(0)
        system = build_system("altocumulus", sim, streams, 64)
        assert system.config.n_groups == 4
        assert system.config.group_size == 16


class TestQuickRun:
    @pytest.mark.parametrize("name", ["rss", "cfcfs", "nebula", "altocumulus"])
    def test_runs_and_measures(self, name):
        result = quick_run(system=name, n_cores=8, rate_rps=1e6,
                           n_requests=2_000, seed=3)
        assert isinstance(result, SimulationResult)
        assert result.latency.count > 0
        assert result.throughput_rps > 0
        assert 0 <= result.utilization <= 1
        assert result.system is not None

    def test_deterministic_given_seed(self):
        a = quick_run(system="cfcfs", n_cores=4, n_requests=2_000, seed=9)
        b = quick_run(system="cfcfs", n_cores=4, n_requests=2_000, seed=9)
        assert a.latency.p99 == b.latency.p99
        assert a.sim_time_ns == b.sim_time_ns

    def test_different_seeds_differ(self):
        a = quick_run(system="cfcfs", n_cores=4, n_requests=2_000, seed=1)
        b = quick_run(system="cfcfs", n_cores=4, n_requests=2_000, seed=2)
        assert a.latency.p99 != b.latency.p99

    def test_custom_service_distribution(self):
        result = quick_run(system="cfcfs", n_cores=8, rate_rps=1e5,
                           n_requests=1_000, service=Fixed(500.0))
        assert result.latency.p50 == pytest.approx(530.0, abs=5.0)

    def test_violation_ratio_helper(self):
        result = quick_run(system="cfcfs", n_cores=8, rate_rps=1e5,
                           n_requests=1_000, service=Fixed(500.0))
        assert result.violation_ratio(1.0) == 1.0  # everything over 1 ns
        assert result.violation_ratio(1e9) == 0.0


class TestRunWorkload:
    def test_warmup_discarded(self):
        sim, streams = Simulator(), RandomStreams(0)
        system = build_system("cfcfs", sim, streams, 4)
        result = run_workload(
            system, sim, streams, PoissonArrivals(1e6), Fixed(100.0),
            n_requests=1_000, warmup_fraction=0.2,
        )
        assert len(result.requests) == 800
        assert result.offered_rps == pytest.approx(1e6)


# ----------------------------------------------------------------------
# The composition rule, enforced where a request factory comes in
# ----------------------------------------------------------------------
def _via_run_workload():
    from repro.kvs.ownership import KvsSpec

    sim, streams = Simulator(), RandomStreams(1)
    system = build_system("rss", sim, streams, 4)
    run_workload(system, sim, streams, PoissonArrivals(1e6), Fixed(500.0),
                 n_requests=100, kvs=KvsSpec(),
                 request_factory=lambda request: None)


#: Only run_workload takes a request factory: quick_run takes none, and
#: the runner's execute_point hands a wired builder's to run_workload.
_ENTRY_POINTS = {
    "run_workload": _via_run_workload,
}


@pytest.mark.parametrize("rule,entry", [
    ("kvs_x_request_factory", entry) for entry in sorted(_ENTRY_POINTS)
])
def test_composition_rule_at_every_entry_point(rule, entry):
    with pytest.raises(ValueError, match="not both"):
        _ENTRY_POINTS[entry]()
