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
# One composition rule set, enforced by every run entry point
# ----------------------------------------------------------------------
def _point_builder(sim, streams):  # pragma: no cover - checks fire first
    raise AssertionError("composition checks run before the build")


def _noop_factory():  # pragma: no cover - never resolved
    return None


def _layers(rule):
    """(shards, layer kwargs, with a request factory?) breaking ``rule``."""
    from repro.control import ControlConfig
    from repro.kvs.ownership import KvsSpec

    return {
        "shards_min": (0, {}, False),
        "control_x_shards": (2, {"control": ControlConfig()}, False),
        "kvs_x_shards": (2, {"kvs": KvsSpec()}, False),
        "kvs_x_request_factory": (None, {"kvs": KvsSpec()}, True),
    }[rule]


def _via_quick_run(rule):
    shards, layers, _ = _layers(rule)
    quick_run(system="datacenter", n_cores=16, n_requests=100,
              shards=shards, **layers)


def _via_execute_point(rule):
    from repro.runner import PointSpec, execute_point, ref

    shards, layers, with_factory = _layers(rule)
    if with_factory:
        layers["request_factory"] = ref(_noop_factory)
    execute_point(PointSpec(
        builder=ref(_point_builder), service=Fixed(500.0), rate_rps=1e6,
        n_requests=100, shards=1 if shards is None else shards, **layers,
    ))


def _via_run_workload(rule):
    from repro.api import _default_datacenter_config
    from repro.datacenter.sharded import build_sharded_topology
    from repro.sim.sharded import ShardedSimulator

    shards, layers, with_factory = _layers(rule)
    streams = RandomStreams(1)
    if shards is None:
        sim = Simulator()
        system = build_system("rss", sim, streams, 4)
    else:
        sim = ShardedSimulator()
        system = build_sharded_topology(
            sim, streams, _default_datacenter_config(16), shards,
            mode="inprocess",
        )
    if with_factory:
        layers["request_factory"] = lambda request: None
    run_workload(system, sim, streams, PoissonArrivals(1e6), Fixed(500.0),
                 n_requests=100, **layers)


_ENTRY_POINTS = {
    "quick_run": _via_quick_run,
    "execute_point": _via_execute_point,
    "run_workload": _via_run_workload,
}

_RULE_MESSAGES = {
    "shards_min": "shards must be >= 1",
    "control_x_shards": "controllers do not compose with sharded",
    "kvs_x_shards": "KvsSpec does not compose with sharded",
    "kvs_x_request_factory": "not both",
}

#: Combinations an entry point cannot even express: quick_run takes no
#: request factory, and a built sharded system has at least one shard.
_INEXPRESSIBLE = {
    ("kvs_x_request_factory", "quick_run"),
    ("shards_min", "run_workload"),
}


@pytest.mark.parametrize("rule,entry", [
    (rule, entry)
    for rule in sorted(_RULE_MESSAGES)
    for entry in sorted(_ENTRY_POINTS)
    if (rule, entry) not in _INEXPRESSIBLE
])
def test_composition_rule_at_every_entry_point(rule, entry):
    with pytest.raises(ValueError, match=_RULE_MESSAGES[rule]):
        _ENTRY_POINTS[entry](rule)
