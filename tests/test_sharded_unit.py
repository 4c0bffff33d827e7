"""Unit tests for the sharded parallel-in-time execution machinery.

The equivalence battery (``test_sharded_equivalence.py``) proves the
end-to-end bit-identity claim; these tests pin the individual contracts
it rests on: the engine's window primitives, the window driver's
construction invariants, snapshot attachment, mirror-rack behavior,
topology validation, and runner spec stamping.
"""

from __future__ import annotations

import pytest

from repro.cluster.fabric import FabricConfig
from repro.datacenter.sharded import (
    MirrorRack,
    ShardedDatacenter,
    build_sharded_topology,
)
from repro.runner import PointSpec, RunnerConfig, ref, run_points
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RandomStreams
from repro.sim.sharded import ShardedSimulator, WindowDriver
from repro.telemetry.registry import MetricNamespaceError, MetricRegistry
from repro.workload.request import Request


def _config(**overrides):
    defaults = dict(
        n_racks=4,
        rack=FabricConfig.rack(n_servers=2, cores_per_server=2),
    )
    defaults.update(overrides)
    return FabricConfig.datacenter(**defaults)


def _request(req_id: int = 0) -> Request:
    return Request(req_id=req_id, arrival=0.0, service_time=100.0)


# ----------------------------------------------------------------------
# Engine window primitives
# ----------------------------------------------------------------------
class TestRunUntilHorizon:
    def test_bound_is_exclusive(self):
        sim = Simulator()
        fired = []
        for t in (10.0, 20.0, 30.0):
            sim.schedule_at(t, fired.append, t)
        sim.run_until_horizon(20.0)
        assert fired == [10.0]  # the event at exactly 20.0 stays queued
        sim.run_until_horizon(30.0 + 1e-9)
        assert fired == [10.0, 20.0, 30.0]

    def test_clock_never_clamped(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run_until_horizon(500.0)
        assert sim.now == 10.0  # stays at the last executed event

    def test_stop_latches_across_windows(self):
        sim = Simulator()
        sim.schedule_at(10.0, sim.stop)
        sim.schedule_at(20.0, lambda: None)
        sim.run_until_horizon(100.0)
        assert sim.stopped
        assert sim.now == 10.0
        sim.run_until_horizon(200.0)  # latched: executes nothing further
        assert sim.now == 10.0

    def test_composes_with_peek_time(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        event = sim.schedule_at(5.0, lambda: None)
        sim.cancel(event)
        assert sim.peek_time() == 10.0  # cancelled head is reaped
        sim.run_until_horizon(50.0)
        assert sim.peek_time() is None


class TestAdvanceClock:
    def test_advances_without_executing(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10.0, fired.append, 1)
        sim.advance_clock(7.5)
        assert sim.now == 7.5
        assert fired == []

    def test_backward_raises(self):
        sim = Simulator()
        sim.advance_clock(10.0)
        with pytest.raises(SimulationError):
            sim.advance_clock(9.0)


class TestShardedSimulator:
    def test_unbound_is_the_serial_engine(self):
        sim = ShardedSimulator()
        fired = []
        sim.schedule_at(5.0, fired.append, 5.0)
        sim.run(until=10.0)
        assert fired == [5.0]
        assert sim.now == 10.0

    def test_bound_rejects_max_events(self):
        sim = ShardedSimulator()
        streams = RandomStreams(1)
        build_sharded_topology(sim, streams, _config(), 2, mode="inprocess")
        with pytest.raises(SimulationError):
            sim.run(until=10.0, max_events=100)


# ----------------------------------------------------------------------
# Window driver construction
# ----------------------------------------------------------------------
class _FakeCoordinator:
    def __init__(self, window_ns: float):
        self.window_ns = window_ns
        self.metrics = MetricRegistry()
        self.shards = []


def test_window_driver_rejects_zero_lookahead():
    with pytest.raises(ValueError, match="lookahead"):
        WindowDriver(Simulator(), _FakeCoordinator(0.0))


def test_lookahead_is_spine_min_transit():
    sim = ShardedSimulator()
    config = _config(forward_latency_ns=750.0)
    system = build_sharded_topology(
        sim, RandomStreams(1), config, 2, mode="inprocess"
    )
    assert system.window_ns == system.switch.min_transit_ns(0)
    assert system.window_ns == 750.0
    system.shutdown()


# ----------------------------------------------------------------------
# Telemetry snapshot attachment
# ----------------------------------------------------------------------
class TestAttachSnapshot:
    def test_appears_in_snapshot_under_prefix(self):
        registry = MetricRegistry()
        registry.counter("local.count").inc(3)
        registry.attach_snapshot("rack0", {"system.completed": 7})
        snapshot = registry.snapshot()
        assert snapshot["local.count"] == 3
        assert snapshot["rack0.system.completed"] == 7

    def test_absent_from_schema(self):
        registry = MetricRegistry()
        registry.attach_snapshot("rack0", {"system.completed": 7})
        assert all(not name.startswith("rack0.") for name in registry.schema())

    def test_bad_namespace_raises(self):
        registry = MetricRegistry()
        with pytest.raises(MetricNamespaceError):
            registry.attach_snapshot("rack 0", {"x": 1})


# ----------------------------------------------------------------------
# Mirror racks
# ----------------------------------------------------------------------
class TestMirrorRack:
    def test_offer_raises(self):
        # The coordinator ships admitted requests to shards; nothing may
        # enqueue work on the mirror itself.
        with pytest.raises(RuntimeError):
            MirrorRack().offer(_request())

    def test_completion_and_drop_bookkeeping(self):
        mirror = MirrorRack()
        done = _request(1)
        done.finished = 42.0
        mirror.apply_completion(done)
        mirror.apply_drop(_request(2))
        assert [r.req_id for r in mirror.finished_requests] == [1]
        assert mirror.stats.completed == 1
        assert mirror.stats.dropped == 1


# ----------------------------------------------------------------------
# Topology construction validation
# ----------------------------------------------------------------------
class TestBuildValidation:
    def test_shards_out_of_range(self):
        config = _config()
        for bad in (0, -1, config.n_members + 1):
            with pytest.raises(ValueError, match="shards"):
                build_sharded_topology(
                    ShardedSimulator(), RandomStreams(1), config, bad
                )

    def test_requires_sharded_simulator(self):
        with pytest.raises(TypeError, match="ShardedSimulator"):
            build_sharded_topology(
                Simulator(), RandomStreams(1), _config(), 2
            )

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            build_sharded_topology(
                ShardedSimulator(), RandomStreams(1), _config(), 2,
                mode="threads",
            )

    def test_zero_lookahead_config_rejected(self):
        config = _config(forward_latency_ns=0.0)
        with pytest.raises(ValueError, match="lookahead"):
            build_sharded_topology(
                ShardedSimulator(), RandomStreams(1), config, 2,
                mode="inprocess",
            )

    def test_contiguous_balanced_groups(self):
        sim = ShardedSimulator()
        system = build_sharded_topology(
            sim, RandomStreams(1), _config(n_racks=4), 3, mode="inprocess"
        )
        assert isinstance(system, ShardedDatacenter)
        flattened = [rack for group in system._groups for rack in group]
        assert flattened == [0, 1, 2, 3]
        assert [len(group) for group in system._groups] == [2, 1, 1]
        system.shutdown()


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
def _builder(sim, streams):  # pragma: no cover - never executed here
    raise AssertionError("stamping tests never run the spec")


class TestShardStamping:
    def _spec(self, **kwargs) -> PointSpec:
        from repro.workload.service import Exponential

        return PointSpec(
            builder=ref(_builder),
            service=Exponential(1000.0),
            rate_rps=1e6,
            n_requests=10,
            **kwargs,
        )

    def test_run_points_stamps_unset_specs(self, monkeypatch):
        import repro.runner.runner as runner_mod
        from repro.control import ControlConfig
        from repro.faults import FaultEvent, FaultPlan

        captured = []
        monkeypatch.setattr(
            runner_mod.SweepRunner, "run",
            lambda self, specs: captured.extend(specs),
        )
        plan = FaultPlan(events=(FaultEvent(time_ns=1.0, kind="server_crash",
                                            target=0),))
        own_plan = FaultPlan(events=(FaultEvent(time_ns=2.0,
                                                kind="server_crash",
                                                target=1),))
        control = ControlConfig(controller="static")
        own_control = ControlConfig(controller="hysteresis")
        defaults = {"shards": 4, "faults": plan, "control": control}
        run_points(
            [self._spec(),
             self._spec(shards=2, faults=own_plan, control=own_control)],
            config=RunnerConfig(spec_defaults=defaults),
        )
        unset, explicit = captured
        # Unset specs take the configured values; explicit values win.
        assert (unset.shards, unset.faults, unset.control) == (
            4, plan, control)
        assert (explicit.shards, explicit.faults, explicit.control) == (
            2, own_plan, own_control)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            run_points([self._spec()],
                       config=RunnerConfig(spec_defaults={"shards": 0}))
