"""Tests for the adaptive control plane (:mod:`repro.control`).

Covers the config/registry surface, the runtime-mutable knobs the
controllers actuate (steering staleness/width/cadence, health penalty,
worker counts), the admin-drain overlay, policy swaps with bound
instruments, worker reassignment, CLI validation and determinism.
"""

import dataclasses

import pytest

from repro.api import quick_run, run_workload
from repro.cluster.fabric import FabricConfig, build_fabric
from repro.control import (
    CONTROLLER_NAMES,
    AdminHealthView,
    BanditController,
    ControlConfig,
    HysteresisController,
    StaticController,
    make_controller,
)
from repro.control.actuators import MIN_SAMPLE_PERIOD_NS, Actuators
from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.faults.health import DEFAULT_DEGRADED_PENALTY, HealthView
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import MetricRegistry
from repro.workload.arrivals import PoissonArrivals
from repro.workload.service import Exponential


def _rack(sim, streams, policy="power_of_d", n_servers=4, **kwargs):
    return build_fabric(
        sim, streams,
        FabricConfig.rack(n_servers=n_servers, cores_per_server=4, system="rss",
                   policy=policy, **kwargs),
    )


def _run(system, sim, streams, n_requests=2000, rate_rps=10e6, **kwargs):
    return run_workload(
        system, sim, streams,
        arrivals=PoissonArrivals(rate_rps),
        service=Exponential(1000.0),
        n_requests=n_requests,
        **kwargs,
    )


class TestControlConfig:
    def test_defaults_validate(self):
        cfg = ControlConfig()
        assert cfg.controller == "static"

    @pytest.mark.parametrize("bad", [
        dict(controller="pid"),
        dict(epoch_ns=0.0),
        dict(epoch_ns=-5.0),
        dict(drain_after_epochs=0),
        dict(restore_after_epochs=0),
        dict(escalate_ratio=1.0, relax_ratio=1.1),
        dict(relax_ratio=0.0),
        dict(max_level=-1),
        dict(baseline_alpha=0.0),
        dict(explore=1.5),
        dict(reward_alpha=0.0),
        dict(autoscale_low=-0.1),
        dict(swap_at_level=0),
        dict(autoscale_low=0.5, autoscale_high=0.5),
        dict(min_active=0),
        dict(rebalance_ratio=1.0),
        dict(rebalance_cooldown=0),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            ControlConfig(**bad)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ControlConfig().controller = "bandit"


class TestControllerRegistry:
    def test_every_registered_name_constructs(self):
        rng = RandomStreams(1).get("control")
        types = {"static": StaticController,
                 "hysteresis": HysteresisController,
                 "bandit": BanditController}
        for name in CONTROLLER_NAMES:
            ctl = make_controller(ControlConfig(controller=name), rng)
            assert isinstance(ctl, types[name])
            assert ctl.name == name

    def test_unknown_name_raises(self):
        cfg = ControlConfig()
        object.__setattr__(cfg, "controller", "nope")
        with pytest.raises(ValueError, match="unknown controller"):
            make_controller(cfg, RandomStreams(1).get("control"))


class TestRuntimeKnobs:
    """The construction-frozen knobs the control plane made mutable."""

    def test_power_of_d_knobs_mutate_mid_run(self, sim, streams):
        rack = _rack(sim, streams, d=2, staleness_ns=2000.0)
        policy = rack.policy
        seen = {}

        def mutate():
            policy.set_d(4)
            policy.set_staleness(500.0)
            seen["at"] = sim.now

        sim.schedule(100_000.0, mutate)
        _run(rack, sim, streams)
        assert seen["at"] == 100_000.0
        assert policy.d == 4
        assert policy.staleness_ns == 500.0

    def test_set_d_validates_and_clamps(self, sim, streams):
        rack = _rack(sim, streams, d=2)
        with pytest.raises(ValueError):
            rack.policy.set_d(0)
        rack.policy.set_d(99)
        assert rack.policy.d == rack.policy.n_servers

    def test_shortest_wait_sample_period_mutates_mid_run(self, sim, streams):
        rack = _rack(sim, streams, policy="shortest_wait",
                     sample_period_ns=2000.0)
        policy = rack.policy
        before = {}

        def mutate():
            before["samples"] = policy.samples_taken
            policy.set_sample_period(400.0)

        sim.schedule(50_000.0, mutate)
        _run(rack, sim, streams)
        assert policy.sample_period_ns == 400.0
        # The re-armed timer keeps sampling at the faster cadence.
        assert policy.samples_taken > before["samples"]

    def test_health_penalty_is_the_default(self):
        """The degradation handicap is no runtime knob: a degraded server
        carries the default penalty until its window closes."""
        health = HealthView(4)
        health.add_degraded(1)
        assert health.penalty(1) == DEFAULT_DEGRADED_PENALTY > 0
        assert health.penalty(0) == 0.0
        health.remove_degraded(1)
        assert health.penalty(1) == 0.0

    def test_runtime_set_workers_recomputes_threshold(self, sim, streams):
        system = AltocumulusSystem(
            sim, streams, AltocumulusConfig(n_groups=2, group_size=4))
        runtime = system.runtimes[0]
        before = runtime.n_workers
        runtime.set_workers(before + 1)
        assert runtime.n_workers == before + 1
        with pytest.raises(ValueError):
            runtime.set_workers(0)


class TestAdminHealthView:
    def test_overlay_composes_with_inner_faults(self):
        inner = HealthView(3)
        admin = AdminHealthView(inner, 3)
        assert admin.usable_servers() == [0, 1, 2]
        assert admin.set_admin_down(1, True)
        assert not admin.set_admin_down(1, True)  # idempotent
        assert admin.usable_servers() == [0, 2]
        assert admin.impaired
        # Fault state passes through untouched.
        inner.add_degraded(0)
        assert admin.degraded(0)
        assert admin.penalty(0) == inner.penalty(0)
        inner.set_down(2, True)
        assert admin.usable_servers() == [0]
        assert admin.down(1) and admin.down(2)
        assert admin.set_admin_down(1, False)
        assert admin.n_admin_down == 0

    def test_out_of_range_unit_rejected(self):
        admin = AdminHealthView(HealthView(2), 2)
        with pytest.raises(ValueError):
            admin.set_admin_down(2, True)


class TestActuators:
    def _actuators(self, sim, streams, rack, config=None):
        return Actuators(sim, streams, rack,
                         config or ControlConfig(controller="hysteresis"),
                         rack.metrics)

    def test_apply_level_escalates_and_restores(self, sim, streams):
        rack = _rack(sim, streams, d=2, staleness_ns=2000.0)
        act = self._actuators(sim, streams, rack)
        assert act.apply_level(1)
        assert rack.policy.d == 3
        assert rack.policy.staleness_ns == 1000.0
        assert act.apply_level(0)
        assert rack.policy.d == 2
        assert rack.policy.staleness_ns == 2000.0
        assert not act.apply_level(0)  # no knob moved

    def test_apply_level_floors_sample_period(self, sim, streams):
        rack = _rack(sim, streams, policy="shortest_wait",
                     sample_period_ns=1000.0)
        cfg = ControlConfig(controller="hysteresis", max_level=3)
        act = self._actuators(sim, streams, rack, cfg)
        act.apply_level(3)
        assert rack.policy.sample_period_ns == MIN_SAMPLE_PERIOD_NS

    def test_drain_restore_lifecycle(self, sim, streams):
        rack = _rack(sim, streams)
        act = self._actuators(sim, streams, rack)
        assert act.drain(2)
        assert act.is_drained(2)
        assert act.active_units() == 3
        assert 2 not in rack.policy.health.usable_servers()
        assert not act.drain(2)  # already drained
        assert act.restore(2)
        assert act.active_units() == 4
        assert not act.restore(2)

    def test_drain_respects_min_active(self, sim, streams):
        rack = _rack(sim, streams, n_servers=2)
        cfg = ControlConfig(controller="hysteresis", min_active=1)
        act = self._actuators(sim, streams, rack, cfg)
        assert act.drain(0)
        assert not act.drain(1)  # would leave zero active units

    def test_swap_policy_preserves_bound_instruments(self, sim, streams):
        rack = _rack(sim, streams, d=2)
        act = self._actuators(sim, streams, rack)
        _run(rack, sim, streams, n_requests=500)
        before = rack.metrics.snapshot()
        assert before["cluster.steer_refreshes"] > 0
        assert act.base_policy_name == "power_of_d"
        assert act.swap_policy("shortest_wait")
        assert rack.policy.name == "shortest_wait"
        after = rack.metrics.snapshot()
        # Bound steer_* reads stay valid and monotonic across the swap.
        for key, value in before.items():
            if key.startswith("cluster.steer_"):
                assert after[key] >= value
        assert not act.swap_policy("shortest_wait")  # already active

    def test_swap_constructs_from_base_knobs(self, sim, streams):
        rack = _rack(sim, streams, d=2, staleness_ns=2000.0)
        act = self._actuators(sim, streams, rack)
        act.apply_level(2)  # escalate first
        act.swap_policy("shortest_wait")
        act.swap_policy("power_of_d")
        # The round-trip lands on construction knobs, not escalated ones.
        assert rack.policy.d == 2
        assert rack.policy.staleness_ns == 2000.0

    def test_swap_round_trip_continues_the_steering_draws(self, sim, streams):
        """power_of_d -> shortest_wait -> power_of_d hands the rebuilt
        policy the very reader the original drew from, so it continues
        the stream instead of restarting or skipping it."""
        rack = _rack(sim, streams, d=2)
        act = self._actuators(sim, streams, rack)
        original = rack.policy.rng
        assert original is streams.draws("steering")
        _run(rack, sim, streams, n_requests=300)
        assert act.swap_policy("shortest_wait")
        assert act.swap_policy("power_of_d")
        assert rack.policy.name == "power_of_d"
        assert rack.policy.rng is original

    def test_swap_transplants_admin_overlay(self, sim, streams):
        rack = _rack(sim, streams)
        act = self._actuators(sim, streams, rack)
        act.drain(1)
        act.swap_policy("shortest_wait")
        assert isinstance(rack.policy.health, AdminHealthView)
        assert 1 not in rack.policy.health.usable_servers()


class TestWorkerReassignment:
    @pytest.fixture
    def system(self, sim, streams):
        return AltocumulusSystem(
            sim, streams, AltocumulusConfig(n_groups=2, group_size=4))

    def test_moves_idle_worker_and_updates_tables(self, system):
        assert system.reassign_worker(0, 1)
        assert len(system.occupancy[0]) == 2
        assert len(system.occupancy[1]) == 4
        assert len(system.local_wait[0]) == 2
        assert len(system.local_wait[1]) == 4
        # Core identity is conserved and the reverse maps track it.
        moved = system._worker_cores[1][3]
        assert system._core_group[moved.core_id] == 1
        assert system._core_worker[moved.core_id] == 3
        assert system.runtimes[0].n_workers == 2
        assert system.runtimes[1].n_workers == 4
        total = sum(len(occ) for occ in system.occupancy)
        assert total == 6  # conservation: 2 groups x 3 workers

    def test_refuses_last_worker(self, sim, streams):
        system = AltocumulusSystem(
            sim, streams, AltocumulusConfig(n_groups=2, group_size=2))
        assert not system.reassign_worker(0, 1)  # only worker left

    def test_refuses_busy_worker(self, system):
        from tests.conftest import make_request

        group, worker = 0, 2
        system.occupancy[group][worker] = 1  # pretend it's loaded
        assert not system.reassign_worker(0, 1)

    def test_validates_group_range(self, system):
        with pytest.raises(ValueError):
            system.reassign_worker(0, 2)
        with pytest.raises(ValueError):
            system.reassign_worker(-1, 1)
        with pytest.raises(ValueError):
            system.reassign_worker(1, 1)

    def test_group_outstanding_probe(self, system):
        groups = system.group_outstanding()
        assert groups == [0, 0]

    def test_system_still_runs_after_move(self, sim, streams):
        system = AltocumulusSystem(
            sim, streams, AltocumulusConfig(n_groups=2, group_size=4))
        assert system.reassign_worker(0, 1)
        result = _run(system, sim, streams, n_requests=1000, rate_rps=4e6)
        assert result.latency.count > 0
        assert result.dropped == 0


class TestControlLoopEndToEnd:
    _PLAN = FaultPlan(
        events=(
            FaultEvent(time_ns=50_000.0, kind="nic_drop", target=0,
                       magnitude=0.9, duration_ns=100_000.0),
        ),
        retry=RetryPolicy(timeout_ns=50_000.0, max_retries=3,
                          backoff_base_ns=20_000.0,
                          backoff_cap_ns=100_000.0, jitter=0.5),
    )

    def test_hysteresis_drains_lossy_server(self, sim, streams):
        rack = _rack(sim, streams)
        result = _run(
            rack, sim, streams, n_requests=4000, rate_rps=12e6,
            faults=self._PLAN,
            control=ControlConfig(controller="hysteresis",
                                  epoch_ns=10_000.0, drain_after_epochs=1),
        )
        assert result.metrics["control.epochs"] > 0
        assert result.metrics["control.drains"] >= 1
        assert result.metrics["control.restores"] >= 1
        assert result.metrics["control.drained_units"] == 0  # run ended clean

    def test_static_controller_matches_uncontrolled(self):
        plain = quick_run(system="rack", n_cores=16, rate_rps=10e6,
                          n_requests=1500, seed=3)
        controlled = quick_run(system="rack", n_cores=16, rate_rps=10e6,
                               n_requests=1500, seed=3,
                               control=ControlConfig(controller="static"))
        assert [r.finished for r in plain.requests] == [
            r.finished for r in controlled.requests
        ]
        assert plain.latency.p99 == controlled.latency.p99
        assert controlled.metrics["control.epochs"] > 0

    @pytest.mark.parametrize("controller", ["hysteresis", "bandit"])
    def test_adaptive_runs_are_self_deterministic(self, controller):
        kwargs = dict(system="rack", n_cores=16, rate_rps=12e6,
                      n_requests=1500, seed=5,
                      control=ControlConfig(controller=controller,
                                            epoch_ns=10_000.0))
        first = quick_run(**kwargs)
        second = quick_run(**kwargs)
        assert [r.finished for r in first.requests] == [
            r.finished for r in second.requests
        ]


class TestCliValidation:
    def test_epoch_without_controller_rejected(self, capsys):
        from repro.experiments.cli import main

        assert main(["quickstart", "--control-epoch-ns", "5000"]) == 2
        assert "--control-epoch-ns requires --controller" in (
            capsys.readouterr().err
        )

    def test_unknown_controller_rejected(self, capsys):
        from repro.experiments.cli import main

        assert main(["quickstart", "--controller", "pid"]) == 2
        assert "--controller must be one of" in capsys.readouterr().err
