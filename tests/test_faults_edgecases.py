"""Edge-case battery: degenerate hardware, degenerate work, buggy
hooks, pathological traffic, and degenerate *fault plans* must degrade
gracefully -- never hang, lose, or duplicate requests.

Absorbs the former ``tests/test_failure_injection.py`` (ad-hoc failure
scenarios that predate :mod:`repro.faults`) and extends it with the
structural corners of the fault-injection subsystem itself.
"""

import pytest

from repro.api import build_system, quick_run, run_workload
from repro.cluster.fabric import FabricConfig, build_fabric
from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.hw.constants import HwConstants
from repro.schedulers.jbsq import ideal_cfcfs
from repro.workload.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workload.connections import ConnectionPool
from repro.workload.service import Fixed
from tests.conftest import make_request

RETRY = RetryPolicy(timeout_ns=20_000.0, max_retries=2,
                    backoff_base_ns=5_000.0, backoff_cap_ns=20_000.0,
                    jitter=0.5)


class TestTinyHardware:
    def test_small_recv_fifos_under_migration_pressure(self, sim, streams):
        """Receive FIFOs smaller than a batch force NACKs; accounting
        stays exact and no request is lost."""
        constants = HwConstants(recv_fifo_entries=2)
        config = AltocumulusConfig(
            n_groups=2, group_size=4, bulk=8, concurrency=1,
            offered_load=0.95,
        )
        system = AltocumulusSystem(sim, streams, config, constants=constants)
        n = 800
        run_workload(
            system, sim, streams, PoissonArrivals(5e6), Fixed(1_000.0),
            n_requests=n, warmup_fraction=0.0,
            connections=ConnectionPool(1),
        )
        assert system.stats.completed + system.stats.dropped == n
        snap = system.metrics.snapshot("messaging")
        nacked = 0
        for i, hw in enumerate(system.managers):
            assert hw.in_flight_descriptors == 0
            m = f"messaging.m{i}."
            assert snap[m + "migrates_sent"] == (
                snap[m + "migrates_acked"] + snap[m + "migrates_nacked"])
            nacked += snap[m + "migrates_nacked"]
        assert nacked > 0

    def test_one_entry_send_fifo_backpressures_not_crashes(self, sim, streams):
        constants = HwConstants(send_fifo_entries=1, recv_fifo_entries=1)
        config = AltocumulusConfig(
            n_groups=2, group_size=4, bulk=8, concurrency=1,
            offered_load=0.95,
        )
        system = AltocumulusSystem(sim, streams, config, constants=constants)
        result = run_workload(
            system, sim, streams, PoissonArrivals(5e6), Fixed(1_000.0),
            n_requests=500, warmup_fraction=0.0,
            connections=ConnectionPool(1),
        )
        assert len(result.requests) == 500


class TestDegenerateWork:
    def test_zero_service_time_requests(self, sim, streams):
        system = ideal_cfcfs(sim, streams, 2)
        result = run_workload(
            system, sim, streams, DeterministicArrivals(1e6), Fixed(0.0),
            n_requests=100, warmup_fraction=0.0,
        )
        assert len(result.requests) == 100
        assert all(r.latency >= 0 for r in result.requests)

    def test_single_request_workload(self, sim, streams):
        system = ideal_cfcfs(sim, streams, 1)
        result = run_workload(
            system, sim, streams, DeterministicArrivals(1e3), Fixed(100.0),
            n_requests=1, warmup_fraction=0.0,
        )
        assert result.latency.count == 1

    def test_gigantic_request_does_not_stall_others(self, sim, streams):
        system = ideal_cfcfs(sim, streams, 4)
        huge = make_request(req_id=0, service_time=1e9)  # a 1-second RPC
        system.offer(huge)
        shorts = [make_request(req_id=i, service_time=100.0)
                  for i in range(1, 10)]
        for r in shorts:
            system.offer(r)
        system.expect(10)
        sim.run(until=10**12)
        assert all(r.latency < 1e6 for r in shorts)
        assert huge.completed


class TestHookFailures:
    def test_completion_hook_exception_propagates(self, sim, streams):
        """A buggy application hook fails loudly at the offending event,
        not silently."""
        system = ideal_cfcfs(sim, streams, 1)
        system.completion_hooks.append(
            lambda r: (_ for _ in ()).throw(RuntimeError("app bug"))
        )
        system.offer(make_request())
        with pytest.raises(RuntimeError, match="app bug"):
            sim.run(until=10**9)

    def test_execute_hook_exception_propagates(self, sim, streams):
        config = AltocumulusConfig(n_groups=2, group_size=4)

        def bad_penalty(request):
            raise ValueError("penalty bug")

        system = AltocumulusSystem(sim, streams, config)
        system.execute = bad_penalty
        system.offer(make_request())
        with pytest.raises(ValueError, match="penalty bug"):
            sim.run(until=10**9)


class TestPathologicalTraffic:
    def test_simultaneous_burst_arrivals(self, sim, streams):
        """A whole batch arriving at the same timestamp (MMPP trains)
        is dispatched without double-assignment."""
        system = ideal_cfcfs(sim, streams, 4)
        for i in range(50):
            system.offer(make_request(req_id=i, service_time=200.0))
        system.expect(50)
        sim.run(until=10**9)
        ids = {r.req_id for r in system.finished_requests}
        assert len(ids) == 50

    def test_sustained_overload_terminates(self, sim, streams):
        """2x overload: the run still terminates once the queue drains
        (open-loop, finite request count)."""
        system = ideal_cfcfs(sim, streams, 2)
        result = run_workload(
            system, sim, streams, DeterministicArrivals(4e6), Fixed(1_000.0),
            n_requests=2_000, warmup_fraction=0.0,
        )
        assert len(result.requests) == 2_000
        # Latency grows roughly linearly through the run under overload.
        assert result.latency.maximum > 100_000.0


class TestDegenerateFaultPlans:
    def test_event_beyond_sim_end_never_fires(self, sim, streams):
        """A fault scheduled past the last terminal is simply pending
        when the client stops the run -- fired + skipped accounts for
        everything that was due, and nothing explodes at shutdown."""
        system = build_system("rss", sim, streams, 4)
        plan = FaultPlan(events=(
            FaultEvent(time_ns=1e12, kind="server_crash", target=0,
                       duration_ns=1_000.0),
        ), retry=RETRY)
        result = run_workload(
            system, sim, streams, PoissonArrivals(2e6), Fixed(1_000.0),
            n_requests=100, warmup_fraction=0.0, faults=plan,
        )
        m = result.metrics
        assert m["faults.events_fired"] == 0
        assert m["faults.events_skipped"] == 0
        assert m["client.retry.succeeded"] == 100

    def test_empty_plan_still_wires_retry_client(self, sim, streams):
        """Zero events is a legal plan: the retry client and dedup layer
        run, every counter is exact, and nothing times out at low load."""
        system = build_system("altocumulus", sim, streams, 4)
        result = run_workload(
            system, sim, streams, PoissonArrivals(1e6), Fixed(1_000.0),
            n_requests=200, warmup_fraction=0.0,
            faults=FaultPlan(events=(), retry=RETRY),
        )
        m = result.metrics
        assert m["client.retry.succeeded"] == 200
        assert m["client.retry.retries"] == 0
        assert m["faults.events_fired"] == 0

    def test_manager_fail_with_single_group_drops_orphans(self, sim, streams):
        """With n_groups == 1 there is no peer manager to redispatch to:
        orphaned descriptors go to the drop path and conservation still
        holds."""
        result = quick_run(
            "altocumulus", n_cores=8, rate_rps=6e6, mean_service_ns=1000.0,
            n_requests=1_000, seed=5,
            faults=FaultPlan(events=(
                FaultEvent(time_ns=30_000.0, kind="manager_fail", target=0,
                           subtarget=0),
            ), retry=RETRY),
        )
        m = result.metrics
        assert m["faults.manager_fails"] == 1
        assert m["faults.orphans_redispatched"] == 0
        c = {k.rsplit(".", 1)[-1]: v for k, v in m.items()
             if k.startswith("client.retry.")}
        assert (c["completed"] + c["dropped"] + c["timed_out"]
                + c["in_flight_at_end"] == c["injected"] + c["retries"])
        assert c["succeeded"] + c["failed"] == 1_000

    def test_whole_rack_down_fails_everything_conserved(self, sim, streams):
        """Crash every server for the entire run: zero successes, every
        logical request burns its full retry budget, and the attempt
        ledger still balances."""
        rack = build_fabric(sim, streams, FabricConfig.rack(
            n_servers=2, cores_per_server=2, system="altocumulus",
            policy="power_of_d",
        ))
        n = 50
        plan = FaultPlan(events=tuple(
            FaultEvent(time_ns=0.0, kind="server_crash", target=t,
                       duration_ns=1e12)
            for t in range(2)
        ), retry=RETRY)
        result = run_workload(
            rack, sim, streams, PoissonArrivals(1e6), Fixed(1_000.0),
            n_requests=n, warmup_fraction=0.0, faults=plan,
        )
        m = result.metrics
        assert m["client.retry.succeeded"] == 0
        assert m["client.retry.failed"] == n
        # Every attempt (original + full retry budget) timed out.
        assert m["client.retry.injected"] + m["client.retry.retries"] \
            == n * (1 + RETRY.max_retries)
        assert m["client.retry.timed_out"] + m["client.retry.dropped"] \
            + m["client.retry.in_flight_at_end"] \
            == n * (1 + RETRY.max_retries)

    def test_overlapping_crash_windows_are_idempotent(self, sim, streams):
        """Two overlapping crash windows on the same server: crash and
        recovery are idempotent level-sets (not nested counters), so the
        first recovery brings the server back and the second is a no-op.
        Both pairs are still fired and audited."""
        rack = build_fabric(sim, streams, FabricConfig.rack(
            n_servers=2, cores_per_server=2, system="altocumulus",
            policy="power_of_d",
        ))
        plan = FaultPlan(events=(
            FaultEvent(time_ns=10_000.0, kind="server_crash", target=0,
                       duration_ns=30_000.0),
            FaultEvent(time_ns=20_000.0, kind="server_crash", target=0,
                       duration_ns=40_000.0),
        ), retry=RETRY)
        probes = {}
        sim.schedule_at(30_000.0, lambda: probes.update(
            during=rack.health.usable(0)))
        sim.schedule_at(45_000.0, lambda: probes.update(
            between=rack.health.usable(0)))
        sim.schedule_at(65_000.0, lambda: probes.update(
            after=rack.health.usable(0)))
        result = run_workload(
            rack, sim, streams, PoissonArrivals(2e6), Fixed(1_000.0),
            n_requests=200, warmup_fraction=0.0, faults=plan,
        )
        assert result.metrics["faults.server_crashes"] == 2
        assert result.metrics["faults.server_recoveries"] == 2
        assert probes["during"] is False
        assert probes["between"] is True  # first recovery wins
        assert probes["after"] is True
