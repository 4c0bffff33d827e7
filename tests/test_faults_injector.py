"""Per-layer fault mechanics: the injector must flip exactly the right
knob at exactly the scheduled time, account every loss, and restore the
healthy state when the window closes."""

import pytest

from repro.api import build_system, quick_run, run_workload
from repro.cluster.fabric import FabricConfig, build_fabric
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    RetryClient,
    RetryPolicy,
)
from repro.workload.arrivals import PoissonArrivals
from repro.workload.service import Fixed

RETRY = RetryPolicy(timeout_ns=20_000.0, max_retries=3,
                    backoff_base_ns=5_000.0, backoff_cap_ns=20_000.0,
                    jitter=0.5)


def run_faulted(system, sim, streams, plan, n=600, rate=4e6):
    """Drive a small faulted workload through ``system`` to completion."""
    return run_workload(
        system, sim, streams, PoissonArrivals(rate), Fixed(1_000.0),
        n_requests=n, warmup_fraction=0.0, faults=plan,
    )


def make_rack(sim, streams, n_servers=4, policy="power_of_d"):
    return build_fabric(sim, streams, FabricConfig.rack(
        n_servers=n_servers, cores_per_server=2, system="altocumulus",
        policy=policy,
    ))


class TestServerCrash:
    def test_crash_window_blackholes_and_recovers(self, sim, streams):
        rack = make_rack(sim, streams)
        plan = FaultPlan(events=(
            FaultEvent(time_ns=30_000.0, kind="server_crash", target=1,
                       duration_ns=40_000.0),
        ), retry=RETRY)
        probes = {}
        sim.schedule_at(31_000.0, lambda: probes.update(
            during=(rack.health.usable(1), rack.policy.health.impaired)))
        sim.schedule_at(71_000.0, lambda: probes.update(
            after=(rack.health.usable(1), rack.policy.health.impaired)))
        result = run_faulted(rack, sim, streams, plan)
        assert probes["during"] == (False, True)
        assert probes["after"] == (True, False)
        m = result.metrics
        assert m["faults.server_crashes"] == 1
        assert m["faults.server_recoveries"] == 1
        assert m["faults.events_fired"] == 2
        assert m["faults.events_skipped"] == 0
        assert m["client.retry.succeeded"] == 600

    def test_health_aware_policy_avoids_downed_server(self, sim, streams):
        rack = make_rack(sim, streams, policy="shortest_wait")
        plan = FaultPlan(events=(
            FaultEvent(time_ns=0.0, kind="server_crash", target=2,
                       duration_ns=10**9),
        ), retry=RETRY)
        result = run_faulted(rack, sim, streams, plan)
        # After the crash fires (t=0), nothing is steered at server 2.
        assert rack.policy.decisions[2] == 0
        assert result.metrics["faults.requests_blackholed"] == 0

    def test_hash_policy_stays_oblivious(self, sim, streams):
        """The control: connection-hash keeps steering into the
        blackhole, so crashed-server traffic is lost and retried."""
        rack = make_rack(sim, streams, policy="hash")
        plan = FaultPlan(events=(
            FaultEvent(time_ns=0.0, kind="server_crash", target=1,
                       duration_ns=10**9),
        ), retry=RETRY)
        result = run_faulted(rack, sim, streams, plan)
        assert rack.policy.decisions[1] > 0
        assert result.metrics["faults.requests_blackholed"] > 0
        assert result.metrics["client.retry.failed"] > 0


class TestNicDrop:
    def test_burst_drops_are_counted_and_window_closes(self, sim, streams):
        system = build_system("altocumulus", sim, streams, 4)
        plan = FaultPlan(events=(
            FaultEvent(time_ns=0.0, kind="nic_drop", target=0, magnitude=1.0,
                       duration_ns=20_000.0),
        ), retry=RETRY)
        result = run_faulted(system, sim, streams, plan)
        m = result.metrics
        assert m["faults.nic_burst_dropped"] > 0
        # Every logical request still terminates exactly once.
        assert m["client.retry.succeeded"] + m["client.retry.failed"] == 600


class TestCoreStall:
    def test_slowdown_applied_and_reset(self, sim, streams):
        system = build_system("rss", sim, streams, 2)
        plan = FaultPlan(events=(
            FaultEvent(time_ns=10_000.0, kind="core_stall", target=0,
                       subtarget=1, magnitude=25.0, duration_ns=30_000.0),
        ), retry=RETRY)
        probes = {}
        sim.schedule_at(11_000.0, lambda: probes.update(
            during=system.cores[1].slowdown))
        sim.schedule_at(41_000.0, lambda: probes.update(
            after=system.cores[1].slowdown))
        result = run_faulted(system, sim, streams, plan, rate=1.5e6)
        assert probes["during"] == 25.0
        assert probes["after"] == 1.0
        assert result.metrics["faults.core_stalls"] == 1

    def test_core_index_out_of_range_raises(self, sim, streams):
        system = build_system("rss", sim, streams, 2)
        plan = FaultPlan(events=(
            FaultEvent(time_ns=0.0, kind="core_stall", target=0, subtarget=9,
                       magnitude=2.0, duration_ns=100.0),
        ), retry=RETRY)
        with pytest.raises(Exception):
            run_faulted(system, sim, streams, plan, n=10)


class TestTorFaults:
    def test_degrade_slows_port_then_restores(self, sim, streams):
        rack = make_rack(sim, streams)
        plan = FaultPlan(events=(
            FaultEvent(time_ns=10_000.0, kind="tor_degrade", target=0,
                       magnitude=0.25, duration_ns=20_000.0),
        ), retry=RETRY)
        probes = {}
        sim.schedule_at(
            11_000.0,
            lambda: probes.update(during=rack.switch.serialization_ns(300, 0)),
        )
        result = run_faulted(rack, sim, streams, plan)
        assert probes["during"] == 4.0 * rack.switch.serialization_ns(300)
        assert rack.switch.serialization_ns(300, 0) == \
            rack.switch.serialization_ns(300)
        assert result.metrics["faults.tor_degrades"] == 1

    def test_partition_silently_drops_and_heals(self, sim, streams):
        rack = make_rack(sim, streams, policy="hash")
        plan = FaultPlan(events=(
            FaultEvent(time_ns=0.0, kind="tor_partition", target=1,
                       duration_ns=50_000.0),
        ), retry=RETRY)
        result = run_faulted(rack, sim, streams, plan)
        m = result.metrics
        assert m["faults.tor_partitions"] == 1
        assert m["faults.partition_dropped"] > 0
        assert m["faults.partition_dropped"] == rack.switch.partition_dropped
        # Partition losses are silent in-fabric: not rack terminals.
        assert rack.stats.dropped == 0
        assert not rack.switch.port_partitioned(1)

    def test_tor_faults_skip_on_single_server(self, sim, streams):
        system = build_system("altocumulus", sim, streams, 4)
        plan = FaultPlan(events=(
            FaultEvent(time_ns=0.0, kind="tor_degrade", target=0,
                       magnitude=0.5, duration_ns=1_000.0),
            FaultEvent(time_ns=0.0, kind="tor_partition", target=0,
                       duration_ns=1_000.0),
        ), retry=RETRY)
        result = run_faulted(system, sim, streams, plan, n=50)
        assert result.metrics["faults.events_skipped"] == 4
        assert result.metrics["faults.events_fired"] == 0


class TestManagerFailure:
    def test_orphans_redispatch_to_peer_managers(self, sim, streams):
        system = build_system("altocumulus", sim, streams, 32)  # 2 groups
        plan = FaultPlan(events=(
            FaultEvent(time_ns=40_000.0, kind="manager_fail", target=0,
                       subtarget=0),
        ), retry=RETRY)
        probes = {}

        def at_recovery():
            # The contract: manager state is lost *instantaneously* --
            # in-flight descriptors must read zero right at the fault,
            # not merely after the run drains.
            probes["in_flight"] = system.managers[0].in_flight_descriptors
            probes["mr_entries"] = len(system.managers[0].mrs.entries)

        sim.schedule_at(40_000.1, at_recovery)
        result = run_faulted(system, sim, streams, plan, n=2_000, rate=28e6)
        assert probes["in_flight"] == 0
        assert probes["mr_entries"] == 0
        m = result.metrics
        assert m["faults.manager_fails"] == 1
        # Dead-letter accounting is exact: every descriptor the dead
        # manager held was either redispatched to a peer or dropped.
        assert m["faults.orphans_redispatched"] >= 0
        assert m["client.retry.succeeded"] + m["client.retry.failed"] == 2_000

    def test_manager_fail_skipped_on_non_altocumulus(self, sim, streams):
        system = build_system("rss", sim, streams, 2)
        plan = FaultPlan(events=(
            FaultEvent(time_ns=0.0, kind="manager_fail", target=0),
        ), retry=RETRY)
        result = run_faulted(system, sim, streams, plan, n=50, rate=1e6)
        assert result.metrics["faults.events_skipped"] == 1

    def test_dead_nack_descriptors_counted(self, sim, streams):
        """Descriptors mid-MIGRATE when their manager dies come back as
        NACKs addressed to a dead transfer id; they are dropped and
        audited, never double-enqueued."""
        result = quick_run(
            "altocumulus", n_cores=32, rate_rps=28e6, mean_service_ns=1000.0,
            n_requests=4_000, seed=11,
            faults=FaultPlan(events=(
                FaultEvent(time_ns=50_000.0, kind="manager_fail", target=0,
                           subtarget=0),
                FaultEvent(time_ns=80_000.0, kind="manager_fail", target=0,
                           subtarget=1),
            ), retry=RETRY),
        )
        m = result.metrics
        assert m["faults.manager_fails"] == 2
        conserved = (
            m["client.retry.completed"] + m["client.retry.dropped"]
            + m["client.retry.timed_out"] + m["client.retry.in_flight_at_end"]
        )
        assert conserved == m["client.retry.injected"] + m["client.retry.retries"]


class TestResponseFencing:
    def test_responses_from_downed_server_are_lost(self, sim, streams):
        """Requests in flight inside a server when it crashes complete
        server-side, but their responses never reach the client."""
        rack = make_rack(sim, streams, policy="round_robin")
        plan = FaultPlan(events=(
            FaultEvent(time_ns=20_000.0, kind="server_crash", target=0,
                       duration_ns=60_000.0),
        ), retry=RETRY)
        result = run_faulted(rack, sim, streams, plan, rate=3e6)
        m = result.metrics
        assert m["faults.responses_lost"] > 0
        # Every logical request still reaches exactly one verdict, and
        # any double-service is audited by the dedup layer.
        assert m["client.retry.succeeded"] + m["client.retry.failed"] == 600
        assert m["client.retry.duplicates"] == m["kvs.dedup.duplicates"]


class TestIngressWiring:
    def test_single_server_ingress_is_guarded(self, sim, streams):
        system = build_system("rss", sim, streams, 2)
        plan = FaultPlan(events=(), retry=RETRY)
        injector = FaultInjector(sim, streams, plan, system)
        assert injector.ingress == injector.guarded_offer

    def test_rack_ingress_is_rack_offer(self, sim, streams):
        rack = make_rack(sim, streams)
        plan = FaultPlan(events=(), retry=RETRY)
        injector = FaultInjector(sim, streams, plan, rack)
        assert injector.ingress == rack.offer
        # The injector installed its shared health view everywhere.
        assert rack.health is injector.health
        assert rack.policy.health is injector.health

    def test_injected_run_keeps_registry_namespaced(self, sim, streams):
        """faults.* and client.retry.* appear only on faulted runs (the
        pinned metrics schema of plain runs must stay untouched)."""
        result = quick_run("altocumulus", n_cores=4, rate_rps=1e6,
                           n_requests=200, seed=3)
        assert not any(k.startswith(("faults.", "client.retry."))
                       for k in result.metrics)
