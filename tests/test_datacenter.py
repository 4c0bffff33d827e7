"""Datacenter-tier behavior tests: hand-computed spine arithmetic,
fabric-wide conservation, the inter-rack steering regression the tier
exists to show, per-tenant SLO accounting, spine/rack fault interop,
and sweep determinism of the fig_datacenter experiment."""

import pytest

from repro.api import quick_run, run_workload
from repro.cluster.fabric import FabricConfig, build_fabric
from repro.cluster.switch import SwitchCore
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.runner import overrides
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.request import Request
from repro.workload.service import Exponential
from repro.workload.tenants import (
    TenantClass,
    TenantConnectionPool,
    TenantMix,
    tenant_slo_summary,
)


def _request(req_id, connection=0, arrival=0.0, finished=None, size=300):
    r = Request(req_id=req_id, arrival=arrival, service_time=100.0,
                size_bytes=size, connection=connection)
    r.finished = finished
    return r


class TestSpineArithmetic:
    """Hand-computed store-and-forward timing of the spine stage."""

    def test_serialization_queueing_and_forward_latency(self):
        # 400 Gb/s, one link: a 300 B request serializes in
        # 300 * 8 / 400 = 6 ns; the pipeline adds 500 ns flat.
        sim = Simulator()
        spine = SwitchCore(sim, n_ports=2, bandwidth_gbps=400.0,
                           forward_latency_ns=500.0)
        delivered = []
        deliver = lambda r: delivered.append((r.req_id, sim.now))  # noqa: E731

        # Round-robin over 2 ports at t=0: ports 0, 1, then 0 again.
        for i, port in enumerate((0, 1, 0)):
            assert spine.forward(_request(i), port, deliver)
        sim.run(until=10_000.0)

        # Requests 0 and 1 hit idle ports: 6 + 500 = 506 ns.  Request 2
        # serializes behind request 0 (starts at 6): 12 + 500 = 512 ns.
        assert delivered == [(0, 506.0), (1, 506.0), (2, 512.0)]
        assert spine.forwarded == 3
        assert spine.dropped == 0
        # Only request 2 waited, exactly one serialization time.
        assert spine.queue_wait_ns == 6.0

    def test_port_bandwidth_sets_serialization(self):
        # 1600 Gb/s (what four aggregated 400 GbE links used to model):
        # a 300 B request serializes in 300 * 8 / 1600 = 1.5 ns.
        spine = SwitchCore(Simulator(), n_ports=1, bandwidth_gbps=1600.0,
                           forward_latency_ns=500.0)
        assert spine.serialization_ns(300) == pytest.approx(1.5)

    def test_full_port_tail_drops(self):
        sim = Simulator()
        dropped = []
        spine = SwitchCore(sim, n_ports=1, port_queue_depth=2,
                           on_drop=lambda r, p: dropped.append(r.req_id))
        sink = []
        for i in range(3):
            spine.forward(_request(i), 0, sink.append)
        assert dropped == [2]
        assert spine.dropped_per_port == [1]


class TestFabricConservation:
    """A hand-sized 2-rack x 2-server fabric conserves every request and
    charges every hop's latency."""

    def _run(self, n_requests=2000, tenants=()):
        sim = Simulator()
        streams = RandomStreams(5)
        config = FabricConfig.datacenter(
            n_racks=2,
            rack=FabricConfig.rack(n_servers=2, cores_per_server=2, system="rss",
                            policy="round_robin"),
            policy="round_robin",
            tenants=tenants,
        )
        dc = build_fabric(sim, streams, config)
        result = run_workload(
            dc, sim, streams,
            arrivals=PoissonArrivals(4e6),  # 50% of 8 MRPS capacity
            service=Exponential(1000.0),
            n_requests=n_requests,
        )
        return dc, result

    def test_every_request_reaches_exactly_one_terminal(self):
        dc, result = self._run()
        assert dc.stats.offered == 2000
        assert dc.stats.completed + dc.stats.dropped == dc.stats.offered
        # Nothing lost inside the fabric: everything offered crossed the
        # spine, landed in some rack, and terminated there.
        assert dc.switch.forwarded == dc.stats.offered
        assert dc.switch.partition_dropped == 0
        assert sum(r.stats.offered for r in dc.members) == dc.switch.forwarded
        assert sum(r.stats.completed for r in dc.members) == dc.stats.completed

    def test_round_robin_splits_racks_evenly(self):
        dc, _ = self._run()
        offered = [r.stats.offered for r in dc.members]
        assert offered == [1000, 1000]

    def test_latency_includes_both_fabric_hops(self):
        dc, result = self._run()
        # Lower bound on any completed request: spine serialization +
        # spine pipeline + ToR serialization + ToR pipeline + service.
        spine_hop = dc.switch.serialization_ns(300) + dc.switch.forward_latency_ns
        tor = dc.members[0].switch
        tor_hop = tor.serialization_ns(300) + tor.forward_latency_ns
        floor = spine_hop + tor_hop
        assert all(r.latency > floor for r in result.requests)

    def test_hierarchical_metrics_namespaces(self):
        dc, result = self._run()
        assert result.metrics["datacenter.spine.forwarded"] == 2000
        assert result.metrics["datacenter.imbalance_index"] >= 1.0
        # Per-rack registries are attached as children: rack<i>.srv<j>.*
        assert result.metrics["rack0.cluster.switch.forwarded"] == 1000
        assert result.metrics["rack1.srv0.system.offered"] > 0


#: The skewed tenant mix the steering regression drives: the hot tenant
#: keeps 64 connections at high Zipf skew, so flow hashing concentrates
#: most of the fabric's load on whichever racks those flows hash to.
_SKEWED_TENANTS = (
    TenantClass("hot", 0.6, slo_ns=10_000.0, zipf_s=1.3, n_connections=64),
    TenantClass("cold", 0.4, slo_ns=10_000.0, n_connections=4096),
)


def _run_policy(policy, seed=3, **config_kwargs):
    """A skewed, highly loaded 4-rack fabric under one inter-rack policy."""
    sim = Simulator()
    streams = RandomStreams(seed)
    dc = build_fabric(
        sim, streams,
        FabricConfig.datacenter(
            n_racks=4,
            rack=FabricConfig.rack(n_servers=2, cores_per_server=2, system="rss",
                            policy="power_of_d", d=2),
            policy=policy,
            tenants=_SKEWED_TENANTS,
            **config_kwargs,
        ),
    )
    return run_workload(
        dc, sim, streams,
        arrivals=PoissonArrivals(11.2e6),  # 70% of 16 MRPS capacity
        service=Exponential(1000.0),
        n_requests=6000,
        connections=TenantConnectionPool(TenantMix(_SKEWED_TENANTS)),
    )


class TestInterRackSteeringRegression:
    def test_power_of_two_beats_connection_hash_across_racks(self):
        """The tier's raison d'etre, one level up from the rack: even
        with load-aware steering *inside* every rack, hashing *across*
        racks pins the hot tenant's flows and the fabric tail explodes."""
        hashed = _run_policy("hash")
        p2c = _run_policy("power_of_d", d=2)
        assert p2c.latency.p99 < hashed.latency.p99 / 2.0
        assert (
            p2c.metrics["datacenter.imbalance_index"]
            < hashed.metrics["datacenter.imbalance_index"]
        )
        assert hashed.metrics["datacenter.imbalance_index"] > 1.2
        # The imbalance is what costs the hot tenant its SLO.
        assert (
            p2c.metrics["tenant.hot.attainment"]
            > hashed.metrics["tenant.hot.attainment"]
        )

    def test_datacenter_run_is_deterministic_for_a_fixed_seed(self):
        first = _run_policy("shortest_wait")
        second = _run_policy("shortest_wait")
        assert first.latency.p99 == second.latency.p99
        assert [r.finished for r in first.requests] == [
            r.finished for r in second.requests
        ]


class TestTenantSloAccounting:
    def test_summary_arithmetic_on_fabricated_requests(self):
        mix = TenantMix((
            TenantClass("a", 0.4, slo_ns=1000.0, n_connections=4),
            TenantClass("b", 0.4, slo_ns=2000.0, n_connections=4),
            TenantClass("idle", 0.2, slo_ns=1000.0, n_connections=4),
        ))
        requests = [
            _request(0, connection=0, finished=500.0),     # a: met
            _request(1, connection=3, finished=1000.0),    # a: met (at SLO)
            _request(2, connection=1, finished=1500.0),    # a: missed
            _request(3, connection=5, finished=1500.0),    # b: met
            _request(4, connection=6, finished=None),      # unfinished
        ]
        summary = tenant_slo_summary(requests, mix)
        assert summary["a"]["completed"] == 3
        assert summary["a"]["slo_met"] == 2
        assert summary["a"]["attainment"] == pytest.approx(2 / 3)
        assert summary["b"] == {
            "completed": 1, "slo_met": 1, "attainment": 1.0,
            "p50_ns": 1500.0, "p99_ns": 1500.0,
        }
        # An idle tenant has no violations, so attainment is 1.0.
        assert summary["idle"]["completed"] == 0
        assert summary["idle"]["attainment"] == 1.0

    def test_live_accounting_matches_post_hoc_summary(self):
        """The datacenter's completion-path counters, and the tenant.*
        instruments in the run's registry snapshot, must agree with the
        post-hoc request-set summary."""
        sim = Simulator()
        streams = RandomStreams(9)
        dc = build_fabric(sim, streams, FabricConfig.datacenter(
            n_racks=2,
            rack=FabricConfig.rack(n_servers=2, cores_per_server=2, system="rss"),
            policy="round_robin",
            tenants=_SKEWED_TENANTS,
        ))
        result = run_workload(
            dc, sim, streams,
            arrivals=PoissonArrivals(4e6),
            service=Exponential(1000.0),
            n_requests=2000,
            connections=TenantConnectionPool(TenantMix(_SKEWED_TENANTS)),
        )
        summary = tenant_slo_summary(dc.finished_requests, dc.tenant_slo.mix)
        for i, tenant in enumerate(dc.tenant_slo.mix.tenants):
            assert dc.tenant_slo.completed[i] == summary[tenant.name]["completed"]
            assert dc.tenant_slo.slo_met[i] == summary[tenant.name]["slo_met"]
            for key in ("completed", "slo_met", "attainment"):
                assert result.metrics[f"tenant.{tenant.name}.{key}"] == \
                    summary[tenant.name][key], key
        assert sum(dc.tenant_slo.completed) == dc.stats.completed

    def test_pool_sampling_is_chunk_invariant(self):
        """Batched connection draws must be bit-identical to scalar
        draws -- the generator prefetch contract."""
        import numpy as np

        pool = TenantConnectionPool(TenantMix(_SKEWED_TENANTS))
        batched = pool.sample_many(np.random.default_rng(42), 100)
        scalar_rng = np.random.default_rng(42)
        scalar = [pool.sample(scalar_rng) for _ in range(100)]
        assert batched == scalar


_FAULT_RETRY = RetryPolicy(timeout_ns=50_000.0, max_retries=3,
                           backoff_base_ns=20_000.0)


def _faulted_run(system, events, **params):
    plan = FaultPlan(events=events, retry=_FAULT_RETRY)
    defaults = dict(n_cores=16, rate_rps=8e6, mean_service_ns=1000.0,
                    n_requests=4000, seed=11)
    defaults.update(params)
    return quick_run(system=system, faults=plan, **defaults)


class TestSpineFaults:
    def test_spine_kinds_fire_against_the_datacenter(self):
        result = _faulted_run("datacenter", (
            FaultEvent(time_ns=50_000.0, kind="spine_degrade", target=0,
                       magnitude=0.25, duration_ns=100_000.0),
            FaultEvent(time_ns=80_000.0, kind="spine_partition", target=1,
                       duration_ns=60_000.0),
        ))
        inst = result.metrics
        assert inst["faults.spine_degrades"] == 1
        assert inst["faults.spine_partitions"] == 1
        assert inst["faults.events_fired"] == 4  # both starts + both stops
        assert inst["faults.events_skipped"] == 0
        # The default datacenter steers with health-aware shortest_wait,
        # so it stops sending into the partitioned port immediately --
        # at most a handful of in-transit requests can blackhole.
        assert inst["faults.partition_dropped"] <= 5
        # Conservation still holds: every logical request reached a
        # verdict through the retrying client.
        assert inst["client.retry.succeeded"] + inst[
            "client.retry.failed"] == 4000

    def test_spine_partition_blackholes_under_hash_steering(self):
        """Hash steering has no health feedback, so it keeps forwarding
        into the partitioned port; those losses are silent in-fabric
        drops the retrying client must recover."""
        sim = Simulator()
        streams = RandomStreams(11)
        dc = build_fabric(sim, streams, FabricConfig.datacenter(
            n_racks=2,
            rack=FabricConfig.rack(n_servers=2, cores_per_server=2, system="rss"),
            policy="hash",
        ))
        plan = FaultPlan(
            events=(FaultEvent(time_ns=80_000.0, kind="spine_partition",
                               target=1, duration_ns=100_000.0),),
            retry=_FAULT_RETRY,
        )
        result = run_workload(
            dc, sim, streams,
            arrivals=PoissonArrivals(4e6),
            service=Exponential(1000.0),
            n_requests=4000,
            faults=plan,
        )
        inst = result.metrics
        assert inst["faults.spine_partitions"] == 1
        assert inst["faults.partition_dropped"] > 50
        assert dc.switch.partition_dropped == inst["faults.partition_dropped"]
        # Silent losses never surface as switch tail-drops or rack
        # terminals; the client's timeouts absorb them.
        assert dc.switch.dropped == 0
        assert inst["client.retry.succeeded"] + inst[
            "client.retry.failed"] == 4000

    def test_spine_kinds_skip_against_a_single_server(self):
        result = _faulted_run("altocumulus", (
            FaultEvent(time_ns=50_000.0, kind="spine_degrade", target=0,
                       magnitude=0.25, duration_ns=50_000.0),
        ))
        assert result.metrics["faults.spine_degrades"] == 0
        assert result.metrics["faults.events_fired"] == 0
        assert result.metrics["faults.events_skipped"] == 2

    def test_tor_kinds_skip_against_the_datacenter(self):
        """ToR kinds address a rack's switch, which the fabric does not
        expose as ``switch``; they are structurally inapplicable here."""
        result = _faulted_run("datacenter", (
            FaultEvent(time_ns=50_000.0, kind="tor_degrade", target=0,
                       magnitude=0.25, duration_ns=50_000.0),
        ))
        assert result.metrics["faults.tor_degrades"] == 0
        assert result.metrics["faults.events_skipped"] == 2

    def test_rack_loss_is_routed_around(self):
        """At this tier ``server_crash`` downs a whole rack; the
        health-aware inter-rack policy steers the survivors."""
        result = _faulted_run("datacenter", (
            FaultEvent(time_ns=40_000.0, kind="server_crash", target=1,
                       duration_ns=80_000.0),
        ))
        inst = result.metrics
        assert inst["faults.server_crashes"] == 1
        assert inst["faults.server_recoveries"] == 1
        assert inst["client.retry.succeeded"] + inst[
            "client.retry.failed"] == 4000
        # The default datacenter steers with shortest_wait, which is
        # health-aware: only requests already in flight toward the dead
        # rack at crash time can be lost to the blackhole.
        assert inst["faults.requests_blackholed"] < 50


class TestQuickRunIntegration:
    def test_quick_run_datacenter_end_to_end(self):
        result = quick_run(system="datacenter", n_cores=16, rate_rps=8e6,
                           n_requests=3000, seed=2)
        assert result.system_name.startswith("datacenter[2x2x")
        assert result.latency.count > 0
        assert result.metrics["datacenter.spine.forwarded"] == 3000
        assert 0 < result.utilization < 1

    def test_indivisible_core_counts_degrade_to_one_rack(self):
        result = quick_run(system="datacenter", n_cores=6, rate_rps=2e6,
                           n_requests=500, seed=2)
        assert result.system_name.startswith("datacenter[1x1x")


class TestFigDatacenterDeterminism:
    """The fabric sweep behaves like every other experiment under the
    runner: bit-identical serial vs parallel, replayable from cache."""

    @pytest.fixture(autouse=True)
    def tiny_sweep(self, monkeypatch):
        from repro.experiments import fig_datacenter

        monkeypatch.setattr(
            fig_datacenter, "POLICIES",
            (("hash", {"policy": "hash"}),
             ("power_of_2", {"policy": "power_of_d", "d": 2})),
        )
        monkeypatch.setattr(
            fig_datacenter, "TENANT_MIXES",
            {"skewed": fig_datacenter.TENANT_MIXES["skewed"]},
        )

    def test_rows_identical_serial_vs_parallel_and_cached(self, tmp_path):
        from repro.experiments import fig_datacenter
        from repro.runner import get_config

        with overrides(jobs=1, use_cache=False):
            serial = fig_datacenter.run(scale=0.1)
        with overrides(jobs=4, use_cache=True, cache_dir=str(tmp_path)):
            parallel = fig_datacenter.run(scale=0.1)
        assert serial.rows == parallel.rows
        assert serial.series == parallel.series
        # Replay must be pure cache hits and still identical.
        with overrides(jobs=4, use_cache=True, cache_dir=str(tmp_path)):
            counters = get_config().counters
            before = counters.snapshot()
            replay = fig_datacenter.run(scale=0.1)
            sweep = counters.delta(before)
        assert replay.rows == serial.rows
        assert sweep.points == 2
        assert sweep.cache_hits == 2
        assert sweep.executed == 0
