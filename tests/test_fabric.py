"""The recursive fabric: a 3-level topology from config alone, plus the
config and tenant-accounting contracts every depth shares."""

import pytest

from repro.api import run_workload
from repro.cluster import Fabric, FabricConfig, build_fabric
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.kvs.handlers import MicaWorkload
from repro.kvs.ownership import KvsSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.connections import ConnectionPool
from repro.workload.jobs import system_supports_gang
from repro.workload.service import Exponential
from repro.workload.tenants import TenantClass, tenant_slo_summary


def _pod(system="altocumulus", **pod_knobs):
    """A pod of 2 datacenters x 2 racks x 2 servers x 4 cores."""
    rack = FabricConfig.rack(n_servers=2, cores_per_server=4, system=system)
    return FabricConfig(
        n_members=2,
        member=FabricConfig.datacenter(n_racks=2, rack=rack),
        **pod_knobs,
    )


def _run(config, n_requests=2000, rate_rps=12e6, seed=4, **kwargs):
    sim = Simulator()
    streams = RandomStreams(seed)
    fabric = build_fabric(sim, streams, config)
    result = run_workload(
        fabric, sim, streams,
        arrivals=PoissonArrivals(rate_rps),  # ~40% of 32 MRPS
        service=Exponential(1000.0),
        n_requests=n_requests,
        **kwargs,
    )
    return fabric, result


def _walk(system):
    yield system
    if isinstance(system, Fabric):
        for member in system.members:
            yield from _walk(member)


class TestThreeLevelFabric:
    def test_shape_names_and_conservation_at_every_level(self):
        pod, result = _run(_pod())
        assert pod.depth == 3
        assert result.system_name == "tier3[2x2x2xaltocumulusx4/power_of_d]"
        assert pod.stats.offered == 2000
        for node in _walk(pod):
            stats = node.stats
            assert stats.offered == stats.completed + stats.dropped, node
        # Tier names recurse: the pod's switch and summary live under
        # tier3.*, each member registry under datacenter<i>.
        assert result.metrics["tier3.switch.forwarded"] == 2000
        assert result.metrics["datacenter1.rack0.srv1.system.offered"] > 0
        assert result.metrics["tier3.steer_datacenter0"] + result.metrics[
            "tier3.steer_datacenter1"] == 2000
        assert 0 < result.utilization < 1

    def test_leaves_are_all_eight_servers(self):
        pod = build_fabric(Simulator(), RandomStreams(1), _pod())
        leaves = pod.leaves()
        assert len(leaves) == 8
        assert all(not isinstance(leaf, Fabric) for leaf in leaves)
        assert leaves == [
            server for dc in pod.members for rack in dc.members
            for server in rack.members
        ]
        assert len(pod.policies()) == 1 + 2 + 4

    def test_wire_kvs_assigns_distinct_global_group_offsets(self, monkeypatch):
        offsets = []
        executor_for = MicaWorkload.executor_for

        def record(self, offset):
            offsets.append(offset)
            return executor_for(self, offset)

        monkeypatch.setattr(MicaWorkload, "executor_for", record)
        _, result = _run(_pod(), n_requests=500,
                         kvs=KvsSpec(mode="crew", multiversion=True))
        # One manager group per 4-core Altocumulus leaf: 8 leaves own the
        # global group ids 0..7, one each.
        assert offsets == list(range(8))
        assert result.metrics["kvs.ownership.admissions"] > 0

    def test_gang_support_recurses_to_every_leaf(self):
        sim = Simulator()
        assert system_supports_gang(build_fabric(sim, RandomStreams(1), _pod()))
        assert not system_supports_gang(
            build_fabric(sim, RandomStreams(1), _pod(system="rss"))
        )

    def test_member_crash_is_routed_around(self):
        plan = FaultPlan(
            events=(FaultEvent(time_ns=40_000.0, kind="server_crash",
                               target=1, duration_ns=60_000.0),),
            retry=RetryPolicy(timeout_ns=50_000.0, max_retries=3,
                              backoff_base_ns=20_000.0),
        )
        pod, result = _run(_pod(), faults=plan)
        inst = result.metrics
        assert inst["faults.server_crashes"] == 1
        assert inst["faults.server_recoveries"] == 1
        assert inst["client.retry.succeeded"] == 2000
        assert inst["client.retry.failed"] == 0
        # Power-of-d is health-aware: only requests already in flight
        # toward the downed datacenter when it crashed can blackhole.
        assert inst["faults.requests_blackholed"] < 20
        decisions = pod.policy.decisions
        assert decisions[0] > decisions[1]


class TestFabricConfig:
    @pytest.mark.parametrize("name", ["rack", "datacenter"])
    def test_registry_fabric_as_leaf_is_rejected(self, name):
        with pytest.raises(ValueError, match="nest"):
            FabricConfig.rack(system=name)

    def test_presets_keep_historical_defaults(self):
        rack = FabricConfig.rack()
        assert (rack.n_members, rack.member, rack.cores_per_server) == (
            4, "altocumulus", 16)
        assert rack.policy == "power_of_d"
        assert (rack.bandwidth_gbps, rack.forward_latency_ns,
                rack.port_queue_depth) == (100.0, 250.0, 256)
        dc = FabricConfig.datacenter()
        assert dc.n_members == 2 and dc.member == rack
        assert dc.policy == "shortest_wait"
        assert (dc.bandwidth_gbps, dc.forward_latency_ns,
                dc.port_queue_depth) == (400.0, 500.0, 1024)
        assert (rack.depth, dc.depth) == (1, 2)
        assert dc.total_cores == 128


class TestTenantAccountingFilter:
    def test_connections_outside_the_tenant_pool_charge_no_tenant(self):
        """Live accounting and the post-hoc summary skip the same
        requests: a workload drawing connections beyond the tenant pool
        used to simulate fully, then crash in the summary."""
        tenants = (
            TenantClass("a", 0.5, slo_ns=10_000.0, n_connections=4),
            TenantClass("b", 0.5, slo_ns=10_000.0, n_connections=4),
        )
        config = FabricConfig.datacenter(
            n_racks=2,
            rack=FabricConfig.rack(n_servers=2, cores_per_server=4),
            tenants=tenants,
        )
        dc, result = _run(config, n_requests=500, rate_rps=4e6,
                          connections=ConnectionPool(64))
        tenant_slo = dc.tenant_slo
        summary = tenant_slo_summary(dc.finished_requests, tenant_slo.mix)
        for i, tenant in enumerate(tenants):
            assert tenant_slo.completed[i] == summary[tenant.name]["completed"]
            for key in ("completed", "slo_met", "attainment"):
                assert result.metrics[f"tenant.{tenant.name}.{key}"] == \
                    summary[tenant.name][key], key
        charged = sum(tenant_slo.completed)
        assert 0 < charged < dc.stats.completed
