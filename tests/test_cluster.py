"""Unit tests for the rack tier: ToR switch, steering policies,
topology wiring, and cluster metrics."""

import pytest

from repro.api import quick_run
from repro.cluster.metrics import imbalance_index
from repro.cluster.policies import (
    ConnectionHashSteering,
    PowerOfDSteering,
    RoundRobinSteering,
    ShortestExpectedWaitSteering,
    make_policy,
)
from repro.cluster.switch import SwitchCore
from repro.cluster.fabric import FabricConfig, build_fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.request import Request


def _request(req_id=0, connection=0, size_bytes=300):
    return Request(
        req_id=req_id, arrival=0.0, service_time=1000.0,
        size_bytes=size_bytes, connection=connection,
    )


class TestToRSwitch:
    def test_serialization_time_is_wire_time(self):
        switch = SwitchCore(Simulator(), n_ports=2, bandwidth_gbps=100.0)
        assert switch.serialization_ns(300) == pytest.approx(24.0)
        assert switch.serialization_ns(1500) == pytest.approx(120.0)

    def test_forward_pays_serialization_plus_latency(self):
        sim = Simulator()
        switch = SwitchCore(
            sim, n_ports=1, bandwidth_gbps=100.0, forward_latency_ns=250.0
        )
        delivered = []
        assert switch.forward(
            _request(size_bytes=300), 0, lambda r: delivered.append(sim.now)
        )
        sim.run()
        assert delivered == [pytest.approx(24.0 + 250.0)]
        assert switch.forwarded == 1

    def test_same_port_requests_serialize_behind_each_other(self):
        sim = Simulator()
        switch = SwitchCore(
            sim, n_ports=1, bandwidth_gbps=100.0, forward_latency_ns=0.0
        )
        delivered = []
        for i in range(3):
            switch.forward(
                _request(req_id=i, size_bytes=1000),
                0,
                lambda r: delivered.append((r.req_id, sim.now)),
            )
        sim.run()
        # 1000 B at 100 Gbps = 80 ns on the wire, back to back.
        assert delivered == [
            (0, pytest.approx(80.0)),
            (1, pytest.approx(160.0)),
            (2, pytest.approx(240.0)),
        ]
        assert switch.queue_wait_ns == pytest.approx(80.0 + 160.0)

    def test_distinct_ports_do_not_contend(self):
        sim = Simulator()
        switch = SwitchCore(
            sim, n_ports=2, bandwidth_gbps=100.0, forward_latency_ns=0.0
        )
        delivered = []
        switch.forward(_request(0, size_bytes=1000), 0,
                       lambda r: delivered.append(sim.now))
        switch.forward(_request(1, size_bytes=1000), 1,
                       lambda r: delivered.append(sim.now))
        sim.run()
        assert delivered == [pytest.approx(80.0), pytest.approx(80.0)]
        assert switch.queue_wait_ns == 0.0

    def test_full_port_tail_drops_and_accounts(self):
        sim = Simulator()
        drops = []
        switch = SwitchCore(
            sim, n_ports=2, port_queue_depth=2,
            on_drop=lambda r, port: drops.append((r.req_id, port)),
        )
        results = [
            switch.forward(_request(i), 0, lambda r: None) for i in range(4)
        ]
        assert results == [True, True, False, False]
        assert switch.dropped == 2
        assert switch.dropped_per_port == [2, 0]
        assert drops == [(2, 0), (3, 0)]
        assert switch.occupancy(0) == 2

    def test_dropped_request_is_marked(self):
        sim = Simulator()
        switch = SwitchCore(sim, n_ports=1, port_queue_depth=1)
        victim = _request(1)
        switch.forward(_request(0), 0, lambda r: None)
        switch.forward(victim, 0, lambda r: None)
        assert victim.dropped

    def test_buffer_slot_freed_after_transmit(self):
        sim = Simulator()
        switch = SwitchCore(sim, n_ports=1, port_queue_depth=1)
        assert switch.forward(_request(0), 0, lambda r: None)
        assert switch.occupancy(0) == 1
        sim.run()
        assert switch.occupancy(0) == 0
        assert switch.forward(_request(1), 0, lambda r: None)

    def test_unbounded_port_never_drops(self):
        sim = Simulator()
        switch = SwitchCore(sim, n_ports=1, port_queue_depth=None)
        for i in range(1000):
            assert switch.forward(_request(i), 0, lambda r: None)
        assert switch.dropped == 0

    def test_port_out_of_range_rejected(self):
        switch = SwitchCore(Simulator(), n_ports=2)
        with pytest.raises(ValueError, match="port"):
            switch.forward(_request(), 2, lambda r: None)

    @pytest.mark.parametrize("kwargs", [
        dict(n_ports=0),
        dict(n_ports=2, bandwidth_gbps=0.0),
        dict(n_ports=2, forward_latency_ns=-1.0),
        dict(n_ports=2, port_queue_depth=0),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SwitchCore(Simulator(), **kwargs)


class TestSteeringPolicies:
    def test_hash_is_stable_per_connection_and_in_range(self):
        policy = ConnectionHashSteering(4)
        picks = [policy.pick_server(_request(connection=c)) for c in range(64)]
        assert all(0 <= p < 4 for p in picks)
        repeat = [policy.pick_server(_request(connection=c)) for c in range(64)]
        assert picks == repeat
        assert len(set(picks)) > 1  # pseudo-random across flows

    def test_round_robin_rotates(self):
        policy = RoundRobinSteering(3)
        picks = [policy.pick_server(_request(i)) for i in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]
        assert policy.decisions == [3, 2, 2]

    def test_power_of_d_prefers_the_shorter_queue(self):
        sim = Simulator()
        loads = [10.0, 0.0]
        policy = PowerOfDSteering(
            2, probe=lambda i: loads[i],
            rng=RandomStreams(1).draws("steering"), sim=sim, d=2,
        )
        assert policy.pick_server(_request()) == 1

    def test_power_of_d_tracks_own_sends_optimistically(self):
        sim = Simulator()
        # Frozen external view: both servers always report 0 outstanding,
        # but stale estimates make consecutive sends spread out anyway.
        policy = PowerOfDSteering(
            2, probe=lambda i: 0.0,
            rng=RandomStreams(1).draws("steering"), sim=sim, d=2,
            staleness_ns=1e12,
        )
        picks = [policy.pick_server(_request(i)) for i in range(8)]
        assert sorted(policy.decisions) == [4, 4], picks

    def test_power_of_d_staleness_gates_probes(self):
        sim = Simulator()
        probes = []

        def probe(i):
            probes.append(i)
            return 0.0

        policy = PowerOfDSteering(
            2, probe=probe, rng=RandomStreams(1).draws("steering"), sim=sim,
            d=2, staleness_ns=100.0,
        )
        policy.pick_server(_request(0))
        assert policy.refreshes == 2  # both candidates probed fresh
        policy.pick_server(_request(1))
        assert policy.refreshes == 2  # cached within the staleness window
        sim.run(until=100.0)
        policy.pick_server(_request(2))
        assert policy.refreshes == 4  # window expired, re-probed

    def test_power_of_d_with_zero_staleness_always_probes(self):
        sim = Simulator()
        policy = PowerOfDSteering(
            2, probe=lambda i: float(i), rng=RandomStreams(1).draws("steering"),
            sim=sim, d=2, staleness_ns=0.0,
        )
        for i in range(5):
            assert policy.pick_server(_request(i)) == 0
        assert policy.refreshes == 10

    def test_power_of_d_subsamples_when_d_below_n(self):
        sim = Simulator()
        policy = PowerOfDSteering(
            8, probe=lambda i: 0.0, rng=RandomStreams(1).draws("steering"),
            sim=sim, d=2, staleness_ns=0.0,
        )
        for i in range(200):
            policy.pick_server(_request(i))
        assert sum(policy.decisions) == 200
        assert all(count > 0 for count in policy.decisions)

    def test_shortest_wait_steers_to_minimum_expected_wait(self):
        sim = Simulator()
        loads = [8.0, 2.0, 5.0]
        policy = ShortestExpectedWaitSteering(
            3, probe=lambda i: loads[i], sim=sim, cores_per_server=4,
        )
        policy.start()
        assert policy.pick_server(_request()) == 1
        policy.shutdown()

    def test_shortest_wait_normalizes_by_core_count(self):
        sim = Simulator()
        policy = ShortestExpectedWaitSteering(
            2, probe=lambda i: 4.0, sim=sim, cores_per_server=2,
        )
        policy.start()
        assert policy.expected_wait(0) == pytest.approx(2.0)
        policy.shutdown()

    def test_shortest_wait_ties_rotate(self):
        sim = Simulator()
        policy = ShortestExpectedWaitSteering(
            4, probe=lambda i: 0.0, sim=sim, cores_per_server=1_000_000,
        )
        policy.start()
        picks = [policy.pick_server(_request(i)) for i in range(4)]
        policy.shutdown()
        # Near-zero normalized waits: the rotating tie-break spreads load
        # instead of hammering server 0.
        assert sorted(picks) == [0, 1, 2, 3]

    def test_shortest_wait_resamples_periodically(self):
        sim = Simulator()
        policy = ShortestExpectedWaitSteering(
            2, probe=lambda i: 0.0, sim=sim, cores_per_server=1,
            sample_period_ns=100.0,
        )
        policy.start()
        assert policy.samples_taken == 1
        sim.run(until=350.0)
        assert policy.samples_taken == 4
        policy.shutdown()
        sim.run(until=1_000.0)
        assert policy.samples_taken == 4  # timer cancelled

    def test_make_policy_builds_each_registered_name(self):
        sim = Simulator()
        rng = RandomStreams(1).draws("steering")
        expectations = {
            "hash": ConnectionHashSteering,
            "round_robin": RoundRobinSteering,
            "power_of_d": PowerOfDSteering,
            "shortest_wait": ShortestExpectedWaitSteering,
        }
        for name, cls in expectations.items():
            policy = make_policy(
                name, n_servers=2, probe=lambda i: 0.0, sim=sim, rng=rng,
                cores_per_server=4,
            )
            assert isinstance(policy, cls)
            assert policy.name == name

    def test_make_policy_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown steering policy"):
            make_policy(
                "random", n_servers=2, probe=lambda i: 0.0, sim=Simulator(),
                rng=RandomStreams(1).draws("steering"), cores_per_server=4,
            )

    @pytest.mark.parametrize("kwargs", [
        dict(d=0),
        dict(staleness_ns=-1.0),
    ])
    def test_power_of_d_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PowerOfDSteering(
                2, probe=lambda i: 0.0,
                rng=RandomStreams(1).draws("steering"), sim=Simulator(),
                **kwargs,
            )

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinSteering(0)


class TestRackConfig:
    def test_capacity_and_core_accounting(self):
        config = FabricConfig.rack(n_servers=4, cores_per_server=16)
        assert config.total_cores == 64
        assert config.capacity_rps(1000.0) == pytest.approx(64e6)

    @pytest.mark.parametrize("kwargs", [
        dict(n_servers=0),
        dict(cores_per_server=0),
        dict(policy="random"),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FabricConfig.rack(**kwargs)


class TestRackCluster:
    def _run_rack(self, config, n_requests=2000, rate_rps=8e6, seed=3):
        from repro.api import run_workload
        from repro.workload.arrivals import PoissonArrivals
        from repro.workload.service import Exponential

        sim = Simulator()
        streams = RandomStreams(seed)
        rack = build_fabric(sim, streams, config)
        return run_workload(
            rack, sim, streams,
            arrivals=PoissonArrivals(rate_rps),
            service=Exponential(1000.0),
            n_requests=n_requests,
        )

    def test_quick_run_drives_a_whole_rack(self):
        result = quick_run(
            system="rack", n_cores=32, rate_rps=8e6,
            mean_service_ns=1000.0, n_requests=2000, seed=7,
        )
        assert result.system_name.startswith("rack[")
        assert result.throughput_rps > 0
        assert result.metrics["cluster.imbalance_index"] >= 1.0

    def test_every_offered_request_terminates(self):
        config = FabricConfig.rack(
            n_servers=4, cores_per_server=4, system="rss", policy="round_robin"
        )
        result = self._run_rack(config)
        rack = result.system
        assert rack.stats.offered == 2000
        assert rack.stats.completed + rack.stats.dropped == 2000

    def test_tiny_switch_buffers_drop_but_still_terminate(self):
        config = FabricConfig.rack(
            n_servers=2, cores_per_server=2, system="rss", policy="hash",
            port_queue_depth=4,
        )
        result = self._run_rack(config, rate_rps=16e6)
        rack = result.system
        assert rack.switch.dropped > 0
        assert result.metrics["cluster.switch.dropped"] == rack.switch.dropped
        assert isinstance(result.metrics["cluster.switch.dropped"], int)
        assert rack.stats.completed + rack.stats.dropped == 2000

    def test_outstanding_probe_counts_in_flight_work(self):
        sim = Simulator()
        streams = RandomStreams(1)
        rack = build_fabric(
            sim, streams,
            FabricConfig.rack(n_servers=2, cores_per_server=2, system="rss",
                       policy="round_robin"),
        )
        assert rack.outstanding(0) == 0.0
        rack.members[0].stats.offered = 5
        rack.members[0].stats.completed = 2
        assert rack.outstanding(0) == 3.0

    def test_summary_reports_policy_telemetry(self):
        config = FabricConfig.rack(
            n_servers=2, cores_per_server=4, system="rss",
            policy="shortest_wait",
        )
        result = self._run_rack(config, n_requests=500)
        assert result.metrics["cluster.steer_samples"] >= 1
        assert (
            result.metrics["cluster.steer_srv0"]
            + result.metrics["cluster.steer_srv1"]
            == 500
        )


class TestClusterMetrics:
    def test_imbalance_index_edge_cases(self):
        assert imbalance_index([]) == 0.0
        assert imbalance_index([0, 0, 0]) == 0.0
        assert imbalance_index([5, 5, 5, 5]) == pytest.approx(1.0)
        assert imbalance_index([12, 0, 0, 0]) == pytest.approx(4.0)
