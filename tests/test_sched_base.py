"""Unit tests for the shared RpcSystem harness behaviour."""

import pytest

from repro.schedulers.base import RpcSystem
from repro.schedulers.rss import RssSystem
from repro.workload.service import Fixed
from repro.workload.arrivals import DeterministicArrivals
from repro.api import run_workload
from tests.conftest import make_request


class TestLifecycle:
    def test_offer_charges_delivery_latency(self, sim, streams):
        system = RssSystem(sim, streams, 2)  # hw-terminated default: 30 ns
        req = make_request(service_time=100.0)
        system.offer(req)
        system.expect(1)
        sim.run(until=10**9)
        assert req.enqueued == 30.0
        assert req.latency == 130.0

    def test_expect_stops_simulation(self, sim, streams):
        system = RssSystem(sim, streams, 2)
        system.offer(make_request())
        system.expect(1)
        sim.schedule(10**8, lambda: None)  # would keep the heap alive
        sim.run(until=10**10)
        assert sim.now < 10**8  # stopped at completion, not at the event

    def test_expect_validation(self, sim, streams):
        with pytest.raises(ValueError):
            RssSystem(sim, streams, 2).expect(0)

    def test_completion_hooks_fire_in_order(self, sim, streams):
        system = RssSystem(sim, streams, 2)
        calls = []
        system.completion_hooks.append(lambda r: calls.append(("a", r.req_id)))
        system.completion_hooks.append(lambda r: calls.append(("b", r.req_id)))
        system.offer(make_request(req_id=7))
        system.expect(1)
        sim.run(until=10**9)
        assert calls == [("a", 7), ("b", 7)]

    def test_utilization_bounds(self, sim, streams):
        system = RssSystem(sim, streams, 2)
        assert system.utilization(0.0) == 0.0
        result = run_workload(
            system, sim, streams, DeterministicArrivals(1e6), Fixed(500.0),
            n_requests=100, warmup_fraction=0.0,
        )
        assert 0.0 < result.utilization <= 1.0

    def test_invalid_core_count(self, sim, streams):
        with pytest.raises(ValueError):
            RssSystem(sim, streams, 0)


class TestStats:
    def test_offered_and_completed_counters(self, sim, streams):
        system = RssSystem(sim, streams, 2)
        run_workload(
            system, sim, streams, DeterministicArrivals(1e6), Fixed(100.0),
            n_requests=50, warmup_fraction=0.0,
        )
        assert system.stats.offered == 50
        assert system.stats.completed == 50
        assert system.stats.dropped == 0

    def test_abstract_base_cannot_instantiate(self, sim, streams):
        with pytest.raises(TypeError):
            RpcSystem(sim, streams, 2)  # abstract methods missing
