"""Focused unit tests for AltocumulusSystem internals."""

import pytest

from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from tests.conftest import make_request


@pytest.fixture
def system(sim, streams):
    config = AltocumulusConfig(n_groups=2, group_size=4, variant="int")
    return AltocumulusSystem(sim, streams, config)


class TestIndexArithmetic:
    def test_group_of_core(self, system):
        assert system._core_group[0] == 0
        assert system._core_group[3] == 0
        assert system._core_group[4] == 1
        assert system._core_group[7] == 1

    def test_worker_index_skips_manager(self, system):
        # Core 1 is worker 0 of group 0; core 5 is worker 0 of group 1.
        assert system._core_worker[1] == 0
        assert system._core_worker[3] == 2
        assert system._core_worker[5] == 0

    def test_worker_core_lookup(self, system):
        core = system._worker_cores[1][2]  # group 1, worker 2
        assert core.core_id == 4 + 1 + 2

    def test_least_occupied_prefers_lowest(self):
        assert AltocumulusSystem._least_occupied([2, 0, 1], 2) == 1
        assert AltocumulusSystem._least_occupied([2, 2, 2], 2) is None
        assert AltocumulusSystem._least_occupied([0, 0], 2) == 0  # tie: first


class TestDispatchDelay:
    def test_hw_dispatch_includes_tile_distance(self, system):
        near = system._dispatch_delay(0, 0)  # worker tile adjacent
        far = system._dispatch_delay(0, 2)  # further along the mesh
        assert near >= 20.0
        assert far >= near

    def test_sw_dispatch_serializes(self, sim, streams):
        config = AltocumulusConfig(n_groups=2, group_size=4, variant="rss")
        system = AltocumulusSystem(sim, streams, config)
        first = system._dispatch_delay(0, 0)
        second = system._dispatch_delay(0, 0)
        # Same instant: the second op waits for the first's 35 ns slot.
        assert second == pytest.approx(first + 35.0)

    def test_sw_dispatch_groups_independent(self, sim, streams):
        config = AltocumulusConfig(n_groups=2, group_size=4, variant="rss")
        system = AltocumulusSystem(sim, streams, config)
        system._dispatch_delay(0, 0)
        other_group = system._dispatch_delay(1, 0)
        assert other_group == pytest.approx(35.0)  # no cross-group queueing


class TestBatchSelection:
    def test_take_batch_stamps_counterfactual(self, system):
        mrs = system.managers[0].mrs
        for i in range(5):
            mrs.enqueue(make_request(req_id=i))
        system.estimators[0].record_completion(1_000.0)
        batch = system._take_batch(0, 2)
        assert len(batch) == 2
        assert all(r.no_migration_eta is not None for r in batch)
        assert all(r.req_id in system.predicted_ids for r in batch)
        # The newest requests were taken from the tail.
        assert [r.req_id for r in batch] == [3, 4]

    def test_take_batch_skips_migrated(self, system):
        mrs = system.managers[0].mrs
        for i in range(4):
            r = make_request(req_id=i)
            r.migrations = 1 if i >= 2 else 0
            mrs.enqueue(r)
        batch = system._take_batch(0, 2)
        assert [r.req_id for r in batch] == [0, 1]

    def test_remigration_config_lifts_filter(self, sim, streams):
        config = AltocumulusConfig(n_groups=2, group_size=4,
                                   allow_remigration=True)
        system = AltocumulusSystem(sim, streams, config)
        mrs = system.managers[0].mrs
        r = make_request(req_id=0)
        r.migrations = 3
        mrs.enqueue(r)
        assert system._take_batch(0, 1) == [r]

    def test_restore_batch_returns_requests(self, system):
        mrs = system.managers[0].mrs
        reqs = [make_request(req_id=i) for i in range(3)]
        for r in reqs:
            mrs.enqueue(r)
        batch = system._take_batch(0, 2)
        system._restore_batch(0, batch)
        assert len(mrs) == 3


class TestFlagging:
    def test_flag_predicted_marks_tail(self, system):
        mrs = system.managers[0].mrs
        for i in range(6):
            mrs.enqueue(make_request(req_id=i))
        system._flag_predicted(0, 2)
        assert {4, 5} <= system.predicted_ids
        assert 0 not in system.predicted_ids


class TestNaming:
    def test_system_name_encodes_variant_and_interface(self, sim, streams):
        config = AltocumulusConfig(n_groups=2, group_size=4, variant="rss",
                                   interface="msr")
        system = AltocumulusSystem(sim, streams, config)
        assert system.name == "ac_rss_msr"
