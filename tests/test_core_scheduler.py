"""Integration tests for the full Altocumulus system."""


from repro.api import run_workload
from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.workload.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workload.connections import ConnectionPool
from repro.workload.service import Fixed


def make_system(sim, streams, n_groups=2, group_size=4, **kwargs):
    config = AltocumulusConfig(
        n_groups=n_groups,
        group_size=group_size,
        period_ns=kwargs.pop("period_ns", 200.0),
        bulk=kwargs.pop("bulk", 8),
        concurrency=kwargs.pop("concurrency", 1),
        **kwargs,
    )
    return AltocumulusSystem(sim, streams, config)


def run_system(system, sim, streams, n=300, rate_rps=2e6, service=None,
               connections=None):
    return run_workload(
        system, sim, streams,
        PoissonArrivals(rate_rps), service or Fixed(1_000.0),
        n_requests=n, warmup_fraction=0.0, connections=connections,
    )


class TestBasicOperation:
    def test_all_requests_complete_exactly_once(self, sim, streams):
        system = make_system(sim, streams)
        result = run_system(system, sim, streams, n=400)
        ids = [r.req_id for r in result.requests]
        assert len(ids) == len(set(ids)) == 400

    def test_managers_never_execute_requests(self, sim, streams):
        system = make_system(sim, streams)
        result = run_system(system, sim, streams)
        manager_core_ids = {g * 4 for g in range(2)}
        assert all(r.core_id not in manager_core_ids for r in result.requests)

    def test_worker_occupancy_respects_bound(self, sim, streams):
        system = make_system(sim, streams, worker_bound=2)
        run_system(system, sim, streams, rate_rps=8e6)
        # During the run occupancy never exceeded 2 (checked at end via
        # invariant: counters balanced back to zero).
        assert all(occ == 0 for group in system.occupancy for occ in [sum(group)])

    def test_single_group_runs_without_runtime(self, sim, streams):
        system = make_system(sim, streams, n_groups=1, group_size=8)
        result = run_system(system, sim, streams)
        assert len(result.requests) == 300
        assert system.total_migrated() == 0


class TestMigration:
    def test_imbalance_triggers_migrations(self, sim, streams):
        """All traffic hashed to one group: migration must spread it."""
        system = make_system(sim, streams, n_groups=2, group_size=4,
                             bulk=8, concurrency=1, offered_load=0.8)
        hot = ConnectionPool(1)  # a single connection -> one hot group
        result = run_system(system, sim, streams, n=600, rate_rps=4e6,
                            connections=hot)
        assert system.total_migrated() > 0
        groups_used = {r.group_id for r in result.requests}
        assert len(groups_used) == 2  # work executed in both groups

    def test_migrated_requests_marked(self, sim, streams):
        system = make_system(sim, streams, offered_load=0.8)
        result = run_system(system, sim, streams, n=600, rate_rps=4e6,
                            connections=ConnectionPool(1))
        migrated = [r for r in result.requests if r.migrations > 0]
        assert migrated
        assert all(r.no_migration_eta is not None for r in migrated)
        assert all(r.req_id in system.predicted_ids for r in migrated)

    def test_at_most_one_migration_by_default(self, sim, streams):
        system = make_system(sim, streams, n_groups=4, group_size=4,
                             concurrency=3, offered_load=0.9)
        result = run_system(system, sim, streams, n=800, rate_rps=6e6,
                            connections=ConnectionPool(1))
        assert all(r.migrations <= 1 for r in result.requests)

    def test_remigration_ablation_allows_extra_hops(self, sim, streams):
        system = make_system(sim, streams, n_groups=4, group_size=4,
                             concurrency=3, offered_load=0.9,
                             allow_remigration=True)
        result = run_system(system, sim, streams, n=800, rate_rps=6e6,
                            connections=ConnectionPool(1))
        # Conservation still holds even when requests bounce repeatedly.
        assert len(result.requests) == 800

    def test_runtime_disabled_never_migrates(self, sim, streams):
        system = make_system(sim, streams, runtime_enabled=False)
        run_system(system, sim, streams, n=400, rate_rps=4e6,
                   connections=ConnectionPool(1))
        assert system.total_migrated() == 0

    def test_migration_reduces_tail_under_imbalance(self, sim, streams):
        """The headline effect: with one hot group, migration cuts p99."""
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams

        def measure(runtime_enabled):
            sim2 = Simulator()
            streams2 = RandomStreams(77)
            system = make_system(sim2, streams2, n_groups=2, group_size=4,
                                 runtime_enabled=runtime_enabled,
                                 offered_load=0.9, bulk=8, concurrency=1)
            result = run_workload(
                system, sim2, streams2,
                # One connection: everything lands on one 3-worker group
                # at ~1.3x that group's capacity.
                DeterministicArrivals(4e6), Fixed(1_000.0),
                n_requests=1_000, warmup_fraction=0.1,
                connections=ConnectionPool(1),
            )
            return result.latency.p99

        assert measure(True) < measure(False) / 3


class TestVariants:
    def test_rss_variant_pays_pcie(self, sim, streams):
        system = make_system(sim, streams, variant="rss")
        result = run_system(system, sim, streams, n=100, rate_rps=1e5)
        # PCIe floor: >= 200 ns on top of service.
        assert result.latency.p50 > 1_200.0

    def test_int_variant_is_faster(self, sim, streams):
        system = make_system(sim, streams, variant="int")
        result = run_system(system, sim, streams, n=100, rate_rps=1e5)
        assert result.latency.p50 < 1_200.0

    def test_sw_dispatch_serializes_manager(self, sim, streams):
        """AC_rss software dispatch caps each group's throughput at the
        28.6 MRPS coherence-message ceiling."""
        system = make_system(sim, streams, n_groups=1, group_size=16,
                             variant="rss")
        result = run_workload(
            system, sim, streams,
            DeterministicArrivals(50e6),  # far above 28.6 MRPS
            Fixed(10.0),  # workers essentially free
            n_requests=3_000, warmup_fraction=0.5,
        )
        assert result.latency.p99 > 5_000.0  # dispatch backlog dominates

    def test_hw_dispatch_override_removes_ceiling(self, sim, streams):
        system = make_system(sim, streams, n_groups=1, group_size=16,
                             variant="rss", dispatch_mode="hw")
        result = run_workload(
            system, sim, streams,
            DeterministicArrivals(50e6), Fixed(10.0),
            n_requests=3_000, warmup_fraction=0.5,
        )
        assert result.latency.p99 < 5_000.0

    def test_msr_interface_stretches_tick_cadence(self, sim, streams):
        isa = make_system(sim, streams, n_groups=16, group_size=4,
                          interface="isa", period_ns=100.0, concurrency=3)
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams

        sim2, streams2 = Simulator(), RandomStreams(12345)
        msr = make_system(sim2, streams2, n_groups=16, group_size=4,
                          interface="msr", period_ns=100.0, concurrency=3)
        run_system(isa, sim, streams, n=500, rate_rps=5e6)
        run_system(msr, sim2, streams2, n=500, rate_rps=5e6)
        # MSR ticks cost > period, so fewer ticks fit in the same run.
        assert sum(rt.ticks for rt in msr.runtimes) < sum(
            rt.ticks for rt in isa.runtimes
        )

    def test_execute_hook_applied(self, sim, streams):
        calls = []

        def penalty(request):
            calls.append(request.req_id)
            return 100.0

        config = AltocumulusConfig(n_groups=2, group_size=4)
        system = AltocumulusSystem(sim, streams, config)
        system.execute = penalty
        result = run_system(system, sim, streams, n=50, rate_rps=1e5)
        assert len(calls) == 50
        assert result.latency.p50 > 1_100.0  # penalty visible in latency


class TestIntrospection:
    def test_netrx_lengths_shape(self, sim, streams):
        system = make_system(sim, streams, n_groups=3, group_size=4)
        assert system.netrx_lengths() == [0, 0, 0]

    def test_shutdown_stops_ticks(self, sim, streams):
        system = make_system(sim, streams)
        run_system(system, sim, streams, n=100)
        ticks_before = sum(rt.ticks for rt in system.runtimes)
        sim.run(until=sim.now + 10_000.0)
        assert sum(rt.ticks for rt in system.runtimes) == ticks_before
