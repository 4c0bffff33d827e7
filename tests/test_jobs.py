"""Unit and integration tests for job-structured requests: degree
distributions, job shapes, job-shaped load generation and gathering, gang
admission with shadows and sibling steering policies.

The compilation contract (trivial shapes are bit-identical to the flat
Request path) is pinned here at the run level; the repo-wide golden
fingerprints in test_determinism.py pin it globally.
"""

import pytest

from repro.api import quick_run, run_workload
from repro.cluster.policies import (
    POLICY_NAMES,
    SpreadJobSteering,
    StickyJobSteering,
    make_policy,
)
from repro.schedulers.jbsq import ideal_cfcfs
from repro.sim.rng import RandomStreams
from repro.telemetry import TraceSink
from repro.workload import (
    DeterministicArrivals,
    Exponential,
    Fixed,
    PoissonArrivals,
)
from repro.workload.generator import LoadGenerator
from repro.workload.jobs import (
    GANG_SHADOW_STRIDE,
    JOB_TRACE_ID_BASE,
    ChoiceDegree,
    FixedDegree,
    Job,
    JobShape,
    UniformDegree,
    make_gang_shadow,
    system_supports_gang,
)
from repro.workload.request import Request
from tests.conftest import make_request


# ----------------------------------------------------------------------
# Degree distributions
# ----------------------------------------------------------------------
class TestDegreeDistributions:
    def test_fixed_degree_draws_nothing_from_the_stream(self):
        rng = RandomStreams(1).get("jobs")
        before = rng.bit_generator.state
        assert FixedDegree(3).sample_many(rng, 100) == [3] * 100
        assert rng.bit_generator.state == before

    def test_fixed_degree_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedDegree(0)

    def test_choice_degree_stays_on_support_and_normalizes(self):
        dist = ChoiceDegree((1, 2, 4), (2.0, 1.0, 1.0))
        assert dist.weights == (0.5, 0.25, 0.25)
        draws = dist.sample_many(RandomStreams(2).get("jobs"), 500)
        assert set(draws) <= {1, 2, 4}
        assert dist.max_value == 4
        assert dist.mean == pytest.approx(1 * 0.5 + 2 * 0.25 + 4 * 0.25)

    def test_choice_degree_validation(self):
        with pytest.raises(ValueError):
            ChoiceDegree(())
        with pytest.raises(ValueError):
            ChoiceDegree((0, 2))
        with pytest.raises(ValueError):
            ChoiceDegree((1, 2), (1.0,))
        with pytest.raises(ValueError):
            ChoiceDegree((1, 2), (-1.0, 2.0))

    def test_uniform_degree_bounds(self):
        dist = UniformDegree(2, 5)
        draws = dist.sample_many(RandomStreams(3).get("jobs"), 500)
        assert min(draws) >= 2 and max(draws) <= 5
        assert dist.max_value == 5
        assert dist.mean == pytest.approx(3.5)
        with pytest.raises(ValueError):
            UniformDegree(0, 3)
        with pytest.raises(ValueError):
            UniformDegree(4, 3)

    def test_degree_draws_are_deterministic(self):
        dist = ChoiceDegree((1, 2, 4, 8))
        a = dist.sample_many(RandomStreams(7).get("jobs"), 200)
        b = dist.sample_many(RandomStreams(7).get("jobs"), 200)
        assert a == b


# ----------------------------------------------------------------------
# Job shape
# ----------------------------------------------------------------------
class TestJobShape:
    def test_default_shape_is_trivial(self):
        assert JobShape().is_trivial

    def test_nontrivial_shapes(self):
        assert not JobShape(fanout=FixedDegree(2)).is_trivial
        assert not JobShape(core_demand=FixedDegree(2)).is_trivial
        assert not JobShape(fanout=ChoiceDegree((1,))).is_trivial  # not Fixed

    def test_sibling_connections_validated(self):
        JobShape(sibling_connections="distinct")
        with pytest.raises(ValueError):
            JobShape(sibling_connections="bogus")

    def test_core_demand_limited_by_shadow_stride(self):
        with pytest.raises(ValueError):
            JobShape(core_demand=FixedDegree(GANG_SHADOW_STRIDE + 1))


# ----------------------------------------------------------------------
# Job record + gathering sub-request terminals
# ----------------------------------------------------------------------
class _HookSurface:
    """The terminal hooks :meth:`LoadGenerator.attach` observes: a
    system's completion/drop hooks and a retry client's logical hooks."""

    def __init__(self, trace=None):
        self.trace = trace
        self.completion_hooks = []
        self.drop_hooks = []
        self.logical_hooks = []

    def complete(self, request):
        for hook in self.completion_hooks:
            hook(request)

    def drop(self, request):
        for hook in self.drop_hooks:
            hook(request)


class TestJobTracker:
    """A job-shaped :class:`LoadGenerator` finishes each job at its last
    sibling's terminal."""

    def _scattered(self, sim, k=2, n_jobs=1, trace=None):
        # 100 ns deterministic gaps: job j arrives at 100 * (j + 1).
        sank = []
        gen = LoadGenerator(
            sim, RandomStreams(1), DeterministicArrivals(1e7),
            Exponential(1000.0), sink=sank.append, n_requests=n_jobs,
            shape=JobShape(fanout=FixedDegree(k)),
        )
        system = _HookSurface(trace)
        gen.attach(system)
        gen.start()
        sim.run()
        return gen, system, sank

    def test_job_completes_on_last_sibling(self, sim):
        gen, system, sank = self._scattered(sim, k=3)
        job = gen.jobs[0]
        assert job.arrival == 100.0
        sim.now = 500.0
        system.complete(sank[0])
        system.complete(sank[1])
        assert job.finished is None and not job.completed
        sim.now = 900.0
        system.complete(sank[2])
        assert job.completed and not job.dropped
        assert job.latency == pytest.approx(800.0)
        assert [j.completed for j in gen.jobs] == [True]
        assert [j.dropped for j in gen.jobs] == [False]

    def test_any_failed_sibling_drops_the_job(self, sim):
        gen, system, sank = self._scattered(sim, k=2)
        job = gen.jobs[0]
        sim.now = 300.0
        system.drop(sank[0])
        system.complete(sank[1])
        assert job.dropped and not job.completed
        assert [j.dropped for j in gen.jobs] == [True]

    def test_client_verdicts_are_the_sub_terminals(self, sim):
        # Under faults the retry client's logical verdict, not the
        # system's per-attempt hooks, is each sibling's terminal.
        sank = []
        gen = LoadGenerator(
            sim, RandomStreams(1), DeterministicArrivals(1e7),
            Exponential(1000.0), sink=sank.append, n_requests=1,
            shape=JobShape(fanout=FixedDegree(2)),
        )
        system, client = _HookSurface(), _HookSurface()
        gen.attach(system, client)
        assert system.completion_hooks == system.drop_hooks == []
        gen.start()
        sim.run()
        (verdict,) = client.logical_hooks
        verdict(sank[0], True)
        verdict(sank[1], False)
        assert gen.jobs[0].dropped

    def test_unknown_sub_ids_are_ignored(self, sim):
        gen, system, _ = self._scattered(sim, k=2)
        system.complete(make_request(req_id=999))  # no job_id: no-op
        assert gen.jobs[0].terminals == 0

    def test_flat_generator_keeps_no_jobs_and_attaches_nothing(self, sim):
        sank = []
        gen = LoadGenerator(
            sim, RandomStreams(1), DeterministicArrivals(1e7),
            Exponential(1000.0), sink=sank.append, n_requests=5,
            shape=JobShape(),
        )
        system = _HookSurface()
        gen.attach(system)
        gen.start()
        sim.run()
        assert gen.jobs is None and gen.total_subrequests == 5
        assert system.completion_hooks == system.drop_hooks == []
        assert all(r.job_id is None and r.fanout == 1 for r in sank)

    def test_latency_raises_before_finish(self, sim):
        job = Job(job_id=0, arrival=100.0, fanout=2, core_demand=1,
                  connection=0)
        with pytest.raises(ValueError):
            job.latency

    def test_parent_job_spans_telescope_to_job_latency(self, sim):
        trace = TraceSink(sample_every=1)
        gen, system, sank = self._scattered(sim, k=2, n_jobs=6, trace=trace)
        job = gen.jobs[5]
        siblings = [r for r in sank if r.job_id == 5]
        sim.now = job.arrival + 300.0
        system.complete(siblings[0])
        sim.now = job.arrival + 600.0
        system.complete(siblings[1])
        marks = trace.marks_by_request()[JOB_TRACE_ID_BASE + 5]
        phases = [phase for phase, _ in marks]
        assert phases == ["job_scatter", "sub_response", "sub_response",
                          "job_complete"]
        # Telescoping: consecutive-mark deltas sum to the job latency.
        times = [t for _, t in marks]
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert sum(deltas) == pytest.approx(job.latency)


# ----------------------------------------------------------------------
# Job-shaped load generation
# ----------------------------------------------------------------------
class TestJobLoadGenerator:
    """:class:`LoadGenerator` under a non-trivial :class:`JobShape`."""

    def _generator(self, sim, seed=7, n_jobs=50, shape=None, sink=None,
                   warmup_fraction=0.0):
        streams = RandomStreams(seed)
        sank = [] if sink is None else sink
        gen = LoadGenerator(
            sim, streams, PoissonArrivals(1e6), Exponential(1000.0),
            sink=sank.append if isinstance(sank, list) else sank,
            n_requests=n_jobs,
            shape=shape or JobShape(fanout=ChoiceDegree((1, 2, 4))),
            warmup_fraction=warmup_fraction,
        )
        return gen, sank

    def test_total_subrequests_known_at_construction(self, sim):
        gen, _ = self._generator(sim)
        assert gen.total_subrequests == sum(gen.fanouts)
        assert len(gen.fanouts) == 50

    def test_shapes_are_deterministic_per_seed(self, sim, sim2=None):
        a, _ = self._generator(sim, seed=11)
        b, _ = self._generator(sim, seed=11)
        c, _ = self._generator(sim, seed=12)
        assert a.fanouts == b.fanouts
        assert a.fanouts != c.fanouts

    def test_siblings_scatter_at_one_instant(self, sim):
        gen, sank = self._generator(sim)
        gen.start()
        sim.run(until=1e12)
        assert len(sank) == gen.total_subrequests
        for job in gen.jobs:
            siblings = [r for r in sank if r.job_id == job.job_id]
            assert len(siblings) == job.fanout
            assert {r.arrival for r in siblings} == {job.arrival}
            assert [r.sibling_index for r in siblings] == list(range(job.fanout))

    def test_shared_connections_pin_siblings_to_one_flow(self, sim):
        shape = JobShape(fanout=FixedDegree(4), sibling_connections="shared")
        gen, sank = self._generator(sim, shape=shape)
        gen.start()
        sim.run(until=1e12)
        for job in gen.jobs:
            conns = {r.connection for r in sank if r.job_id == job.job_id}
            assert len(conns) == 1

    def test_distinct_connections_draw_per_sibling(self, sim):
        shape = JobShape(fanout=FixedDegree(4), sibling_connections="distinct")
        gen, sank = self._generator(sim, shape=shape)
        gen.start()
        sim.run(until=1e12)
        # With a pool sized to total_subrequests, at least one job must
        # see >1 distinct flow (all-same would mean a broken draw path).
        distinct_counts = [
            len({r.connection for r in sank if r.job_id == job.job_id})
            for job in gen.jobs
        ]
        assert max(distinct_counts) > 1

    def test_job_arrival_instants_match_flat_generator(self, sim):
        # One gap draw per job means job arrivals replay the flat
        # generator's request arrivals for the same seed and count.
        gen, _ = self._generator(sim, seed=13, n_jobs=40)
        gen.start()
        sim.run(until=1e12)
        job_arrivals = [j.arrival for j in gen.jobs]

        from repro.sim.engine import Simulator

        sim2 = Simulator()
        flat_sink = []
        flat = LoadGenerator(
            sim2, RandomStreams(13), PoissonArrivals(1e6),
            Exponential(1000.0), sink=flat_sink.append, n_requests=40,
        )
        flat.start()
        sim2.run(until=1e12)
        assert job_arrivals == [r.arrival for r in flat_sink]

    def test_warmup_excludes_prefix_jobs(self, sim):
        gen, _ = self._generator(sim, n_jobs=40, warmup_fraction=0.25)
        gen.start()
        sim.run(until=1e12)
        for job in gen.jobs:  # mark all complete
            job.finished = job.arrival + 1.0
        assert gen.warmup_jobs == 10
        assert len(gen.measured_jobs()) == 30
        assert all(j.job_id >= 10 for j in gen.measured_jobs())
        # Sub-requests are measured iff their job is.
        for r in gen.requests:
            r.finished = r.arrival + 1.0
        measured = gen.measured_requests()
        assert len(measured) == gen.total_subrequests - sum(gen.fanouts[:10])
        assert all(r.job_id >= 10 for r in measured)

    def test_generator_validation(self, sim):
        with pytest.raises(ValueError):
            self._generator(sim, n_jobs=0)
        with pytest.raises(ValueError):
            self._generator(sim, warmup_fraction=1.0)


# ----------------------------------------------------------------------
# Gang shadows + gang admission
# ----------------------------------------------------------------------
class TestGangShadow:
    def test_shadow_mirrors_primary(self):
        primary = make_request(req_id=9, arrival=50.0, service_time=750.0,
                               job_id=3, fanout=2, sibling_index=1,
                               core_demand=4)
        primary.enqueued = 60.0
        shadow = make_gang_shadow(primary, 2)
        assert shadow.gang_shadow
        assert shadow.req_id < 0
        assert shadow.service_time == 750.0
        assert shadow.arrival == 50.0
        assert shadow.enqueued == 60.0
        assert shadow.job_id == 3 and shadow.core_demand == 4

    def test_shadow_ids_never_collide(self):
        ids = set()
        for rid in range(100):
            primary = make_request(req_id=rid)
            for slot in range(1, 8):
                ids.add(make_gang_shadow(primary, slot).req_id)
        assert len(ids) == 100 * 7

    def test_shadow_index_validated(self):
        primary = make_request()
        with pytest.raises(ValueError):
            make_gang_shadow(primary, 0)
        with pytest.raises(ValueError):
            make_gang_shadow(primary, GANG_SHADOW_STRIDE)


class TestGangAdmission:
    def test_gang_occupies_demand_cores_worth_of_time(self, sim, streams):
        # Work conservation: each completed primary with demand c burns
        # exactly c * service_time of core busy-time (shadows included).
        system = ideal_cfcfs(sim, streams, n_cores=4)
        result = run_workload(
            system, sim, streams, PoissonArrivals(5e5), Fixed(1000.0),
            n_requests=200, warmup_fraction=0.0,
            jobs=JobShape(core_demand=ChoiceDegree((1, 2), (0.5, 0.5))),
        )
        assert result.jobs.completed == 200
        busy = sum(core.busy_ns for core in system.cores)
        expected = sum(r.service_time * r.core_demand for r in result.requests)
        assert busy == pytest.approx(expected)

    def test_shadows_fenced_out_of_stats_and_request_log(self, sim, streams):
        system = ideal_cfcfs(sim, streams, n_cores=4)
        result = run_workload(
            system, sim, streams, PoissonArrivals(5e5), Fixed(1000.0),
            n_requests=100, warmup_fraction=0.0,
            jobs=JobShape(core_demand=FixedDegree(2)),
        )
        # Stats count primaries only: one terminal per sub-request.
        assert system.stats.completed == 100
        assert all(r.req_id >= 0 for r in system.finished_requests)
        assert all(not r.gang_shadow for r in result.requests)

    def test_infeasible_gang_is_dropped_not_wedged(self, sim, streams):
        system = ideal_cfcfs(sim, streams, n_cores=2)
        result = run_workload(
            system, sim, streams, PoissonArrivals(5e5), Fixed(1000.0),
            n_requests=50, warmup_fraction=0.0,
            jobs=JobShape(core_demand=ChoiceDegree((1, 4), (0.5, 0.5))),
        )
        assert system.gang_infeasible_drops > 0
        assert result.jobs.completed + result.jobs.dropped == 50
        assert result.jobs.dropped == system.gang_infeasible_drops

    def test_altocumulus_gang_admission(self):
        result = quick_run(
            "altocumulus", n_cores=16, rate_rps=2e6, mean_service_ns=1000.0,
            n_requests=300, seed=5,
            jobs=JobShape(core_demand=ChoiceDegree((1, 2, 4), (0.6, 0.3, 0.1))),
        )
        assert result.jobs.count == 300
        assert result.jobs.completed + result.jobs.dropped == 300
        assert result.jobs.completed > 280  # moderate load: mostly done

    def test_gang_requires_capable_system(self):
        with pytest.raises(ValueError, match="gang"):
            quick_run("rss", n_cores=8, rate_rps=1e6, n_requests=50, seed=1,
                      jobs=JobShape(core_demand=FixedDegree(2)))

    def test_supports_gang_recurses_through_tiers(self):
        result = quick_run("rack", n_cores=16, rate_rps=1e6, n_requests=50,
                           seed=1)
        assert system_supports_gang(result.system)  # altocumulus leaves
        flat = quick_run("rss", n_cores=4, rate_rps=1e6, n_requests=50, seed=1)
        assert not system_supports_gang(flat.system)


# ----------------------------------------------------------------------
# Sibling steering
# ----------------------------------------------------------------------
class TestJobSteering:
    def test_policy_registry_includes_job_policies(self):
        assert "sticky" in POLICY_NAMES and "spread" in POLICY_NAMES
        assert isinstance(make_policy("sticky", n_servers=4, probe=None, sim=None,
                                      rng=None, cores_per_server=1),
                          StickyJobSteering)
        assert isinstance(make_policy("spread", n_servers=4, probe=None, sim=None,
                                      rng=None, cores_per_server=1),
                          SpreadJobSteering)

    def test_sticky_pins_all_siblings_to_one_server(self):
        policy = StickyJobSteering(8)
        picks = {
            policy.pick_server(make_request(req_id=i, job_id=42,
                                            sibling_index=i))
            for i in range(6)
        }
        assert len(picks) == 1

    def test_sticky_spreads_distinct_jobs(self):
        policy = StickyJobSteering(8)
        picks = {
            policy.pick_server(make_request(req_id=j, job_id=j))
            for j in range(64)
        }
        assert len(picks) > 1

    def test_spread_separates_siblings(self):
        policy = SpreadJobSteering(8)
        picks = [
            policy.pick_server(make_request(req_id=i, job_id=17, fanout=4,
                                            sibling_index=i))
            for i in range(4)
        ]
        assert len(set(picks)) == 4  # k <= n_servers: all distinct

    def test_job_policies_fall_back_to_connection_hash(self):
        sticky = StickyJobSteering(4)
        spread = SpreadJobSteering(4)
        req = make_request(req_id=1, connection=9)  # job_id None
        assert 0 <= sticky.pick_server(req) < 4
        assert 0 <= spread.pick_server(req) < 4
        # Flat traffic: repeatable per-connection pick.
        assert sticky.pick_server(req) == sticky.pick_server(req)
        assert spread.pick_server(req) == spread.pick_server(req)


# ----------------------------------------------------------------------
# Trivial-shape compilation contract
# ----------------------------------------------------------------------
class TestTrivialCompilation:
    def test_trivial_shape_is_bit_identical_to_flat_path(self):
        def fingerprint(result):
            return [
                (r.req_id, r.arrival, r.enqueued, r.started, r.finished,
                 r.migrations, r.steals, r.core_id, r.group_id)
                for r in result.requests
            ]

        flat = quick_run("altocumulus", n_cores=8, rate_rps=2e6,
                         n_requests=300, seed=7)
        trivial = quick_run("altocumulus", n_cores=8, rate_rps=2e6,
                            n_requests=300, seed=7, jobs=JobShape())
        assert fingerprint(flat) == fingerprint(trivial)
        assert trivial.jobs is None  # compiled down: no job machinery ran

    def test_job_summary_lands_in_job_instruments(self):
        result = quick_run("altocumulus", n_cores=8, rate_rps=2e6,
                           n_requests=200, seed=7,
                           jobs=JobShape(fanout=ChoiceDegree((1, 2))))
        assert result.metrics["job.count"] == 200
        assert result.metrics["job.subrequests"] == result.jobs.subrequests
        assert result.metrics["job.completed"] == result.jobs.completed
        assert result.metrics["job.p99_ns"] == result.jobs.latency.p99
        assert result.jobs.latency.p99 >= result.jobs.latency.p50
