"""Tests for :mod:`repro.runner`: callable references, content
fingerprints, the on-disk result cache, and the parallel-vs-serial
determinism contract."""

import functools
import io
import pickle

import numpy as np
import pytest

from repro.runner import (
    CallableRef,
    PointSpec,
    ProgressPrinter,
    ResultCache,
    RunnerConfig,
    SpecError,
    SweepProgress,
    SweepRunner,
    execute_point,
    fingerprint,
    get_config,
    maybe_ref,
    overrides,
    ref,
    run_points,
)
from repro.schedulers.jbsq import ideal_cfcfs
from repro.workload.connections import ConnectionPool
from repro.workload.jobs import FixedDegree, JobShape
from repro.workload.service import Bimodal, Fixed


def _builder(sim, streams, n_cores=4):
    return ideal_cfcfs(sim, streams, n_cores)


def _answer(x=21):
    return x * 2


def _job_summary(result):
    """Metrics hook: the run's ``SimulationResult.jobs`` under the
    ``job.*`` instrument names."""
    jobs = result.jobs
    return {
        "job.count": jobs.count,
        "job.completed": jobs.completed,
        "job.dropped": jobs.dropped,
        "job.subrequests": jobs.subrequests,
        "job.measured": jobs.latency.count,
        "job.mean_fanout": jobs.mean_fanout,
        "job.mean_core_demand": jobs.mean_core_demand,
        "job.mean_ns": jobs.latency.mean,
        "job.p50_ns": jobs.latency.p50,
        "job.p99_ns": jobs.latency.p99,
        "job.max_ns": jobs.latency.maximum,
    }


def _point(rate=2e6, seed=1, n_requests=600, tag="t", **kwargs):
    return PointSpec(
        builder=ref(_builder, n_cores=4),
        service=Fixed(500.0),
        rate_rps=rate,
        n_requests=n_requests,
        seed=seed,
        slo_ns=10_000.0,
        tag=tag,
        **kwargs,
    )


class TestRef:
    def test_module_function_round_trips(self):
        r = ref(_builder, n_cores=8)
        assert r.target.endswith(":_builder")
        assert r.kwargs == {"n_cores": 8}
        assert callable(r.resolve())

    def test_ref_is_picklable(self):
        r = ref(_builder, n_cores=8)
        assert pickle.loads(pickle.dumps(r)) == r

    def test_lambda_rejected(self):
        with pytest.raises(SpecError, match="lambda or closure"):
            ref(lambda sim, streams: None)

    def test_closure_rejected(self):
        def local(sim, streams):
            return None

        with pytest.raises(SpecError, match="lambda or closure"):
            ref(local)

    def test_partial_kwargs_are_merged(self):
        r = ref(functools.partial(_builder, n_cores=2), n_cores=16)
        assert r.kwargs == {"n_cores": 16}

    def test_partial_with_positional_args_rejected(self):
        with pytest.raises(SpecError, match="positional"):
            ref(functools.partial(_builder, 1))

    def test_static_method_refs(self):
        r = ref(ConnectionPool.skewed, n_connections=8, zipf_s=0.5)
        pool = r.resolve()()
        assert pool.n_connections == 8

    def test_existing_ref_merges_kwargs(self):
        base = ref(_builder, n_cores=2)
        merged = ref(base, n_cores=32)
        assert merged.kwargs == {"n_cores": 32}

    def test_maybe_ref_passes_none_through(self):
        assert maybe_ref(None) is None
        assert maybe_ref(_builder) == ref(_builder)

    def test_malformed_target_raises(self):
        with pytest.raises(SpecError):
            CallableRef("no-colon-here").resolve()

    def test_callable_ref_is_directly_callable(self):
        assert CallableRef(f"{__name__}:_answer")(x=3) == 6


class TestFingerprint:
    def test_identical_specs_hash_identically(self):
        assert fingerprint(_point()) == fingerprint(_point())

    @pytest.mark.parametrize(
        "change",
        [
            {"rate": 3e6},
            {"seed": 2},
            {"n_requests": 700},
            {"tag": "other"},
            {"warmup_fraction": 0.2},
        ],
    )
    def test_any_field_change_changes_hash(self, change):
        assert fingerprint(_point(**change)) != fingerprint(_point())

    def test_builder_kwargs_affect_hash(self):
        a = _point()
        b = _point()
        b.builder = ref(_builder, n_cores=8)
        assert fingerprint(a) != fingerprint(b)

    def test_service_distribution_affects_hash(self):
        a = _point()
        b = _point()
        b.service = Bimodal(500.0, 5_000.0, 0.1)
        assert fingerprint(a) != fingerprint(b)

    def test_salt_and_schema_guard(self):
        assert fingerprint(_point()) != fingerprint(_point(), salt="v2")

    def test_job_shape_is_content_hashed_into_the_cache_key(self):
        # Same builder/rate/seed with and without a job structure must
        # never share a cache key: grouped traffic is different traffic.
        from repro.workload.jobs import ChoiceDegree, FixedDegree, JobShape

        flat = _point()
        fanout = _point(jobs=JobShape(fanout=FixedDegree(4)))
        assert fingerprint(flat) != fingerprint(fanout)
        # ... and distinct shapes must hash apart from each other, even
        # when they only differ in weights or sibling-connection mode.
        variants = [
            _point(jobs=JobShape(fanout=FixedDegree(2))),
            _point(jobs=JobShape(fanout=ChoiceDegree((1, 4)))),
            _point(jobs=JobShape(fanout=ChoiceDegree((1, 4), (0.9, 0.1)))),
            _point(jobs=JobShape(fanout=FixedDegree(2),
                                 sibling_connections="distinct")),
            _point(jobs=JobShape(core_demand=FixedDegree(2))),
        ]
        prints = [fingerprint(v) for v in (flat, fanout, *variants)]
        assert len(set(prints)) == len(prints)

    def test_numpy_scalars_and_arrays_hash_stably(self):
        spec = PointSpec(builder=ref(_builder, n_cores=np.int64(4)),
                         service=Fixed(500.0), rate_rps=2e6, n_requests=600)
        assert fingerprint(spec) == fingerprint(spec)
        arr = np.arange(6, dtype=np.float64)
        assert fingerprint({"a": arr}) == fingerprint({"a": arr.copy()})
        assert fingerprint({"a": arr}) != fingerprint({"a": arr * 2})

    def test_unhashable_object_raises_spec_error(self):
        with pytest.raises(SpecError, match="canonically hash"):
            fingerprint(object())

class TestCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = fingerprint(_point())
        assert cache.get(key) is None
        cache.put(key, {"v": 1})
        assert cache.get(key) == {"v": 1}
        assert key in cache
        assert len(cache) == 1

    def test_sharded_layout(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = fingerprint(_point())
        cache.put(key, 1)
        assert (tmp_path / key[:2] / f"{key}.pkl").exists()

    def test_corrupt_entry_treated_as_miss_and_removed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = fingerprint(_point())
        cache.put(key, 1)
        with open(cache.path_for(key), "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get(key) is None
        assert key not in cache

    def test_cache_path_colliding_with_file_rejected(self, tmp_path):
        collider = tmp_path / "occupied"
        collider.write_text("x")
        with pytest.raises(NotADirectoryError):
            ResultCache(str(collider))

    def test_invalid_key_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(ValueError):
            cache.path_for("../escape")

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for spec in (_point(rate=1e6), _point(rate=2e6)):
            cache.put(fingerprint(spec), 1)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0


class TestExecution:
    def test_execute_point_is_deterministic(self):
        a = execute_point(_point())
        b = execute_point(_point())
        assert a.latency.p99 == b.latency.p99
        assert a.throughput_rps == b.throughput_rps

    def test_parallel_matches_serial_bit_for_bit(self):
        specs = [_point(rate=r, n_requests=500) for r in (1e6, 2e6, 4e6, 6e6)]
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=4).run(specs)
        for s, p in zip(serial, parallel):
            assert s.latency.p99 == p.latency.p99
            assert s.latency.mean == p.latency.mean
            assert s.throughput_rps == p.throughput_rps
            assert s.violation_ratio == p.violation_ratio
            assert s.sim_time_ns == p.sim_time_ns

    def test_results_returned_in_submission_order(self):
        rates = [6e6, 1e6, 4e6, 2e6]
        results = SweepRunner(jobs=4).run(
            [_point(rate=r, n_requests=400) for r in rates]
        )
        assert [r.rate_rps for r in results] == rates

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestCaching:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = [_point(rate=r, n_requests=400) for r in (1e6, 2e6, 3e6)]
        runner = SweepRunner(jobs=1, cache=cache)
        first = runner.run(specs)
        assert runner.last_stats.cache_hits == 0
        assert all(not r.cache_hit for r in first)
        second = runner.run(specs)
        assert runner.last_stats.cache_hits == len(specs)
        assert all(r.cache_hit for r in second)
        for a, b in zip(first, second):
            assert a.latency.p99 == b.latency.p99

    def test_seed_change_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run([_point(seed=1, n_requests=400)])
        runner.run([_point(seed=2, n_requests=400)])
        assert runner.last_stats.cache_hits == 0

    def test_scale_change_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run([_point(n_requests=400)])
        runner.run([_point(n_requests=500)])
        assert runner.last_stats.cache_hits == 0

    def test_partial_hits_execute_only_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run([_point(rate=1e6, n_requests=400)])
        runner.run([_point(rate=r, n_requests=400) for r in (1e6, 2e6)])
        assert runner.last_stats.cache_hits == 1
        assert runner.last_stats.executed == 1

    def test_cached_parallel_equals_fresh_serial(self, tmp_path):
        specs = [_point(rate=r, n_requests=400) for r in (1e6, 3e6)]
        fresh = SweepRunner(jobs=1).run(specs)
        cache = ResultCache(str(tmp_path))
        SweepRunner(jobs=2, cache=cache).run(specs)
        replayed = SweepRunner(jobs=2, cache=cache).run(specs)
        for a, b in zip(fresh, replayed):
            assert a.latency.p99 == b.latency.p99


class TestConfigPlumbing:
    def test_defaults_are_serial_and_uncached(self):
        cfg = get_config()
        assert cfg.effective_jobs >= 1
        assert cfg.jobs == 1
        assert cfg.use_cache is False

    def test_overrides_restore_previous_state(self, tmp_path):
        before = get_config().jobs
        with overrides(jobs=3, use_cache=True, cache_dir=str(tmp_path)):
            assert get_config().jobs == 3
            assert get_config().use_cache is True
        assert get_config().jobs == before
        assert get_config().use_cache is False

    def test_run_points_obeys_overrides_and_counts(self, tmp_path):
        specs = [_point(rate=r, n_requests=400) for r in (1e6, 2e6)]
        with overrides(jobs=1, use_cache=True, cache_dir=str(tmp_path)):
            counters = get_config().counters
            before = counters.snapshot()
            run_points(specs, label="test")
            delta = counters.delta(before)
            assert delta.points == 2
            assert delta.cache_hits == 0
            run_points(specs, label="test")
            delta = counters.delta(before)
            assert delta.points == 4
            assert delta.cache_hits == 2

    def test_run_points_explicit_config_wins(self, tmp_path):
        cfg = RunnerConfig(jobs=1, use_cache=True, cache_dir=str(tmp_path))
        run_points([_point(n_requests=400)], config=cfg)
        run_points([_point(n_requests=400)], config=cfg)
        assert cfg.counters.cache_hits == 1

    def test_run_points_stamps_unset_specs(self, monkeypatch):
        import repro.runner.runner as runner_mod
        from repro.control import ControlConfig
        from repro.faults import FaultEvent, FaultPlan

        captured = []
        monkeypatch.setattr(
            runner_mod.SweepRunner, "run",
            lambda self, specs: captured.extend(specs),
        )
        plan = FaultPlan(events=(FaultEvent(time_ns=1.0, kind="server_crash",
                                            target=0),))
        own_plan = FaultPlan(events=(FaultEvent(time_ns=2.0,
                                                kind="server_crash",
                                                target=1),))
        control = ControlConfig(controller="static")
        own_control = ControlConfig(controller="hysteresis")
        defaults = {"faults": plan, "control": control}
        run_points(
            [_point(), _point(faults=own_plan, control=own_control)],
            config=RunnerConfig(spec_defaults=defaults),
        )
        unset, explicit = captured
        # Unset specs take the configured values; explicit values win.
        assert (unset.faults, unset.control) == (plan, control)
        assert (explicit.faults, explicit.control) == (own_plan, own_control)


class TestFigureDeterminism:
    """End-to-end: a real figure module produces identical tables under
    ``--jobs 1`` (serial, uncached) and ``--jobs 4`` (pool + cache)."""

    def test_fig10_rows_identical_serial_vs_parallel(self, tmp_path,
                                                     monkeypatch):
        from repro.experiments import fig10_comparison

        monkeypatch.setattr(fig10_comparison, "RATES_MRPS", [0.5, 2.0])
        monkeypatch.setattr(
            fig10_comparison,
            "_SYSTEMS",
            {
                "ix": fig10_comparison._SYSTEMS["ix"],
                "nebula": fig10_comparison._SYSTEMS["nebula"],
            },
        )
        with overrides(jobs=1, use_cache=False):
            serial = fig10_comparison.run(scale=0.02)
        with overrides(jobs=4, use_cache=True, cache_dir=str(tmp_path)):
            parallel = fig10_comparison.run(scale=0.02)
        assert serial.rows == parallel.rows
        assert serial.series == parallel.series
        # And a cached replay is still identical.
        with overrides(jobs=4, use_cache=True, cache_dir=str(tmp_path)):
            replay = fig10_comparison.run(scale=0.02)
        assert replay.rows == serial.rows


class TestProgress:
    def test_progress_callback_sees_completion(self):
        seen = []
        runner = SweepRunner(jobs=1, progress=seen.append, label="demo")
        runner.run([_point(rate=r, n_requests=400) for r in (1e6, 2e6)])
        assert seen[-1].finished is True
        assert seen[-1].done == seen[-1].total == 2
        assert all(s.label == "demo" for s in seen)

    def test_progress_printer_writes_summary_to_non_tty(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream)
        printer(SweepProgress(label="x", total=4, done=2, cache_hits=1,
                              elapsed_s=0.5, finished=False))
        printer(SweepProgress(label="x", total=4, done=4, cache_hits=1,
                              elapsed_s=1.0, finished=True))
        output = stream.getvalue()
        assert "x" in output and "4/4" in output

    def test_eta_excludes_cache_hits(self):
        progress = SweepProgress(label="x", total=10, done=5, cache_hits=3,
                                 elapsed_s=2.0, finished=False)
        assert progress.executed == 2
        # 2 executed in 2s -> 1s/point -> 5 remaining points ~ 5s.
        assert progress.eta_s == pytest.approx(5.0)


def _job_instruments(point):
    return {
        name: value for name, value in point.instruments.items()
        if name.startswith("job.")
    }


class TestJobInstruments:
    """``job.*`` travels only in the registry snapshot, so it must
    survive the result cache."""

    def test_job_instruments_cross_the_cache(self, tmp_path):
        spec = _point(n_requests=300, jobs=JobShape(fanout=FixedDegree(2)),
                      metrics=ref(_job_summary))
        cfg = RunnerConfig(jobs=1, use_cache=True, cache_dir=str(tmp_path))
        (fresh,) = run_points([spec], config=cfg)
        (cached,) = run_points([spec], config=cfg)
        assert not fresh.cache_hit
        assert cached.cache_hit
        assert _job_instruments(cached) == _job_instruments(fresh)
        assert _job_instruments(fresh) == fresh.metrics
        assert fresh.instruments["job.count"] == 300

    def test_flat_run_registers_no_job_instruments(self):
        # k=1 compiles down to the flat request path; fig_fanout falls
        # back to system.* counters on that contract.
        point = execute_point(
            _point(n_requests=300, jobs=JobShape(fanout=FixedDegree(1)))
        )
        assert point.instruments["system.completed"] == 300
        assert _job_instruments(point) == {}
