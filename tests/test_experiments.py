"""Smoke tests for the experiment harness: every figure/table runs at a
tiny scale and produces sane structured output."""

from pathlib import Path

import pytest

from repro.analysis.metrics import LatencySummary
from repro.experiments.common import ExperimentResult, best_at_slo, scaled
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentInfo,
    experiment_description,
    get_experiment,
    list_experiments,
)

#: Tiny-scale smoke runs; heavier experiments are exercised by the
#: benchmark suite with real budgets.
FAST_EXPERIMENTS = ["tab1", "fig01"]

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        assert list_experiments() == [
            "quickstart",
            "fig01", "fig03", "tab1", "fig07", "fig09",
            "fig10", "fig11", "fig12", "fig13", "fig14",
            "tab2_tab3", "ablations", "validation", "fig_rack",
            "fig_chaos", "fig_datacenter", "fig_adaptive", "fig_fanout",
            "fig_contention",
        ]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_every_experiment_resolves_to_runnable(self):
        for exp_id in list_experiments():
            assert callable(get_experiment(exp_id))

    def test_every_experiment_has_a_description(self):
        for exp_id in list_experiments():
            assert experiment_description(exp_id).strip()

    def test_description_of_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            experiment_description("fig99")

    def test_blank_description_rejected_at_registration(self):
        with pytest.raises(ValueError, match="description"):
            ExperimentInfo("repro.experiments.fig01_stack_latency", "   ")

    def test_registry_modules_are_importable_paths(self):
        for exp_id, info in EXPERIMENTS.items():
            assert info.module.startswith("repro.experiments."), exp_id

    def test_every_registered_id_resolves_via_the_cli(self):
        from repro.experiments.cli import resolve_ids

        for exp_id in list_experiments():
            assert resolve_ids(exp_id) == [exp_id]

    def test_cli_all_expands_to_every_id(self):
        from repro.experiments.cli import resolve_ids

        assert resolve_ids("all") == list_experiments()

    def test_cli_aliases_resolve(self):
        from repro.experiments.cli import ALIASES, resolve_ids

        assert resolve_ids("rack") == ["fig_rack"]
        assert resolve_ids("chaos") == ["fig_chaos"]
        assert resolve_ids("datacenter") == ["fig_datacenter"]
        for alias, exp_id in ALIASES.items():
            assert resolve_ids(alias) == [exp_id]

    def test_cli_every_alias_targets_a_registered_id(self):
        from repro.experiments.cli import ALIASES

        for exp_id in ALIASES.values():
            assert exp_id in list_experiments()

    def test_cli_unknown_id_raises_cleanly(self):
        from repro.experiments.cli import ALIASES, UnknownExperimentError, resolve_ids

        with pytest.raises(UnknownExperimentError, match="fig99"):
            resolve_ids("fig99")
        # The error text advertises the aliases alongside the ids.
        try:
            resolve_ids("fig99")
        except UnknownExperimentError as exc:
            for alias in ALIASES:
                assert alias in str(exc)


class TestRuns:
    @pytest.mark.parametrize("exp_id", FAST_EXPERIMENTS)
    def test_fast_experiments_produce_tables(self, exp_id):
        result = get_experiment(exp_id)(scale=0.05)
        assert isinstance(result, ExperimentResult)
        assert result.rows
        table = result.table()
        assert result.exp_id in table
        for header in result.headers:
            assert header in table

    def test_save_writes_file(self, tmp_path):
        result = get_experiment("tab1")()
        path = result.save(str(tmp_path))
        with open(path) as handle:
            assert "tab1" in handle.read()

    @staticmethod
    def _assert_matches_committed(exp_id, tmp_path):
        fresh = get_experiment(exp_id)().save(str(tmp_path))
        committed = RESULTS_DIR / f"{exp_id}.txt"
        assert open(fresh).read() == committed.read_text(), (
            f"results/{exp_id}.txt is stale; regenerate it with "
            f"`altocumulus-exp {exp_id} --out results`"
        )

    @pytest.mark.parametrize("exp_id", ["tab1", "tab2_tab3"])
    def test_simulation_free_tables_match_committed_results(
        self, exp_id, tmp_path
    ):
        # These tables render from code without simulating, so the
        # committed artifact must equal a fresh render byte for byte.
        self._assert_matches_committed(exp_id, tmp_path)

    def test_fig01_matches_committed_results(self, tmp_path):
        # fig01 simulates, but its default render takes seconds, so the
        # committed table is pinned to a fresh one too.
        self._assert_matches_committed("fig01", tmp_path)

    def test_fig01_scheduling_share_grows_as_stacks_shrink(self):
        result = get_experiment("fig01")(scale=0.05)
        shares = [row[4] for row in result.rows]
        assert shares == sorted(shares)  # tcpip < erpc < nanorpc


class TestHelpers:
    def test_scaled_clamps_to_minimum(self):
        assert scaled(10_000, 0.001) == 2_000
        assert scaled(10_000, 2.0) == 20_000
        with pytest.raises(ValueError):
            scaled(10_000, 0.0)

    @staticmethod
    def _point(rate_rps, latency):
        from repro.runner import PointResult

        return PointResult(tag="", rate_rps=rate_rps, offered_rps=rate_rps,
                           latency=latency, throughput_rps=rate_rps,
                           sim_time_ns=1e6, utilization=0.5, dropped=0)

    @staticmethod
    def _measured(p99_ns):
        return LatencySummary(100, p99_ns / 2, p99_ns / 2, p99_ns, p99_ns,
                              p99_ns, p99_ns)

    def test_throughput_at_slo_picks_largest_passing(self):
        points = [
            self._point(1e6, self._measured(100.0)),
            self._point(2e6, self._measured(200.0)),
            self._point(3e6, self._measured(9_999.0)),
        ]
        assert best_at_slo(points, 1_000.0).rate_rps == 2e6
        assert best_at_slo(points, 1.0) is None

    def test_throughput_at_slo_never_picks_an_empty_point(self):
        # A point that measured nothing reports p99 == 0.0 in its
        # summary; it must not count as meeting the SLO.
        points = [
            self._point(1e6, self._measured(100.0)),
            self._point(4e6, LatencySummary.empty()),
        ]
        assert best_at_slo(points, 1_000.0).rate_rps == 1e6
        assert best_at_slo(points[1:], 1_000.0) is None


class TestCli:
    def test_list_flag(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list", "tab1"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out

    def test_single_experiment_with_output_dir(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["tab1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "tab1.txt").exists()
        assert "Altocumulus" in capsys.readouterr().out

    def test_unknown_experiment_exits_nonzero_and_lists_ids(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert "unknown experiment 'fig99'" in captured.err
        for exp_id in list_experiments():
            assert exp_id in captured.err

    def test_unknown_experiment_is_caught_before_any_run(self, capsys, tmp_path):
        from repro.experiments.cli import main

        assert main(["fig99", "--out", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_negative_jobs_rejected(self, capsys):
        from repro.experiments.cli import main

        assert main(["tab1", "--jobs", "-2"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestCliTelemetry:
    def test_trace_and_metrics_export(self, tmp_path, capsys):
        import json

        from repro.experiments.cli import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main([
            "quickstart", "--scale", "0.01",
            "--trace", str(trace), "--trace-sample", "10",
            "--metrics-out", str(metrics),
        ]) == 0
        doc = json.loads(trace.read_text())
        assert doc["metadata"]["sample_every"] == 10
        request_events = [e for e in doc["traceEvents"]
                          if e.get("cat") == "request" and e["ph"] == "X"]
        assert request_events  # sampled lifecycles made it out
        runs = json.loads(metrics.read_text())["runs"]
        assert runs[0]["system"]  # the Altocumulus variant's name
        assert runs[0]["metrics"]["system.offered"] > 0
        assert "trace events" in capsys.readouterr().out

    def test_capture_forces_serial_uncached(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main([
            "quickstart", "--scale", "0.01", "--jobs", "4",
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        assert "--jobs 1" in capsys.readouterr().err

    def test_bad_trace_sample_rejected(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main([
            "quickstart", "--trace", str(tmp_path / "t.json"),
            "--trace-sample", "0",
        ]) == 2
        assert "--trace-sample" in capsys.readouterr().err


def _cli_table(capsys, exp_id, *argv):
    """Run ``exp_id`` at scale 0.05 through the CLI; return its table
    (timing line removed) and the last ``completed in`` summary."""
    from repro.experiments.cli import main

    assert main([exp_id, "--scale", "0.05", "--no-progress", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    completed = [line for line in lines if " completed in " in line]
    table = [line for line in lines if " completed in " not in line]
    return "\n".join(table), completed[-1]


class TestCliFaultPlan:
    """``--faults`` stamps the plan into every spec, so a faulted sweep
    runs in parallel and caches like any other."""

    @staticmethod
    def _table(capsys, *argv):
        return _cli_table(capsys, "datacenter", *argv)

    def test_plan_reaches_parallel_and_cached_runs(self, tmp_path, capsys):
        from repro.faults import FaultEvent, FaultPlan, RetryPolicy

        plan = FaultPlan(
            events=(FaultEvent(time_ns=20_000.0, kind="server_crash",
                               target=0, duration_ns=60_000.0),),
            retry=RetryPolicy(timeout_ns=20_000.0, backoff_base_ns=5_000.0,
                              backoff_cap_ns=40_000.0),
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        cache = str(tmp_path / "cache")

        clean, _ = self._table(capsys, "--jobs", "1", "--no-cache")
        serial, _ = self._table(capsys, "--jobs", "1", "--no-cache",
                                "--faults", str(path))
        parallel, _ = self._table(capsys, "--jobs", "2", "--cache-dir",
                                  cache, "--faults", str(path))
        cached, summary = self._table(capsys, "--jobs", "2", "--cache-dir",
                                      cache, "--faults", str(path))
        assert serial != clean  # the crash shows in the table
        assert parallel == serial
        assert cached == serial
        assert "0 executed" in summary


class TestCliPointSpecStudies:
    """fig09 and validation run through the sweep runner like every
    other experiment: parallel and cached runs render the serial table."""

    @pytest.mark.parametrize("exp_id", ["fig09", "validation"])
    def test_parallel_and_cached_match_serial(self, exp_id, tmp_path,
                                              capsys):
        cache = str(tmp_path / "cache")
        serial, _ = _cli_table(capsys, exp_id, "--jobs", "1", "--no-cache")
        parallel, _ = _cli_table(capsys, exp_id, "--jobs", "2",
                                 "--cache-dir", cache)
        cached, summary = _cli_table(capsys, exp_id, "--jobs", "2",
                                     "--cache-dir", cache)
        assert parallel == serial
        assert cached == serial
        assert "0 executed" in summary


class TestJsonOutput:
    def test_to_json_round_trips(self):
        import json

        result = get_experiment("tab1")()
        payload = json.loads(result.to_json())
        assert payload["exp_id"] == "tab1"
        assert payload["headers"] == result.headers
        assert len(payload["rows"]) == len(result.rows)

    def test_save_json_writes_file(self, tmp_path):
        import json

        result = get_experiment("tab1")()
        path = result.save_json(str(tmp_path))
        with open(path) as handle:
            assert json.load(handle)["title"]

    def test_cli_json_flag(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["tab1", "--out", str(tmp_path), "--json"]) == 0
        assert (tmp_path / "tab1.json").exists()
