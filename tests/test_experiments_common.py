"""Unit tests for the shared experiment machinery."""

import pytest

from repro.experiments.common import (
    ExperimentResult,
    gentle_bursts,
    latency_throughput_curve,
    real_world_arrivals,
)
from repro.runner import PointSpec, SpecError, execute_point, ref
from repro.schedulers.jbsq import ideal_cfcfs
from repro.workload.connections import ConnectionPool
from repro.workload.service import Fixed


def builder(sim, streams):
    return ideal_cfcfs(sim, streams, 4)


def three_connections():
    return ConnectionPool(3)


def connections_seen(result):
    return {"connections": sorted({r.connection for r in result.requests})}


class TestExecutePoint:
    def _spec(self, **kwargs):
        return PointSpec(builder=ref(builder), service=Fixed(500.0),
                         rate_rps=1e6, seed=1, **kwargs)

    def test_fresh_simulator_per_call(self):
        a = execute_point(self._spec(n_requests=500))
        b = execute_point(self._spec(n_requests=500))
        assert a.latency.p99 == b.latency.p99  # no state leaked

    def test_connections_and_metrics_plumbed(self):
        result = execute_point(self._spec(
            n_requests=200,
            connections=ref(three_connections),
            metrics=ref(connections_seen),
        ))
        assert set(result.metrics["connections"]) <= {0, 1, 2}


class TestCurve:
    def test_points_follow_rates(self):
        points = latency_throughput_curve(
            builder, [1e6, 2e6], Fixed(500.0), n_requests=400,
            slo_ns=10_000.0,
        )
        assert [p.rate_rps for p in points] == [1e6, 2e6]
        assert all(p.p99_ns > 0 for p in points)
        assert all(0 <= p.violation_ratio <= 1 for p in points)

    def test_latency_grows_with_load(self):
        points = latency_throughput_curve(
            builder, [1e6, 7.5e6], Fixed(500.0), n_requests=2_000,
            slo_ns=10_000.0,
        )
        assert points[1].p99_ns >= points[0].p99_ns

    def test_custom_arrival_factory(self):
        points = latency_throughput_curve(
            builder, [1e6], Fixed(500.0), n_requests=400,
            slo_ns=10_000.0,
            arrival_factory=gentle_bursts,
        )
        assert len(points) == 1

    def test_closure_rejected(self):
        with pytest.raises(SpecError, match="move it to module level"):
            latency_throughput_curve(
                builder, [1e6], Fixed(500.0), n_requests=400,
                slo_ns=10_000.0,
                arrival_factory=lambda r: gentle_bursts(r),
            )


class TestArrivalProfiles:
    def test_profiles_hit_nominal_rate(self):
        import numpy as np

        rng = np.random.default_rng(0)
        for profile in (real_world_arrivals, gentle_bursts):
            process = profile(50e6)
            gaps = [process.next_gap(rng) for _ in range(150_000)]
            measured = len(gaps) / sum(gaps) * 1e9
            assert measured == pytest.approx(50e6, rel=0.12)


class TestResult:
    def test_table_includes_notes(self):
        result = ExperimentResult(
            exp_id="x", title="t", headers=["a"], rows=[[1]], notes="hello"
        )
        assert "hello" in result.table()

    def test_to_json_is_strict_json_with_non_finite_floats(self):
        # Regression: rows with NaN/inf used to serialize as the bare
        # ``NaN``/``Infinity`` literals, which strict JSON parsers (and
        # therefore every downstream plotting pipeline) reject.
        import json
        import math

        result = ExperimentResult(
            exp_id="x",
            title="t",
            headers=["a", "b", "c"],
            rows=[[float("nan"), float("inf"), float("-inf")], [1.5, 2, "ok"]],
            series={"curve": [float("inf"), 0.25], "t_lower": float("nan")},
        )
        payload = json.loads(result.to_json())  # strict by default
        assert payload["rows"][0] == [None, "inf", "-inf"]
        assert payload["rows"][1] == [1.5, 2, "ok"]
        assert payload["series"]["curve"] == ["inf", 0.25]
        assert payload["series"]["t_lower"] is None
        # Finite values survive untouched.
        assert math.isclose(payload["rows"][1][0], 1.5)

    def test_to_json_stringifies_unserializable_objects(self):
        import json

        class Opaque:
            def __repr__(self):
                return "<opaque>"

        result = ExperimentResult(
            exp_id="x", title="t", headers=["a"], rows=[[Opaque()]]
        )
        assert json.loads(result.to_json())["rows"][0] == ["<opaque>"]
