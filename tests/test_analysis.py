"""Unit tests for the analysis package: metrics, SLO accounting,
migration effectiveness, and table rendering."""

import numpy as np
import pytest

from repro.analysis.effectiveness import (
    EffectivenessBreakdown,
    MigrationClass,
    classify_migrations,
    classify_one,
    migrated_requests,
)
from repro.analysis.metrics import (
    LatencySummary,
    achieved_throughput_rps,
    summarize_latencies,
)
from repro.analysis.slo import (
    counterfactual_violators,
    prediction_accuracy,
    violation_ratio,
)
from repro.analysis.tables import format_table
from tests.conftest import make_request


def finished(req_id, arrival, latency, **kwargs):
    r = make_request(req_id=req_id, arrival=arrival, **kwargs)
    r.finished = arrival + latency
    return r


class TestMetrics:
    def test_summary_against_numpy(self):
        reqs = [finished(i, 0.0, float(i + 1) * 100) for i in range(100)]
        summary = summarize_latencies(reqs)
        lats = np.array([r.latency for r in reqs])
        assert summary.count == 100
        assert summary.mean == pytest.approx(lats.mean())
        assert summary.p99 == pytest.approx(np.percentile(lats, 99))
        assert summary.maximum == lats.max()

    def test_empty_population(self):
        assert summarize_latencies([]) == LatencySummary.empty()

    def test_incomplete_and_dropped_excluded(self):
        reqs = [finished(0, 0.0, 100.0), make_request(req_id=1)]
        dropped = finished(2, 0.0, 100.0)
        dropped.dropped = True
        summary = summarize_latencies(reqs + [dropped])
        assert summary.count == 1

    def test_achieved_throughput(self):
        # 10 requests over 900 ns of arrivals + 100 ns service tail.
        reqs = [finished(i, i * 100.0, 100.0) for i in range(10)]
        rps = achieved_throughput_rps(reqs)
        assert rps == pytest.approx(10 / 1_000e-9)

    def test_throughput_degenerate_cases(self):
        assert achieved_throughput_rps([]) == 0.0
        assert achieved_throughput_rps([finished(0, 0.0, 1.0)]) == 0.0


class TestSlo:
    def test_violation_ratio(self):
        reqs = [finished(i, 0.0, 100.0 if i < 8 else 9_999.0)
                for i in range(10)]
        assert violation_ratio(reqs, 1_000.0) == pytest.approx(0.2)
        assert violation_ratio([], 1_000.0) == 0.0

    def test_counterfactual_violators_include_saved(self):
        saved = finished(0, 0.0, 100.0)
        saved.no_migration_eta = 50_000.0  # would have violated
        harmless = finished(1, 0.0, 100.0)
        actual = finished(2, 0.0, 99_999.0)
        violators = counterfactual_violators([saved, harmless, actual], 1_000.0)
        assert violators == {0, 2}

    def test_prediction_accuracy(self):
        saved = finished(0, 0.0, 100.0)
        saved.no_migration_eta = 50_000.0
        missed = finished(1, 0.0, 99_999.0)
        reqs = [saved, missed]
        assert prediction_accuracy(reqs, {0}, 1_000.0) == 0.5
        assert prediction_accuracy(reqs, {0, 1}, 1_000.0) == 1.0

    def test_accuracy_vacuous_when_no_violations(self):
        reqs = [finished(0, 0.0, 10.0)]
        assert prediction_accuracy(reqs, set(), 1_000.0) == 1.0


class TestEffectiveness:
    def _migrated(self, req_id, actual_latency, counterfactual_latency):
        r = finished(req_id, 0.0, actual_latency)
        r.migrations = 1
        r.no_migration_eta = counterfactual_latency
        return r

    def test_four_way_classification(self):
        slo = 1_000.0
        eff = self._migrated(0, 500.0, 5_000.0)
        no_harm = self._migrated(1, 500.0, 800.0)
        no_benefit = self._migrated(2, 5_000.0, 9_000.0)
        false = self._migrated(3, 5_000.0, 500.0)
        assert classify_one(eff, slo) is MigrationClass.EFF
        assert classify_one(no_harm, slo) is MigrationClass.INEFF_NO_HARM
        assert classify_one(no_benefit, slo) is MigrationClass.INEFF_NO_BENEFIT
        assert classify_one(false, slo) is MigrationClass.FALSE

    def test_breakdown_counts_and_ratios(self):
        slo = 1_000.0
        reqs = [
            self._migrated(0, 500.0, 5_000.0),
            self._migrated(1, 500.0, 5_000.0),
            self._migrated(2, 500.0, 800.0),
            finished(3, 0.0, 200.0),  # not migrated: excluded
        ]
        breakdown = classify_migrations(reqs, slo)
        assert breakdown.total == 3
        assert breakdown.counts[MigrationClass.EFF] == 2
        assert breakdown.effective_ratio == pytest.approx(2 / 3)
        assert breakdown.false_count == 0
        assert breakdown.as_dict()["eff"] == 2

    def test_missing_counterfactual_rejected(self):
        r = finished(0, 0.0, 100.0)
        with pytest.raises(ValueError):
            classify_one(r, 1_000.0)

    def test_migrated_requests_filter(self):
        a = self._migrated(0, 1.0, 1.0)
        b = finished(1, 0.0, 1.0)
        assert migrated_requests([a, b]) == [a]

    def test_empty_breakdown(self):
        breakdown = EffectivenessBreakdown()
        assert breakdown.total == 0
        assert breakdown.effective_ratio == 0.0


class TestTables:
    def test_alignment_and_headers(self):
        table = format_table(["name", "value"], [["a", 1.5], ["bbbb", 22]])
        lines = table.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert len({len(l) for l in lines if "|" in l}) == 1  # aligned

    def test_title_rendering(self):
        table = format_table(["x"], [[1]], title="My Table")
        assert table.startswith("My Table\n========")

    def test_float_precision_and_specials(self):
        table = format_table(
            ["v"], [[1.23456], [float("inf")], [float("nan")], [True]],
            precision=2,
        )
        assert "1.23" in table
        assert "inf" in table
        assert "nan" in table
        assert "yes" in table

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
