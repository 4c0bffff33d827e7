"""Measurement and reporting: latency statistics, SLO-violation
accounting, the migration-effectiveness breakdown of
Fig. 12, and plain-text table rendering for the benchmark harness.
"""

from repro.analysis.metrics import LatencySummary, summarize_latencies
from repro.analysis.slo import prediction_accuracy, violation_ratio
from repro.analysis.effectiveness import (
    EffectivenessBreakdown,
    MigrationClass,
    classify_migrations,
)
from repro.analysis.tables import format_table
from repro.analysis.ascii_plot import bar_chart, line_chart
from repro.analysis.validation import validate_simulator

__all__ = [
    "LatencySummary",
    "summarize_latencies",
    "violation_ratio",
    "prediction_accuracy",
    "MigrationClass",
    "EffectivenessBreakdown",
    "classify_migrations",
    "format_table",
    "bar_chart",
    "line_chart",
    "validate_simulator",
]
