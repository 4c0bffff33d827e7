"""Latency statistics.

The paper's headline metric is the 99th percentile (Sec. II-A); all
summaries here report exact empirical percentiles over the completed
requests of a run (no streaming approximation -- runs are finite and
the tail is what matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.workload.request import Request


@dataclass(frozen=True)
class LatencySummary:
    """Empirical latency summary of one run (all values in ns)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    p999: float
    maximum: float

    @staticmethod
    def empty() -> "LatencySummary":
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_ns": self.mean,
            "p50_ns": self.p50,
            "p90_ns": self.p90,
            "p99_ns": self.p99,
            "p999_ns": self.p999,
            "max_ns": self.maximum,
        }


def latencies_of(requests: Iterable[Request]) -> np.ndarray:
    """Latency array (ns) over completed, non-dropped requests.

    Accumulates straight into an ndarray (``np.fromiter``) instead of
    materializing an intermediate per-request Python list -- measurably
    cheaper at sweep scale, value-identical.
    """
    return np.fromiter(
        (
            r.finished - r.arrival
            for r in requests
            if r.finished is not None and not r.dropped
        ),
        dtype=float,
    )


def summarize_latencies(requests: Sequence[Request]) -> LatencySummary:
    """Exact percentile summary of a request population."""
    lat = latencies_of(requests)
    if lat.size == 0:
        return LatencySummary.empty()
    # One vectorized percentile call over all quantiles: identical values
    # to per-quantile calls, one sort instead of four.
    p50, p90, p99, p999 = np.percentile(lat, (50, 90, 99, 99.9))
    return LatencySummary(
        count=int(lat.size),
        mean=float(lat.mean()),
        p50=float(p50),
        p90=float(p90),
        p99=float(p99),
        p999=float(p999),
        maximum=float(lat.max()),
    )


def achieved_throughput_rps(requests: Sequence[Request]) -> float:
    """Completed requests per second over the span of the run."""
    count = 0
    start = float("inf")
    end = float("-inf")
    for r in requests:
        finished = r.finished
        if finished is None:
            continue
        count += 1
        if r.arrival < start:
            start = r.arrival
        if finished > end:
            end = finished
    if count < 2 or end <= start:
        return 0.0
    return count / (end - start) * 1e9
