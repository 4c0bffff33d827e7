"""Shared experiment machinery: result containers, sweep helpers and
system factories parameterised the way the evaluation needs them.

Sweeps route through :mod:`repro.runner`: each (builder, rate, seed)
point becomes a picklable :class:`~repro.runner.PointSpec`, so the CLI's
``--jobs`` fans figures out across worker processes and the
content-addressed cache replays identical points instantly.  Builders
and factories must be module-level callables (optionally
``functools.partial``); closures raise :class:`~repro.runner.SpecError`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.runner import PointSpec, maybe_ref, ref, run_points
from repro.schedulers.base import RpcSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import ArrivalProcess, MMPPArrivals
from repro.workload.connections import ConnectionPool
from repro.workload.service import ServiceDistribution


def _json_safe(value: object) -> object:
    """Recursively replace non-finite floats, which ``json.dumps`` would
    emit as bare ``NaN``/``Infinity`` literals -- invalid strict JSON
    that breaks every downstream parser.  NaN becomes ``null``;
    infinities keep their sign as strings."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@dataclass
class ExperimentResult:
    """One regenerated figure/table: titled rows plus provenance notes."""

    exp_id: str
    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: str = ""
    series: Dict[str, object] = field(default_factory=dict)

    def table(self, precision: int = 2) -> str:
        body = format_table(self.headers, self.rows, precision=precision,
                            title=f"{self.exp_id}: {self.title}")
        if self.notes:
            return body + "\n\n" + self.notes
        return body

    def save(self, directory: str) -> str:
        """Write the rendered table to ``directory/<exp_id>.txt``."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.exp_id}.txt")
        with open(path, "w") as handle:
            handle.write(self.table() + "\n")
        return path

    def to_json(self) -> str:
        """Machine-readable form (for downstream plotting pipelines).

        Guaranteed to be strict JSON: NaN/Infinity values in rows or
        series are sanitized first (``allow_nan=False`` enforces it),
        and any non-serializable object falls back to ``str``.
        """

        def default(value: object) -> object:
            return str(value)

        payload = {
            "exp_id": self.exp_id,
            "title": self.title,
            "headers": self.headers,
            "rows": _json_safe(self.rows),
            "notes": self.notes,
            "series": _json_safe(self.series),
        }
        return json.dumps(payload, indent=2, default=default, allow_nan=False)

    def save_json(self, directory: str) -> str:
        """Write the JSON form to ``directory/<exp_id>.json``."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.exp_id}.json")
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")
        return path


SystemBuilder = Callable[[Simulator, RandomStreams], RpcSystem]


@dataclass
class SweepPoint:
    """One (offered load, tail latency) sample of a latency-throughput curve."""

    rate_rps: float
    p99_ns: float
    mean_ns: float
    throughput_rps: float
    violation_ratio: float


def latency_throughput_curve(
    builder: SystemBuilder,
    rates_rps: Sequence[float],
    service: ServiceDistribution,
    n_requests: int,
    slo_ns: float,
    seed: int = 1,
    arrival_factory: Optional[Callable[[float], ArrivalProcess]] = None,
    connections: Optional[Callable[[], ConnectionPool]] = None,
    label: str = "sweep",
) -> List[SweepPoint]:
    """Sweep offered rates and collect the tail-latency curve.

    ``arrival_factory`` defaults to Poisson; pass e.g.
    :func:`real_world_arrivals` for the real-world pattern.  Fresh
    connections are created per point so state does not leak across
    loads.

    The sweep is dispatched through :func:`repro.runner.run_points` and
    obeys the process-wide ``--jobs`` / cache configuration, so every
    callable must be module-level: a lambda or closure raises
    :class:`~repro.runner.SpecError`.
    """
    specs = [
        PointSpec(
            builder=ref(builder),
            service=service,
            rate_rps=float(rate),
            n_requests=n_requests,
            seed=seed,
            arrivals=maybe_ref(arrival_factory),
            connections=maybe_ref(connections),
            slo_ns=slo_ns,
            tag=label,
        )
        for rate in rates_rps
    ]
    return [
        SweepPoint(
            rate_rps=result.rate_rps,
            p99_ns=result.p99_ns,
            mean_ns=result.mean_ns,
            throughput_rps=result.throughput_rps,
            violation_ratio=result.violation_ratio or 0.0,
        )
        for result in run_points(specs, label=label)
    ]


def throughput_at_slo(points: Sequence[SweepPoint], slo_ns: float) -> float:
    """Largest swept rate whose p99 met the SLO (0.0 if none did)."""
    best = 0.0
    for point in points:
        if point.p99_ns <= slo_ns and point.rate_rps > best:
            best = point.rate_rps
    return best


def scaled(n: int, scale: float, minimum: int = 2_000) -> int:
    """Scale a request count, clamped to a useful minimum."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return max(minimum, int(n * scale))


def real_world_arrivals(rate_rps: float) -> MMPPArrivals:
    """The canonical 'real-world traffic' substitute (see DESIGN.md):
    a two-state MMPP with batch trains.

    Burst intensity is moderate (1.6x for a fifth of the time): the
    cloud traces the paper's regression model captures are bursty and
    temporally correlated, but not in sustained whole-machine overload
    -- which no scheduler could absorb and which would drown the
    imbalance signal these experiments study."""
    return MMPPArrivals(
        rate_rps,
        burst_factor=1.6,
        calm_fraction=0.8,
        mean_dwell_ns=20_000.0,
        batch_mean=3.0,
    )


def gentle_bursts(rate_rps: float) -> MMPPArrivals:
    """Mildly bursty traffic that never overloads the whole machine.

    The migration-parameter studies (Figs. 11-12) examine *per-group*
    imbalance, which migration can fix; global transient overload,
    which no scheduler can fix, would drown that signal.  Bursts here
    stay within aggregate capacity at the studied loads while batch
    trains and connection skew still unbalance individual groups.
    """
    return MMPPArrivals(
        rate_rps,
        burst_factor=1.5,
        calm_fraction=0.8,
        mean_dwell_ns=20_000.0,
        batch_mean=3.0,
    )
