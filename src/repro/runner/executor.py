"""Worker-side execution of one :class:`~repro.runner.spec.PointSpec`.

This is the only module a pool worker needs: it reconstructs the
simulation from the spec's picklable data, drives it to completion, and
distills the outcome into a small picklable :class:`PointResult`.
Neither the request log nor the system object ever crosses the process
boundary -- experiments that need per-request statistics attach a
``metrics`` callable reference that runs here, next to the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.analysis.metrics import LatencySummary
from repro.api import run_workload
from repro.runner.spec import CallableRef, PointSpec, TaskSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals


@dataclass
class PointResult:
    """The picklable outcome of one executed sweep point."""

    tag: str
    rate_rps: float
    offered_rps: float
    latency: LatencySummary
    throughput_rps: float
    sim_time_ns: float
    utilization: float
    dropped: int
    #: Fraction of measured requests exceeding the spec's ``slo_ns``
    #: (``None`` when the spec did not carry an SLO).
    violation_ratio: Optional[float] = None
    #: Output of the spec's ``metrics`` hook, computed in the worker.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: ``SimulationResult.metrics``: the system's telemetry-registry
    #: snapshot, serialized through the content-addressed cache -- every
    #: named metric of the run (``system.*``, ``cluster.*``, ``job.*``...).
    instruments: Dict[str, Any] = field(default_factory=dict)
    #: Set by the runner when this result came from the cache rather
    #: than a fresh execution.  Not part of the cached payload.
    cache_hit: bool = False

    @property
    def p99_ns(self) -> float:
        """p99 latency, ``inf`` when the run measured nothing (the same
        sentinel the serial sweep helpers have always used)."""
        return self.latency.p99 if self.latency.count else float("inf")

    @property
    def mean_ns(self) -> float:
        return self.latency.mean


@dataclass
class TaskResult:
    """The picklable outcome of one executed :class:`TaskSpec`."""

    tag: str
    value: Any
    cache_hit: bool = False


def execute_spec(
    spec: Union[PointSpec, TaskSpec]
) -> "Union[PointResult, TaskResult]":
    """Execute either spec flavor (the pool worker entry point)."""
    if isinstance(spec, TaskSpec):
        return TaskResult(tag=spec.tag, value=spec.fn.resolve()())
    return execute_point(spec)


def execute_point(spec: PointSpec) -> PointResult:
    """Run one sweep point from scratch, deterministically.

    A fresh :class:`Simulator` and :class:`RandomStreams` seeded from
    the spec make the result independent of which process (or how many
    sibling points) executed it -- parallel sweeps are bit-identical to
    serial ones.
    """
    sim = Simulator()
    streams = RandomStreams(spec.seed)
    built = spec.builder.resolve()(sim, streams)
    request_factory = None
    if isinstance(built, tuple):  # wired builder: (system, request_factory)
        system, request_factory = built
    else:
        system = built
    connections = (
        spec.connections.resolve()() if spec.connections is not None else None
    )
    if spec.arrivals is not None:
        arrivals = spec.arrivals.resolve()(spec.rate_rps)
    else:
        arrivals = PoissonArrivals(spec.rate_rps)
    service = (
        spec.service.resolve()()
        if isinstance(spec.service, CallableRef)
        else spec.service
    )
    result = run_workload(
        system,
        sim,
        streams,
        arrivals,
        service,
        n_requests=spec.n_requests,
        warmup_fraction=spec.warmup_fraction,
        connections=connections,
        request_factory=request_factory,
        size_bytes=spec.size_bytes,
        faults=spec.faults,
        control=spec.control,
        jobs=spec.jobs,
        kvs=spec.kvs,
    )
    violation = (
        result.violation_ratio(spec.slo_ns) if spec.slo_ns is not None else None
    )
    metrics: Dict[str, Any] = {}
    if spec.metrics is not None:
        metrics = spec.metrics.resolve()(result)
        if not isinstance(metrics, dict):
            raise TypeError(
                f"metrics hook {spec.metrics.target!r} must return a dict, "
                f"got {type(metrics).__name__}"
            )
    return PointResult(
        tag=spec.tag,
        rate_rps=spec.rate_rps,
        offered_rps=result.offered_rps,
        latency=result.latency,
        throughput_rps=result.throughput_rps,
        sim_time_ns=result.sim_time_ns,
        utilization=result.utilization,
        dropped=result.dropped,
        violation_ratio=violation,
        metrics=metrics,
        instruments=dict(result.metrics),
    )
