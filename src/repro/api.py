"""The public facade: build a system, run a workload, get measurements.

This module is the supported entry point for downstream users.  It hides
the wiring (simulator + RNG streams + NIC + scheduler + load generator)
behind three calls:

* :func:`build_system` -- construct any scheduler by name.
* :func:`run_workload` -- drive a workload through a system and return a
  :class:`SimulationResult`.
* :func:`quick_run` -- one-call convenience for the common case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from repro.analysis.metrics import (
    LatencySummary,
    achieved_throughput_rps,
    summarize_latencies,
)
from repro.analysis.slo import violation_ratio
from repro.cluster.fabric import FabricConfig, build_fabric
from repro.core.config import AltocumulusConfig
from repro.control import ControlConfig, ControlLoop
from repro.faults import FaultInjector, FaultPlan, RetryClient
from repro.core.scheduler import AltocumulusSystem
from repro.hw.constants import DEFAULT_CONSTANTS
from repro.hw.nic import PcieDelivery
from repro.schedulers.base import RpcSystem
from repro.schedulers.centralized import ShinjukuSystem
from repro.schedulers.jbsq import ideal_cfcfs, nanopu, nebula, rpcvalet
from repro.schedulers.rss import IxSystem, RssSystem
from repro.schedulers.rss_plus_plus import RssPlusPlusSystem
from repro.schedulers.work_stealing import ZygosSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import MetricRegistry, record_run
from repro.workload.arrivals import ArrivalProcess, PoissonArrivals
from repro.workload.connections import ConnectionPool
from repro.workload.generator import LoadGenerator
from repro.workload.jobs import Job, JobShape, system_supports_gang
from repro.kvs.ownership import KvsSpec
from repro.kvs.wiring import wire_kvs
from repro.workload.request import Request
from repro.workload.service import Exponential, ServiceDistribution

#: A very long horizon; runs normally stop on request-count completion.
_MAX_HORIZON_NS = 10**15


@dataclass
class JobRunSummary:
    """Job-level outcome of a job-structured run (``None`` otherwise).

    The same numbers are also bound as ``job.*`` instruments on the
    system's registry, so they cross the sweep runner's process boundary
    and cache inside the registry snapshot.
    """

    #: Jobs emitted / completed (all siblings ok) / dropped (any failed).
    count: int
    completed: int
    dropped: int
    #: Total sub-requests scattered (what the system's ``expect`` saw).
    subrequests: int
    mean_fanout: float
    mean_core_demand: float
    #: Job latency (scatter to last sibling response), post-warmup.
    latency: LatencySummary
    #: Per-job records, for job-level analysis hooks.
    records: Sequence[Job] = field(default_factory=tuple)


def _register_job_instruments(
    registry: MetricRegistry, summary: JobRunSummary
) -> None:
    """Bind ``job.*`` instruments to a finished run's job summary; the
    latency entries exist only when some job was measured."""
    latency = summary.latency
    registry.counter("job.count", fn=lambda: summary.count)
    registry.counter("job.completed", fn=lambda: summary.completed)
    registry.counter("job.dropped", fn=lambda: summary.dropped)
    registry.counter("job.subrequests", fn=lambda: summary.subrequests)
    registry.counter("job.measured", fn=lambda: latency.count)
    registry.gauge("job.mean_fanout", fn=lambda: summary.mean_fanout)
    registry.gauge(
        "job.mean_core_demand", fn=lambda: summary.mean_core_demand
    )
    if latency.count:
        registry.gauge("job.mean_ns", fn=lambda: latency.mean)
        registry.gauge("job.p50_ns", fn=lambda: latency.p50)
        registry.gauge("job.p99_ns", fn=lambda: latency.p99)
        registry.gauge("job.max_ns", fn=lambda: latency.maximum)


@dataclass
class SimulationResult:
    """Everything a caller needs after one run."""

    system_name: str
    requests: Sequence[Request]
    latency: LatencySummary
    throughput_rps: float
    offered_rps: float
    sim_time_ns: float
    utilization: float
    dropped: int
    #: Flat snapshot of the system's telemetry registry at shutdown
    #: (``system.*``, ``noc.*``, ``messaging.m<i>.*``, ``cluster.*``,
    #: ``job.*``...): the run's only channel for named metrics.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: The system instance, for post-run introspection (e.g. the
    #: Altocumulus ``predicted_ids`` set feeding prediction accuracy).
    system: Optional[RpcSystem] = None
    #: Job-level summary for job-structured runs (``None`` when the
    #: workload was flat or its job shape was trivial).
    jobs: Optional[JobRunSummary] = None

    def violation_ratio(self, slo_ns: float) -> float:
        """Fraction of measured requests exceeding ``slo_ns``."""
        return violation_ratio(self.requests, slo_ns)


SystemFactory = Callable[[Simulator, RandomStreams, int], RpcSystem]

_BUILDERS: Dict[str, SystemFactory] = {}


def register_system(name: str, factory: SystemFactory) -> None:
    """Register a custom system under ``name`` for :func:`build_system`."""
    if name in _BUILDERS:
        raise ValueError(f"system {name!r} is already registered")
    _BUILDERS[name] = factory


def _register_defaults() -> None:
    c = DEFAULT_CONSTANTS
    _BUILDERS.update(
        {
            "rss": lambda s, r, n: RssSystem(s, r, n, delivery=PcieDelivery(c)),
            "rsspp": lambda s, r, n: RssPlusPlusSystem(
                s, r, n, delivery=PcieDelivery(c)
            ),
            "ix": lambda s, r, n: IxSystem(s, r, n, delivery=PcieDelivery(c)),
            "zygos": lambda s, r, n: ZygosSystem(s, r, n, delivery=PcieDelivery(c)),
            "shinjuku": lambda s, r, n: ShinjukuSystem(
                s, r, n, delivery=PcieDelivery(c)
            ),
            "rpcvalet": lambda s, r, n: rpcvalet(s, r, n),
            "nebula": lambda s, r, n: nebula(s, r, n),
            "nanopu": lambda s, r, n: nanopu(s, r, n),
            "cfcfs": lambda s, r, n: ideal_cfcfs(s, r, n),
            "altocumulus": lambda s, r, n: AltocumulusSystem(
                s, r, _default_ac_config(n)
            ),
            "rack": _default_rack,
            "datacenter": _default_datacenter,
        }
    )


def _default_rack(sim: Simulator, streams: RandomStreams, n_cores: int):
    """The rack preset behind the one-server API: ``n_cores`` total
    cores split over four Altocumulus servers (one server when the count
    doesn't divide), steered by power-of-two-choices.  Full control over
    fabric shape lives in :mod:`repro.cluster`."""
    n_servers = 4 if n_cores % 4 == 0 and n_cores >= 8 else 1
    config = FabricConfig.rack(
        n_servers=n_servers,
        cores_per_server=n_cores // n_servers,
        system="altocumulus",
        policy="power_of_d",
        d=2,
    )
    return build_fabric(sim, streams, config)


def _default_datacenter_config(n_cores: int) -> FabricConfig:
    """Datacenter shape behind the one-server API: ``n_cores`` total
    cores split over 2 racks x 2 Altocumulus servers (one rack of one
    server when the count doesn't divide), with power-of-two steering
    inside each rack and shortest-expected-wait steering across racks."""
    n_racks, n_servers = (2, 2) if n_cores % 4 == 0 and n_cores >= 8 else (1, 1)
    return FabricConfig.datacenter(
        n_racks=n_racks,
        rack=FabricConfig.rack(
            n_servers=n_servers,
            cores_per_server=n_cores // (n_racks * n_servers),
            system="altocumulus",
            policy="power_of_d",
            d=2,
        ),
        policy="shortest_wait",
    )


def _default_datacenter(sim: Simulator, streams: RandomStreams, n_cores: int):
    """The datacenter preset behind the one-server API; full control
    over fabric shape lives in :mod:`repro.cluster`."""
    return build_fabric(sim, streams, _default_datacenter_config(n_cores))


def _default_ac_config(n_cores: int) -> AltocumulusConfig:
    """Split ``n_cores`` into 16-core groups (the paper's tuned size)."""
    if n_cores % 16 == 0 and n_cores > 16:
        return AltocumulusConfig(n_groups=n_cores // 16, group_size=16)
    return AltocumulusConfig(n_groups=1, group_size=n_cores)


def available_systems() -> Sequence[str]:
    """Names accepted by :func:`build_system`."""
    return sorted(_BUILDERS)


def build_system(
    name: str,
    sim: Simulator,
    streams: RandomStreams,
    n_cores: int,
) -> RpcSystem:
    """Construct a registered scheduling system."""
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown system {name!r}; available: {', '.join(available_systems())}"
        )
    return _BUILDERS[name](sim, streams, n_cores)


def run_workload(
    system: RpcSystem,
    sim: Simulator,
    streams: RandomStreams,
    arrivals: ArrivalProcess,
    service: ServiceDistribution,
    n_requests: int,
    warmup_fraction: float = 0.1,
    connections: Optional[ConnectionPool] = None,
    request_factory: Optional[Callable[[Request], None]] = None,
    size_bytes: int = 300,
    faults: Optional[FaultPlan] = None,
    control: Optional[ControlConfig] = None,
    jobs: Optional[JobShape] = None,
    kvs: Optional[KvsSpec] = None,
) -> SimulationResult:
    """Drive a workload through ``system`` to completion and measure it.

    With a :class:`~repro.kvs.KvsSpec`, a MICA store + ownership table +
    workload are built (deterministically from the streams' master seed)
    and wired into every leaf of ``system``: the workload supplies the
    ``request_factory`` and its ``execute`` hook runs each op against
    the store under the spec's concurrency discipline, surfacing
    ``kvs.*`` and ``kvs.ownership.*`` instruments in ``metrics``.
    Mutually exclusive with an explicit ``request_factory``: a KVS
    workload supplies its own.

    With a non-trivial :class:`~repro.workload.jobs.JobShape`,
    ``n_requests`` counts *jobs*: each scatters its fan-out of sibling
    sub-requests at one arrival instant (completing on the last
    response) and/or demands multiple cores simultaneously (gang
    admission -- the system must declare ``supports_gang``).  The
    trivial shape (fan-out 1, demand 1) and ``jobs=None`` compile down
    to the flat ``Request`` path bit-identically: no ``"jobs"`` stream
    draw, no job records, nothing.

    With a :class:`~repro.faults.FaultPlan`, a
    :class:`~repro.faults.FaultInjector` drives the plan into the system
    and a :class:`~repro.faults.RetryClient` sits between the generator
    and the system: it owns delivery (timeouts, capped-backoff retries,
    duplicate detection) *and* termination, since one logical request may
    cost several attempts.  Without a plan this function is byte-for-byte
    the fault-free fast path.

    With a :class:`~repro.control.ControlConfig`, a
    :class:`~repro.control.ControlLoop` senses the system's telemetry
    every control epoch and lets the configured controller actuate
    steering, drain, and capacity knobs mid-run.
    """
    if kvs is not None:
        if request_factory is not None:
            raise ValueError("pass either kvs= or request_factory=, not both")
        workload = wire_kvs(system, sim, kvs, seed=streams.master_seed)
        request_factory = workload.request_factory
    injector: Optional[FaultInjector] = None
    client: Optional[RetryClient] = None
    if faults is not None:
        injector = FaultInjector(sim, streams, faults, system)
        client = RetryClient(
            sim,
            streams,
            system,
            faults.retry,
            ingress=injector.ingress,
            response_delivered=injector.response_delivered,
        )
    loop: Optional[ControlLoop] = None
    if control is not None:
        # Built after the injector so the loop senses the fault
        # instruments, before the generator so epoch 0 starts at t=0.
        loop = ControlLoop(sim, streams, control, system)
    gang = jobs is not None and jobs.core_demand.max_value > 1
    if gang and not system_supports_gang(system):
        raise ValueError(
            f"system {system.name!r} does not support multi-core gang "
            "jobs (core_demand > 1); use a gang-capable scheduler "
            "(altocumulus, jbsq variants) at every leaf"
        )
    generator = LoadGenerator(
        sim,
        streams,
        arrivals,
        service,
        sink=client.send if client is not None else system.offer,
        n_requests=n_requests,
        size_bytes=size_bytes,
        connections=connections,
        request_factory=request_factory,
        warmup_fraction=warmup_fraction,
        shape=jobs,
    )
    generator.attach(system, client)
    (client if client is not None else system).expect(
        generator.total_subrequests
    )
    generator.start()
    sim.run(until=_MAX_HORIZON_NS)
    if injector is not None:
        injector.finalize()
    if client is not None:
        client.finalize()
    if loop is not None:
        loop.finalize()
    system.shutdown()
    measured = generator.measured_requests()
    job_summary: Optional[JobRunSummary] = None
    if generator.jobs is not None:
        records = tuple(generator.jobs)
        n_jobs = len(records)
        job_summary = JobRunSummary(
            count=n_jobs,
            completed=sum(1 for j in records if j.completed),
            dropped=sum(1 for j in records if j.dropped),
            subrequests=generator.total_subrequests,
            mean_fanout=generator.total_subrequests / n_jobs,
            mean_core_demand=sum(generator.demands) / n_jobs,
            latency=summarize_latencies(generator.measured_jobs()),
            records=records,
        )
        _register_job_instruments(system.metrics, job_summary)
    registry = getattr(system, "metrics", None)
    metrics_snapshot = registry.snapshot() if registry is not None else {}
    record_run(system.name, metrics_snapshot)
    return SimulationResult(
        system_name=system.name,
        requests=measured,
        latency=summarize_latencies(measured),
        throughput_rps=achieved_throughput_rps(measured),
        offered_rps=arrivals.mean_rate * 1e9,
        sim_time_ns=sim.now,
        utilization=system.utilization(sim.now),
        dropped=system.stats.dropped,
        metrics=metrics_snapshot,
        system=system,
        jobs=job_summary,
    )


def quick_run(
    system: str = "altocumulus",
    n_cores: int = 16,
    rate_rps: float = 1e6,
    mean_service_ns: float = 1000.0,
    n_requests: int = 50_000,
    seed: int = 1,
    service: Optional[ServiceDistribution] = None,
    faults: Optional[FaultPlan] = None,
    control: Optional[ControlConfig] = None,
    jobs: Optional[JobShape] = None,
    kvs: Optional[KvsSpec] = None,
) -> SimulationResult:
    """One-call simulation: Poisson arrivals, exponential service by
    default, 10% warmup discarded.  ``control`` attaches an adaptive
    control loop.
    """
    streams = RandomStreams(seed)
    sim = Simulator()
    built = build_system(system, sim, streams, n_cores)
    return run_workload(
        built,
        sim,
        streams,
        arrivals=PoissonArrivals(rate_rps),
        service=service or Exponential(mean_service_ns),
        n_requests=n_requests,
        faults=faults,
        control=control,
        jobs=jobs,
        kvs=kvs,
    )


_register_defaults()
