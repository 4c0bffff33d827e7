"""Job-structured requests: scatter-gather fan-out and multi-core gangs.

A :class:`Job` owns ``k`` sub-requests.  Two orthogonal axes generalize
the flat one-request/one-core model:

* **Fan-out** (scatter-gather, the tail-at-scale regime of RackSched's
  request model): a job scatters ``k`` sibling sub-requests across the
  fabric at one arrival instant and completes on the *last* response.
  Job latency is the max over siblings, so the job-level tail inflates
  roughly by the harmonic number ``H_k`` relative to a single request
  (see :func:`repro.core.prediction.harmonic_number`).
* **Core demand** (gang admission, per "Zero Queueing for Multi-Server
  Jobs"): a job demands ``c`` cores *simultaneously* for its span.  The
  scheduler holds it at the head of its queue until ``c`` cores are
  idle, then occupies all of them -- the primary sub-request carries the
  work, ``c - 1`` *gang shadows* (see :func:`make_gang_shadow`) occupy
  the remaining cores for exactly the same span.

Compilation contract: a trivial :class:`JobShape` (fan-out 1, demand 1)
compiles down to today's flat ``Request`` path -- ``run_workload``
bypasses this module entirely, drawing nothing from the ``"jobs"``
stream, so existing runs stay bit-identical.

Determinism: all job shapes are pre-drawn from the dedicated ``"jobs"``
RNG stream at generator construction (one batch for fan-outs, one for
core demands), so the workload streams ("arrivals", "service",
"connections") see exactly the draw sequence the flat generator would
see for the same number of emissions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import ArrivalProcess
from repro.workload.connections import ConnectionPool
from repro.workload.request import Request
from repro.workload.service import ServiceDistribution

#: Gang shadows get req_ids derived from the primary's id at this
#: stride, so a shadow id can never collide with another primary's
#: shadows; it also bounds the per-job core demand.
GANG_SHADOW_STRIDE = 64

#: Parent-job trace marks live in their own id space, far above both
#: generator req_ids and the retry client's attempt ids (2**32), so
#: per-request and per-job telescoping spans never collide.
JOB_TRACE_ID_BASE = 2**33

#: Batch size for prefetching per-stream draws (mirrors the flat
#: generator's ``_RNG_BATCH``; stream-exact, see generator.py).
_RNG_BATCH = 256


# ----------------------------------------------------------------------
# Degree distributions
# ----------------------------------------------------------------------
class DegreeDistribution(abc.ABC):
    """An integer-valued distribution for fan-out / core-demand degrees.

    Separate from :class:`~repro.workload.service.ServiceDistribution`
    because degrees are small positive integers drawn once per *job*
    (not per sub-request) from the dedicated ``"jobs"`` stream.
    """

    @abc.abstractmethod
    def sample_many(self, rng: np.random.Generator, n: int) -> List[int]:
        """Draw ``n`` degrees (consumes the stream iff non-degenerate)."""

    @property
    @abc.abstractmethod
    def max_value(self) -> int:
        """Largest degree this distribution can produce."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected degree."""


class FixedDegree(DegreeDistribution):
    """Every job gets the same degree.  Draws nothing from the stream,
    so ``FixedDegree(1)`` is exactly the flat-request model."""

    def __init__(self, k: int = 1) -> None:
        if k < 1:
            raise ValueError(f"degree must be >= 1, got {k}")
        self.k = int(k)

    def sample_many(self, rng: np.random.Generator, n: int) -> List[int]:
        return [self.k] * n

    @property
    def max_value(self) -> int:
        return self.k

    @property
    def mean(self) -> float:
        return float(self.k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FixedDegree({self.k})"


class ChoiceDegree(DegreeDistribution):
    """Degrees drawn from a finite weighted support (one draw per job)."""

    def __init__(
        self,
        values: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not values:
            raise ValueError("need at least one degree value")
        self.values = tuple(int(v) for v in values)
        if any(v < 1 for v in self.values):
            raise ValueError(f"degrees must be >= 1, got {self.values}")
        if weights is None:
            self.weights: Tuple[float, ...] = tuple(
                1.0 / len(self.values) for _ in self.values
            )
        else:
            if len(weights) != len(values):
                raise ValueError("weights must match values in length")
            total = float(sum(weights))
            if total <= 0 or any(w < 0 for w in weights):
                raise ValueError(f"weights must be non-negative, got {weights}")
            self.weights = tuple(float(w) / total for w in weights)

    def sample_many(self, rng: np.random.Generator, n: int) -> List[int]:
        idx = rng.choice(len(self.values), size=n, p=list(self.weights))
        return [self.values[int(i)] for i in idx]

    @property
    def max_value(self) -> int:
        return max(self.values)

    @property
    def mean(self) -> float:
        return float(sum(v * w for v, w in zip(self.values, self.weights)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChoiceDegree({self.values}, {self.weights})"


class UniformDegree(DegreeDistribution):
    """Degrees uniform on the integers ``[lo, hi]`` (one draw per job)."""

    def __init__(self, lo: int, hi: int) -> None:
        if lo < 1 or hi < lo:
            raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
        self.lo = int(lo)
        self.hi = int(hi)

    def sample_many(self, rng: np.random.Generator, n: int) -> List[int]:
        return [int(v) for v in rng.integers(self.lo, self.hi + 1, size=n)]

    @property
    def max_value(self) -> int:
        return self.hi

    @property
    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniformDegree({self.lo}, {self.hi})"


# ----------------------------------------------------------------------
# Job shape (workload-level configuration)
# ----------------------------------------------------------------------
@dataclass
class JobShape:
    """Declarative job structure attached to a workload.

    Attributes
    ----------
    fanout:
        Sub-requests per job (scatter-gather width).  The job completes
        when the *last* sibling terminates.
    core_demand:
        Cores each sub-request occupies simultaneously (gang width).
        Demands above 1 require a gang-capable scheduler
        (:func:`system_supports_gang`).
    sibling_connections:
        ``"shared"`` -- all siblings of a job carry the job's one flow
        id, so hash steering pins the whole scatter to one destination
        (the tail-at-scale blow-up case); ``"distinct"`` -- each sibling
        draws its own flow id, so even hash steering spreads them.
    """

    fanout: DegreeDistribution = field(default_factory=FixedDegree)
    core_demand: DegreeDistribution = field(default_factory=FixedDegree)
    sibling_connections: str = "shared"

    def __post_init__(self) -> None:
        if self.sibling_connections not in ("shared", "distinct"):
            raise ValueError(
                "sibling_connections must be 'shared' or 'distinct', "
                f"got {self.sibling_connections!r}"
            )
        if self.core_demand.max_value > GANG_SHADOW_STRIDE:
            raise ValueError(
                f"core demand {self.core_demand.max_value} exceeds the "
                f"gang-width limit {GANG_SHADOW_STRIDE}"
            )

    @property
    def is_trivial(self) -> bool:
        """True when every job is one sub-request on one core -- the
        shape that compiles down to the flat ``Request`` path."""
        return (
            isinstance(self.fanout, FixedDegree)
            and self.fanout.k == 1
            and isinstance(self.core_demand, FixedDegree)
            and self.core_demand.k == 1
        )


# ----------------------------------------------------------------------
# Job record
# ----------------------------------------------------------------------
class Job:
    """One job and its lifecycle: ``fanout`` sub-requests scattered at
    ``arrival``, complete at the last sibling's terminal.

    Ducks the measurement interface of :class:`Request` (``completed``,
    ``dropped``, ``finished``, ``arrival``) so the latency summarizers
    in :mod:`repro.analysis.metrics` work on job lists unchanged.
    """

    __slots__ = (
        "job_id", "arrival", "fanout", "core_demand", "connection",
        "sub_ids", "terminals", "failed_subs", "finished",
    )

    def __init__(
        self,
        job_id: int,
        arrival: float,
        fanout: int,
        core_demand: int,
        connection: int,
        sub_ids: Tuple[int, ...],
    ) -> None:
        self.job_id = job_id
        self.arrival = arrival
        self.fanout = fanout
        self.core_demand = core_demand
        self.connection = connection
        self.sub_ids = sub_ids
        #: Siblings that reached a terminal state (completed or dropped).
        self.terminals = 0
        #: Siblings that terminated without completing.
        self.failed_subs = 0
        #: Time of the last sibling terminal, once all arrived.
        self.finished: Optional[float] = None

    @property
    def dropped(self) -> bool:
        """A job is dropped iff any sibling failed (all-or-nothing)."""
        return self.finished is not None and self.failed_subs > 0

    @property
    def completed(self) -> bool:
        return self.finished is not None and self.failed_subs == 0

    @property
    def latency(self) -> float:
        """Job latency: first scatter to last sibling response, in ns."""
        if self.finished is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.finished - self.arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = (
            "done" if self.completed
            else ("dropped" if self.dropped else "open")
        )
        return (
            f"<Job #{self.job_id} k={self.fanout} c={self.core_demand} "
            f"{self.terminals}/{self.fanout} {status}>"
        )


class JobTracker:
    """Maps sub-request terminals back to their jobs.

    Fault-free runs attach via the system's completion/drop hooks (one
    terminal per sub-request, exactly).  Faulted runs attach via
    :attr:`RetryClient.logical_hooks` instead -- each sub-request is an
    independent logical request there, with its own timeout/retry/dedup
    lifecycle, and the client's logical verdict is the sub-terminal.

    Telemetry: when tracing is on, the tracker emits parent-job spans
    under ``JOB_TRACE_ID_BASE + job_id`` -- a ``job_scatter`` mark at
    arrival, one ``sub_response`` per sibling terminal, ``job_complete``
    at the last -- whose telescoping spans sum exactly to job latency.
    """

    def __init__(self, sim: Simulator, trace=None) -> None:
        from repro.telemetry import NULL_SINK

        self.sim = sim
        self.trace = trace if trace is not None else NULL_SINK
        self.jobs: List[Job] = []
        self._by_sub = {}

    # ------------------------------------------------------------------
    def register(self, job: Job) -> None:
        self.jobs.append(job)
        for sub_id in job.sub_ids:
            self._by_sub[sub_id] = job
        trace = self.trace
        if trace.enabled and trace.sampled(JOB_TRACE_ID_BASE + job.job_id):
            trace.mark(
                JOB_TRACE_ID_BASE + job.job_id, "job_scatter", job.arrival
            )

    def attach_system(self, system) -> None:
        """Observe sub-request terminals on the fault-free path."""
        system.completion_hooks.append(self._on_sub_completed)
        system.drop_hooks.append(self._on_sub_dropped)

    def attach_client(self, client) -> None:
        """Observe per-sub-request logical verdicts under faults."""
        client.logical_hooks.append(self._on_sub_logical)

    # ------------------------------------------------------------------
    def _on_sub_completed(self, request: Request) -> None:
        self._sub_terminal(request.req_id, ok=True)

    def _on_sub_dropped(self, request: Request) -> None:
        self._sub_terminal(request.req_id, ok=False)

    def _on_sub_logical(self, request: Request, succeeded: bool) -> None:
        self._sub_terminal(request.req_id, ok=succeeded)

    def _sub_terminal(self, sub_id: int, ok: bool) -> None:
        job = self._by_sub.get(sub_id)
        if job is None:
            return  # not a tracked sub-request (e.g. synthetic test traffic)
        job.terminals += 1
        if not ok:
            job.failed_subs += 1
        now = self.sim.now
        trace = self.trace
        tracing = trace.enabled and trace.sampled(
            JOB_TRACE_ID_BASE + job.job_id
        )
        if tracing:
            trace.mark(JOB_TRACE_ID_BASE + job.job_id, "sub_response", now)
        if job.terminals >= job.fanout:
            job.finished = now
            if tracing:
                trace.mark(JOB_TRACE_ID_BASE + job.job_id, "job_complete", now)

    # ------------------------------------------------------------------
    @property
    def completed_jobs(self) -> int:
        return sum(1 for j in self.jobs if j.completed)

    @property
    def dropped_jobs(self) -> int:
        return sum(1 for j in self.jobs if j.dropped)


# ----------------------------------------------------------------------
# Job-structured load generation
# ----------------------------------------------------------------------
class JobLoadGenerator:
    """Open-loop generator that scatters whole jobs into ``sink``.

    One arrival-gap draw and (with shared sibling connections) one flow
    draw per *job*; one service draw per *sub-request*; all siblings are
    offered at the same arrival instant.  ``n_jobs`` counts jobs, and
    :attr:`total_subrequests` (known at construction, since all shapes
    are pre-drawn from the ``"jobs"`` stream) is what the system's
    ``expect()`` must be armed with.

    Duck-compatible with :class:`~repro.workload.generator.LoadGenerator`
    where ``run_workload`` needs it (``start``, ``requests``,
    ``measured_requests``).
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        arrivals: ArrivalProcess,
        service: ServiceDistribution,
        sink: Callable[[Request], None],
        n_jobs: int,
        shape: JobShape,
        tracker: JobTracker,
        size_bytes: int = 300,
        connections: Optional[ConnectionPool] = None,
        request_factory: Optional[Callable[[Request], None]] = None,
        warmup_fraction: float = 0.0,
    ) -> None:
        if n_jobs <= 0:
            raise ValueError(f"n_jobs must be positive, got {n_jobs}")
        if not 0 <= warmup_fraction < 1:
            raise ValueError(
                f"warmup_fraction must be in [0,1), got {warmup_fraction}"
            )
        self.sim = sim
        self.arrivals = arrivals
        self.service = service
        self.sink = sink
        self.n_jobs = int(n_jobs)
        self.shape = shape
        self.tracker = tracker
        self.size_bytes = int(size_bytes)
        self.request_factory = request_factory
        self.warmup_jobs = int(n_jobs * warmup_fraction)

        # All job shapes come from the dedicated "jobs" stream, drawn
        # up-front: total_subrequests is then known before the first
        # arrival, which expect() needs, and the workload streams are
        # consumed in exactly the per-draw order documented above.
        jobs_rng = streams.get("jobs")
        self._fanouts = shape.fanout.sample_many(jobs_rng, self.n_jobs)
        self._demands = shape.core_demand.sample_many(jobs_rng, self.n_jobs)
        self.total_subrequests = int(sum(self._fanouts))

        self._shared_conn = shape.sibling_connections == "shared"
        conn_draws = self.n_jobs if self._shared_conn else self.total_subrequests
        self.connections = connections or ConnectionPool(max(conn_draws, 1))
        self._conn_draws = conn_draws

        self._arrival_rng = streams.get("arrivals")
        self._service_rng = streams.get("service")
        self._conn_rng = streams.get("connections")
        self._emitted_jobs = 0
        self._next_req_id = 0
        self.jobs: List[Job] = []
        self.requests: List[Request] = []

        # Per-stream prefetch buffers (stream-exact batching; see
        # generator._RNG_BATCH).
        self._gap_buf: List[float] = []
        self._gap_i = 0
        self._gap_drawn = 0
        self._svc_buf: List[float] = []
        self._svc_i = 0
        self._svc_drawn = 0
        self._conn_buf: List[int] = []
        self._conn_i = 0
        self._conn_drawn = 0

    # ------------------------------------------------------------------
    def _next_gap(self) -> float:
        i = self._gap_i
        buf = self._gap_buf
        if i >= len(buf):
            n = min(_RNG_BATCH, self.n_jobs - self._gap_drawn)
            buf = self._gap_buf = self.arrivals.next_gaps(self._arrival_rng, n)
            self._gap_drawn += n
            i = 0
        self._gap_i = i + 1
        return buf[i]

    def _next_service(self) -> float:
        i = self._svc_i
        buf = self._svc_buf
        if i >= len(buf):
            n = min(_RNG_BATCH, self.total_subrequests - self._svc_drawn)
            buf = self._svc_buf = self.service.sample_many(self._service_rng, n)
            self._svc_drawn += n
            i = 0
        self._svc_i = i + 1
        return buf[i]

    def _next_connection(self) -> int:
        i = self._conn_i
        buf = self._conn_buf
        if i >= len(buf):
            n = min(_RNG_BATCH, self._conn_draws - self._conn_drawn)
            buf = self._conn_buf = self.connections.sample_many(
                self._conn_rng, n
            )
            self._conn_drawn += n
            i = 0
        self._conn_i = i + 1
        return buf[i]

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first scatter.  Must be called before ``sim.run``."""
        self.sim.schedule(self._next_gap(), self._emit)

    def _emit(self) -> None:
        j = self._emitted_jobs
        k = self._fanouts[j]
        demand = self._demands[j]
        now = self.sim.now
        shared_conn = self._next_connection() if self._shared_conn else None
        first_id = self._next_req_id
        self._next_req_id += k
        job = Job(
            job_id=j,
            arrival=now,
            fanout=k,
            core_demand=demand,
            connection=shared_conn if shared_conn is not None else first_id,
            sub_ids=tuple(range(first_id, first_id + k)),
        )
        self.jobs.append(job)
        self.tracker.register(job)
        for i in range(k):
            req = Request(
                req_id=first_id + i,
                arrival=now,
                service_time=self._next_service(),
                size_bytes=self.size_bytes,
                connection=(
                    shared_conn
                    if shared_conn is not None
                    else self._next_connection()
                ),
                job_id=j,
                fanout=k,
                sibling_index=i,
                core_demand=demand,
            )
            if self.request_factory is not None:
                self.request_factory(req)
            self.requests.append(req)
            self.sink(req)
        self._emitted_jobs += 1
        if self._emitted_jobs < self.n_jobs:
            self.sim.schedule(self._next_gap(), self._emit)

    # ------------------------------------------------------------------
    @property
    def emitted(self) -> int:
        """Jobs generated so far."""
        return self._emitted_jobs

    @property
    def done(self) -> bool:
        return self._emitted_jobs >= self.n_jobs

    def measured_requests(self) -> List[Request]:
        """Completed sub-requests of post-warmup jobs (analysis input)."""
        warmup = self.warmup_jobs
        return [
            r
            for r in self.requests
            if r.job_id is not None
            and r.job_id >= warmup
            and r.completed
            and not r.dropped
        ]

    def measured_jobs(self) -> List[Job]:
        """Completed jobs past the warmup window (job-level analysis)."""
        return [j for j in self.jobs[self.warmup_jobs:] if j.completed]


# ----------------------------------------------------------------------
# Gang shadows
# ----------------------------------------------------------------------
def make_gang_shadow(primary: Request, index: int) -> Request:
    """A placeholder occupying one secondary core of a gang.

    The shadow runs for exactly the primary's service time but is fenced
    out of system-level accounting (``gang_shadow`` short-circuits
    ``RpcSystem._request_completed``): stats, hooks, latency histograms
    and run termination only ever see the primary.  Shadow req_ids are
    negative and derived from the primary at :data:`GANG_SHADOW_STRIDE`,
    so they are distinct per (primary, slot) and can never collide with
    generator or retry-attempt ids.
    """
    if not 1 <= index < GANG_SHADOW_STRIDE:
        raise ValueError(
            f"gang shadow index must be in [1, {GANG_SHADOW_STRIDE}), "
            f"got {index}"
        )
    shadow = Request(
        req_id=-((primary.req_id + 1) * GANG_SHADOW_STRIDE + index),
        arrival=primary.arrival,
        service_time=primary.service_time,
        size_bytes=primary.size_bytes,
        connection=primary.connection,
        job_id=primary.job_id,
        fanout=primary.fanout,
        sibling_index=primary.sibling_index,
        core_demand=primary.core_demand,
        gang_shadow=True,
    )
    shadow.enqueued = primary.enqueued
    return shadow


def system_supports_gang(system) -> bool:
    """True when ``system`` admits multi-core gang jobs -- it (or, for a
    fabric of any depth, every leaf scheduler) declares
    ``supports_gang``."""
    # Imported here: repro.cluster imports this package's tenant model,
    # so a module-scope import would cycle.
    from repro.cluster.fabric import Fabric

    leaves = system.leaves() if isinstance(system, Fabric) else [system]
    return all(getattr(leaf, "supports_gang", False) for leaf in leaves)


__all__ = [
    "GANG_SHADOW_STRIDE",
    "JOB_TRACE_ID_BASE",
    "DegreeDistribution",
    "FixedDegree",
    "ChoiceDegree",
    "UniformDegree",
    "JobShape",
    "Job",
    "JobTracker",
    "JobLoadGenerator",
    "make_gang_shadow",
    "system_supports_gang",
]
