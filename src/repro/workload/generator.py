"""The open-loop load generator.

Drives an :class:`~repro.workload.arrivals.ArrivalProcess` into any sink
with an ``offer(request)`` method (in practice, a NIC model).  Open-loop
means arrivals never block on the server -- the standard methodology for
tail-latency studies, and what the paper's load generator does
(Sec. VII-B).

Each arrival instant emits one flat :class:`Request` or, under a
non-trivial :class:`~repro.workload.jobs.JobShape`, one
:class:`~repro.workload.jobs.Job` whose sibling sub-requests are all
offered at that instant.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import NULL_SINK
from repro.workload.arrivals import ArrivalProcess
from repro.workload.connections import ConnectionPool
from repro.workload.jobs import JOB_TRACE_ID_BASE, Job, JobShape
from repro.workload.request import Request
from repro.workload.service import ServiceDistribution

#: Draws are prefetched from each RNG stream in chunks of this size.
#: Batch draws consume the same bit stream as scalar draws (numpy fills
#: arrays sequentially), so prefetching is bit-identical -- it only
#: amortizes the per-call numpy overhead across the chunk.  Chunks are
#: capped at the number of draws the scalar path would make, so total
#: stream consumption is unchanged too.
_RNG_BATCH = 256


def _prefetched(draw: Callable[[Any, int], List[Any]], rng, total: int):
    """A zero-argument callable returning the next of ``total`` draws.

    ``draw(rng, n)`` is called on first need for each chunk of
    :data:`_RNG_BATCH` values (the last chunk holds the remainder).
    """
    chunks = (
        draw(rng, min(_RNG_BATCH, total - start))
        for start in range(0, total, _RNG_BATCH)
    )
    return chain.from_iterable(chunks).__next__


class LoadGenerator:
    """Generates ``n_requests`` arrivals into ``sink`` on the simulator.

    Parameters
    ----------
    sim, streams:
        Shared simulation kernel and RNG streams ("arrivals", "service",
        "connections" are drawn from here; "jobs" too under a job shape).
    arrivals, service:
        The stochastic workload definition.
    sink:
        Called as ``sink(request)`` at each arrival instant.
    n_requests:
        Total arrivals to emit -- requests, or jobs under a job shape;
        the generator stops afterwards.
    connections:
        Flow pool for RSS steering; defaults to one flow per connection
        draw (effectively uniform).
    request_factory:
        Optional hook that decorates each request (the MICA workload uses
        it to attach keys and operation kinds).
    warmup_fraction:
        Arrivals in the first fraction are excluded from
        :meth:`measured_requests` and :meth:`measured_jobs` so analysis
        can discard transient behaviour.
    shape:
        Job structure.  ``None`` or a trivial shape emits flat requests:
        one arrival-gap, service and connection draw each, nothing from
        the ``"jobs"`` stream and no :class:`Job` records.  Otherwise
        every job's fan-out and core demand are pre-drawn from
        ``"jobs"`` at construction (so :attr:`total_subrequests` is
        known before the first arrival), and each arrival scatters one
        job: one gap draw and (with shared sibling connections) one flow
        draw per job, one service draw per sub-request.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        arrivals: ArrivalProcess,
        service: ServiceDistribution,
        sink: Callable[[Request], None],
        n_requests: int,
        size_bytes: int = 300,
        connections: Optional[ConnectionPool] = None,
        request_factory: Optional[Callable[[Request], None]] = None,
        warmup_fraction: float = 0.0,
        shape: Optional[JobShape] = None,
    ) -> None:
        if n_requests <= 0:
            raise ValueError(f"n_requests must be positive, got {n_requests}")
        if not 0 <= warmup_fraction < 1:
            raise ValueError(f"warmup_fraction must be in [0,1), got {warmup_fraction}")
        self.sim = sim
        self.arrivals = arrivals
        self.service = service
        self.sink = sink
        self.n_requests = n = int(n_requests)
        self.size_bytes = int(size_bytes)
        self.request_factory = request_factory
        #: Arrivals (requests or jobs) inside the warmup window.
        self.warmup_jobs = int(n_requests * warmup_fraction)
        self._emitted = 0
        self._trace = NULL_SINK
        self.requests: List[Request] = []

        #: Per-job records, fan-outs and core demands (``None`` when flat).
        self.jobs: Optional[List[Job]] = None
        self.fanouts: Optional[List[int]] = None
        self.demands: Optional[List[int]] = None
        if shape is None or shape.is_trivial:
            self.total_subrequests = n
            #: Requests inside the warmup window.
            self.warmup_count = self.warmup_jobs
            conn_draws = n
            self._emit = self._emit_request
        else:
            jobs_rng = streams.get("jobs")
            self.jobs = []
            self.fanouts = shape.fanout.sample_many(jobs_rng, n)
            self.demands = shape.core_demand.sample_many(jobs_rng, n)
            self.total_subrequests = int(sum(self.fanouts))
            self.warmup_count = int(sum(self.fanouts[: self.warmup_jobs]))
            self._shared_conn = shape.sibling_connections == "shared"
            conn_draws = n if self._shared_conn else self.total_subrequests
            self._emit = self._emit_job
        self.connections = connections or ConnectionPool(max(conn_draws, 1))

        self._next_gap = _prefetched(
            arrivals.next_gaps, streams.get("arrivals"), n
        )
        self._next_service = _prefetched(
            service.sample_many, streams.get("service"), self.total_subrequests
        )
        self._next_connection = _prefetched(
            self.connections.sample_many, streams.get("connections"), conn_draws
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first arrival.  Must be called before ``sim.run``."""
        self.sim.post(self._next_gap(), self._emit)

    def _emit_request(self) -> None:
        req = Request(
            req_id=self._emitted,
            arrival=self.sim.now,
            service_time=self._next_service(),
            size_bytes=self.size_bytes,
            connection=self._next_connection(),
        )
        if self.request_factory is not None:
            self.request_factory(req)
        self._emitted += 1
        self.requests.append(req)
        self.sink(req)
        if self._emitted < self.n_requests:
            self.sim.post(self._next_gap(), self._emit)

    def _emit_job(self) -> None:
        j = self._emitted
        k = self.fanouts[j]
        demand = self.demands[j]
        now = self.sim.now
        shared_conn = self._next_connection() if self._shared_conn else None
        first_id = len(self.requests)
        self.jobs.append(
            Job(
                job_id=j,
                arrival=now,
                fanout=k,
                core_demand=demand,
                connection=shared_conn if shared_conn is not None else first_id,
            )
        )
        trace = self._trace
        if trace.enabled and trace.sampled(JOB_TRACE_ID_BASE + j):
            trace.mark(JOB_TRACE_ID_BASE + j, "job_scatter", now)
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
        self._emitted += 1
        if self._emitted < self.n_requests:
            self.sim.post(self._next_gap(), self._emit)

    # ------------------------------------------------------------------
    def attach(self, system, client=None) -> None:
        """Finish each job at its last sibling's terminal (no-op when flat).

        Fault-free runs observe ``system``'s completion and drop hooks
        (one terminal per sub-request, exactly).  Under faults, pass the
        :class:`~repro.faults.RetryClient`: each sub-request is one
        logical request there, with its own timeout/retry/dedup
        lifecycle, and the client's logical verdict is the sub-terminal.

        When ``system`` traces, each job also gets parent spans under
        ``JOB_TRACE_ID_BASE + job_id`` -- a ``job_scatter`` mark at
        arrival, one ``sub_response`` per sibling terminal,
        ``job_complete`` at the last -- which telescope to job latency.
        """
        if self.jobs is None:
            return
        trace = getattr(system, "trace", None)
        if trace is not None:
            self._trace = trace
        if client is not None:
            client.logical_hooks.append(self._sub_terminal)
        else:
            system.completion_hooks.append(self._sub_terminal)
            system.drop_hooks.append(self._sub_dropped)

    def _sub_dropped(self, request: Request) -> None:
        self._sub_terminal(request, False)

    def _sub_terminal(self, request: Request, succeeded: bool = True) -> None:
        if request.job_id is None:
            return  # not a job sub-request (e.g. synthetic test traffic)
        job = self.jobs[request.job_id]
        job.terminals += 1
        if not succeeded:
            job.failed_subs += 1
        now = self.sim.now
        trace_id = JOB_TRACE_ID_BASE + job.job_id
        trace = self._trace
        tracing = trace.enabled and trace.sampled(trace_id)
        if tracing:
            trace.mark(trace_id, "sub_response", now)
        if job.terminals >= job.fanout:
            job.finished = now
            if tracing:
                trace.mark(trace_id, "job_complete", now)

    # ------------------------------------------------------------------
    @property
    def emitted(self) -> int:
        """Arrivals (requests or jobs) generated so far."""
        return self._emitted

    @property
    def done(self) -> bool:
        """True once all arrivals have been emitted."""
        return self._emitted >= self.n_requests

    def measured_requests(self) -> List[Request]:
        """Completed requests past the warmup window (analysis input)."""
        return [
            r
            for r in self.requests[self.warmup_count :]
            if r.completed and not r.dropped
        ]

    def measured_jobs(self) -> List[Job]:
        """Completed jobs past the warmup window (job-level analysis)."""
        return [j for j in self.jobs[self.warmup_jobs :] if j.completed]
