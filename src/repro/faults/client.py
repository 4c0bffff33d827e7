"""The retrying client that sits between the load generator and a
(possibly faulty) system.

With no fault plan attached the generator offers requests straight into
the system and the system's own ``expect()`` terminates the run.  With a
plan, requests can vanish (crashed server, NIC burst, partition) or
complete twice (a timed-out attempt finishing after its retry), so the
client takes over both delivery and termination:

* every *logical* request (one generator emission) is sent as attempt 0;
* an attempt with no response within ``retry.timeout_ns`` is counted
  ``timed_out`` and -- budget permitting -- re-sent as a fresh attempt
  after capped exponential backoff (jitter drawn from the dedicated
  ``"client_retry"`` stream, so workload streams are unperturbed);
* responses are fenced through the injector (a response from a downed
  server is lost) and deduplicated through the KVS-layer
  :class:`~repro.kvs.dedup.DuplicateDetector` before a logical request
  is marked succeeded;
* the run stops when every logical request has succeeded or exhausted
  its retries -- not when the *system* saw N terminals, since one
  logical request may cost several attempts.

Conservation contract (pinned by the property suite): every attempt the
client sends lands in exactly one terminal bucket, so at shutdown ::

    completed + dropped + timed_out + in_flight_at_end
        == injected + retries

Measurement: analysis reads the generator's original request objects, so
on logical success the client back-stamps the original's ``finished``
timestamp (and clears ``dropped``) with the accepted attempt's
completion time; exhausted requests are marked ``dropped``.  The
re-stamp happens in :meth:`finalize`, after the simulation, so a late
server-side completion of the original cannot overwrite the latency the
client actually observed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.kvs.dedup import DuplicateDetector
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import MetricRegistry
from repro.workload.request import Request

from repro.faults.plan import RetryPolicy

#: Attempt req_ids live in their own id space far above any generator
#: id, so per-request telemetry can't collide with workload requests.
_ATTEMPT_ID_BASE = 2**32


class _Logical:
    """Client-side state of one logical request."""

    __slots__ = (
        "original", "attempts_sent", "open_attempts", "succeeded",
        "failed", "success_ns", "resend_event",
    )

    def __init__(self, original: Request) -> None:
        self.original = original
        self.attempts_sent = 0
        self.open_attempts = 0
        self.succeeded = False
        self.failed = False
        self.success_ns = 0.0
        self.resend_event: Optional[Event] = None

    @property
    def terminal(self) -> bool:
        return self.succeeded or self.failed


class RetryClient:
    """Timeout/retry/failover layer over any system's ``offer`` duck."""

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        system,
        retry: RetryPolicy,
        ingress: Optional[Callable[[Request], None]] = None,
        response_delivered: Optional[Callable[[Request], bool]] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.sim = sim
        self.retry = retry
        self.system = system
        self._ingress = ingress if ingress is not None else system.offer
        #: Response fence: False when the completing attempt's response
        #: was lost (its server is down).  The injector supplies this.
        self._response_delivered = response_delivered
        self._rng = streams.draws("client_retry")
        registry = (
            registry
            if registry is not None
            else getattr(system, "metrics", None) or MetricRegistry()
        )
        self.detector = DuplicateDetector(registry)
        self._m_injected = registry.counter("client.retry.injected")
        self._m_retries = registry.counter("client.retry.retries")
        self._m_completed = registry.counter("client.retry.completed")
        self._m_dropped = registry.counter("client.retry.dropped")
        self._m_timed_out = registry.counter("client.retry.timed_out")
        self._m_responses = registry.counter("client.retry.responses")
        self._m_duplicates = registry.counter("client.retry.duplicates")
        self._m_late_successes = registry.counter("client.retry.late_successes")
        self._m_succeeded = registry.counter("client.retry.succeeded")
        self._m_failed = registry.counter("client.retry.failed")
        registry.gauge(
            "client.retry.in_flight_at_end", fn=lambda: self._open_attempts
        )
        self.trace = getattr(system, "trace", None)
        #: Attempt req_id -> (logical, timeout event or None once fired).
        self._attempts: Dict[int, "_Attempt"] = {}
        self._logical: Dict[int, _Logical] = {}
        self._open_attempts = 0
        self._next_attempt_id = _ATTEMPT_ID_BASE
        self._expected: Optional[int] = None
        self._terminal_logical = 0
        #: Called as ``hook(original_request, succeeded)`` at each
        #: logical verdict -- the per-sub-request terminal a job-shaped
        #: load generator observes under faults (empty outside job
        #: workloads, so plain fault runs are untouched).
        self.logical_hooks: list = []
        system.completion_hooks.append(self._on_attempt_completed)
        system.drop_hooks.append(self._on_attempt_dropped)

    # ------------------------------------------------------------------
    # Load-generator interface
    # ------------------------------------------------------------------
    def send(self, request: Request) -> None:
        """Sink for the load generator: attempt 0 of a logical request."""
        request.logical_id = request.req_id
        request.attempt = 0
        state = _Logical(request)
        self._logical[request.req_id] = state
        self._m_injected.value += 1
        self._send_attempt(state, request)

    def expect(self, n_requests: int) -> None:
        """Stop the simulation after ``n_requests`` logical terminals."""
        if n_requests <= 0:
            raise ValueError(f"expected count must be positive, got {n_requests}")
        self._expected = n_requests

    # ------------------------------------------------------------------
    # Attempt lifecycle
    # ------------------------------------------------------------------
    def _send_attempt(self, state: _Logical, request: Request) -> None:
        state.attempts_sent += 1
        state.open_attempts += 1
        self._open_attempts += 1
        timeout = self.sim.schedule(
            self.retry.timeout_ns, self._on_timeout, request
        )
        self._attempts[request.req_id] = _Attempt(state, timeout)
        self._ingress(request)

    def _retry_or_fail(self, state: _Logical) -> None:
        """An attempt just went terminal without success."""
        if state.terminal:
            return
        retries_used = state.attempts_sent - 1
        if retries_used >= self.retry.max_retries:
            # Other attempts may still be open (e.g. timed out but alive
            # inside the server); the logical verdict doesn't wait for
            # them -- a real client has answered its caller by now.
            self._fail(state)
            return
        if state.resend_event is not None:
            return  # a backoff resend is already pending
        wait = self.retry.backoff_ns(retries_used + 1)
        if self.retry.jitter:
            # One uniform draw per scheduled retry, from the dedicated
            # client stream: stream-exact with respect to the workload.
            span = 2.0 * self.retry.jitter
            wait *= 1.0 - self.retry.jitter + span * self._rng.random()
        state.resend_event = self.sim.schedule(wait, self._resend, state)

    def _resend(self, state: _Logical) -> None:
        state.resend_event = None
        if state.terminal:
            return
        original = state.original
        clone = Request(
            req_id=self._next_attempt_id,
            arrival=self.sim.now,
            service_time=original.service_time,
            size_bytes=original.size_bytes,
            connection=original.connection,
            kind=original.kind,
            key=original.key,
            value=original.value,
            job_id=original.job_id,
            fanout=original.fanout,
            sibling_index=original.sibling_index,
            core_demand=original.core_demand,
        )
        self._next_attempt_id += 1
        clone.logical_id = original.req_id
        clone.attempt = state.attempts_sent
        self._m_retries.value += 1
        trace = self.trace
        if trace is not None and trace.enabled and trace.sampled(original.req_id):
            trace.mark(original.req_id, "retry", self.sim.now)
        self._send_attempt(state, clone)

    # ------------------------------------------------------------------
    # Terminal transitions (each attempt lands in exactly one bucket)
    # ------------------------------------------------------------------
    def _on_timeout(self, request: Request) -> None:
        attempt = self._attempts[request.req_id]
        attempt.timeout = None  # fired; nothing left to cancel
        if attempt.terminal:
            return
        attempt.terminal = True
        attempt.state.open_attempts -= 1
        self._open_attempts -= 1
        self._m_timed_out.value += 1
        trace = self.trace
        if trace is not None and trace.enabled:
            lid = request.logical_id
            if lid is not None and trace.sampled(lid):
                trace.mark(lid, "timeout", self.sim.now)
        self._retry_or_fail(attempt.state)

    def _on_attempt_dropped(self, request: Request) -> None:
        attempt = self._attempts.get(request.req_id)
        if attempt is None or attempt.terminal:
            # Not ours, or already timed out client-side: the drop is
            # server-side cleanup of an attempt we gave up on.
            return
        attempt.terminal = True
        self._cancel_timeout(attempt)
        attempt.state.open_attempts -= 1
        self._open_attempts -= 1
        self._m_dropped.value += 1
        self._retry_or_fail(attempt.state)

    def _on_attempt_completed(self, request: Request) -> None:
        attempt = self._attempts.get(request.req_id)
        if attempt is None:
            return  # not sent by this client
        if self._response_delivered is not None and not self._response_delivered(
            request
        ):
            # Response lost (server down): the attempt stays open until
            # its timeout fires -- exactly what a real client observes.
            return
        late = attempt.terminal
        if not late:
            attempt.terminal = True
            self._cancel_timeout(attempt)
            attempt.state.open_attempts -= 1
            self._open_attempts -= 1
            self._m_completed.value += 1
        self._m_responses.value += 1
        state = attempt.state
        duplicate = self.detector.observe(request.logical_id)
        if duplicate:
            self._m_duplicates.value += 1
            return
        if state.terminal:
            # First service of a logical request the client already
            # failed: the work happened, but the verdict stands.
            return
        if late:
            self._m_late_successes.value += 1
        self._succeed(state)

    # ------------------------------------------------------------------
    # Logical verdicts
    # ------------------------------------------------------------------
    def _succeed(self, state: _Logical) -> None:
        state.succeeded = True
        state.success_ns = self.sim.now
        self._cancel_resend(state)
        self._logical_terminal(state)

    def _fail(self, state: _Logical) -> None:
        state.failed = True
        self._cancel_resend(state)
        self._m_failed.value += 1
        trace = self.trace
        if trace is not None and trace.enabled and trace.sampled(
            state.original.req_id
        ):
            trace.mark(state.original.req_id, "retry_exhausted", self.sim.now)
        self._logical_terminal(state)

    def _logical_terminal(self, state: _Logical) -> None:
        if state.succeeded:
            self._m_succeeded.value += 1
        for hook in self.logical_hooks:
            hook(state.original, state.succeeded)
        self._terminal_logical += 1
        if (
            self._expected is not None
            and self._terminal_logical >= self._expected
        ):
            self.sim.stop()

    def _cancel_timeout(self, attempt: "_Attempt") -> None:
        if attempt.timeout is not None:
            self.sim.cancel(attempt.timeout)
            attempt.timeout = None

    def _cancel_resend(self, state: _Logical) -> None:
        if state.resend_event is not None:
            self.sim.cancel(state.resend_event)
            state.resend_event = None

    # ------------------------------------------------------------------
    # Post-run
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Re-stamp the generator's original requests with the client's
        observed outcome, so ``measured_requests()`` and the analysis
        layer read client-side truth (call after ``sim.run``)."""
        for state in self._logical.values():
            original = state.original
            if state.succeeded:
                original.finished = state.success_ns
                original.dropped = False
            else:
                original.dropped = True

    # ------------------------------------------------------------------
    # Introspection (conservation tests read these)
    # ------------------------------------------------------------------
    @property
    def open_attempts(self) -> int:
        return self._open_attempts

    @property
    def succeeded(self) -> int:
        return self._m_succeeded.value

    @property
    def failed(self) -> int:
        return self._m_failed.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RetryClient injected={self._m_injected.value} "
            f"retries={self._m_retries.value} open={self._open_attempts}>"
        )


class _Attempt:
    """Terminal-bucket bookkeeping for one sent attempt."""

    __slots__ = ("state", "timeout", "terminal")

    def __init__(self, state: _Logical, timeout: Event) -> None:
        self.state = state
        self.timeout: Optional[Event] = timeout
        self.terminal = False


__all__ = ["RetryClient"]
