"""The common RPC-system harness.

An :class:`RpcSystem` owns the cores and receives requests from the load
generator via :meth:`offer`.  The flow for every scheduler is:

    wire arrival --(NIC delivery latency)--> ``_deliver`` (policy)
    --> core executes --> ``_request_completed`` --> policy picks next

Subclasses implement ``_deliver`` (where does an arriving request go?)
and ``_after_complete`` (what does a freed core do next?), optionally
``_after_preempt`` for quantum-preemptive policies.

The harness also handles end-of-run detection: once ``expect(n)`` has
been called and *n* requests have completed (or been dropped), it stops
the simulator so periodic timers don't keep the event heap alive.

Telemetry: every system owns a :class:`~repro.telemetry.MetricRegistry`
(``system.metrics``) that the engine, NIC delivery model, and scheduler
subsystems register into, and a trace sink (``system.trace``) picked up
from the active :func:`repro.telemetry.capture` context -- the shared
``NULL_SINK`` when tracing is off, so the disabled path is a single
attribute check.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional

from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.hw.cores import Core
from repro.hw.nic import DeliveryModel, HwTerminatedDelivery
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import MetricRegistry, trace_sink
from repro.workload.request import Request


class SystemStats:
    """Aggregate counters every system maintains, viewed by a registry.

    The core counts (offered/completed/dropped/scheduling) stay plain
    writable attributes -- the hot paths increment them directly and
    tests may assign them -- while the registry observes them through
    bound instruments under ``system.*``.  Any other named metric is an
    instrument registered on the same registry.
    """

    __slots__ = (
        "registry",
        "offered",
        "completed",
        "dropped",
        "scheduling_ops",
        "scheduling_ns",
    )

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.offered = 0
        self.completed = 0
        self.dropped = 0
        self.scheduling_ops = 0
        self.scheduling_ns = 0.0
        self.registry = registry if registry is not None else MetricRegistry()
        reg = self.registry
        reg.counter("system.offered", fn=lambda: self.offered)
        reg.counter("system.completed", fn=lambda: self.completed)
        reg.counter("system.dropped", fn=lambda: self.dropped)
        reg.counter("system.scheduling_ops", fn=lambda: self.scheduling_ops)
        reg.counter("system.scheduling_ns", fn=lambda: self.scheduling_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SystemStats(offered={self.offered}, "
            f"completed={self.completed}, dropped={self.dropped}, "
            f"scheduling_ops={self.scheduling_ops}, "
            f"scheduling_ns={self.scheduling_ns})"
        )


class RpcSystem(abc.ABC):
    """Base class wiring NIC delivery, scheduling policy, and cores."""

    #: Human-readable system name, overridden by subclasses.
    name = "abstract"

    #: Whether this scheduler admits multi-core gang jobs
    #: (``core_demand > 1``): it must hold such a request at its queue
    #: head until enough cores are idle, then occupy the extras with
    #: gang shadows.  Declared per subclass; the workload layer
    #: validates it up-front (:func:`repro.workload.jobs
    #: .system_supports_gang`) so the hot path never checks.
    supports_gang = False

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        n_cores: int,
        delivery: Optional[DeliveryModel] = None,
        constants: HwConstants = DEFAULT_CONSTANTS,
    ) -> None:
        if n_cores <= 0:
            raise ValueError(f"need at least one core, got {n_cores}")
        self.sim = sim
        self.streams = streams
        self.constants = constants
        self.delivery = delivery or HwTerminatedDelivery(constants)
        self.cores: List[Core] = [
            Core(sim, i, self._request_completed, self._request_preempted)
            for i in range(n_cores)
        ]
        self.metrics = MetricRegistry()
        self.trace = trace_sink()
        self.stats = SystemStats(self.metrics)
        sim.register_metrics(self.metrics)
        register = getattr(self.delivery, "register_metrics", None)
        if register is not None:
            register(self.metrics)
        self._latency_hist = self.metrics.histogram("system.latency_ns")
        self.finished_requests: List[Request] = []
        self._expected: Optional[int] = None
        #: Application execution (e.g. a KVS op against its store), run
        #: when a request first starts on a core; its return value is
        #: extra on-core latency (admission waits, remote-owner
        #: penalties).  Charged through :meth:`_execute_ns`.
        self.execute: Optional[Callable[[Request], float]] = None
        #: Called with each completing request.
        self.completion_hooks: List = []
        #: Called with each dropped request (bounded-queue overflow).
        #: The cluster tier uses this to observe per-server terminations
        #: without owning the scheduler's internals.
        self.drop_hooks: List = []

    # ------------------------------------------------------------------
    # Load-generator interface
    # ------------------------------------------------------------------
    def offer(self, request: Request) -> None:
        """Wire arrival at the NIC.  The latency clock starts here."""
        self.stats.offered += 1
        trace = self.trace
        if trace.enabled and trace.sampled(request.req_id):
            trace.mark(request.req_id, "nic_delivery", self.sim.now)
        delay = self.delivery.delivery_ns(request)
        self.sim.post(delay, self._deliver, request)

    def expect(self, n_requests: int) -> None:
        """Stop the simulation once ``n_requests`` terminate."""
        if n_requests <= 0:
            raise ValueError(f"expected count must be positive, got {n_requests}")
        self._expected = n_requests

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _deliver(self, request: Request) -> None:
        """Request is now visible to the host; enqueue / dispatch it."""

    @abc.abstractmethod
    def _after_complete(self, core: Core, request: Request) -> None:
        """A core finished ``request``; give it (or others) more work."""

    def _after_preempt(self, core: Core, request: Request) -> None:
        """A quantum expired; requeue ``request`` and refill the core.

        Only preemptive systems override this.
        """
        raise NotImplementedError(f"{self.name} does not preempt")

    # ------------------------------------------------------------------
    # Core callbacks (template methods; not overridden)
    # ------------------------------------------------------------------
    def _request_completed(self, core: Core, request: Request) -> None:
        if request.gang_shadow:
            # A gang's secondary-core placeholder: invisible to stats,
            # hooks, histograms and run termination -- only the
            # scheduler's occupancy bookkeeping sees it free its core.
            self._after_complete(core, request)
            return
        self.stats.completed += 1
        self._latency_hist.observe(request.finished - request.arrival)
        trace = self.trace
        if trace.enabled and trace.sampled(request.req_id):
            trace.mark(request.req_id, "completed", self.sim.now)
        self.finished_requests.append(request)
        for hook in self.completion_hooks:
            hook(request)
        self._check_done()
        self._after_complete(core, request)

    def _request_preempted(self, core: Core, request: Request) -> None:
        self._after_preempt(core, request)

    def _drop(self, request: Request) -> None:
        """Drop a request (bounded-queue overflow)."""
        request.dropped = True
        if request.gang_shadow:
            # Same fence as _request_completed: a shadow's terminal must
            # never count toward stats, hooks or run termination (its
            # primary carries the job's outcome).
            return
        self.stats.dropped += 1
        trace = self.trace
        if trace.enabled and trace.sampled(request.req_id):
            trace.mark(request.req_id, "dropped", self.sim.now)
        for hook in self.drop_hooks:
            hook(request)
        self._check_done()

    def _check_done(self) -> None:
        if (
            self._expected is not None
            and self.stats.completed + self.stats.dropped >= self._expected
        ):
            self.sim.stop()

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _charge_scheduling(self, ns: float) -> None:
        """Record one scheduling operation of the given cost."""
        self.stats.scheduling_ops += 1
        self.stats.scheduling_ns += ns

    def _execute_ns(self, request: Request) -> float:
        """On-core ns the :attr:`execute` hook charges ``request``.

        Every scheduler's start path adds this to the ``startup_ns`` it
        passes to :meth:`Core.assign`.  The hook runs once, at the first
        start; a preempted request's later slices pay nothing.
        """
        execute = self.execute
        if execute is None or request.started is not None:
            return 0.0
        return execute(request)

    def utilization(self, elapsed_ns: float) -> float:
        """Mean core utilization over ``elapsed_ns``."""
        if elapsed_ns <= 0 or not self.cores:
            return 0.0
        return sum(c.busy_ns for c in self.cores) / (elapsed_ns * len(self.cores))

    def shutdown(self) -> None:
        """Cancel periodic machinery (timers); default: nothing to do."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} cores={len(self.cores)} "
            f"done={self.stats.completed}/{self.stats.offered}>"
        )
