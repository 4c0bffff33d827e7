"""Inter-server steering policies for the rack tier.

These decide, per arriving request, which server in the rack receives
it -- the rack-level analogue of the per-server NIC steering in
:class:`repro.hw.nic.RssSteering`.  RackSched's observation (and the
reason this tier exists) is that nanosecond-scale intra-server
scheduling cannot bound rack tails on its own: a load-oblivious
inter-server layer can pin a hot flow to one server and overload it
while its neighbours idle, no matter how well each server schedules
internally.

Six policies span the design space (four load-(un)aware classics plus
the two job-sibling routing endpoints, :class:`StickyJobSteering` and
:class:`SpreadJobSteering`):

* :class:`ConnectionHashSteering` -- hash the flow id to a server (what
  an ECMP/RSS-style fabric does today).  Load-oblivious; hot flows pin.
* :class:`RoundRobinSteering` -- strict rotation.  Balanced in request
  *count* but blind to service-time and queue-depth skew.
* :class:`PowerOfDSteering` -- join-the-shortest-queue over ``d``
  uniformly sampled servers ("power of d choices"), driven by queue
  estimates that may be configurably stale, modelling an in-network
  agent whose per-server state refreshes at telemetry granularity
  rather than per packet (the Rain/RackSched in-network sampling
  regime).  Between refreshes the policy tracks its own sends
  optimistically, as RackSched's request counters do.
* :class:`ShortestExpectedWaitSteering` -- RackSched's inter-server
  policy: periodic load samples of *every* server, steering to the
  minimum expected wait (outstanding work normalized by service
  capacity), with optimistic in-flight tracking between samples.

Policies observe server load through a ``probe`` callable supplied by
the rack (outstanding = offered - completed - dropped); they never
reach into scheduler internals, so any registered per-server system
works behind any policy.

Health awareness: every policy holds a ``health`` view
(:data:`repro.faults.health.ALL_HEALTHY` until a fault plan replaces it
with a live :class:`~repro.faults.health.HealthView`).  Load-aware
policies (round-robin, power-of-d, shortest-wait) route around downed
servers and bias away from degraded ones -- RackSched's switch-side
failure handling.  Connection-hash deliberately stays oblivious: a real
ECMP/RSS fabric has no health feedback, and the chaos experiment exists
to show what that costs.  The healthy path is guarded by a single
``health.impaired`` attribute check, so fault-free runs remain
bit-identical to the pre-fault engine.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional

from repro.faults.health import ALL_HEALTHY
from repro.sim.engine import Event, Simulator
from repro.sim.rng import ExactDraws
from repro.workload.request import Request

#: Policy-name registry; values are the constructor names accepted by
#: :func:`make_policy` and :class:`repro.cluster.fabric.FabricConfig`.
POLICY_NAMES = (
    "hash", "round_robin", "power_of_d", "shortest_wait", "sticky", "spread",
)

#: Default number of sampled servers for power-of-d choices.
DEFAULT_D = 2

#: Default period between RackSched-style full load samples.
DEFAULT_SAMPLE_PERIOD_NS = 2_000.0

ProbeFn = Callable[[int], float]


class SteeringPolicy(abc.ABC):
    """Base class: picks a destination server per request and counts
    its own decisions (the cluster metrics read ``decisions``)."""

    #: Short policy name, overridden by subclasses.
    name = "abstract"

    def __init__(self, n_servers: int) -> None:
        if n_servers <= 0:
            raise ValueError(f"need at least one server, got {n_servers}")
        self.n_servers = int(n_servers)
        #: Requests steered to each server.
        self.decisions: List[int] = [0] * self.n_servers
        #: Liveness/degradation view; the fault injector swaps in a live
        #: HealthView when a plan is attached.  ALL_HEALTHY's class-level
        #: ``impaired = False`` keeps the healthy path allocation-free.
        self.health = ALL_HEALTHY

    def pick_server(self, request: Request) -> int:
        """Choose the destination server for ``request``."""
        server = self._pick(request)
        self.decisions[server] += 1
        return server

    @abc.abstractmethod
    def _pick(self, request: Request) -> int:
        """Policy-specific choice (template method)."""

    def start(self) -> None:
        """Begin any periodic machinery (load sampling timers)."""

    def shutdown(self) -> None:
        """Cancel any periodic machinery."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} servers={self.n_servers}>"


class ConnectionHashSteering(SteeringPolicy):
    """Hash the flow id to a server, the rack-level RSS/ECMP analogue.

    The same Fibonacci multiplicative hash the NIC-level
    :meth:`~repro.workload.connections.ConnectionPool.hash_to_queue`
    uses: stable per flow, pseudo-random across flows -- and therefore
    exactly as vulnerable to hot flows as real RSS."""

    name = "hash"

    def _pick(self, request: Request) -> int:
        return (request.connection * 2654435761) % (2**32) % self.n_servers


class StickyJobSteering(SteeringPolicy):
    """Hash the *job* id to a server: every sibling sub-request of a
    scatter-gather job lands on the same destination.

    The job-affinity end of the sibling-routing spectrum: one queue
    absorbs the whole scatter, so a k-wide job behaves like a k-request
    burst on one server -- cache/state locality at the cost of the
    self-inflicted incast the spread policy avoids.  Flat requests
    (``job_id is None``) degrade to connection hashing, making this a
    strict generalization of :class:`ConnectionHashSteering`.
    """

    name = "sticky"

    def _pick(self, request: Request) -> int:
        key = request.job_id if request.job_id is not None else request.connection
        return (key * 2654435761) % (2**32) % self.n_servers


class SpreadJobSteering(SteeringPolicy):
    """Stride a job's siblings across distinct servers.

    The anti-affinity end of the spectrum: sibling ``i`` goes to
    ``(job_hash + i) mod n``, so a k <= n scatter touches k distinct
    servers and no single queue absorbs the burst -- the static
    mitigation of the hash blow-up that load-aware policies achieve
    dynamically.  Flat requests degrade to connection hashing.
    """

    name = "spread"

    def _pick(self, request: Request) -> int:
        if request.job_id is None:
            return (request.connection * 2654435761) % (2**32) % self.n_servers
        base = (request.job_id * 2654435761) % (2**32)
        return (base + request.sibling_index) % self.n_servers


class RoundRobinSteering(SteeringPolicy):
    """Strict rotation across servers (load-oblivious but count-balanced)."""

    name = "round_robin"

    def __init__(self, n_servers: int) -> None:
        super().__init__(n_servers)
        self._next = 0

    def _pick(self, request: Request) -> int:
        server = self._next
        self._next = (server + 1) % self.n_servers
        health = self.health
        if health.impaired and not health.usable(server):
            # Skip downed servers, keeping the rotation anchored at the
            # natural slot so recovery resumes the original cadence.
            for offset in range(1, self.n_servers):
                candidate = (server + offset) % self.n_servers
                if health.usable(candidate):
                    return candidate
        return server


class PowerOfDSteering(SteeringPolicy):
    """JSQ over ``d`` sampled servers with configurably-stale estimates.

    With ``staleness_ns == 0`` every decision reads the sampled servers'
    true outstanding load (ideal power-of-d).  With a positive
    staleness, a server's estimate is only re-probed once it is older
    than ``staleness_ns``; in between, the policy adds its own sends to
    the cached value -- the optimistic request-counter tracking that
    keeps stale-sample herding (every decision dog-piling the server
    that *was* shortest) from re-creating the imbalance the policy is
    meant to fix.
    """

    name = "power_of_d"

    def __init__(
        self,
        n_servers: int,
        probe: ProbeFn,
        rng: ExactDraws,
        sim: Simulator,
        d: int = DEFAULT_D,
        staleness_ns: float = 0.0,
    ) -> None:
        super().__init__(n_servers)
        if not 1 <= d:
            raise ValueError(f"d must be >= 1, got {d}")
        if staleness_ns < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness_ns}")
        self.probe = probe
        self.rng = rng
        self.sim = sim
        self.d = min(int(d), self.n_servers)
        self.staleness_ns = float(staleness_ns)
        self._estimates: List[float] = [0.0] * self.n_servers
        self._sampled_at: List[float] = [float("-inf")] * self.n_servers
        #: Fresh probes issued (the telemetry cost a real fabric pays).
        self.refreshes: int = 0

    # -- runtime-mutable knobs (control-plane actuation) ----------------
    def set_staleness(self, staleness_ns: float) -> None:
        """Retune estimate staleness mid-run.

        Takes effect on the next estimate read: tightening the knob
        makes cached estimates older than the new bound re-probe
        immediately; loosening extends the life of whatever is cached.
        """
        if staleness_ns < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness_ns}")
        self.staleness_ns = float(staleness_ns)

    def set_d(self, d: int) -> None:
        """Retune the per-decision sample width mid-run (clamped to the
        server count, like the constructor)."""
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = min(int(d), self.n_servers)

    def _candidates(self) -> List[int]:
        if self.d >= self.n_servers:
            return list(range(self.n_servers))
        return self.rng.choice(self.n_servers, self.d, replace=False)

    def _estimate(self, server: int) -> float:
        now = self.sim.now
        if now - self._sampled_at[server] >= self.staleness_ns:
            self._estimates[server] = self.probe(server)
            self._sampled_at[server] = now
            self.refreshes += 1
        return self._estimates[server]

    def _usable_candidates(self, health) -> List[int]:
        """Sample ``d`` servers from the usable subset (fault mode)."""
        usable = health.usable_servers()
        if not usable:
            # Whole rack down: sample as usual and let admission
            # blackhole the request (the client timeout observes it).
            return self._candidates()
        if self.d >= len(usable):
            return usable
        return [
            usable[i] for i in self.rng.choice(len(usable), self.d, replace=False)
        ]

    def _pick(self, request: Request) -> int:
        health = self.health
        impaired = health.impaired
        candidates = (
            self._usable_candidates(health) if impaired else self._candidates()
        )
        best = -1
        best_load = float("inf")
        for server in candidates:
            load = self._estimate(server)
            if impaired:
                load += health.penalty(server)
            if load < best_load:
                best = server
                best_load = load
        # Track our own send so consecutive decisions inside one
        # staleness window don't all see the same short queue.
        self._estimates[best] += 1.0
        return best


class ShortestExpectedWaitSteering(SteeringPolicy):
    """RackSched-style steering from periodic full load samples.

    A timer samples every server's outstanding work each
    ``sample_period_ns``; decisions steer to the minimum *expected wait*
    -- (sampled outstanding + requests we sent since the sample),
    normalized by the server's core count, so a half-size server with
    the same queue correctly looks twice as slow.  Ties rotate, keeping
    an idle rack from hammering server 0.
    """

    name = "shortest_wait"

    def __init__(
        self,
        n_servers: int,
        probe: ProbeFn,
        sim: Simulator,
        cores_per_server: int,
        sample_period_ns: float = DEFAULT_SAMPLE_PERIOD_NS,
    ) -> None:
        super().__init__(n_servers)
        if sample_period_ns <= 0:
            raise ValueError(
                f"sample period must be positive, got {sample_period_ns}"
            )
        if cores_per_server <= 0:
            raise ValueError(
                f"cores per server must be positive, got {cores_per_server}"
            )
        self.probe = probe
        self.sim = sim
        self.cores_per_server = int(cores_per_server)
        self.sample_period_ns = float(sample_period_ns)
        self._samples: List[float] = [0.0] * self.n_servers
        self._sent_since_sample: List[int] = [0] * self.n_servers
        self._tie_start = 0
        self._timer: Optional[Event] = None
        self.samples_taken: int = 0

    # -- runtime-mutable knobs (control-plane actuation) ----------------
    def set_sample_period(self, sample_period_ns: float) -> None:
        """Retune the sampling cadence mid-run.

        The sampling timer re-arms itself with the live period after
        each firing, so the new cadence takes effect at the next sample
        without cancelling or reordering the pending timer event.
        """
        if sample_period_ns <= 0:
            raise ValueError(
                f"sample period must be positive, got {sample_period_ns}"
            )
        self.sample_period_ns = float(sample_period_ns)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._sample()

    def shutdown(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    def _sample(self) -> None:
        for server in range(self.n_servers):
            self._samples[server] = self.probe(server)
            self._sent_since_sample[server] = 0
        self.samples_taken += 1
        self._timer = self.sim.schedule_timer(
            self.sample_period_ns, self._sample, event=self._timer
        )

    # ------------------------------------------------------------------
    def expected_wait(self, server: int) -> float:
        """Outstanding work per core at ``server``, per the last sample
        plus our own sends since (in requests-per-core units)."""
        outstanding = self._samples[server] + self._sent_since_sample[server]
        return outstanding / self.cores_per_server

    def _pick(self, request: Request) -> int:
        start = self._tie_start
        n = self.n_servers
        health = self.health
        if health.impaired:
            best = -1
            best_wait = float("inf")
            for offset in range(n):
                server = (start + offset) % n
                if not health.usable(server):
                    continue
                wait = self.expected_wait(server) + health.penalty(server)
                if wait < best_wait:
                    best = server
                    best_wait = wait
            if best < 0:
                # Whole rack down: fall back to the rotation slot and let
                # admission blackhole (observable only via client timeout).
                best = start
            self._tie_start = (start + 1) % n
            self._sent_since_sample[best] += 1
            return best
        best = start
        best_wait = self.expected_wait(start)
        for offset in range(1, n):
            server = (start + offset) % n
            wait = self.expected_wait(server)
            if wait < best_wait:
                best = server
                best_wait = wait
        self._tie_start = (start + 1) % n
        self._sent_since_sample[best] += 1
        return best


def make_policy(
    name: str,
    n_servers: int,
    probe: ProbeFn,
    sim: Simulator,
    rng: ExactDraws,
    cores_per_server: int,
    d: int = DEFAULT_D,
    staleness_ns: float = 0.0,
    sample_period_ns: float = DEFAULT_SAMPLE_PERIOD_NS,
) -> SteeringPolicy:
    """Construct a steering policy by registry name."""
    if name == "hash":
        return ConnectionHashSteering(n_servers)
    if name == "sticky":
        return StickyJobSteering(n_servers)
    if name == "spread":
        return SpreadJobSteering(n_servers)
    if name == "round_robin":
        return RoundRobinSteering(n_servers)
    if name == "power_of_d":
        return PowerOfDSteering(
            n_servers, probe, rng, sim, d=d, staleness_ns=staleness_ns
        )
    if name == "shortest_wait":
        return ShortestExpectedWaitSteering(
            n_servers, probe, sim, cores_per_server,
            sample_period_ns=sample_period_ns,
        )
    raise ValueError(
        f"unknown steering policy {name!r}; pick from {POLICY_NAMES}"
    )
