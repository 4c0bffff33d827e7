"""Closed-loop load generation.

The paper's evaluation (and this repository's default) is *open-loop*:
arrivals never wait for the server, which is the right methodology for
tail-latency studies.  Real clients, however, are often closed-loop --
each holds a bounded number of outstanding requests and thinks between
them -- and closed-loop load is self-throttling: offered load collapses
exactly when the server slows down, hiding tail pathologies.

:class:`ClosedLoopGenerator` models ``n_clients`` independent clients,
each cycling request -> response -> think time -> next request.  It
exists so users can quantify how much an open-loop tail measurement
would be *underestimated* by a closed-loop harness (a classic
methodology trap this library makes easy to demonstrate).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.schedulers.base import RpcSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.request import Request, RequestKind
from repro.workload.service import ServiceDistribution


class ClosedLoopGenerator:
    """``n_clients`` clients, one outstanding request each.

    Attach to a system *before* starting: the generator registers a
    completion hook to learn when each of its requests finishes, then
    schedules the owning client's next request after its think time.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        system: RpcSystem,
        service: ServiceDistribution,
        n_clients: int,
        n_requests: int,
        think_ns: float = 0.0,
        size_bytes: int = 300,
        request_factory: Optional[Callable[[Request], None]] = None,
    ) -> None:
        if n_clients <= 0:
            raise ValueError(f"need at least one client, got {n_clients}")
        if n_requests < n_clients:
            raise ValueError(
                f"n_requests ({n_requests}) must cover one round of "
                f"{n_clients} clients"
            )
        if think_ns < 0:
            raise ValueError(f"think time must be >= 0, got {think_ns}")
        self.sim = sim
        self.system = system
        self.service = service
        self.n_clients = int(n_clients)
        self.n_requests = int(n_requests)
        self.think_ns = float(think_ns)
        self.size_bytes = int(size_bytes)
        self.request_factory = request_factory
        self._service_rng = streams.get("closed_loop_service")
        self._think_rng = streams.get("closed_loop_think")
        self._emitted = 0
        self.requests: List[Request] = []
        self._owner_of: dict = {}
        system.completion_hooks.append(self._on_complete)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Issue every client's first request (staggered by 1 ns so the
        initial burst is not one mega-batch)."""
        for client in range(self.n_clients):
            self.sim.post(float(client), self._issue, client)

    def _issue(self, client: int) -> None:
        if self._emitted >= self.n_requests:
            return
        request = Request(
            req_id=self._emitted,
            arrival=self.sim.now,
            service_time=self.service.sample(self._service_rng),
            size_bytes=self.size_bytes,
            connection=client,
            kind=RequestKind.GENERIC,
        )
        if self.request_factory is not None:
            self.request_factory(request)
        self._emitted += 1
        self.requests.append(request)
        self._owner_of[request.req_id] = client
        self.system.offer(request)

    def _on_complete(self, request: Request) -> None:
        client = self._owner_of.pop(request.req_id, None)
        if client is None:
            return  # not ours (another generator shares the system)
        if self._emitted >= self.n_requests:
            return
        if self.think_ns > 0:
            delay = float(self._think_rng.exponential(self.think_ns))
        else:
            delay = 0.0
        self.sim.post(delay, self._issue, client)

    # ------------------------------------------------------------------
    @property
    def emitted(self) -> int:
        return self._emitted

    def measured_requests(self) -> List[Request]:
        return [r for r in self.requests if r.completed and not r.dropped]

    def achieved_rate_rps(self) -> float:
        """Client-perceived throughput over the run."""
        done = self.measured_requests()
        if len(done) < 2:
            return 0.0
        span = max(r.finished for r in done) - min(r.arrival for r in done)
        if span <= 0:
            return 0.0
        return len(done) / span * 1e9
