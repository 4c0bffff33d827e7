"""Unit tests for the ZygOS work-stealing system."""

import pytest

from repro.api import run_workload
from repro.hw.nic import PcieDelivery
from repro.schedulers.work_stealing import ZygosSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workload.service import Bimodal, Exponential, Fixed
from tests.conftest import make_request


class TestStealing:
    def test_idle_cores_steal_backlog(self, sim, streams):
        """With skewed steering, stealing moves work to idle cores."""
        system = ZygosSystem(sim, streams, 4, steering_policy="connection")
        result = run_workload(
            system, sim, streams,
            DeterministicArrivals(5e6), Fixed(1_000.0),
            n_requests=500, warmup_fraction=0.0,
        )
        stolen = sum(1 for r in result.requests if r.steals > 0)
        assert stolen > 0
        cores_used = {r.core_id for r in result.requests}
        assert len(cores_used) > 1  # work spread beyond the hashed queues

    def test_steal_cost_charged(self, sim, streams):
        system = ZygosSystem(sim, streams, 4)
        run_workload(
            system, sim, streams,
            DeterministicArrivals(5e6), Fixed(1_000.0),
            n_requests=300, warmup_fraction=0.0,
        )
        if system.steal_hits:
            assert system.stats.scheduling_ns >= system.steal_hits * 200.0

    def test_stolen_request_completes_exactly_once(self, sim, streams):
        system = ZygosSystem(sim, streams, 4)
        result = run_workload(
            system, sim, streams,
            PoissonArrivals(3e6), Bimodal(500.0, 50_000.0, 0.05),
            n_requests=400, warmup_fraction=0.0,
        )
        ids = [r.req_id for r in result.requests]
        assert len(ids) == len(set(ids)) == 400

    def test_rescues_shorts_behind_long(self, sim, streams):
        """A short stuck behind a long request gets stolen by an idle
        core instead of waiting the full long service time."""
        system = ZygosSystem(sim, streams, 4, steering_policy="round_robin")
        reqs = [
            make_request(req_id=0, service_time=1_000_000.0),
            make_request(req_id=1, service_time=100.0),
            make_request(req_id=2, service_time=100.0),
            make_request(req_id=3, service_time=100.0),
            # This one hashes to core 0's queue, behind the long request.
            make_request(req_id=4, service_time=100.0),
        ]
        for r in reqs:
            system.offer(r)
        system.expect(5)
        sim.run(until=10**12)
        assert reqs[4].latency < 1_000_000.0  # rescued, not blocked

    def test_no_stealing_when_single_core(self, sim, streams):
        system = ZygosSystem(sim, streams, 1)
        result = run_workload(
            system, sim, streams,
            DeterministicArrivals(1e5), Fixed(1_000.0),
            n_requests=50, warmup_fraction=0.0,
        )
        assert system.steal_hits == 0
        assert len(result.requests) == 50

    def test_hit_rate_bounded(self, sim, streams):
        system = ZygosSystem(sim, streams, 4)
        run_workload(
            system, sim, streams,
            PoissonArrivals(3e6), Fixed(1_000.0),
            n_requests=300, warmup_fraction=0.0,
        )
        assert 0.0 <= system.steal_hit_rate <= 1.0


# ----------------------------------------------------------------------
# Oracle: the scan-based ZygOS the idle mask replaced
# ----------------------------------------------------------------------


class _ScanZygos(ZygosSystem):
    """ZygOS as it was before the incremental idle mask: a set of
    probing cores, a scan over every core for the thief, an ``any()``
    over every other queue for backlog, and numpy ``Generator`` draws on
    independent copies of the ``"steal"`` and ``"rss"`` streams."""

    def __init__(self, sim, streams, n_cores, **kwargs):
        super().__init__(sim, streams, n_cores, **kwargs)
        twin = RandomStreams(streams.master_seed)
        self._steal_rng = twin.get("steal")
        if self.steering.rng is not None:
            self.steering.rng = twin.get("rss")
        self._probing = set()

    def _deliver(self, request):
        idx = self.steering.pick_queue(request)
        queue = self.queues[idx]
        request.enqueued = self.sim.now
        request.queue_len_at_arrival = len(queue) + (1 if self.cores[idx].busy else 0)
        core = self.cores[idx]
        if not core.busy and core.core_id not in self._probing and not queue:
            self._start(core, request)
            return
        queue.append(request)
        thief = self._find_idle_thief()
        if thief is not None:
            self._begin_probe(thief, probes_left=self.max_probes)

    def _after_complete(self, core, request):
        queue = self.queues[core.core_id]
        if queue:
            self._start(core, queue.popleft())
        else:
            self._begin_probe(core, probes_left=self.max_probes)

    def _find_idle_thief(self):
        for core in self.cores:
            if not core.busy and core.core_id not in self._probing:
                if not self.queues[core.core_id]:
                    return core
        return None

    def _begin_probe(self, thief, probes_left):
        if thief.busy or thief.core_id in self._probing:
            return
        if not any(self.queues[i] for i in range(len(self.cores)) if i != thief.core_id):
            return
        self._probing.add(thief.core_id)
        self.steal_attempts += 1
        victim = int(self._steal_rng.integers(0, len(self.cores)))
        if victim == thief.core_id:
            victim = (victim + 1) % len(self.cores)
        self.sim.schedule(self.probe_ns, self._finish_probe, thief, victim, probes_left)

    def _finish_probe(self, thief, victim, probes_left):
        self._probing.discard(thief.core_id)
        own = self.queues[thief.core_id]
        if thief.busy:
            return
        if own:
            self._start(thief, own.popleft())
            return
        vqueue = self.queues[victim]
        if vqueue:
            request = vqueue.popleft()
            request.steals += 1
            self.steal_hits += 1
            cost = self.coherence.steal_ns(self._steal_rng)
            self._charge_scheduling(cost)
            thief.assign(
                request,
                startup_ns=cost + self.per_request_overhead_ns
                + self._execute_ns(request),
            )
            return
        if probes_left > 1:
            self._begin_probe(thief, probes_left - 1)


def _fingerprint(requests):
    return [
        (r.req_id, r.arrival, r.enqueued, r.started, r.finished, r.core_id,
         r.steals, r.queue_len_at_arrival, r.extra_latency)
        for r in requests
    ]


def _probing_cores(sim, system):
    """Cores with a pending probe, read off the event heap: a probe is
    a posted entry (``args`` not None) that calls ``_finish_probe`` with
    the thief as its first argument."""
    return {
        args[0].core_id
        for _, _, fn, args in sim._heap
        if args is not None and fn == system._finish_probe
    }


def _assert_mask_consistent(sim, system):
    probing = _probing_cores(sim, system)
    expected = 0
    for core in system.cores:
        if not core.busy and core.core_id not in probing:
            expected |= 1 << core.core_id
    assert system._idle == expected
    assert system._backlog == sum(1 for q in system.queues if q)


def _zygos_run(cls, seed, n_cores, max_probes, steering, load, service,
               n_requests=500):
    sim = Simulator()
    streams = RandomStreams(seed)
    system = cls(sim, streams, n_cores, steering_policy=steering,
                 max_probes=max_probes, delivery=PcieDelivery())
    rate = load * n_cores / service.mean * 1e9
    result = run_workload(
        system, sim, streams, PoissonArrivals(rate), service,
        n_requests=n_requests, warmup_fraction=0.0,
    )
    return sim, system, result


_SERVICES = {
    "exp": Exponential(1000.0),
    "bimodal": Bimodal(500.0, 20_000.0, 0.05),
}


class TestIdleMaskOracle:
    """The bitmask ZygOS makes the same decisions as the scan-based one,
    and its incremental state always equals a recomputation."""

    @pytest.mark.parametrize("service", sorted(_SERVICES))
    @pytest.mark.parametrize("load", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("steering", ["connection", "round_robin", "random"])
    @pytest.mark.parametrize("max_probes", [1, 3])
    @pytest.mark.parametrize("n_cores", [1, 2, 4, 16, 64])
    def test_matches_scan_oracle(self, n_cores, max_probes, steering, load, service):
        args = (11, n_cores, max_probes, steering, load, _SERVICES[service])
        sim, system, result = _zygos_run(ZygosSystem, *args)
        _, oracle, expected = _zygos_run(_ScanZygos, *args)
        assert _fingerprint(result.requests) == _fingerprint(expected.requests)
        assert system.steal_attempts == oracle.steal_attempts
        assert system.steal_hits == oracle.steal_hits
        _assert_mask_consistent(sim, system)

    def test_mask_consistent_after_every_delivery(self):
        """Check the incremental state mid-run, not just at the end."""
        sim = Simulator()
        streams = RandomStreams(5)
        system = ZygosSystem(sim, streams, 16, steering_policy="connection",
                             delivery=PcieDelivery())
        deliver = system._deliver
        checks = []

        def checked(request):
            deliver(request)
            _assert_mask_consistent(sim, system)
            checks.append(request.req_id)

        system._deliver = checked
        run_workload(
            system, sim, streams, PoissonArrivals(10e6), Exponential(1000.0),
            n_requests=400, warmup_fraction=0.0,
        )
        assert len(checks) == 400
        assert system.steal_hits > 0
