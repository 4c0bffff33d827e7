"""Unit tests for the manager runtime (Algorithm 1) against mock hooks."""

import pytest

from repro.core.config import AltocumulusConfig
from repro.core.interface import HwInterface
from repro.core.prediction import ThresholdModel
from repro.core.runtime import LoadEstimator, ManagerRuntime, RuntimeHooks
from tests.conftest import make_request


class MockSystem:
    """Scriptable hook implementation recording every runtime action."""

    def __init__(self, queue_len=0, batch_available=True, send_ok=True):
        self.queue_len = queue_len
        self.batch_available = batch_available
        self.send_ok = send_ok
        self.taken = []
        self.restored = []
        self.sent = []  # (dst, batch)
        self.updates = []
        self.charged = []
        self.flagged = []
        self._next_id = 0

    def hooks(self):
        return RuntimeHooks(
            local_queue_len=lambda: self.queue_len,
            take_batch=self._take,
            restore_batch=self.restored.append,
            send_migrate=self._send,
            broadcast_update=self.updates.append,
            charge=self.charged.append,
            flag_predicted=self.flagged.append,
        )

    def _take(self, size):
        if not self.batch_available:
            return []
        batch = [make_request(req_id=self._next_id + i) for i in range(size)]
        self._next_id += size
        self.taken.append(batch)
        return batch

    def _send(self, dst, batch):
        if self.send_ok:
            self.sent.append((dst, batch))
        return self.send_ok


def make_runtime(mock, n_groups=4, **config_kwargs):
    config = AltocumulusConfig(
        n_groups=n_groups, group_size=16,
        **{"period_ns": 200.0, "bulk": 16, "concurrency": 4, **config_kwargs},
    )
    return ManagerRuntime(
        group_index=0,
        n_groups=n_groups,
        config=config,
        hooks=mock.hooks(),
        interface=HwInterface.isa(),
    )


class TestLoadEstimator:
    def test_estimates_rate_and_service(self):
        est = LoadEstimator(alpha=0.5)
        for t in range(1, 101):
            est.record_arrival(t * 100.0)  # one arrival per 100 ns
            est.record_completion(50.0)
        # load = mean service / mean gap = 50/100 = 0.5 Erlangs
        assert est.load_erlangs() == pytest.approx(0.5, rel=0.05)

    def test_returns_none_before_warmup(self):
        est = LoadEstimator()
        assert est.load_erlangs() is None
        est.record_arrival(100.0)
        assert est.load_erlangs() is None

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            LoadEstimator(alpha=0.0)


class TestThresholdModes:
    def test_fixed_mode(self):
        mock = MockSystem()
        runtime = make_runtime(mock, threshold_mode="fixed",
                               fixed_threshold=42.0)
        assert runtime.current_threshold() == 42.0

    def test_upper_bound_mode(self):
        mock = MockSystem()
        runtime = make_runtime(mock, threshold_mode="upper_bound",
                               slo_multiplier=10.0)
        assert runtime.current_threshold() == 151.0  # 15 workers * 10 + 1

    def test_model_mode_with_known_load(self):
        mock = MockSystem()
        runtime = make_runtime(
            mock, threshold_mode="model", offered_load=0.9,
            threshold_model=ThresholdModel(),
        )
        t = runtime.current_threshold()
        assert 1.0 <= t <= 151.0

    def test_model_mode_unwarmed_estimator_is_conservative(self):
        mock = MockSystem()
        runtime = make_runtime(mock, threshold_mode="model")
        assert runtime.current_threshold() == 151.0  # falls back to upper

    def test_threshold_capped_at_upper_bound(self):
        mock = MockSystem()
        runtime = make_runtime(mock, threshold_mode="fixed",
                               fixed_threshold=1e9)
        assert runtime.current_threshold() == 151.0


class TestTick:
    def test_broadcasts_queue_length_every_tick(self):
        mock = MockSystem(queue_len=7)
        runtime = make_runtime(mock)
        runtime.tick()
        assert mock.updates == [7]
        assert runtime.q_view[0] == 7

    def test_hill_triggers_migrations(self):
        mock = MockSystem(queue_len=100)
        runtime = make_runtime(mock, threshold_mode="upper_bound")
        runtime.q_view = [100, 10, 10, 10]
        sent = runtime.tick()
        assert sent == 3
        assert {dst for dst, _ in mock.sent} == {1, 2, 3}
        # S = Bulk / Concurrency = 4 descriptors per message.
        assert all(len(batch) == 4 for _, batch in mock.sent)

    def test_line8_guard_blocks_pointless_moves(self):
        """Migration is forbidden when it would leave the migrated
        requests in an equally long (or longer) queue."""
        mock = MockSystem(queue_len=20)
        runtime = make_runtime(mock, threshold_mode="fixed",
                               fixed_threshold=5.0)
        runtime.q_view = [20, 19, 18, 17]  # everyone nearly equal
        sent = runtime.tick()
        assert sent == 0
        assert mock.sent == []

    def test_backpressure_restores_batch(self):
        mock = MockSystem(queue_len=100, send_ok=False)
        runtime = make_runtime(mock, threshold_mode="upper_bound")
        runtime.q_view = [100, 10, 10, 10]
        sent = runtime.tick()
        assert sent == 0
        assert len(mock.restored) == 1  # the taken batch went back

    def test_empty_queue_no_migration(self):
        mock = MockSystem(queue_len=0, batch_available=False)
        runtime = make_runtime(mock)
        runtime.q_view = [0, 0, 0, 0]
        assert runtime.tick() == 0

    def test_charge_called_every_tick(self):
        mock = MockSystem()
        runtime = make_runtime(mock)
        runtime.tick()
        runtime.tick()
        assert len(mock.charged) == 2
        assert all(c > 0 for c in mock.charged)

    def test_threshold_excess_flagged(self):
        mock = MockSystem(queue_len=60)
        runtime = make_runtime(mock, threshold_mode="fixed",
                               fixed_threshold=50.0)
        runtime.q_view = [60, 55, 58, 57]  # balanced-ish, all loaded
        runtime.tick()
        assert mock.flagged == [10]  # 60 - 50 beyond-threshold requests

    def test_bookkeeping_counters(self):
        mock = MockSystem(queue_len=100)
        runtime = make_runtime(mock, threshold_mode="upper_bound")
        runtime.q_view = [100, 0, 0, 0]
        runtime.tick()
        assert runtime.ticks == 1
        assert runtime.migrations_triggered == 1
        assert runtime.descriptors_migrated == 12  # 3 dests x S=4


class TestLoadEstimatorEdgeCases:
    def test_zero_interarrival_gap_yields_no_estimate(self):
        # Simultaneous arrivals (a batch landing in one tick) drive the
        # EWMA gap to zero; the load is then undefined, not infinite.
        est = LoadEstimator(alpha=1.0)
        est.record_arrival(100.0)
        est.record_arrival(100.0)
        est.record_completion(50.0)
        assert est.load_erlangs() is None

    def test_single_gap_single_service_estimates_exactly(self):
        est = LoadEstimator()
        est.record_arrival(0.0)
        est.record_arrival(200.0)  # first (and only) gap sample: 200 ns
        est.record_completion(100.0)
        assert est.load_erlangs() == pytest.approx(100.0 / 200.0)

    def test_none_before_any_completion(self):
        est = LoadEstimator()
        est.record_arrival(0.0)
        est.record_arrival(100.0)  # gap known, service unknown
        assert est.load_erlangs() is None

    def test_none_before_any_gap(self):
        est = LoadEstimator()
        est.record_completion(100.0)  # service known, gap unknown
        est.record_arrival(0.0)  # first arrival: still no gap
        assert est.load_erlangs() is None

    def test_sample_counters_track_all_events(self):
        est = LoadEstimator()
        est.record_arrival(100.0)
        est.record_arrival(100.0)
        est.record_completion(10.0)
        assert est.arrivals == 2
        assert est.completions == 1


def reference_destinations(q_view, domain, bulk, concurrency, threshold):
    """Where Algorithm 1 sends this period, planning unconditionally:
    ``predict()`` on the domain's vector, then the line-8 guard against
    live lengths, assuming every batch fills (group 0 is the source)."""
    from repro.core.patterns import migrate_size, migration_plan

    plan = migration_plan([q_view[g] for g in domain], domain.index(0),
                          bulk, concurrency, threshold)
    size = migrate_size(bulk, concurrency)
    q = list(q_view)
    sent = []
    for dst in (domain[d] for d in plan.destinations):
        if q[0] - size < q[dst] + size:
            continue
        sent.append(dst)
        q[0] -= size
        q[dst] += size
    return sent


class TestTickSkipsHopelessPlans:
    """The tick skips planning when the line-8 guard would reject every
    destination; what it sends must not change."""

    def test_matches_unconditional_planning(self, monkeypatch):
        import numpy as np

        import repro.core.runtime as runtime_mod

        planned = []
        real_plan = runtime_mod.migration_plan

        def counting_plan(*args):
            planned.append(args)
            return real_plan(*args)

        monkeypatch.setattr(runtime_mod, "migration_plan", counting_plan)
        rng = np.random.default_rng(11)
        skipped = 0
        for _ in range(400):
            n_groups = int(rng.integers(2, 9))
            bulk = int(rng.integers(1, 21))
            concurrency = int(rng.integers(1, 5))
            q = [int(v) for v in rng.integers(0, 80, size=n_groups)]
            domains = None
            if n_groups >= 4 and rng.random() < 0.3:
                domains = [list(range(n_groups // 2)),
                           list(range(n_groups // 2, n_groups))]
            threshold = float(rng.integers(1, 100))
            mock = MockSystem(queue_len=q[0])
            runtime = make_runtime(
                mock, n_groups=n_groups, bulk=bulk, concurrency=concurrency,
                threshold_mode="fixed", fixed_threshold=threshold,
                migration_domains=domains,
            )
            runtime.q_view = list(q)
            domain = sorted(runtime.domain)
            expected = reference_destinations(
                q, domain, bulk, concurrency, runtime.current_threshold())
            before = len(planned)
            runtime.tick()
            skipped += len(planned) == before
            assert [dst for dst, _ in mock.sent] == expected
        assert 0 < skipped < 400


class TestThresholdMemo:
    """The ``model`` threshold is memoized per load: every read must
    equal a fresh clamped Eq. 2 evaluation at the live estimator load
    and worker count."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_read_matches_fresh_evaluation(self, monkeypatch, seed):
        import numpy as np

        real_threshold = ThresholdModel.threshold
        evaluations = []

        def counting_threshold(self, k, load_erlangs):
            evaluations.append(k)
            return real_threshold(self, k, load_erlangs)

        monkeypatch.setattr(ThresholdModel, "threshold", counting_threshold)
        runtime = make_runtime(MockSystem(), threshold_mode="model")
        config, estimator = runtime.config, runtime.estimator

        def fresh():
            k = runtime.n_workers
            t_upper = k * config.slo_multiplier + 1
            load = estimator.load_erlangs()
            if load is None:
                return t_upper
            t_model = real_threshold(config.threshold_model, k,
                                     min(load, 0.995 * k))
            return min(max(t_model, 1.0), t_upper)

        rng = np.random.default_rng(seed)
        now = 0.0
        steps = 400
        for _ in range(steps):
            action = rng.random()
            if action < 0.3:
                now += float(rng.choice([100.0, 200.0, 400.0, 800.0]))
                estimator.record_arrival(now)
            elif action < 0.5:
                estimator.record_completion(
                    float(rng.choice([200.0, 400.0, 800.0])))
            elif action < 0.7:
                runtime.set_workers(int(rng.integers(1, 21)))
            # Otherwise read again at an unchanged load and worker count.
            assert runtime.current_threshold() == fresh()
        # The memo served some reads.
        assert 0 < len(evaluations) < steps
