"""The manager tick loop's idle path changes no observable output.

An idle tick (empty MR queue, exact threshold cache) skips Algorithm 1:
it reads and broadcasts its UPDATEs and charges its cost, and leaves
the threshold cache as the skipped threshold read would have.  These
tests pin it against runs captured before the idle path existed and
check the rules that make skipping exact.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import AltocumulusConfig
from repro.core.interface import HwInterface
from repro.core.runtime import ManagerRuntime, RuntimeHooks
from repro.core.scheduler import AltocumulusSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.conftest import make_request
from tests.idle_tick_util import IDLE_TICK_CASES, idle_tick_snapshot

GOLDEN_PATH = Path(__file__).parent / "data" / "idle_tick_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(IDLE_TICK_CASES))
def test_run_matches_the_full_tick_loop(case, golden):
    """Request timeline, every registry instrument, per-runtime tick
    counts (and the trace, when on) equal the pre-idle-path capture."""
    snapshot = json.loads(json.dumps(idle_tick_snapshot(case)))
    assert snapshot == golden[case]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(IDLE_TICK_CASES)


PERIOD = 200.0


def _two_groups():
    """Two 1-worker groups, hardware dispatch, MIGRATEs of 2 descriptors."""
    sim = Simulator()
    system = AltocumulusSystem(sim, RandomStreams(1), AltocumulusConfig(
        n_groups=2, group_size=2, threshold_mode="fixed",
        fixed_threshold=1.0, bulk=2, concurrency=1,
    ))
    return sim, system


class TestOptimisticBump:
    """A MIGRATE bumps the sender's view of its target by the batch;
    only the target's UPDATEs correct it (``runtime.py``).  The target
    stays otherwise idle -- it dispatches the batch at once -- so every
    tick of its takes the idle path; the view must still return to the
    target's real depth at the sender's next read."""

    @pytest.mark.parametrize(
        "sender,target", [(0, 1), (1, 0)], ids=["0->1", "1->0"]
    )
    def test_view_returns_to_target_depth_at_next_read(self, sender, target):
        sim, system = _two_groups()
        # Both groups idle for a while: every tick takes the idle path.
        sim.run(until=10 * PERIOD - 1.0)
        # Four descriptors wait at the sender (no pump: they stay
        # queued), enough for exactly one MIGRATE of two at the next tick
        # (line 8 rejects a second: 2 - 2 < 0 + 2).
        mrs = system.managers[sender].mrs
        for req_id in range(4):
            assert mrs.enqueue(make_request(req_id, arrival=sim.now))
        view = system.runtimes[sender].q_view
        sim.run(until=10 * PERIOD)
        assert system.managers[sender].stats.migrates_sent == 1
        assert view[target] == 2  # the optimistic bump
        # The target drains the batch into its worker within the period.
        sim.run(until=11 * PERIOD - 1.0)
        assert system.managers[target].stats.descriptors_accepted == 2
        assert len(system.managers[target].mrs) == 0
        sim.run(until=11 * PERIOD)
        assert system.managers[sender].stats.migrates_sent == 1
        assert view[target] == 0

    def test_idle_groups_read_every_update(self):
        """With no traffic every tick is idle; each still writes its
        UPDATEs and reads its peers', so no register inbox grows."""
        sim, system = _two_groups()
        sim.run(until=10 * PERIOD)
        for hw in system.managers:
            # Only the copy still in flight is unread.
            assert [len(inbox) for inbox in hw._inboxes.values()] == [1]
            stats = hw.stats
            assert stats.updates_sent == 10
            assert stats.updates_received == 9
        assert [rt.ticks for rt in system.runtimes] == [10, 10]


def _model_runtime(config):
    """Group 0's runtime with the hooks of an empty group: nothing
    queued, nothing to send."""
    hooks = RuntimeHooks(
        local_queue_len=lambda: 0,
        take_batch=lambda size: [],
        restore_batch=lambda batch: None,
        send_migrate=lambda dst, batch: False,
        broadcast_update=lambda qlen: None,
        charge=lambda ns: None,
        flag_predicted=lambda count: None,
    )
    return ManagerRuntime(
        group_index=0, n_groups=config.n_groups, config=config,
        hooks=hooks, interface=HwInterface.isa(),
    )


class TestThresholdCache:
    """``idle_tick`` leaves the threshold cache as the skipped threshold
    read would have, so a later nonzero epsilon reuses the same point."""

    @pytest.mark.parametrize("reassign", [False, True],
                             ids=["steady", "reassigned"])
    def test_relax_after_idle_ticks_matches_full_ticks(self, reassign):
        config = AltocumulusConfig(n_groups=2, group_size=16)
        full, idle = _model_runtime(config), _model_runtime(config)
        loads = []
        for step in range(40):
            if reassign and step == 20:
                # A worker moves away: the cache is flushed.
                full.set_workers(15)
                idle.set_workers(15)
            for runtime in (full, idle):
                # The load estimate drifts between ticks, as arrivals
                # and completions move it in an idle stretch.
                runtime.estimator.record_arrival(step * 100.0)
                runtime.estimator.record_completion(500.0 + 10 * step)
            loads.append(idle.estimator.load_erlangs())
            full.tick()
            idle.idle_tick()
        assert len(set(loads)) > 30
        assert full.ticks == idle.ticks == 40
        # Relax without flushing the cache (the actuator's relax step),
        # then read at a load within epsilon of the last tick's.
        config.threshold_epsilon = 0.5
        for runtime in (full, idle):
            runtime.estimator.record_completion(620.0)
        assert idle.current_threshold() == full.current_threshold()
        assert idle._cached_load == full._cached_load == loads[-1]

    def test_flush_drops_the_idle_load(self):
        config = AltocumulusConfig(n_groups=2, group_size=16)
        runtime = _model_runtime(config)
        runtime.estimator.record_arrival(0.0)
        runtime.estimator.record_arrival(100.0)
        runtime.estimator.record_completion(500.0)
        runtime.idle_tick()
        runtime.invalidate_threshold_cache()
        config.threshold_epsilon = 0.5
        # A load within epsilon of the idle tick's.
        runtime.estimator.record_completion(520.0)
        assert runtime._model_load() != runtime._idle_load
        runtime.current_threshold()
        # Recomputed at the read's load, not folded from the idle tick.
        assert runtime._cached_load == runtime._model_load()
