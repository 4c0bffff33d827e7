"""The manager tick loop's parked path changes no observable output.

A parked tick (empty MR queue) skips Algorithm 1: it counts itself,
charges the manager core under software dispatch and logs its key; its
UPDATEs are filled in later in key order, and its register read waits
for the next full tick.  These tests pin it against runs captured from
tick loops that did all of that at each tick, and check the rules that
make deferring exact.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.config import AltocumulusConfig
from repro.core.scheduler import PARK_LOG_LIMIT, AltocumulusSystem
from repro.hw.constants import DEFAULT_CONSTANTS
from repro.hw.messaging import UPDATE_BYTES
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import TraceSink, capture
from tests.conftest import make_request
from tests.idle_tick_util import IDLE_TICK_CASES, idle_tick_snapshot

GOLDEN_PATH = Path(__file__).parent / "data" / "idle_tick_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(IDLE_TICK_CASES))
def test_run_matches_the_full_tick_loop(case, golden):
    """Request timeline, every registry instrument, per-runtime tick
    counts (and the trace, when on) equal the capture from a tick loop
    that did each tick's work when it ran."""
    snapshot = json.loads(json.dumps(idle_tick_snapshot(case)))
    assert snapshot == golden[case]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(IDLE_TICK_CASES)


PERIOD = 200.0


def _counter(system, group, name):
    """Group ``group``'s ``messaging.m<group>.<name>`` counter, as a
    registry snapshot (which fills the parked ticks in) reads it."""
    return system.metrics.snapshot("messaging")[f"messaging.m{group}.{name}"]


def _parked(system, group):
    """Whether ``group``'s tick is parked off the event heap."""
    return any(key[2] == group for key in system._parked._keys)


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
            mrs.enqueue(make_request(req_id, arrival=sim.now))
        view = system.runtimes[sender].q_view
        sim.run(until=10 * PERIOD)
        assert _counter(system, sender, "migrates_sent") == 1
        assert view[target] == 2  # the optimistic bump
        # The target drains the batch into its worker within the period.
        sim.run(until=11 * PERIOD - 1.0)
        assert _counter(system, target, "descriptors_accepted") == 2
        assert len(system.managers[target].mrs) == 0
        sim.run(until=11 * PERIOD)
        assert _counter(system, sender, "migrates_sent") == 1
        assert view[target] == 0

    def test_idle_groups_read_every_update(self):
        """With no traffic every tick parks; their UPDATEs are still
        written and read, so no register inbox grows."""
        sim, system = _two_groups()
        sim.run(until=10 * PERIOD)
        # Fill the parked ticks in, as any read of the counters does.
        system.fill_in_parked()
        for group, hw in enumerate(system.managers):
            # Only the copy still in flight is unread.
            assert [len(inbox) for inbox in hw._inboxes.values()] == [1]
            assert _counter(system, group, "updates_sent") == 10
            assert _counter(system, group, "updates_received") == 9
        assert [rt.ticks for rt in system.runtimes] == [10, 10]


    def test_migrate_into_parked_group_with_zero_update_in_flight(self):
        """Group 0 parks, then group 1 MIGRATEs into it at the same
        grid time, while group 0's zero UPDATE of that tick is still in
        flight toward it.  That copy must land in group 1's registers
        and zero its optimistic bump at its next read."""
        sim, system = _two_groups()
        sim.run(until=10 * PERIOD - 1.0)
        mrs = system.managers[1].mrs
        for req_id in range(4):
            mrs.enqueue(make_request(req_id, arrival=sim.now))
        sim.run(until=10 * PERIOD)
        # Group 0's tick at 10 * PERIOD parked before group 1's ran.
        assert _parked(system, 0)
        assert _counter(system, 1, "migrates_sent") == 1
        view = system.runtimes[1].q_view
        assert view[0] == 2
        inbox = system.managers[1]._inboxes[0]
        assert [(arrival > sim.now, qlen) for arrival, _, qlen in inbox] == [
            (True, 0)
        ]
        sim.run(until=11 * PERIOD)
        assert view[0] == 0


def test_live_message_inside_a_parked_ejection_window():
    """A live message whose arrival falls inside the ejection-port
    window of a parked zero UPDATE waits behind it, as it would behind
    the UPDATE written at its tick."""
    sim, system = _two_groups()
    noc = system.noc
    src, dst = (hw.tile_id for hw in system.managers)
    hop_ns, flit_time = noc.wire_times(src, dst, UPDATE_BYTES)
    arrivals = []

    def send():
        arrivals.append(noc.transmit(src, dst, UPDATE_BYTES, 1, hop_ns,
                                     flit_time))

    # Scheduled after the ticks at 3 * PERIOD were re-armed, so it fires
    # after both parked there and follows group 0's copy into group 1's
    # ejection port.
    sim.schedule_at(3 * PERIOD - 1.0,
                    lambda: sim.schedule_at(3 * PERIOD, send))
    sim.run(until=3 * PERIOD)
    assert system.runtimes[0].ticks == 3
    update_arrival = 3 * PERIOD + hop_ns + flit_time
    assert arrivals == [update_arrival + flit_time]
    # Six parked UPDATEs (one flight each) and the delayed message.
    snap = system.metrics.snapshot("noc")
    assert snap["noc.messages"] == 7
    assert snap["noc.latency_ns_total"] == 6 * (hop_ns + flit_time) + (
        hop_ns + 2 * flit_time
    )


def test_software_dispatch_waits_for_parked_charges():
    """Under software dispatch each parked tick occupies the manager
    core for an idle tick's cost; a dispatch right after one waits for
    it, exactly as after a charge made at the tick."""
    sim = Simulator()
    system = AltocumulusSystem(sim, RandomStreams(1), AltocumulusConfig(
        n_groups=2, group_size=2, threshold_mode="fixed",
        fixed_threshold=1.0, variant="rss",
    ))
    cost = system.interface.tick_cost_ns(0, queue_reads=2)
    assert 1.0 < cost < PERIOD
    delays = []
    sim.schedule_at(5 * PERIOD + 1.0,
                    lambda: delays.append(system._dispatch_delay(0, 0)))
    sim.run(until=5 * PERIOD + 1.0)
    assert system.runtimes[0].ticks == 5
    coherence = system.constants.coherence_msg_ns
    assert delays == [(5 * PERIOD + cost + coherence) - (5 * PERIOD + 1.0)]


def test_full_tick_reads_parked_update_landing_at_its_time():
    """Group 0 broadcasts 3 and parks; its zero UPDATE lands exactly at
    group 1's next tick, ahead of it in key order (group 0 ticks first
    at each grid time).  That full tick must read the 0 to MIGRATE into
    group 0 (line 8: 4 - 0 >= 2 * 2), although no NoC traffic filled
    the parked tick in before it."""
    sim = Simulator()
    system = AltocumulusSystem(
        sim, RandomStreams(1),
        AltocumulusConfig(n_groups=2, group_size=2, threshold_mode="fixed",
                          fixed_threshold=1.0, bulk=2, concurrency=1,
                          period_ns=24.0),
        constants=dataclasses.replace(DEFAULT_CONSTANTS, noc_hop_ns=23.0),
    )
    cadence = system.config.period_ns
    assert system.interface.tick_cost_ns(0, queue_reads=2) <= cadence
    src, dst = (hw.tile_id for hw in system.managers)
    assert sum(system.noc.wire_times(src, dst, UPDATE_BYTES)) == cadence
    sim.run(until=3 * cadence - 1.0)
    busy = system.managers[0].mrs
    for req_id in range(3):
        busy.enqueue(make_request(req_id, arrival=sim.now))
    sim.run(until=3 * cadence)
    busy.entries.clear()  # group 0 parks from its next tick on
    sim.run(until=5 * cadence - 1.0)
    mrs = system.managers[1].mrs
    for req_id in range(3, 7):
        mrs.enqueue(make_request(req_id, arrival=sim.now))
    sim.run(until=5 * cadence)
    assert _counter(system, 1, "migrates_sent") == 1


@pytest.mark.parametrize("reader", ["noc", "tile"])
def test_counters_read_after_parked_ticks(reader):
    """The NoC's and each tile's counters include the parked ticks'
    UPDATEs when a snapshot reads only their namespace."""
    sim, system = _two_groups()
    sim.run(until=10 * PERIOD)
    if reader == "noc":
        assert system.metrics.snapshot("noc")["noc.messages"] == 20
    else:
        assert [_counter(system, group, "updates_sent")
                for group in range(2)] == [10, 10]


def test_traced_ticks_do_not_park():
    """A trace records events in the order they run: with tracing on,
    every tick's UPDATE span is in the ring as soon as the tick ran."""
    sink = TraceSink(capacity=1_000)
    with capture(trace=sink):
        sim, system = _two_groups()
    sim.run(until=10 * PERIOD)
    assert len(sink) == 20
    assert not system._park_log


def test_landed_zero_update_supersedes_an_older_unread_write():
    """Group 1 broadcasts 3 while group 0 is parked (so unread), then
    parks itself.  Once its zero UPDATE has landed, the fill-in leaves
    group 0 viewing 0, with the stale 3 gone from its registers."""
    sim, system = _two_groups()
    sim.run(until=3 * PERIOD - 1.0)
    busy = system.managers[1].mrs
    for req_id in range(3):
        busy.enqueue(make_request(req_id, arrival=sim.now))
    sim.run(until=3 * PERIOD)
    busy.entries.clear()  # group 1 parks from its next tick on
    sim.run(until=4 * PERIOD + PERIOD / 2)
    assert _parked(system, 0)
    system.fill_in_parked()
    assert system.runtimes[0].q_view[1] == 0
    assert not system.managers[0]._inboxes[1]


def test_parked_reader_registers_stay_shallow():
    """A group parked for a long run while its peer runs Algorithm 1
    every tick reads what has landed at each fill-in, so its register
    inbox for that peer never holds more than the copy in flight."""
    sim = Simulator()
    system = AltocumulusSystem(sim, RandomStreams(1), AltocumulusConfig(
        n_groups=2, group_size=2, threshold_mode="fixed",
        fixed_threshold=1000.0,
    ))
    busy = system.managers[1].mrs
    for req_id in range(8):
        busy.enqueue(make_request(req_id))
    deepest = []

    def watch():
        deepest.append(len(system.managers[0]._inboxes[1]))
        sim.schedule(PERIOD, watch)

    sim.schedule(PERIOD / 2, watch)
    sim.run(until=200 * PERIOD)
    assert _counter(system, 1, "migrates_sent") == 0
    assert system.runtimes[1].ticks == 200 and _parked(system, 0)
    assert max(deepest) <= 1


def test_registry_snapshot_fills_parked_ticks_in():
    """A snapshot taken mid-run, before any shutdown, reads the parked
    ticks' UPDATEs."""
    sim, system = _two_groups()
    sim.run(until=10 * PERIOD)
    snapshot = system.metrics.snapshot()
    assert snapshot["noc.messages"] == 20
    assert snapshot["messaging.m0.updates_sent"] == 10


def test_shutdown_fills_parked_ticks_in():
    """Shutting down leaves no parked tick unwritten (and no log)."""
    sim, system = _two_groups()
    sim.run(until=10 * PERIOD)
    system.shutdown()
    assert not system._park_log
    assert system.noc._m_messages.value == 20


def test_parked_log_stays_bounded():
    """A long idle run fills its parked ticks in every
    ``PARK_LOG_LIMIT`` ticks instead of logging them all."""
    sim = Simulator()
    system = AltocumulusSystem(sim, RandomStreams(1), AltocumulusConfig(
        n_groups=4, group_size=8, threshold_mode="fixed",
        fixed_threshold=2.0, variant="rss",
    ))
    longest = []

    def watch():
        # The log holds flat (time, seq, group) triples.
        longest.append(len(system._park_log) // 3)
        sim.schedule(PERIOD / 2, watch)

    sim.schedule(PERIOD / 2, watch)
    sim.run(until=PERIOD * PARK_LOG_LIMIT)
    assert sum(rt.ticks for rt in system.runtimes) > 2 * PARK_LOG_LIMIT
    assert 0 < max(longest) < PARK_LOG_LIMIT
