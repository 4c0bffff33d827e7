"""Unit tests for the manager-tile messaging protocol (Table II)."""

import pytest

from repro.hw.constants import HwConstants
from repro.hw.messaging import UPDATE_BYTES, ManagerTileHw
from repro.hw.noc import Noc
from repro.hw.topology import MeshTopology
from repro.telemetry import MetricRegistry
from tests.conftest import make_request


def make_tiles(sim, n=3, constants=None, migrate_in=None):
    """Build ``n`` connected manager tiles on one NoC, sharing one
    metric registry.

    ``migrate_in`` applies to every tile and receives
    (tile_index, requests, src).
    """
    constants = constants or HwConstants()
    registry = MetricRegistry()
    noc = Noc(sim, MeshTopology(n * 16), registry=registry)
    tiles = []
    for i in range(n):
        def on_migrate_in(reqs, src, idx=i):
            if migrate_in is not None:
                migrate_in(idx, reqs, src)

        tiles.append(
            ManagerTileHw(
                sim, noc, tile_id=i * 16, manager_index=i,
                constants=constants, on_migrate_in=on_migrate_in,
                registry=registry,
            )
        )
    for t in tiles:
        t.connect(tiles)
    return tiles


def counter(tile, name):
    """Tile ``tile``'s ``messaging.m<i>.<name>`` counter, as a registry
    snapshot reads it."""
    prefix = f"messaging.m{tile.manager_index}"
    return tile.registry.snapshot(prefix)[f"{prefix}.{name}"]


def read_views_at(sim, tiles, time):
    """Schedule one register-reading event per tile at ``time``.

    Each event reads its tile's UPDATE registers at its own
    ``(time, seq)``, as a runtime tick does, into a fresh queue-length
    vector of ``None``s; returns the vectors (filled once the events run).
    """
    views = [[None] * len(tiles) for _ in tiles]

    def read(i):
        event = events[i]
        tiles[i].read_updates(views[i], event.time, event.seq)

    events = [sim.schedule_at(time, read, i) for i in range(len(tiles))]
    return views


def received(views):
    """The ``(receiver, src, queue_len)`` triples the reads saw."""
    return sorted(
        (i, src, q)
        for i, view in enumerate(views)
        for src, q in enumerate(view)
        if q is not None
    )


class TestMigrate:
    def test_descriptors_arrive_at_destination_tail(self, sim):
        received = []
        tiles = make_tiles(sim, migrate_in=lambda i, reqs, src: received.append(
            (i, [r.req_id for r in reqs], src)))
        batch = [make_request(req_id=i) for i in range(3)]
        assert tiles[0].send_migrate(1, batch)
        sim.run()
        assert received == [(1, [0, 1, 2], 0)]
        assert [r.req_id for r in tiles[1].mrs.entries] == [0, 1, 2]

    def test_migration_counter_incremented(self, sim):
        tiles = make_tiles(sim)
        batch = [make_request(req_id=0)]
        tiles[0].send_migrate(1, batch)
        sim.run()
        assert batch[0].migrations == 1

    def test_ack_clears_pending(self, sim):
        tiles = make_tiles(sim)
        tiles[0].send_migrate(1, [make_request()])
        assert tiles[0].in_flight_descriptors == 1
        sim.run()
        assert tiles[0].in_flight_descriptors == 0
        assert counter(tiles[0], "migrates_acked") == 1
        assert counter(tiles[0], "migrates_nacked") == 0

    def test_nack_when_destination_recv_fifo_full(self, sim):
        # A two-descriptor batch cannot fit a one-entry receive FIFO.
        tiles = make_tiles(sim, constants=HwConstants(recv_fifo_entries=1))
        tiles[0].mrs.enqueue(make_request(req_id=99))
        batch = [make_request(req_id=0), make_request(req_id=1)]
        tiles[0].send_migrate(1, batch)
        sim.run()
        assert counter(tiles[0], "migrates_nacked") == 1
        assert tiles[0].in_flight_descriptors == 0
        # Batch restored at the source's tail, nothing lost.
        assert [r.req_id for r in tiles[0].mrs.entries] == [99, 0, 1]
        assert len(tiles[1].mrs) == 0
        # The rejected requests were never migrated.
        assert all(r.migrations == 0 for r in batch)

    def test_send_backpressure_when_fifo_small(self, sim):
        constants = HwConstants(send_fifo_entries=2)
        tiles = make_tiles(sim, constants=constants)
        big_batch = [make_request(req_id=i) for i in range(3)]
        assert not tiles[0].send_migrate(1, big_batch)
        assert counter(tiles[0], "send_backpressure") == 1

    def test_migrate_to_self_rejected(self, sim):
        tiles = make_tiles(sim)
        with pytest.raises(ValueError):
            tiles[0].send_migrate(0, [make_request()])

    def test_empty_batch_is_noop(self, sim):
        tiles = make_tiles(sim)
        assert tiles[0].send_migrate(1, [])
        assert counter(tiles[0], "migrates_sent") == 0


class TestUpdate:
    def test_broadcast_reaches_all_other_managers(self, sim):
        tiles = make_tiles(sim, n=4)
        tiles[2].broadcast_update(17)
        views = read_views_at(sim, tiles, 1_000.0)
        sim.run()
        assert received(views) == [(0, 2, 17), (1, 2, 17), (3, 2, 17)]
        assert counter(tiles[2], "updates_sent") == 3
        for i in (0, 1, 3):
            assert counter(tiles[i], "updates_received") == 1
        assert counter(tiles[2], "updates_received") == 0

    def test_update_does_not_echo_to_sender(self, sim):
        tiles = make_tiles(sim)
        tiles[0].broadcast_update(5)
        views = read_views_at(sim, tiles, 1_000.0)
        sim.run()
        assert 0 not in [i for i, _, _ in received(views)]
        assert counter(tiles[0], "updates_received") == 0

    def test_update_crosses_the_noc_without_a_heap_event(self, sim):
        tiles = make_tiles(sim, n=4)
        tiles[1].broadcast_update(9)
        assert sim.pending == 0
        noc = tiles[1].registry.snapshot("noc")
        assert noc["noc.messages"] == 3
        assert noc["noc.by_vnet"] == {"1": 3}

    def test_latest_write_per_source_wins(self, sim):
        tiles = make_tiles(sim, n=2)
        tiles[0].broadcast_update(3)
        sim.schedule(50.0, tiles[0].broadcast_update, 4)
        views = read_views_at(sim, tiles, 1_000.0)
        sim.run()
        assert received(views) == [(1, 0, 4)]
        assert counter(tiles[1], "updates_received") == 2


def update_arrival(tiles, src, dst):
    """When an UPDATE sent now from ``src`` reaches ``dst`` (idle NoC)."""
    noc = tiles[src].noc
    hop_ns, flit_time = noc.wire_times(
        tiles[src].tile_id, tiles[dst].tile_id, UPDATE_BYTES)
    return noc.sim.now + hop_ns + flit_time


class TestUpdateTieBreak:
    """An UPDATE arriving exactly at a reader's event time is read iff it
    was sent before that event was scheduled -- the FIFO order its
    delivery event would have had."""

    def test_sent_before_the_reader_was_scheduled_is_read(self, sim):
        tiles = make_tiles(sim, n=2)
        arrival = update_arrival(tiles, 0, 1)
        tiles[0].broadcast_update(7)
        views = read_views_at(sim, tiles, arrival)
        sim.run()
        assert views[1] == [7, None]

    def test_sent_after_the_reader_was_scheduled_waits(self, sim):
        tiles = make_tiles(sim, n=2)
        arrival = update_arrival(tiles, 0, 1)
        views = read_views_at(sim, tiles, arrival)
        tiles[0].broadcast_update(7)
        later = read_views_at(sim, tiles, arrival + 1.0)
        sim.run()
        assert views[1] == [None, None]
        assert later[1] == [7, None]


class TestUpdatesReceivedAtRunEnd:
    """``updates_received`` counts what a delivery event would have
    reached by the end of the run, read or not."""

    def test_stop_at_arrival_counts_only_earlier_sends(self, sim):
        tiles = make_tiles(sim, n=2)
        arrival = update_arrival(tiles, 0, 1)
        sim.schedule_at(arrival, sim.stop)
        tiles[0].broadcast_update(7)
        sim.run()
        assert sim.now == arrival
        assert counter(tiles[1], "updates_received") == 0

    def test_stop_after_arrival_counts_the_send(self, sim):
        tiles = make_tiles(sim, n=2)
        arrival = update_arrival(tiles, 0, 1)
        tiles[0].broadcast_update(7)
        sim.schedule_at(arrival, sim.stop)
        sim.run()
        assert counter(tiles[1], "updates_received") == 1

    def test_until_clamp_is_inclusive(self, sim):
        tiles = make_tiles(sim, n=2)
        arrival = update_arrival(tiles, 0, 1)
        tiles[0].broadcast_update(7)
        sim.run(until=arrival - 0.5)
        assert sim.now == arrival - 0.5
        assert counter(tiles[1], "updates_received") == 0
        sim.run(until=arrival)
        assert counter(tiles[1], "updates_received") == 1

    def test_drained_run_counts_every_send_without_advancing_clock(
            self, sim):
        tiles = make_tiles(sim, n=3)
        tiles[0].broadcast_update(7)
        sim.run()
        assert sim.now == 0.0
        assert [counter(t, "updates_received") for t in tiles] == [0, 1, 1]

    def test_counter_survives_reads(self, sim):
        tiles = make_tiles(sim, n=2)
        tiles[0].broadcast_update(7)
        read_views_at(sim, tiles, 1_000.0)
        sim.run(until=2_000.0)
        tiles[0].broadcast_update(8)  # arrives after the run's end
        assert counter(tiles[1], "updates_received") == 1
        sim.run(until=3_000.0)
        assert counter(tiles[1], "updates_received") == 2


class TestConservation:
    def test_no_request_lost_in_crossfire(self, sim):
        """Concurrent migrations in both directions preserve every
        descriptor exactly once."""
        tiles = make_tiles(sim)
        batch_a = [make_request(req_id=i) for i in range(5)]
        batch_b = [make_request(req_id=100 + i) for i in range(5)]
        tiles[0].send_migrate(1, batch_a)
        tiles[1].send_migrate(0, batch_b)
        sim.run()
        ids_at_0 = {r.req_id for r in tiles[0].mrs.entries}
        ids_at_1 = {r.req_id for r in tiles[1].mrs.entries}
        assert ids_at_0 == {100, 101, 102, 103, 104}
        assert ids_at_1 == {0, 1, 2, 3, 4}


class TestProtocolProperties:
    def test_random_interleavings_conserve_descriptors(self, sim):
        """Property-flavoured stress: arbitrary interleavings of
        MIGRATE traffic between three tiles with two-entry receive
        FIFOs, which NACK some batches, never lose or duplicate a
        descriptor."""
        import numpy as np

        rng = np.random.default_rng(7)
        tiles = make_tiles(sim, n=3, constants=HwConstants(recv_fifo_entries=2))
        population = []
        for i in range(24):
            r = make_request(req_id=i)
            population.append(r)
            tiles[i % 3].mrs.enqueue(r)
        for step in range(60):
            src = int(rng.integers(0, 3))
            dst = int(rng.integers(0, 3))
            if src == dst:
                continue
            batch = tiles[src].mrs.dequeue_tail_where(
                int(rng.integers(1, 4)), lambda r: True
            )
            if not batch:
                continue
            if not tiles[src].send_migrate(dst, batch):
                for r in batch:
                    tiles[src].mrs.enqueue(r)
            if step % 7 == 0:
                sim.run(until=sim.now + 50.0)
        sim.run(until=sim.now + 10_000.0)
        everywhere = [r.req_id for t in tiles for r in t.mrs.entries]
        assert sorted(everywhere) == [r.req_id for r in population]
        for t in tiles:
            assert t.in_flight_descriptors == 0
        assert sum(counter(t, "migrates_nacked") for t in tiles) > 0
