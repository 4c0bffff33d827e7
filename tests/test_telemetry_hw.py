"""Hardware-layer telemetry accounting, hand-computed on a 2x2 mesh.

The NoC and messaging tiles account into registry-owned instruments;
the registry's snapshot must agree with the hand-computed ground truth.
"""

from repro.hw.constants import HwConstants
from repro.hw.messaging import ACK_BYTES, MIGRATE_HEADER_BYTES, ManagerTileHw
from repro.hw.noc import Noc, NocMessage
from repro.hw.topology import MeshTopology
from repro.telemetry import MetricRegistry
from tests.conftest import make_request


class TestNocAccounting:
    def test_hand_computed_hops_on_2x2_mesh(self, sim):
        mesh = MeshTopology(4)
        # XY routing on a 2x2 mesh: tile 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1)
        assert mesh.hops(0, 3) == 2
        assert mesh.hops(0, 1) == 1
        assert mesh.hops(1, 2) == 2
        assert mesh.hops(2, 2) == 0

        registry = MetricRegistry()
        noc = Noc(sim, mesh, per_hop_ns=3.0, registry=registry)
        done = []
        # 16 bytes = 1 flit, 2 hops: 2*3 + 1 = 7 ns.
        noc.send(NocMessage(src=0, dst=3, payload=None, size_bytes=16,
                            vnet=1), lambda m: done.append(sim.now))
        # 32 bytes = 2 flits, 1 hop: 1*3 + 2 = 5 ns (different dst, so
        # no ejection-port interaction with the first message).
        noc.send(NocMessage(src=0, dst=1, payload=None, size_bytes=32,
                            vnet=0), lambda m: done.append(sim.now))
        sim.run()

        assert sorted(done) == [5.0, 7.0]
        snap = registry.snapshot()
        assert snap["noc.messages"] == 2
        assert snap["noc.bytes"] == 48
        assert snap["noc.latency_ns_total"] == 12.0
        assert snap["noc.by_vnet"] == {"0": 1, "1": 1}

    def test_ejection_port_wait_charged_to_latency(self, sim):
        registry = MetricRegistry()
        noc = Noc(sim, MeshTopology(4), per_hop_ns=3.0, registry=registry)
        done = []
        for _ in range(2):  # same dst: second waits out the first's flit
            noc.send(NocMessage(src=0, dst=3, payload=None, size_bytes=16),
                     lambda m: done.append(sim.now))
        sim.run()
        assert done == [7.0, 8.0]
        assert registry.snapshot()["noc.latency_ns_total"] == 15.0


class TestMessagingAccounting:
    def test_migrate_roundtrip_counters_match_registry(self, sim):
        registry = MetricRegistry()
        mesh = MeshTopology(4)
        noc = Noc(sim, mesh, registry=registry)
        tiles = [
            ManagerTileHw(sim, noc, tile_id=t, manager_index=i,
                          registry=registry)
            for i, t in enumerate((0, 3))
        ]
        for tile in tiles:
            tile.connect(tiles)

        batch = [make_request(req_id=i) for i in range(3)]
        assert tiles[0].send_migrate(1, batch)
        sim.run()

        snap = registry.snapshot()
        # Sender: one MIGRATE of three descriptors, ACKed.
        assert snap["messaging.m0.migrates_sent"] == 1
        assert snap["messaging.m0.descriptors_sent"] == 3
        assert snap["messaging.m0.migrates_acked"] == 1
        assert snap["messaging.m0.migrates_nacked"] == 0
        # Receiver: accepted all three, sent nothing of its own.
        assert snap["messaging.m1.descriptors_accepted"] == 3
        assert snap["messaging.m1.migrates_sent"] == 0
        # NoC carried exactly MIGRATE + ACK.
        assert snap["noc.messages"] == 2
        expected_bytes = (
            MIGRATE_HEADER_BYTES
            + 3 * tiles[0].constants.mr_entry_bytes
            + ACK_BYTES
        )
        assert snap["noc.bytes"] == expected_bytes

    def test_nack_counted_on_sender(self, sim):
        registry = MetricRegistry()
        noc = Noc(sim, MeshTopology(4), registry=registry)
        tiles = [
            ManagerTileHw(sim, noc, tile_id=t, manager_index=i,
                          constants=HwConstants(recv_fifo_entries=1),
                          registry=registry)
            for i, t in enumerate((0, 3))
        ]
        for tile in tiles:
            tile.connect(tiles)
        batch = [make_request(req_id=i) for i in range(2)]
        assert tiles[0].send_migrate(1, batch)  # 2 > receiver FIFO's 1
        sim.run()
        snap = registry.snapshot()
        assert snap["messaging.m0.migrates_nacked"] == 1
        assert snap["messaging.m1.descriptors_accepted"] == 0
