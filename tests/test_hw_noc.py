"""Unit tests for the NoC transport."""

import pytest

from repro.hw.noc import FLIT_BYTES, Noc, NocMessage
from repro.hw.topology import MeshTopology


def make_noc(sim, **kwargs):
    return Noc(sim, MeshTopology(16), per_hop_ns=3.0, **kwargs)


def counters(noc):
    """The NoC's ``noc.*`` instruments, as a registry snapshot reads them."""
    return noc.registry.snapshot("noc")


class TestLatency:
    def test_single_flit_latency(self, sim):
        noc = make_noc(sim)
        assert sum(noc.wire_times(0, 1, 8)) == 3.0 + 1.0  # 1 hop + 1 flit

    def test_multi_flit_serialization(self, sim):
        noc = make_noc(sim)
        assert sum(noc.wire_times(0, 15, 3 * FLIT_BYTES)) == 6 * 3.0 + 3 * 1.0

    def test_zero_byte_message_still_one_flit(self, sim):
        noc = make_noc(sim)
        assert noc.wire_times(0, 1, 0)[1] == 1.0

    def test_invalid_latency_rejected(self, sim):
        with pytest.raises(ValueError):
            Noc(sim, MeshTopology(4), per_hop_ns=-1.0)


class TestDelivery:
    def test_callback_fires_at_latency(self, sim):
        noc = make_noc(sim)
        arrived = []
        msg = NocMessage(src=0, dst=1, payload="hello")
        noc.send(msg, lambda m: arrived.append((sim.now, m.payload)))
        sim.run()
        assert arrived == [(4.0, "hello")]

    def test_ejection_port_delays_bursts(self, sim):
        noc = make_noc(sim)
        times = []
        for _ in range(3):
            noc.send(NocMessage(src=0, dst=1, payload=None),
                     lambda m: times.append(sim.now))
        sim.run()
        # Same wire latency, but the ejection port drains one flit at a
        # time, so deliveries are staggered.
        assert times[0] < times[1] < times[2]

    def test_stats_accumulate(self, sim):
        noc = make_noc(sim)
        noc.send(NocMessage(src=0, dst=1, payload=None, size_bytes=8, vnet=1),
                 lambda m: None)
        noc.send(NocMessage(src=0, dst=2, payload=None, size_bytes=8, vnet=1),
                 lambda m: None)
        sim.run()
        snap = counters(noc)
        assert snap["noc.messages"] == 2
        assert snap["noc.bytes"] == 16
        assert snap["noc.by_vnet"] == {"1": 2}
        assert snap["noc.latency_ns_total"] > 0


class TestTransmit:
    def test_wire_times_match_latency(self, sim):
        noc = make_noc(sim)
        hop_ns, flit_time = noc.wire_times(0, 15, 40)
        assert (hop_ns, flit_time) == (6 * 3.0, 3 * 1.0)
        arrived = []
        noc.send(NocMessage(src=0, dst=15, payload=None, size_bytes=40),
                 lambda m: arrived.append(sim.now))
        sim.run()
        assert arrived == [hop_ns + flit_time]

    def test_transmit_accounts_like_send(self, sim):
        """A delivery-less transmit holds the ejection port and bumps
        the counters exactly as a send does."""
        noc = make_noc(sim)
        first = noc.transmit(0, 1, 8, 1, *noc.wire_times(0, 1, 8))
        assert first == 4.0
        assert sim.pending == 0  # no delivery event
        arrived = []
        noc.send(NocMessage(src=0, dst=1, payload=None, size_bytes=8, vnet=1),
                 lambda m: arrived.append(sim.now))
        sim.run()
        assert arrived == [first + 1.0]  # queued behind the transmit
        snap = counters(noc)
        assert snap["noc.messages"] == 2
        assert snap["noc.bytes"] == 16
        assert snap["noc.by_vnet"] == {"1": 2}
        assert snap["noc.latency_ns_total"] == 4.0 + 5.0

    def test_transmit_under_link_contention(self, sim):
        noc = make_noc(sim, link_contention=True)
        hop_ns, flit_time = noc.wire_times(0, 3, 64)
        first = noc.transmit(0, 3, 64, 0, hop_ns, flit_time)
        second = noc.transmit(0, 3, 64, 0, hop_ns, flit_time)
        assert first == hop_ns + flit_time
        assert second == first + flit_time


    @pytest.mark.parametrize("link_contention", [False, True])
    def test_transmit_many_accounts_like_one_by_one(self, link_contention):
        """A batch equals the same messages transmitted one at a time,
        in order: arrivals, port occupancy and every counter, including
        the float latency total."""
        from repro.sim.engine import Simulator

        dsts = [1, 5, 1, 15, 5]
        results = []
        for batched in (False, True):
            sim = Simulator()
            noc = make_noc(sim, link_contention=link_contention)
            wires = [(d,) + noc.wire_times(0, d, 40) for d in dsts]
            if batched:
                arrivals = noc.transmit_many(0, wires, 40, 1)
            else:
                arrivals = [noc.transmit(0, d, 40, 1, hop_ns, flit_time)
                            for d, hop_ns, flit_time in wires]
            snap = counters(noc)
            results.append((arrivals, dict(noc._ejection_free),
                            dict(noc._link_free), snap["noc.messages"],
                            snap["noc.bytes"], snap["noc.latency_ns_total"],
                            snap["noc.by_vnet"]))
        assert results[0] == results[1]
        assert results[1][3:5] == (5, 200)

    def test_empty_batch_accounts_nothing(self, sim):
        noc = make_noc(sim)
        assert noc.transmit_many(0, [], 8, 1) == []
        snap = counters(noc)
        assert snap["noc.by_vnet"] == {}
        assert snap["noc.messages"] == 0


class TestLinkContention:
    def test_shared_link_serializes(self, sim):
        """Two messages crossing the same link arrive staggered when
        link contention is modelled."""
        noc = make_noc(sim, link_contention=True)
        times = []
        # 0 -> 2 and 0 -> 3 share the 0->1 and 1->2 links in a 4x4 mesh.
        noc.send(NocMessage(src=0, dst=3, payload="a", size_bytes=64),
                 lambda m: times.append(("a", sim.now)))
        noc.send(NocMessage(src=0, dst=3, payload="b", size_bytes=64),
                 lambda m: times.append(("b", sim.now)))
        sim.run()
        assert times[0][1] < times[1][1]

    def test_disjoint_routes_do_not_interfere(self, sim):
        noc = make_noc(sim, link_contention=True)
        times = {}
        noc.send(NocMessage(src=0, dst=1, payload=None),
                 lambda m: times.__setitem__("right", sim.now))
        noc.send(NocMessage(src=15, dst=14, payload=None),
                 lambda m: times.__setitem__("left", sim.now))
        sim.run()
        assert times["right"] == times["left"]

    def test_uncontended_matches_analytic_latency(self, sim):
        noc = make_noc(sim, link_contention=True)
        times = []
        msg = NocMessage(src=0, dst=2, payload=None, size_bytes=8)
        noc.send(msg, lambda m: times.append(sim.now))
        sim.run()
        assert times[0] == sum(noc.wire_times(0, 2, 8))

    def test_same_pair_fifo_order(self, sim):
        """Deterministic routing preserves per-pair ordering (Sec. V-B's
        message-ordering requirement)."""
        noc = make_noc(sim, link_contention=True)
        order = []
        for i in range(5):
            noc.send(NocMessage(src=0, dst=15, payload=i),
                     lambda m: order.append(m.payload))
        sim.run()
        assert order == [0, 1, 2, 3, 4]
