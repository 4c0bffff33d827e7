"""Unit tests for the RPC stack processing costs (Fig. 1's bars).

``data/stack_golden.json`` holds every stack's cost over a grid of
request x response sizes, captured from the earlier composable
transport/serializer/RPC-layer models (a checkout of commit 1180b90)
with::

    PYTHONPATH=src python -c "import json; from repro.stack import tcpip_stack, erpc_stack, nanorpc_stack; S=[0,1,8,63,64,100,300,1459,1460,1461,2920,2921,4096,65536]; print(json.dumps({'sizes': S, **{p.name: [[p.processing_ns(q, r) for r in S] for q in S] for p in (tcpip_stack(), erpc_stack(), nanorpc_stack())}}, indent=1))" > tests/data/stack_golden.json

The plain functions must reproduce it exactly (``==``), so fig01 and
everything downstream of it keep their values.
"""

import json
import os

import pytest

from repro.stack import STACKS, erpc_ns, nanorpc_ns, tcpip_ns

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "stack_golden.json")


@pytest.mark.parametrize("name", list(STACKS))
def test_matches_golden_exactly(name):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    sizes = golden["sizes"]
    stack_ns = STACKS[name]
    got = [[stack_ns(req, resp) for resp in sizes] for req in sizes]
    assert got == golden[name]


class TestTransports:
    def test_generation_ordering(self):
        """Each stack generation is at least 10x cheaper than the last."""
        assert tcpip_ns() > 10 * erpc_ns() > 100 * nanorpc_ns()

    def test_cost_monotone_in_size(self):
        sizes = [0, 64, 300, 1460, 4096, 64_000]
        for stack_ns in STACKS.values():
            costs = [stack_ns(s, 64) for s in sizes]
            assert costs == sorted(costs)

    def test_segmentation_kicks_in_past_mtu(self):
        """A 1461 B message needs a second 1460 B MTU packet: a step far
        larger than one byte's copy cost, on either direction."""
        for stack_ns in (tcpip_ns, erpc_ns):
            per_byte = stack_ns(1460, 64) - stack_ns(1459, 64)
            assert stack_ns(1461, 64) - stack_ns(1460, 64) > 100 * per_byte
            assert stack_ns(300, 1461) - stack_ns(300, 1460) > 100 * per_byte

    def test_hardware_transport_has_no_mtu_step(self):
        below = nanorpc_ns(1460, 64) - nanorpc_ns(1459, 64)
        across = nanorpc_ns(1461, 64) - nanorpc_ns(1460, 64)
        assert across == pytest.approx(below)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            tcpip_ns(-1)


class TestProfiles:
    def test_fig1_bands(self):
        """The three stacks land in Fig. 1's processing bands."""
        assert 10_000 <= tcpip_ns() <= 25_000
        assert 700 <= erpc_ns() <= 1_000
        assert 25 <= nanorpc_ns() <= 60

    def test_larger_messages_cost_more(self):
        assert erpc_ns(4_096, 64) > erpc_ns(64, 64)

    def test_size_validation(self):
        for stack_ns in STACKS.values():
            with pytest.raises(ValueError):
                stack_ns(-1, 64)
            with pytest.raises(ValueError):
                stack_ns(300, -1)
