"""Property test: ``min_transit_ns`` is a true fabric-latency floor.

The sharded parallel-in-time runtime's entire correctness argument
rests on one switch property: a request entering
:meth:`~repro.cluster.switch.SwitchCore.forward` at time ``t`` is never
delivered before ``t`` plus the switch's computed per-link minimum
delay.  This test drives randomized topologies (ports, bandwidth,
forwarding latency, queue depth, tier label) through
randomized traffic and fault schedules (port degrades in ``(0, 1]``,
partitions, heals) and checks the floor on **every** delivered message.

Floating-point note: the floor is asserted in the exact op order the
event loop uses -- ``(t + serialization_ns(size)) + forward_latency_ns``
-- which bounds every delivery *exactly* (float addition is monotone in
each argument, queueing only pushes the serializer start later, and a
degraded port only serializes slower).  ``min_transit_ns`` is that same
sum re-associated, equal in real arithmetic; asserting the re-associated
form directly would be wrong by an ulp at large clocks.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.switch import SwitchCore
from repro.sim.engine import Simulator
from repro.workload.request import Request

#: One randomized scheduled action: (time gap, kind, port selector,
#: payload).  Kinds: "send" (forward a request), "degrade" (bandwidth
#: factor), "heal" (restore factor 1.0), "partition", "unpartition".
_ACTIONS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False,
                  allow_infinity=False),
        st.sampled_from(["send", "send", "send", "degrade", "heal",
                         "partition", "unpartition"]),
        st.integers(min_value=0, max_value=10_000),  # port, mod n_ports
        st.integers(min_value=1, max_value=9_000),   # size_bytes
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


@st.composite
def _switches(draw):
    sim = Simulator()
    n_ports = draw(st.integers(min_value=1, max_value=6))
    bandwidth = draw(st.floats(min_value=0.5, max_value=3_200.0,
                               allow_nan=False, allow_infinity=False))
    latency = draw(st.floats(min_value=0.0, max_value=2_000.0,
                             allow_nan=False, allow_infinity=False))
    depth = draw(st.one_of(st.none(), st.integers(min_value=1,
                                                  max_value=4)))
    switch = SwitchCore(
        sim, n_ports, bandwidth_gbps=bandwidth,
        forward_latency_ns=latency, port_queue_depth=depth,
        track=draw(st.sampled_from(["switch", "tor", "spine"])),
    )
    return sim, switch


@settings(max_examples=200, deadline=None)
@given(_switches(), _ACTIONS, st.floats(min_value=0.0, max_value=1e9,
                                        allow_nan=False,
                                        allow_infinity=False))
def test_min_transit_is_a_delivery_floor(switch_case, actions, start_ns):
    sim, switch = switch_case
    sent = 0
    delivered = []

    def send(size: int, port: int) -> None:
        t_send = sim.now
        # The exact-arithmetic floor, evaluated in delivery op order
        # against the *healthy* serialization rate (degrades only slow
        # ports down; set_port_bandwidth_factor rejects factors > 1).
        floor = (t_send + switch.serialization_ns(size)) \
            + switch.forward_latency_ns
        request = Request(req_id=len(delivered) + sent, arrival=t_send,
                          service_time=100.0, size_bytes=size)

        def on_deliver(req: Request, _floor=floor, _t=t_send,
                       _size=size) -> None:
            assert sim.now >= _floor
            # And the claim as documented, up to final-rounding: the
            # re-associated min_transit_ns agrees with the op-order
            # floor in real arithmetic.
            assert sim.now >= _t + switch.min_transit_ns(_size) or \
                math.isclose(sim.now, _t + switch.min_transit_ns(_size),
                             rel_tol=1e-12)
            delivered.append(req.req_id)

        switch.forward(request, port, on_deliver)

    clock = start_ns
    for gap, kind, port_sel, size, factor in actions:
        clock += gap
        port = port_sel % switch.n_ports
        if kind == "send":
            sent += 1
            sim.schedule_at(clock, send, size, port)
        elif kind == "degrade":
            sim.schedule_at(clock, switch.set_port_bandwidth_factor,
                            port, factor)
        elif kind == "heal":
            sim.schedule_at(clock, switch.set_port_bandwidth_factor,
                            port, 1.0)
        elif kind == "partition":
            sim.schedule_at(clock, switch.set_port_partitioned, port, True)
        else:
            sim.schedule_at(clock, switch.set_port_partitioned, port, False)
    sim.run()
    # Every accepted request either delivered (with the floor asserted
    # in its callback) or was lost to a partition/tail-drop.
    assert len(delivered) == switch.forwarded
    assert (len(delivered) + switch.dropped + switch.partition_dropped
            == sent)


@given(st.integers(min_value=0, max_value=9_000),
       st.floats(min_value=0.5, max_value=800.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=2_000.0, allow_nan=False))
def test_min_transit_matches_its_definition(size, bandwidth, latency):
    switch = SwitchCore(Simulator(), 2, bandwidth_gbps=bandwidth,
                        forward_latency_ns=latency)
    assert switch.min_transit_ns(size) == \
        latency + switch.serialization_ns(size)
    # The sharded lookahead case: payload-independent floor.
    assert switch.min_transit_ns(0) == latency


@given(st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
       st.integers(min_value=1, max_value=9_000))
def test_degraded_port_never_beats_healthy_rate(factor, size):
    switch = SwitchCore(Simulator(), 2)
    switch.set_port_bandwidth_factor(0, factor)
    assert switch.serialization_ns(size, port=0) >= \
        switch.serialization_ns(size)
    assert switch.serialization_ns(size, port=1) == \
        switch.serialization_ns(size)
