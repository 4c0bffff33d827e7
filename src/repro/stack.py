"""RPC stack processing costs: the three stacks of Fig. 1.

The paper separates RPC *scheduling* (this repository's subject) from
RPC *stack processing*: transport protocol work, RPC header parsing,
function dispatch and payload (de)serialization (Sec. II-B).  Fig. 1
needs one number per stack generation -- the on-CPU nanoseconds one
served RPC costs -- and each function below computes it as

    transport (RX request + TX response)
    + RPC layer (header + dispatch + decode request,
                 half a header + encode response)

at the figure's 300 B request / 64 B response point by default:

* :func:`tcpip_ns`   -- kernel TCP/IP + protobuf-like coding: ~15 us
* :func:`erpc_ns`    -- kernel-bypass transport + flat coding: ~850 ns
* :func:`nanorpc_ns` -- hardware-terminated + zero-copy: ~40 ns
"""

from __future__ import annotations

import math
from typing import Callable, Dict

__all__ = ["STACKS", "erpc_ns", "nanorpc_ns", "tcpip_ns"]

#: The Fig. 1 measurement point: a 300 B request, DeathStarBench-style
#: sub-64 B response [36].
REQUEST_BYTES = 300
RESPONSE_BYTES = 64

#: Every message is a small-RPC blob: three 8 B header words (method id,
#: sizes, flags) plus one payload field.
_FIELDS = 4
_HEADER_BYTES = 3 * 8

_MTU_BYTES = 1_460


def _packets(size_bytes: int) -> int:
    """MTU-sized packets a software transport segments a message into."""
    return max(1, math.ceil(size_bytes / _MTU_BYTES))


def _rpc(header_ns: float, dispatch_ns: float, decode_ns: float,
         encode_ns: float, transport_ns: float) -> float:
    """Transport plus the RPC layer; building the response header costs
    half of parsing the request's."""
    return transport_ns + (
        (header_ns + dispatch_ns + decode_ns) + (header_ns * 0.5 + encode_ns)
    )


def _check(request_bytes: int, response_bytes: int) -> None:
    if request_bytes < 0 or response_bytes < 0:
        raise ValueError("message sizes must be >= 0")


def tcpip_ns(request_bytes: int = REQUEST_BYTES,
             response_bytes: int = RESPONSE_BYTES) -> float:
    """The kernel socket path with software (protobuf-like) coding."""
    _check(request_bytes, response_bytes)
    # Two syscalls per direction (2.6 us with mitigations-era overhead),
    # 4.2 us of protocol work per MTU packet (TX pays 0.8x: no softirq
    # demux), and skb alloc + checksum + copy at 2.5 ns/B.
    transport = (
        2_600.0 + _packets(request_bytes) * 4_200.0 + request_bytes * 2.5
    ) + (
        2_600.0 + _packets(response_bytes) * 4_200.0 * 0.8
        + response_bytes * 2.5
    )
    # Tag/varint coding: 18 ns per field plus a 0.6 ns/B copy; decoding
    # pays 1.4x the field cost for tag dispatch and validation.
    decode = _FIELDS * 18.0 * 1.4 + (_HEADER_BYTES + request_bytes) * 0.6
    encode = _FIELDS * 18.0 + (_HEADER_BYTES + response_bytes) * 0.6
    # Kernel-path framing: 120 ns header parse, 60 ns dispatch.
    return _rpc(120.0, 60.0, decode, encode, transport)


def erpc_ns(request_bytes: int = REQUEST_BYTES,
            response_bytes: int = RESPONSE_BYTES) -> float:
    """eRPC: user-space polling transport, lean RPC layer."""
    _check(request_bytes, response_bytes)
    # No syscalls: the poll loop amortizes per-batch work, leaving
    # 320 ns per packet (0.8x on TX) and one 0.55 ns/B copy.
    transport = (
        _packets(request_bytes) * 320.0 + request_bytes * 0.55
    ) + (
        _packets(response_bytes) * 320.0 * 0.8 + response_bytes * 0.55
    )
    # Flat fixed-layout coding: 2 ns per field; encoding adds one
    # bounds-checked 0.25 ns/B copy, decoding is in-place pointer math.
    decode = _FIELDS * 2.0
    encode = _FIELDS * 2.0 + (_HEADER_BYTES + response_bytes) * 0.25
    return _rpc(20.0, 12.0, decode, encode, transport)


def nanorpc_ns(request_bytes: int = REQUEST_BYTES,
               response_bytes: int = RESPONSE_BYTES) -> float:
    """nanoRPC: NIC-terminated transport (nanoPU), zero-copy messages."""
    _check(request_bytes, response_bytes)
    # The CPU only reads each message out of the register file / LLC
    # buffer the hardware placed it in: 9 ns plus 0.02 ns/B, no packets.
    transport = (9.0 + request_bytes * 0.02) + (9.0 + response_bytes * 0.02)
    # Zerializer-style: a 3 ns descriptor fix-up; the payload never moves.
    return _rpc(4.0, 3.0, 3.0, 3.0, transport)


#: Stack name -> on-CPU processing ns per served RPC, in Fig. 1's order.
STACKS: Dict[str, Callable[..., float]] = {
    "tcpip": tcpip_ns,
    "erpc": erpc_ns,
    "nanorpc": nanorpc_ns,
}
