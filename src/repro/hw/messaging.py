"""The manager-tile messaging hardware: migrator + controller (Fig. 6)
implementing the four-message protocol of Table II over the NoC.

Message types
-------------
* ``PREDICT_CONFIG`` -- core-local PR write; never crosses the NoC.
* ``MIGRATE`` -- carries ``req_num`` 14 B descriptors from the source
  manager's MR tail to the destination's MR tail.
* ``UPDATE`` -- broadcasts the local queue length to all other managers.
  The controller writes it into each receiver's queue-length registers,
  which the runtime reads at the start of each tick (see
  :meth:`ManagerTileHw.broadcast_update`).
* ``ACK``/``NACK`` -- migration accepted (source forgets the
  descriptors) or rejected because the destination's receive FIFO is
  full (source restores them; the migration is *not* replayed, per
  Sec. V-A).

Fidelity notes
--------------
The paper keeps migrated descriptors valid in the source MRs until the
ACK arrives.  We instead hold in-flight descriptors in a pending buffer
and restore them on NACK: the observable behaviour (no loss, no
duplication, no replay) is identical, without modelling speculative
double-dispatch.
"""

from __future__ import annotations

import enum
import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import compress, count
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.sim.engine import Simulator
from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.hw.noc import Noc, NocMessage
from repro.hw.registers import HardwareFifo, MigrationRegisterFile
from repro.telemetry import MetricRegistry
from repro.workload.request import Request

#: Virtual network reserved for Altocumulus traffic (Sec. V-B).
ALTOCUMULUS_VNET = 1

#: Bytes of MIGRATE header: req_num + src_mid + dst_mid + tail pointer.
MIGRATE_HEADER_BYTES = 8

#: Bytes of an UPDATE payload: one queue-length word.
UPDATE_BYTES = 8

#: Bytes of an ACK/NACK message.
ACK_BYTES = 4


class MessageType(enum.Enum):
    """The Table II message classes."""
    PREDICT_CONFIG = "predict_config"
    MIGRATE = "migrate"
    UPDATE = "update"
    ACK = "ack"
    NACK = "nack"


#: Payloads ride inside every protocol message; slotted where the
#: runtime supports it (``dataclass(slots=True)`` needs Python 3.10).
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTTED)
class _Payload:
    """What rides inside a NocMessage for this protocol."""

    kind: MessageType
    src_manager: int
    dst_manager: int
    requests: List[Request] = field(default_factory=list)
    migrate_id: int = 0


#: Counter suffixes registered per tile (``messaging.m<i>.<suffix>``).
_TILE_COUNTERS = (
    "migrates_sent",
    "migrates_acked",
    "migrates_nacked",
    "descriptors_sent",
    "descriptors_accepted",
    "updates_sent",
    "updates_received",
    "send_backpressure",
)


class ManagerTileHw:
    """One manager tile's migration hardware.

    The runtime (software) talks to this object through
    :meth:`send_migrate` (MIGRATE) and :meth:`broadcast_update`
    (UPDATE), reads peers' UPDATEs with
    :meth:`read_updates`, and receives the ``on_migrate_in`` callback.
    """

    def __init__(
        self,
        sim: Simulator,
        noc: Noc,
        tile_id: int,
        manager_index: int,
        constants: HwConstants = DEFAULT_CONSTANTS,
        on_migrate_in: Optional[Callable[[List[Request], int], None]] = None,
        migrator_ns_per_entry: float = 0.5,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.sim = sim
        self.noc = noc
        self.tile_id = int(tile_id)
        self.manager_index = int(manager_index)
        self.constants = constants
        self.mrs = MigrationRegisterFile()
        self.send_fifo = HardwareFifo(constants.send_fifo_entries)
        self.recv_fifo = HardwareFifo(constants.recv_fifo_entries)
        self.on_migrate_in = on_migrate_in
        self.migrator_ns_per_entry = float(migrator_ns_per_entry)
        # Protocol accounting lives in owned registry instruments under
        # a per-tile namespace; a standalone tile gets a private
        # registry.  Bumping a slotted instrument's ``value`` costs the
        # same as the old dataclass field increments.
        self.registry = registry if registry is not None else MetricRegistry()
        prefix = f"messaging.m{self.manager_index}"
        #: UPDATE registers: per source manager, the ``(arrival, seq,
        #: queue_len)`` writes not yet read, oldest first.
        self._inboxes: Dict[int, Deque[Tuple[float, int, int]]] = {}
        #: UPDATEs read into a queue-length vector so far.
        self._updates_read = 0
        # UPDATEs land as register writes, not delivery events, so their
        # receive count is bound: computed when a snapshot reads it.
        bound = {"updates_received": self._updates_received}
        (
            self._m_migrates_sent,
            self._m_migrates_acked,
            self._m_migrates_nacked,
            self._m_descriptors_sent,
            self._m_descriptors_accepted,
            self._m_updates_sent,
            self._m_updates_received,
            self._m_send_backpressure,
        ) = [
            self.registry.counter(f"{prefix}.{suffix}", fn=bound.get(suffix))
            for suffix in _TILE_COUNTERS
        ]
        self._peers: Dict[int, "ManagerTileHw"] = {}
        #: UPDATE fan-out, one route per other manager: its tile and the
        #: wire times of an UPDATE to it, and its register inbox for this
        #: source.
        self._update_wires: List[Tuple[int, float, float]] = []
        self._update_inboxes: List[Deque[Tuple[float, int, int]]] = []
        self._pending_acks: Dict[int, List[Request]] = {}
        self._next_migrate_id = 0
        #: Migrate ids forgotten by a crash-restart (:meth:`fail`):
        #: their eventual ACK is benign (the batch lives on at the
        #: destination), their NACK means the descriptors are lost.
        self._dead_migrate_ids: Set[int] = set()
        #: Called with the lost descriptors when a NACK returns for a
        #: forgotten migrate id (the restarted manager no longer holds
        #: the pending buffer to restore them from).
        self.on_dead_nack: Optional[Callable[[List[Request]], None]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, peers: List["ManagerTileHw"]) -> None:
        """Register every manager tile (including self) for routing."""
        self._peers = {p.manager_index: p for p in peers}
        # Precomputed because an UPDATE leaves once per manager per tick
        # and the routes never change.
        others = [p for p in peers if p is not self]
        self._update_wires = [
            (p.tile_id,)
            + self.noc.wire_times(self.tile_id, p.tile_id, UPDATE_BYTES)
            for p in others
        ]
        self._update_inboxes = [
            p._inboxes.setdefault(self.manager_index, deque()) for p in others
        ]

    def _peer(self, manager_index: int) -> "ManagerTileHw":
        if manager_index not in self._peers:
            raise KeyError(f"manager {manager_index} is not connected")
        return self._peers[manager_index]

    # ------------------------------------------------------------------
    # Software-visible operations
    # ------------------------------------------------------------------
    def send_migrate(self, dst_manager: int, requests: List[Request]) -> bool:
        """MIGRATE ``requests`` (already removed from the local MR tail)
        to another manager.  Returns False and leaves the caller to
        restore the requests if the send FIFO lacks room (back-pressure).
        """
        if dst_manager == self.manager_index:
            raise ValueError("cannot migrate to self")
        if not requests:
            return True
        if not self.send_fifo.push_many(requests):
            self._m_send_backpressure.value += 1
            return False
        migrate_id = self._next_migrate_id
        self._next_migrate_id += 1
        self._pending_acks[migrate_id] = list(requests)
        payload = _Payload(
            kind=MessageType.MIGRATE,
            src_manager=self.manager_index,
            dst_manager=dst_manager,
            requests=list(requests),
            migrate_id=migrate_id,
        )
        dst_tile = self._peer(dst_manager).tile_id
        size = MIGRATE_HEADER_BYTES + len(requests) * self.constants.mr_entry_bytes
        # The migrator reads req_num pointers from local MRs into the
        # send FIFO before injection (register-to-register movement).
        inject_delay = len(requests) * self.migrator_ns_per_entry
        self.sim.post(
            inject_delay,
            self._inject,
            NocMessage(
                src=self.tile_id,
                dst=dst_tile,
                payload=payload,
                size_bytes=size,
                vnet=ALTOCUMULUS_VNET,
            ),
        )
        self._m_migrates_sent.value += 1
        self._m_descriptors_sent.value += len(requests)
        return True

    def broadcast_update(self, queue_len: int) -> None:
        """UPDATE: broadcast the local queue length to all other managers.

        Each copy crosses the NoC like any message (ejection-port
        occupancy, ``noc.*`` accounting, trace span) but is delivered as
        a timestamped register write, not a heap event: its
        ``(arrival, seq, queue_len)`` joins the receiver's inbox for
        this source, and the receiver applies it when it next reads its
        registers (:meth:`read_updates`).  ``seq`` is the sequence
        number the delivery event would have taken, so the reader sees
        exactly the writes that event would have made before it.  Per
        source, arrivals strictly increase (later sends start later and
        the ejection port only moves forward), so each inbox stays
        sorted.  Every tick sends one, a parked tick's 0 included (its
        copies are written later, by :class:`ParkedUpdates`): a peer's
        optimistic view of this queue after a MIGRATE here is corrected
        only by the next UPDATE it reads.
        """
        arrivals = self.noc.transmit_many(
            self.tile_id, self._update_wires, UPDATE_BYTES, ALTOCUMULUS_VNET
        )
        seq = self.sim.reserve_seq(len(arrivals))
        for inbox, arrival in zip(self._update_inboxes, arrivals):
            inbox.append((arrival, seq, queue_len))
            seq += 1
        self._m_updates_sent.value += len(arrivals)

    def read_updates(self, q_view: List[int], time: float, seq: int) -> None:
        """Copy into ``q_view`` every UPDATE that arrived before the
        event keyed ``(time, seq)``: the runtime's register read, made
        at the start of every tick that runs Algorithm 1
        (:meth:`repro.core.scheduler.AltocumulusSystem._tick_loop`).

        A parked tick reads nothing: reads only ever overwrite view
        slots with newer writes, so the next read applies what it would
        have applied, and nothing else writes those slots in between.
        """
        key = (time, seq)
        read = 0
        for src, inbox in self._inboxes.items():
            # (arrival, seq, qlen) < (time, seq): seqs are unique, so the
            # comparison never reaches qlen.
            while inbox and inbox[0] < key:
                q_view[src] = inbox.popleft()[2]
                read += 1
        self._updates_read += read

    def _updates_received(self) -> int:
        """UPDATEs read plus those a delivery event would have reached
        by the end of the last run (:attr:`Simulator.end_cut`)."""
        cut = self.sim.end_cut
        return self._updates_read + sum(
            1 for inbox in self._inboxes.values() for entry in inbox
            if entry < cut
        )

    # ------------------------------------------------------------------
    # Hardware internals
    # ------------------------------------------------------------------
    def _inject(self, msg: NocMessage) -> None:
        # Entries leave the send FIFO as the message enters the NoC.
        payload: _Payload = msg.payload
        for _ in payload.requests:
            self.send_fifo.pop()
        self.noc.send(msg, self._deliver)

    def _deliver(self, msg: NocMessage) -> None:
        """Controller receive path: runs on the *destination* tile."""
        payload: _Payload = msg.payload
        receiver = self._peer(payload.dst_manager)
        receiver._handle(payload)

    def _handle(self, payload: _Payload) -> None:
        if payload.dst_manager != self.manager_index:
            raise RuntimeError(
                f"misrouted message for manager {payload.dst_manager} "
                f"delivered to {self.manager_index}"
            )
        if payload.kind is MessageType.MIGRATE:
            self._receive_migrate(payload)
            return
        if payload.kind in (MessageType.ACK, MessageType.NACK):
            self._receive_ack(payload)
            return
        raise RuntimeError(f"unexpected message kind {payload.kind}")

    def _receive_migrate(self, payload: _Payload) -> None:
        requests = payload.requests
        if not self.recv_fifo.push_many(requests):
            self._reply(payload, MessageType.NACK)
            return
        # The migrator drains the receive FIFO into the local MR file.
        drain = len(requests) * self.migrator_ns_per_entry
        self.sim.post(drain, self._drain_into_mrs, payload)

    def _drain_into_mrs(self, payload: _Payload) -> None:
        for _ in payload.requests:
            self.recv_fifo.pop()
        for r in payload.requests:
            r.migrations += 1
            self.mrs.enqueue(r)
        self._m_descriptors_accepted.value += len(payload.requests)
        self._reply(payload, MessageType.ACK)
        if self.on_migrate_in is not None:
            self.on_migrate_in(payload.requests, payload.src_manager)

    def _reply(self, original: _Payload, kind: MessageType) -> None:
        reply = _Payload(
            kind=kind,
            src_manager=self.manager_index,
            dst_manager=original.src_manager,
            migrate_id=original.migrate_id,
            requests=original.requests if kind is MessageType.NACK else [],
        )
        src_tile = self._peer(original.src_manager).tile_id
        self.noc.send(
            NocMessage(
                src=self.tile_id,
                dst=src_tile,
                payload=reply,
                size_bytes=ACK_BYTES,
                vnet=ALTOCUMULUS_VNET,
            ),
            self._deliver,
        )

    def _receive_ack(self, payload: _Payload) -> None:
        pending = self._pending_acks.pop(payload.migrate_id, None)
        if pending is None:
            if payload.migrate_id in self._dead_migrate_ids:
                # Reply to a batch forgotten in a crash-restart: an ACK
                # means the batch already lives at the destination; a
                # NACK means nobody holds the descriptors any more.
                self._dead_migrate_ids.discard(payload.migrate_id)
                if (
                    payload.kind is MessageType.NACK
                    and self.on_dead_nack is not None
                ):
                    self.on_dead_nack(list(payload.requests))
                return
            raise RuntimeError(
                f"manager {self.manager_index} got {payload.kind.value} for "
                f"unknown migrate id {payload.migrate_id}"
            )
        if payload.kind is MessageType.ACK:
            self._m_migrates_acked.value += 1
            return
        # NACK: the destination rejected the batch; restore it locally.
        self._m_migrates_nacked.value += 1
        for r in pending:
            self.mrs.enqueue(r)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail(self) -> List[Request]:
        """Crash-restart this tile's migration protocol state.

        The pending-ACK buffer is forgotten (its migrate ids move to the
        dead set; see :meth:`_receive_ack` for their replies' fates) and
        the MR file is drained.  Returns the orphaned MR descriptors, in
        arrival order, for the owning system to re-dispatch or drop.
        Send/receive FIFO entries mid-transfer ride out with their
        already-scheduled events -- the model's manager failure is an
        instantaneous state loss plus restart, not an outage window.
        """
        self._dead_migrate_ids.update(self._pending_acks)
        self._pending_acks.clear()
        orphans = list(self.mrs.entries)
        self.mrs.entries.clear()
        return orphans

    # ------------------------------------------------------------------
    @property
    def in_flight_descriptors(self) -> int:
        """Descriptors sent but not yet ACKed/NACKed."""
        return sum(len(v) for v in self._pending_acks.values())


class ParkedUpdates:
    """Writes the zero UPDATE broadcasts of parked manager ticks.

    A parked tick (:class:`repro.core.scheduler.ParkedTicks`) sends no
    UPDATE when it runs: it logs its key and the first of the sequence
    numbers its copies take, and :meth:`fill_in` later does
    what ``tiles[sender].broadcast_update(0)`` would have done at that
    key -- the NoC accounting (:meth:`repro.hw.noc.Noc.transmit_log`),
    the register writes and ``updates_sent``.

    A copy that landed before the fill-in is applied to its reader's
    queue-length view at once, with any older write still unread in
    that register: the reader has not read since the copy was sent (a
    read fills the log in first), and its next read would apply the
    copy, which nothing else could overwrite in between.  Copies still
    in flight join the reader's register inbox like any UPDATE.  Either
    way ``updates_received`` counts them as a delivery would.  By the
    same argument every write that has landed in a parked reader's
    registers is read at the fill-in.
    """

    def __init__(self, tiles: List[ManagerTileHw]) -> None:
        self._tiles = tiles
        self.noc = tiles[0].noc
        #: Per sender: its tile and UPDATE wires, for the NoC.
        self._routes = [(tile.tile_id, tile._update_wires) for tile in tiles]
        #: UPDATE copies per broadcast.
        self._copies = len(tiles) - 1
        #: Per sender: ``(inbox, reader)`` of each copy, in wire order.
        self._sinks = [
            list(zip(tile._update_inboxes,
                     [p.manager_index for p in tiles if p is not tile]))
            for tile in tiles
        ]

    def fill_in(self, log: List[Any], views: List[List[int]], now: float) -> None:
        """Write the broadcasts of ``log``, flat ``time, seq, sender``
        triples in key order, all sent before ``now``; ``views[reader]``
        is the queue-length view each reader's register reads update."""
        copies = self._copies
        tiles = self._tiles
        arrivals = self.noc.transmit_log(
            zip(log[::3], log[2::3]), self._routes, UPDATE_BYTES,
            ALTOCUMULUS_VNET,
        )
        # Copies still in flight, per (sender, wire): in arrival order,
        # after every copy of that pair that has landed.
        flying: Dict[int, List[Tuple[float, int, int]]] = {}
        for index in compress(count(), map(now.__le__, arrivals)):
            entry, wire = divmod(index, copies)
            sender = log[3 * entry + 2]
            flying.setdefault(sender * copies + wire, []).append(
                (arrivals[index], log[3 * entry + 1] + wire, 0)
            )
        senders = log[2::3]
        sent = [senders.count(sender) for sender in range(len(tiles))]
        for sender, sends in enumerate(sent):
            if not sends:
                continue
            tiles[sender]._m_updates_sent.value += sends * copies
            pair = sender * copies
            for inbox, reader in self._sinks[sender]:
                late = flying.get(pair, ())
                pair += 1
                landed = sends - len(late)
                if landed:
                    # Older writes still unread land first.  (popleft,
                    # not clear(): an emptied deque keeps its block.)
                    older = len(inbox)
                    for _ in range(older):
                        inbox.popleft()
                    tiles[reader]._updates_read += older + landed
                    views[reader][sender] = 0
                if late:
                    inbox.extend(late)
        # The parked readers will not read before their next full tick:
        # read what has landed now, so their registers stay one write
        # deep per peer however long they park.
        for reader, sends in enumerate(sent):
            if sends:
                tiles[reader].read_updates(views[reader], now, -1)
