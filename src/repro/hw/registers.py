"""Manager-tile register structures (Fig. 6).

Each Altocumulus manager tile adds:

* **Migration registers (MRs)** -- an in-order file of 14 B descriptors
  (8 B pointer + 48-bit IP/port) pointing at RPC messages that live in
  the LLC.  Bounded per Sec. V-B: near saturation E[Nq] ~ 11 per group,
  so one 154 B file (11 entries) suffices -- but the capacity is a
  parameter so sizing studies can sweep it.
* **Parameter registers (PRs)** -- Period, Bulk, Concurrency and
  threshold T, written by PREDICT_CONFIG.  No register block models
  them: the runtime reads Period, Bulk and Concurrency from its
  :class:`~repro.core.config.AltocumulusConfig` and computes T itself,
  and PREDICT_CONFIG's cost is charged per tick by
  :meth:`repro.core.interface.HwInterface.tick_cost_ns`.  The
  queue-length vector q is written by peers' UPDATEs and lives with the
  messaging hardware
  (:meth:`repro.hw.messaging.ManagerTileHw.read_updates`).
* **Send/receive FIFOs** -- 16-entry staging buffers between the
  migrator and the NoC; a full receive FIFO NACKs incoming migrations.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.workload.request import Request


class HardwareFifo:
    """A bounded FIFO of request descriptors.

    ``push`` returns False when full -- callers translate that into a
    NACK (receive path) or back-pressure (send path) rather than
    dropping silently.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._entries: Deque[Request] = deque()
        self.high_watermark = 0
        self.rejected = 0

    def push(self, request: Request) -> bool:
        if len(self._entries) >= self.capacity:
            self.rejected += 1
            return False
        self._entries.append(request)
        self.high_watermark = max(self.high_watermark, len(self._entries))
        return True

    def push_many(self, requests: List[Request]) -> bool:
        """All-or-nothing bulk push (one MIGRATE payload)."""
        if len(self._entries) + len(requests) > self.capacity:
            self.rejected += 1
            return False
        for r in requests:
            self._entries.append(r)
        self.high_watermark = max(self.high_watermark, len(self._entries))
        return True

    def pop(self) -> Request:
        if not self._entries:
            raise IndexError("pop from empty hardware FIFO")
        return self._entries.popleft()

    def free_slots(self) -> int:
        return self.capacity - len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity


class MigrationRegisterFile:
    """The in-order descriptor file of one manager tile.

    Unlike the FIFOs, the MR file backs the manager's NetRX queue view:
    descriptors are appended at the tail in arrival order, dispatched
    from the head, and migrated *from the tail* (Algorithm 1 dequeues
    ``NetRX[j].tail``) because the newest arrivals are the predicted
    SLO violators.
    """

    def __init__(self, capacity: Optional[int] = None, entry_bytes: int = 14) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.entry_bytes = int(entry_bytes)
        #: Backing store.  Exposed (read-only by convention) because the
        #: dispatch loop polls queue emptiness/length once per request;
        #: going through ``len(mrs)`` costs a method call each time.
        #: The deque is only ever mutated in place, never rebound, so
        #: holding a reference to it stays valid for the file's lifetime.
        self.entries: Deque[Request] = deque()
        self._entries = self.entries
        self.high_watermark = 0

    def enqueue(self, request: Request) -> bool:
        """Append at the tail; False if the file is full."""
        if self.capacity is not None and len(self._entries) >= self.capacity:
            return False
        self._entries.append(request)
        self.high_watermark = max(self.high_watermark, len(self._entries))
        return True

    def enqueue_reserved(self, request: Request) -> None:
        """Re-insert a descriptor whose slot is logically still reserved.

        The paper keeps migrated descriptors valid in the source MRs
        until the ACK arrives; our pending-buffer model removes them
        eagerly, so a NACK restore must never fail on capacity -- the
        slot was never really freed.
        """
        self._entries.append(request)
        self.high_watermark = max(self.high_watermark, len(self._entries))

    def dequeue_head(self) -> Request:
        """Remove the oldest descriptor (normal dispatch path)."""
        if not self._entries:
            raise IndexError("dequeue from empty MR file")
        return self._entries.popleft()

    def dequeue_tail(self, count: int) -> List[Request]:
        """Remove up to ``count`` newest descriptors (migration path).

        Returned in arrival order so the destination can re-enqueue them
        preserving FIFO semantics among themselves.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        taken: List[Request] = []
        for _ in range(min(count, len(self._entries))):
            taken.append(self._entries.pop())
        taken.reverse()
        return taken

    def dequeue_tail_where(self, count: int, predicate) -> List[Request]:
        """Remove up to ``count`` newest descriptors satisfying
        ``predicate``, skipping over ineligible ones (which stay put in
        their original order).

        Used by migration selection: freshly migrated requests sit at
        the tail but are ineligible (at-most-once rule), so the migrator
        must look past them.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        taken: List[Request] = []
        skipped: List[Request] = []
        while self._entries and len(taken) < count:
            candidate = self._entries.pop()
            if predicate(candidate):
                taken.append(candidate)
            else:
                skipped.append(candidate)
        for r in reversed(skipped):
            self._entries.append(r)
        taken.reverse()
        return taken

    def peek_all(self) -> List[Request]:
        """Snapshot of queued descriptors in arrival order (read-only)."""
        return list(self._entries)

    def peek_tail(self, count: int) -> List[Request]:
        """The up-to-``count`` newest descriptors (newest first)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        out: List[Request] = []
        for request in reversed(self._entries):
            if len(out) >= count:
                break
            out.append(request)
        return out

    def free_slots(self) -> Optional[int]:
        if self.capacity is None:
            return None
        return self.capacity - len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_used(self) -> int:
        return len(self._entries) * self.entry_bytes
