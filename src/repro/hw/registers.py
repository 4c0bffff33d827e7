"""Manager-tile register structures (Fig. 6).

Each Altocumulus manager tile adds:

* **Migration registers (MRs)** -- an in-order file of 14 B descriptors
  (8 B pointer + 48-bit IP/port) pointing at RPC messages that live in
  the LLC.  Sec. V-B sizes the file from E[Nq] ~ 11 per group near
  saturation (one 154 B file); the model leaves it unbounded, as the
  MR file is memory-backed.
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
from typing import Deque, List

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

    def push(self, request: Request) -> bool:
        if len(self._entries) >= self.capacity:
            return False
        self._entries.append(request)
        return True

    def push_many(self, requests: List[Request]) -> bool:
        """All-or-nothing bulk push (one MIGRATE payload)."""
        if len(self._entries) + len(requests) > self.capacity:
            return False
        for r in requests:
            self._entries.append(r)
        return True

    def pop(self) -> Request:
        if not self._entries:
            raise IndexError("pop from empty hardware FIFO")
        return self._entries.popleft()

    def __len__(self) -> int:
        return len(self._entries)


class MigrationRegisterFile:
    """The in-order descriptor file of one manager tile.

    Unlike the FIFOs, the MR file backs the manager's NetRX queue view:
    descriptors are appended at the tail in arrival order, dispatched
    from the head, and migrated *from the tail* (Algorithm 1 dequeues
    ``NetRX[j].tail``) because the newest arrivals are the predicted
    SLO violators.
    """

    def __init__(self) -> None:
        #: Backing store.  Exposed (read-only by convention) because the
        #: dispatch loop polls queue emptiness/length once per request;
        #: going through ``len(mrs)`` costs a method call each time.
        #: The deque is only ever mutated in place, never rebound, so
        #: holding a reference to it stays valid for the file's lifetime.
        self.entries: Deque[Request] = deque()
        self._entries = self.entries

    def enqueue(self, request: Request) -> None:
        """Append at the tail."""
        self._entries.append(request)

    def dequeue_head(self) -> Request:
        """Remove the oldest descriptor (normal dispatch path)."""
        if not self._entries:
            raise IndexError("dequeue from empty MR file")
        return self._entries.popleft()

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

    def __len__(self) -> int:
        return len(self._entries)
