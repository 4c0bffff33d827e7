"""MICA's circular log.

Values live in a DRAM-resident append-only circular log (default 4 GB
in the paper's configuration).  Appends allocate at the head; when the
log wraps, the oldest records are garbage -- MICA's lossy "store mode
with automatic eviction".  Readers validate a record's offset against
the live window, so dangling index entries are detected rather than
returning stale bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Per-record header: key length + value length + validity word.
RECORD_HEADER_BYTES = 16


@dataclass(frozen=True)
class LogRecord:
    """One appended key-value record."""

    offset: int
    key: bytes
    value: bytes

    @property
    def size(self) -> int:
        return RECORD_HEADER_BYTES + len(self.key) + len(self.value)


class CircularLog:
    """Append-only circular value store with wrap-around eviction.

    ``capacity_bytes`` bounds the live window; the implementation keeps
    a dict of live records keyed by offset (the Python stand-in for raw
    DRAM) and evicts from the tail as the head advances past capacity.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= RECORD_HEADER_BYTES:
            raise ValueError(
                f"capacity must exceed one header ({RECORD_HEADER_BYTES}B), "
                f"got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self._head = 0  # next append offset (monotonic, never wraps)
        self._tail = 0  # oldest live offset
        self._records: dict[int, LogRecord] = {}
        self._live_bytes = 0
        self.appends = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def append(self, key: bytes, value: bytes) -> LogRecord:
        """Write a record at the head, evicting old records as needed."""
        record = LogRecord(offset=self._head, key=bytes(key), value=bytes(value))
        size = record.size
        if size > self.capacity_bytes:
            raise ValueError(
                f"record of {size}B exceeds log capacity "
                f"{self.capacity_bytes}B"
            )
        while self._live_bytes + size > self.capacity_bytes:
            self._evict_oldest()
        self._records[record.offset] = record
        self._head += size
        self._live_bytes += size
        self.appends += 1
        return record

    def read(self, offset: int) -> Optional[LogRecord]:
        """Fetch the record at ``offset``; None if it has been evicted."""
        return self._records.get(offset)

    def is_live(self, offset: int) -> bool:
        return offset in self._records

    # ------------------------------------------------------------------
    def _evict_oldest(self) -> None:
        if not self._records:
            raise RuntimeError("log invariant broken: no records but bytes live")
        # Offsets are append-ordered, so the minimum is the oldest;
        # track tail to find it without a full scan.
        while self._tail not in self._records:
            self._tail += 1
        record = self._records.pop(self._tail)
        self._tail += record.size
        self._live_bytes -= record.size
        self.evictions += 1

    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    @property
    def live_records(self) -> int:
        return len(self._records)

    @property
    def utilization(self) -> float:
        return self._live_bytes / self.capacity_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CircularLog {self._live_bytes}/{self.capacity_bytes}B "
            f"records={len(self._records)}>"
        )
