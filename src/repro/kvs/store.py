"""The EREW-partitioned MICA store (Sec. IX-B).

EREW (exclusive read, exclusive write) assigns each key partition to
exactly one owner; there is no concurrency control, which is why MICA
scales linearly with cores.  The paper maps one partition per *manager
thread* (not per core) and lets any worker in the group serve it --
migrated requests then pay one extra remote access to the key's owner,
the application-level overhead quantified in Sec. IX-C.

Operation accounting lives in telemetry instruments under a per-
partition namespace (``kvs.p<i>.gets`` ...); :attr:`MicaPartition.stats`
returns a :class:`StoreStats` snapshot for the existing call sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.kvs.hashtable import HashIndex, key_hash
from repro.kvs.log import CircularLog
from repro.telemetry import MetricRegistry


@dataclass
class StoreStats:
    """Point-in-time view of one partition's operation counters."""
    gets: int = 0
    sets: int = 0
    scans: int = 0
    deletes: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MicaPartition:
    """One EREW partition: a hash index over a circular log."""

    def __init__(
        self,
        partition_id: int,
        n_buckets: int = 2_048,
        log_bytes: int = 8 << 20,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.partition_id = int(partition_id)
        self.index = HashIndex(n_buckets)
        self.log = CircularLog(log_bytes)
        self.registry = registry if registry is not None else MetricRegistry()
        prefix = f"kvs.p{self.partition_id}"
        reg = self.registry
        self._m_gets = reg.counter(f"{prefix}.gets")
        self._m_sets = reg.counter(f"{prefix}.sets")
        self._m_scans = reg.counter(f"{prefix}.scans")
        self._m_deletes = reg.counter(f"{prefix}.deletes")
        self._m_hits = reg.counter(f"{prefix}.hits")
        self._m_misses = reg.counter(f"{prefix}.misses")

    @property
    def stats(self) -> StoreStats:
        """Snapshot of this partition's registry instruments."""
        return StoreStats(
            gets=self._m_gets.value,
            sets=self._m_sets.value,
            scans=self._m_scans.value,
            deletes=self._m_deletes.value,
            hits=self._m_hits.value,
            misses=self._m_misses.value,
        )

    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup; None on miss (absent or evicted)."""
        self._m_gets.value += 1
        key = bytes(key)
        offset = self.index.get(key)
        if offset is not None:
            record = self.log.read(offset)
            if record is not None and record.key == key:
                self._m_hits.value += 1
                return record.value
            # Dangling index entry: the log wrapped past it.
            self.index.delete(key)
        self._m_misses.value += 1
        return None

    def set(self, key: bytes, value: bytes,
            digest: Optional[int] = None) -> None:
        """Upsert: append to the log, repoint the index.  ``digest`` is
        the key's :func:`key_hash` when the caller has it already."""
        self._m_sets.value += 1
        record = self.log.append(key, value)
        self.index.put(key, record.offset, digest)

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        """Range-style walk returning up to ``count`` live pairs."""
        self._m_scans.value += 1
        out: List[Tuple[bytes, bytes]] = []
        for key, offset in self.index.scan(start_key, count):
            record = self.log.read(offset)
            if record is not None:
                out.append((key, record.value))
        return out

    def delete(self, key: bytes) -> bool:
        """Drop the index entry (the log record ages out naturally)."""
        self._m_deletes.value += 1
        return self.index.delete(key)

    def __len__(self) -> int:
        return len(self.index)


class MicaStore:
    """EREW store: ``n_partitions`` partitions, keys hashed to owners."""

    def __init__(
        self,
        n_partitions: int,
        n_buckets_per_partition: int = 2_048,
        log_bytes_per_partition: int = 8 << 20,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if n_partitions <= 0:
            raise ValueError(f"need at least one partition, got {n_partitions}")
        self.registry = registry if registry is not None else MetricRegistry()
        self.partitions: List[MicaPartition] = [
            MicaPartition(
                i,
                n_buckets_per_partition,
                log_bytes_per_partition,
                registry=self.registry,
            )
            for i in range(n_partitions)
        ]
        #: key -> owner partition, for every key ever set (read-only to
        #: callers): ``key_hash`` is a SHA-1 per call, and a dataset's
        #: keys are all set while it is populated, so every later lookup
        #: of them hits.
        self.owners: Dict[bytes, int] = {}

    # ------------------------------------------------------------------
    def owner_of(self, key: bytes) -> int:
        """The EREW owner partition for a key (stable hash)."""
        try:
            return self.owners[key]
        except (KeyError, TypeError):  # never set, or not bytes
            return key_hash(bytes(key)) % len(self.partitions)

    def partition(self, index: int) -> MicaPartition:
        return self.partitions[index]

    def get(self, key: bytes) -> Optional[bytes]:
        return self.partitions[self.owner_of(key)].get(key)

    def set(self, key: bytes, value: bytes) -> None:
        key = bytes(key)
        owner = self.owners.get(key)
        if owner is not None:
            self.partitions[owner].set(key, value)
            return
        # A new key: one hash places it in its partition and its bucket.
        digest = key_hash(key)
        owner = self.owners[key] = digest % len(self.partitions)
        self.partitions[owner].set(key, value, digest)

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        return self.partitions[self.owner_of(start_key)].scan(start_key, count)

    def delete(self, key: bytes) -> bool:
        return self.partitions[self.owner_of(key)].delete(key)

    # ------------------------------------------------------------------
    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def total_records(self) -> int:
        return sum(len(p) for p in self.partitions)

    def __len__(self) -> int:
        return self.total_records()
