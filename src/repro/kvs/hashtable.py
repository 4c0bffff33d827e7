"""MICA's hash index: fixed bucket array mapping key hashes to log
offsets.

The paper's configuration uses 2M hash buckets per store.  Buckets hold
(tag, offset) slots; collisions chain within the bucket list.  The index
never stores values -- it resolves a key to a circular-log offset, and
lookups validate liveness against the log (an evicted record reads as a
miss, mirroring MICA's offset-window check).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Tuple


def key_hash(key: bytes) -> int:
    """64-bit stable hash of a key (SHA-1 truncation; MICA uses keyhash
    from SipHash-like functions -- only distribution and stability
    matter here)."""
    return int.from_bytes(hashlib.sha1(bytes(key)).digest()[:8], "little")


class HashIndex:
    """Bucketed key -> log-offset index."""

    def __init__(self, n_buckets: int = 2_048) -> None:
        if n_buckets <= 0:
            raise ValueError(f"need at least one bucket, got {n_buckets}")
        self.n_buckets = int(n_buckets)
        #: bucket -> list of (key, offset); key kept for exact match on
        #: collision (MICA keeps a 16-bit tag + full-key compare in log).
        self._buckets: List[Dict[bytes, int]] = [dict() for _ in range(n_buckets)]
        self.entries = 0
        #: key -> its bucket, for every key ever put: :func:`key_hash` is
        #: a SHA-1 per call, and a store's keys come back again and again
        #: (a dataset's are all put while it is populated).
        self._bucket_memo: Dict[bytes, Dict[bytes, int]] = {}

    # ------------------------------------------------------------------
    def put(self, key: bytes, offset: int, digest: Optional[int] = None) -> None:
        """Insert or update the index entry for ``key``.  ``digest`` is
        the key's :func:`key_hash` when the caller has it already (a new
        key is hashed once, not once per layer)."""
        key = bytes(key)
        bucket = self._bucket_memo.get(key)
        if bucket is None:
            if digest is None:
                digest = key_hash(key)
            bucket = self._buckets[digest % self.n_buckets]
        if key not in bucket:
            self.entries += 1
            self._bucket_memo[key] = bucket
        bucket[key] = offset

    def get(self, key: bytes) -> Optional[int]:
        """Resolve a key to its latest log offset (None on miss).  A key
        never put is in no bucket, so a memo miss needs no hash."""
        key = bytes(key)
        bucket = self._bucket_memo.get(key)
        return None if bucket is None else bucket.get(key)

    def delete(self, key: bytes) -> bool:
        """Remove an entry; True if it existed."""
        key = bytes(key)
        bucket = self._bucket_memo.get(key)
        if bucket is not None and key in bucket:
            del bucket[key]
            self.entries -= 1
            return True
        return False

    # ------------------------------------------------------------------
    def bucket_load(self, key: bytes) -> int:
        """Chain length of the bucket holding ``key`` (collision probe
        depth; feeds the service-time model's per-probe cost)."""
        key = bytes(key)
        bucket = self._bucket_memo.get(key)
        if bucket is None:
            bucket = self._buckets[key_hash(key) % self.n_buckets]
        return len(bucket)

    def scan(self, start_key: bytes, count: int) -> Iterator[Tuple[bytes, int]]:
        """Yield up to ``count`` (key, offset) pairs starting at the
        bucket of ``start_key`` and walking buckets in order.

        MICA has no ordered scan; this models the SCAN RPC of the
        paper's workload mix as a bucket-order range walk.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        start = key_hash(bytes(start_key)) % self.n_buckets
        yielded = 0
        for step in range(self.n_buckets):
            bucket = self._buckets[(start + step) % self.n_buckets]
            for key, offset in bucket.items():
                if yielded >= count:
                    return
                yield key, offset
                yielded += 1

    def __len__(self) -> int:
        return self.entries
