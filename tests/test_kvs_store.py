"""Unit tests for the EREW MICA store."""

import pytest

from repro.kvs.store import MicaPartition, MicaStore


class TestPartition:
    def test_get_set_roundtrip(self):
        part = MicaPartition(0)
        part.set(b"key", b"value")
        assert part.get(b"key") == b"value"
        assert part.stats.hits == 1

    def test_miss_counted(self):
        part = MicaPartition(0)
        assert part.get(b"missing") is None
        assert part.stats.misses == 1
        assert part.stats.hit_rate == 0.0

    def test_update_returns_latest(self):
        part = MicaPartition(0)
        part.set(b"k", b"v1")
        part.set(b"k", b"v2")
        assert part.get(b"k") == b"v2"

    def test_eviction_becomes_miss(self):
        """When the log wraps past a record, its index entry dangles and
        the lookup reports a miss (MICA's lossy semantics)."""
        part = MicaPartition(0, log_bytes=200)
        part.set(b"old", b"x" * 50)
        for i in range(5):
            part.set(b"new%d" % i, b"y" * 50)
        assert part.get(b"old") is None

    def test_scan_returns_live_pairs(self):
        part = MicaPartition(0)
        for i in range(10):
            part.set(b"key%d" % i, b"v%d" % i)
        results = part.scan(b"key0", 5)
        assert len(results) == 5
        assert part.stats.scans == 1


class TestStore:
    def test_owner_is_stable_and_in_range(self):
        store = MicaStore(4)
        for i in range(50):
            key = b"key%d" % i
            owner = store.owner_of(key)
            assert 0 <= owner < 4
            assert store.owner_of(key) == owner

    def test_erew_routing(self):
        """set/get route to the owner partition only."""
        store = MicaStore(4)
        store.set(b"hello", b"world")
        owner = store.owner_of(b"hello")
        assert store.partition(owner).stats.sets == 1
        for p in range(4):
            if p != owner:
                assert store.partition(p).stats.sets == 0
        assert store.get(b"hello") == b"world"

    def test_keys_spread_across_partitions(self):
        store = MicaStore(4)
        owners = {store.owner_of(b"key%d" % i) for i in range(100)}
        assert owners == {0, 1, 2, 3}

    def test_total_records(self):
        store = MicaStore(2)
        for i in range(10):
            store.set(b"k%d" % i, b"v")
        assert store.total_records() == len(store) == 10

    def test_scan_via_owner(self):
        store = MicaStore(2)
        for i in range(20):
            store.set(b"k%d" % i, b"v")
        results = store.scan(b"k0", 5)
        assert 0 < len(results) <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            MicaStore(0)


def test_hash_memos_match_sha1_for_every_dataset_key():
    """The owner and bucket memos filled while a dataset is populated
    equal the SHA-1 truncation for every key, so lookups through them
    route exactly as hashing each time would."""
    from repro.kvs.dataset import build_dataset
    from repro.kvs.hashtable import key_hash

    dataset = build_dataset(n_partitions=4, n_keys=2_000, seed=3)
    store = dataset.store
    assert len(store.owners) == len(dataset.keys)
    for key in dataset.keys:
        digest = key_hash(key)
        owner = digest % store.n_partitions
        assert store.owners[key] == owner == store.owner_of(key)
        index = store.partition(owner).index
        assert index._bucket_memo[key] is index._buckets[
            digest % index.n_buckets
        ]


def test_populating_hashes_each_key_once(monkeypatch):
    """A new key's one SHA-1 places it in both its partition and its
    bucket: populating a dataset hashes each key exactly once."""
    from repro.kvs import hashtable, store
    from repro.kvs.dataset import build_dataset

    calls = []
    key_hash = hashtable.key_hash

    def counting_hash(key):
        calls.append(key)
        return key_hash(key)

    monkeypatch.setattr(store, "key_hash", counting_hash)
    monkeypatch.setattr(hashtable, "key_hash", counting_hash)
    dataset = build_dataset(n_partitions=4, n_keys=500, seed=3)
    assert sorted(calls) == sorted(dataset.keys)
