"""Unit tests for the ownership layer: dispatch disciplines,
multiversion epochs, and the KvsSpec surface."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvs.ownership import (
    MIX_PRESETS,
    OWNERSHIP_MODES,
    KvsSpec,
    MultiversionAccessor,
    OwnershipTable,
)
from repro.telemetry import MetricRegistry


class TestKvsSpec:
    def test_defaults_are_valid_and_frozen(self):
        spec = KvsSpec()
        assert spec.mode == "erew"
        with pytest.raises(AttributeError):
            spec.mode = "crew"

    @pytest.mark.parametrize("mix", sorted(MIX_PRESETS))
    def test_presets_resolve(self, mix):
        params = KvsSpec(mix=mix).mix_params()
        assert set(params) == {"get_fraction", "scan_fraction",
                               "delete_fraction", "zipf_s",
                               "hot_key_fraction"}
        assert params["scan_fraction"] + params["delete_fraction"] <= 1

    def test_explicit_fields_override_preset(self):
        spec = KvsSpec(mix="hot_key", hot_key_fraction=0.25)
        assert spec.mix_params()["hot_key_fraction"] == 0.25
        # Unset fields keep the preset's values.
        assert (spec.mix_params()["zipf_s"]
                == MIX_PRESETS["hot_key"]["zipf_s"])

    @pytest.mark.parametrize("kwargs", [
        dict(mode="mesi"),
        dict(mix="nonexistent"),
        dict(mode="dcrew", d=0),
        dict(mode="erew", multiversion=True),
        dict(mode="crcw", multiversion=True),
        dict(service="dpdk"),
        dict(n_keys=0),
        dict(hot_keys=0),
        dict(max_wait_ns=-1.0),
        dict(get_fraction=1.5),
        dict(zipf_s=-0.1),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KvsSpec(**kwargs)

    def test_spec_is_hashable_and_comparable(self):
        # The runner content-hashes specs into cache keys; frozen
        # dataclass equality is what makes identical points cache-hit.
        assert KvsSpec(mode="crew") == KvsSpec(mode="crew")
        assert hash(KvsSpec(d=3)) == hash(KvsSpec(d=3))
        assert KvsSpec(mode="crew") != KvsSpec(mode="crcw")


class TestErewDiscipline:
    def test_uncontended_admit_is_free(self):
        table = OwnershipTable(2, "erew")
        assert table.admit(0, False, now=0.0, hold_ns=50.0) == 0.0
        assert table.admit(1, True, now=0.0, hold_ns=50.0) == 0.0

    def test_any_second_access_waits_for_the_hold(self):
        table = OwnershipTable(1, "erew")
        table.admit(0, False, now=0.0, hold_ns=100.0)
        # Reads exclude reads under EREW -- that is the whole point.
        assert table.admit(0, False, now=30.0, hold_ns=50.0) == 70.0

    def test_waits_chain_transitively(self):
        table = OwnershipTable(1, "erew")
        table.admit(0, True, now=0.0, hold_ns=100.0)
        table.admit(0, True, now=10.0, hold_ns=100.0)  # starts at 100
        # Behind both holds.
        assert table.admit(0, True, now=20.0, hold_ns=10.0) == 180.0

    def test_hold_expires(self):
        table = OwnershipTable(1, "erew")
        table.admit(0, True, now=0.0, hold_ns=100.0)
        assert table.admit(0, True, now=150.0, hold_ns=10.0) == 0.0


class TestCrewDiscipline:
    def test_reads_are_concurrent(self):
        table = OwnershipTable(1, "crew")
        for i in range(5):
            assert table.admit(0, False, now=float(i), hold_ns=100.0) == 0.0
        assert table.total_waits == 0

    def test_read_waits_for_active_writer(self):
        table = OwnershipTable(1, "crew")
        table.admit(0, True, now=0.0, hold_ns=100.0)
        assert table.admit(0, False, now=40.0, hold_ns=10.0) == 60.0

    def test_writer_drains_admitted_readers(self):
        table = OwnershipTable(1, "crew")
        table.admit(0, False, now=0.0, hold_ns=80.0)
        table.admit(0, False, now=0.0, hold_ns=120.0)
        assert table.admit(0, True, now=50.0, hold_ns=10.0) == 70.0

    def test_writers_serialize(self):
        table = OwnershipTable(1, "crew")
        table.admit(0, True, now=0.0, hold_ns=100.0)
        assert table.admit(0, True, now=10.0, hold_ns=10.0) == 90.0
        assert table.max_concurrent_writers(0) == 1


class TestDcrewDiscipline:
    def test_reads_below_bound_are_free(self):
        table = OwnershipTable(1, "dcrew", d=3)
        for _ in range(3):
            assert table.admit(0, False, now=0.0, hold_ns=100.0) == 0.0

    def test_read_past_bound_waits_for_a_slot(self):
        table = OwnershipTable(1, "dcrew", d=2)
        table.admit(0, False, now=0.0, hold_ns=60.0)
        table.admit(0, False, now=0.0, hold_ns=100.0)
        # Third reader waits for the *oldest* holder (end 60) to drain.
        assert table.admit(0, False, now=10.0, hold_ns=10.0) == 50.0

    def test_d1_reads_serialize_like_erew(self):
        table = OwnershipTable(1, "dcrew", d=1)
        table.admit(0, False, now=0.0, hold_ns=100.0)
        assert table.admit(0, False, now=0.0, hold_ns=10.0) == 100.0

    def test_abort_past_wait_bound(self):
        table = OwnershipTable(1, "dcrew", d=1, max_wait_ns=20.0)
        table.admit(0, False, now=0.0, hold_ns=100.0)
        assert table.admit(0, False, now=0.0, hold_ns=10.0) is None
        assert table.aborts == 1
        assert table.admissions == 1
        assert table.total_waits == 0
        # The aborted op recorded no hold: a later read still only sees
        # the first reader.
        assert table.admit(0, False, now=100.5, hold_ns=1.0) == 0.0


class TestCrcwDiscipline:
    def test_nothing_ever_waits(self):
        table = OwnershipTable(1, "crcw")
        for i in range(10):
            assert table.admit(0, i % 2 == 0, now=0.0, hold_ns=1000.0) == 0.0
        assert table.total_waits == 0
        assert table.max_concurrent_writers(0) == 5  # true overlap


class TestMultiversionReads:
    def test_reads_never_wait_under_a_writer(self):
        table = OwnershipTable(1, "crew", multiversion=True)
        table.admit(0, True, now=0.0, hold_ns=100.0)
        assert table.admit(0, False, now=40.0, hold_ns=10.0) == 0.0
        assert table.mv.stale_reads == 1

    def test_reads_outside_writer_hold_are_fresh(self):
        table = OwnershipTable(1, "crew", multiversion=True)
        table.admit(0, True, now=0.0, hold_ns=50.0)
        table.admit(0, False, now=60.0, hold_ns=10.0)
        assert table.mv.mv_reads == 1
        assert table.mv.stale_reads == 0

    def test_writer_does_not_drain_mv_readers(self):
        table = OwnershipTable(1, "crew", multiversion=True)
        table.admit(0, False, now=0.0, hold_ns=500.0)
        # A multiversion writer installs a fresh version instead of
        # waiting for readers of the old one.
        assert table.admit(0, True, now=10.0, hold_ns=10.0) == 0.0

    def test_requires_crew_or_dcrew(self):
        with pytest.raises(ValueError):
            OwnershipTable(1, "erew", multiversion=True)
        with pytest.raises(ValueError):
            OwnershipTable(1, "crcw", multiversion=True)


class TestMultiversionAccessor:
    def test_commit_advances_epoch_and_defers(self):
        mv = MultiversionAccessor()
        mv.read(now=0.0, end_ns=100.0, writer_active=False)
        mv.writer_commit(now=10.0)
        assert mv.epoch == 1
        assert mv.deferred == 1  # epoch-0 reader live until t=100

    def test_reclaim_waits_for_older_epoch_readers(self):
        mv = MultiversionAccessor()
        mv.read(now=0.0, end_ns=100.0, writer_active=False)
        mv.writer_commit(now=10.0)
        assert mv.sweep(now=50.0) == 0  # reader still active
        assert mv.sweep(now=100.5) == 1
        assert mv.deferred == 0
        assert mv.reclaimed == 1

    def test_unread_version_reclaims_immediately(self):
        mv = MultiversionAccessor()
        mv.writer_commit(now=10.0)
        assert mv.deferred == 0
        assert mv.reclaimed == 1

    def test_new_epoch_readers_do_not_block_older_commits(self):
        mv = MultiversionAccessor()
        mv.writer_commit(now=0.0)  # reclaims instantly (no readers)
        mv.read(now=1.0, end_ns=1_000.0, writer_active=False)  # epoch 1
        mv.writer_commit(now=2.0)  # superseded v1: epoch-1 reader live
        assert mv.deferred == 1
        mv.read(now=3.0, end_ns=2_000.0, writer_active=False)  # epoch 2
        # The epoch-2 reader reads the *new* version; it must not pin
        # the epoch-1 deferral past its own lifetime.
        assert mv.sweep(now=1_500.0) == 1
        assert mv.reclaimed == 2

    def test_chained_commits_reclaim_in_order(self):
        mv = MultiversionAccessor()
        for t in (0.0, 10.0, 20.0):
            mv.read(now=t, end_ns=t + 50.0, writer_active=False)
            mv.writer_commit(now=t + 1.0)
        assert mv.epoch == 3
        assert mv.sweep(now=1_000.0) == 3
        assert mv.deferred == 0
        assert mv.reclaimed == 3

    def test_epoch_bookkeeping_is_pruned(self):
        mv = MultiversionAccessor()
        for t in range(20):
            mv.read(now=float(t), end_ns=t + 1.0, writer_active=False)
            mv.writer_commit(now=t + 0.5)
        mv.sweep(now=1_000.0)
        # Every deferral drained; nothing is kept per past epoch.
        assert mv.deferred == 0
        assert mv.reclaimed == 20

    def test_instruments_surface_in_registry(self):
        registry = MetricRegistry()
        table = OwnershipTable(1, "crew", multiversion=True,
                               registry=registry)
        table.admit(0, True, now=0.0, hold_ns=100.0)
        table.admit(0, False, now=10.0, hold_ns=10.0)
        snap = registry.snapshot("kvs.ownership")
        assert snap["kvs.ownership.epoch"] == 1
        assert snap["kvs.ownership.mv_reads"] == 1
        assert snap["kvs.ownership.stale_reads"] == 1
        assert snap["kvs.ownership.admissions"] == 2


class TestTableValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            OwnershipTable(1, "mesi")

    def test_bad_partition_count_rejected(self):
        with pytest.raises(ValueError):
            OwnershipTable(0, "erew")

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            OwnershipTable(1, "dcrew", d=0)

    def test_negative_wait_bound_rejected(self):
        with pytest.raises(ValueError):
            OwnershipTable(1, "dcrew", max_wait_ns=-1.0)

    def test_modes_constant_is_exhaustive(self):
        assert OWNERSHIP_MODES == ("erew", "crew", "crcw", "dcrew")


class _ReferenceAccessor:
    """The per-epoch scan :class:`MultiversionAccessor` replaced, kept as
    the differential oracle: every sweep rescans every live epoch's
    latest reader end against every deferred version's commit epoch."""

    def __init__(self):
        self.epoch = 0
        self._epoch_end = {}
        self._deferred = deque()
        self.mv_reads = 0
        self.stale_reads = 0
        self.reclaimed = 0

    def read(self, now, end_ns, writer_active):
        self.mv_reads += 1
        if writer_active:
            self.stale_reads += 1
        epoch = self.epoch
        if end_ns > self._epoch_end.get(epoch, float("-inf")):
            self._epoch_end[epoch] = end_ns
        self.sweep(now)

    def writer_commit(self, now):
        self._deferred.append((self.epoch, now))
        self.epoch += 1
        self.sweep(now)

    def sweep(self, now):
        reclaimed = 0
        while self._deferred:
            commit_epoch, _ = self._deferred[0]
            if any(
                epoch <= commit_epoch and end > now
                for epoch, end in self._epoch_end.items()
            ):
                break
            self._deferred.popleft()
            reclaimed += 1
        self.reclaimed += reclaimed
        if self._epoch_end:
            floor = self._deferred[0][0] if self._deferred else self.epoch
            for epoch in [
                e for e, end in self._epoch_end.items()
                if end <= now and e < floor
            ]:
                del self._epoch_end[epoch]
        return reclaimed

    @property
    def deferred(self):
        return len(self._deferred)


def _mv_ops(rng, n_ops):
    """A random admission-shaped call sequence: reads at the clock, each
    ending after a hold; commits at the clock *plus* a writer wait, so a
    commit's sweep time can lie after the ``now`` of the next reads; and
    bare sweeps at the clock or behind it."""
    ops = []
    clock = 0.0
    for _ in range(n_ops):
        clock += rng.choice((0.0, 1.0, rng.uniform(0.0, 40.0)))
        roll = rng.random()
        if roll < 0.55:
            hold = rng.choice((rng.uniform(1.0, 60.0), 500.0))
            ops.append(("read", clock, clock + hold, rng.random() < 0.3))
        elif roll < 0.85:
            ops.append(("commit", clock + rng.choice(
                (0.0, rng.uniform(0.0, 120.0)))))
        else:
            ops.append(("sweep", clock - rng.choice(
                (0.0, rng.uniform(0.0, 80.0)))))
    return ops


def _assert_replays_reference(ops):
    mv, ref = MultiversionAccessor(), _ReferenceAccessor()
    for op in ops:
        kind, now = op[0], op[1]
        if kind == "read":
            mv.read(now, op[2], op[3])
            ref.read(now, op[2], op[3])
        elif kind == "commit":
            mv.writer_commit(now)
            ref.writer_commit(now)
        else:
            assert mv.sweep(now) == ref.sweep(now), op
        assert (mv.deferred, mv.reclaimed, mv.epoch, mv.mv_reads,
                mv.stale_reads) == (ref.deferred, ref.reclaimed, ref.epoch,
                                    ref.mv_reads, ref.stale_reads), op


class TestMultiversionMatchesReference:
    """The O(1) sweep reclaims exactly what the per-epoch scan did, call
    for call, including when a commit sweeps at a time later than the
    ``now`` of the reads that follow it."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sequences(self, seed):
        _assert_replays_reference(_mv_ops(random.Random(seed), 400))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=60))
    def test_short_sequences(self, seed, n_ops):
        _assert_replays_reference(_mv_ops(random.Random(seed), n_ops))

    def test_commit_after_next_read_keeps_its_readers_pin(self):
        # A writer admitted behind another commits at t=50, after the
        # next read's admission at t=10: its epoch's reader (ending at
        # t=60) still pins the version it superseded.
        ops = [
            ("read", 0.0, 60.0, False),
            ("commit", 50.0),
            ("read", 10.0, 20.0, True),
            ("sweep", 55.0),
            ("sweep", 61.0),
        ]
        _assert_replays_reference(ops)
        mv = MultiversionAccessor()
        mv.read(0.0, 60.0, False)
        mv.writer_commit(50.0)
        mv.read(10.0, 20.0, True)
        assert mv.sweep(55.0) == 0
        assert mv.sweep(61.0) == 1


class _ReferencePartition:
    def __init__(self):
        self.reader_ends = []
        self.writer_free_at = 0.0
        self.busy_until = 0.0
        self.groups = set()
        self.max_concurrent_writers = 0
        self.writers_active = []


class _ReferenceTable:
    """The single-path ``admit`` :class:`OwnershipTable` replaced, kept
    as the differential oracle: every call prunes, branches on the mode
    and keeps every reader's end whatever the discipline reads."""

    def __init__(self, n, mode, d=2, multiversion=False, max_wait_ns=None):
        self.mode, self.d, self.max_wait_ns = mode, d, max_wait_ns
        self.parts = [_ReferencePartition() for _ in range(n)]
        self.mv = _ReferenceAccessor() if multiversion else None
        self.admissions = self.aborts = 0
        self.read_waits = self.write_waits = 0
        self.wait_ns = self.read_wait_ns = self.write_wait_ns = 0.0

    @staticmethod
    def _note_writer(state, start, end):
        active = [e for e in state.writers_active if e > start]
        active.append(end)
        active.sort()
        state.writers_active = active
        state.max_concurrent_writers = max(state.max_concurrent_writers,
                                           len(active))

    def admit(self, partition, write, now, hold_ns, group=None):
        state = self.parts[partition]
        state.reader_ends = [e for e in state.reader_ends if e > now]
        mode = self.mode
        if mode == "crcw":
            wait = 0.0
        elif mode == "erew":
            wait = max(0.0, state.busy_until - now)
        elif write:
            wait = max(0.0, state.writer_free_at - now)
            if self.mv is None and state.reader_ends:
                wait = max(wait, state.reader_ends[-1] - now)
        else:
            wait = 0.0 if self.mv is not None else max(
                0.0, state.writer_free_at - now)
            if mode == "dcrew" and len(state.reader_ends) >= self.d:
                slot_free = state.reader_ends[len(state.reader_ends) - self.d]
                wait = max(wait, slot_free - now)
        if self.max_wait_ns is not None and wait > self.max_wait_ns:
            self.aborts += 1
            return None
        self.admissions += 1
        start = now + wait
        end = start + hold_ns
        if wait > 0.0:
            self.wait_ns += wait
            if write:
                self.write_waits += 1
                self.write_wait_ns += wait
            else:
                self.read_waits += 1
                self.read_wait_ns += wait
        if mode == "erew":
            state.busy_until = end
            if write:
                self._note_writer(state, start, end)
        elif write:
            state.writer_free_at = end
            self._note_writer(state, start, end)
            if self.mv is not None:
                self.mv.writer_commit(start)
        else:
            state.reader_ends = sorted(state.reader_ends + [end])
            if self.mv is not None:
                self.mv.read(now, end, state.writer_free_at > start)
        if group is not None:
            state.groups.add(group)
        return wait


_TABLE_SHAPES = [
    dict(mode="erew"),
    dict(mode="erew", max_wait_ns=30.0),
    dict(mode="crcw"),
    dict(mode="crew"),
    dict(mode="crew", multiversion=True),
    dict(mode="crew", max_wait_ns=25.0),
    dict(mode="dcrew", d=1),
    dict(mode="dcrew", d=3),
    dict(mode="dcrew", d=2, multiversion=True),
    dict(mode="dcrew", d=2, max_wait_ns=15.0),
]


class TestTableMatchesReference:
    """Every discipline's gate returns the waits and keeps the counters
    and audits of the single-path reference, call for call, on random
    contended admission sequences."""

    @pytest.mark.parametrize("shape", _TABLE_SHAPES,
                             ids=lambda s: "-".join(map(str, s.values())))
    @pytest.mark.parametrize("seed", range(6))
    def test_random_admissions(self, shape, seed):
        rng = random.Random(seed)
        table = OwnershipTable(3, **shape)
        ref = _ReferenceTable(3, **shape)
        now = 0.0
        for _ in range(1_500):
            now += rng.expovariate(1 / 20.0)
            call = (rng.randrange(3), rng.random() < 0.3, now,
                    rng.choice((rng.uniform(5.0, 60.0), 400.0)),
                    rng.randrange(4))
            assert table.admit(*call) == ref.admit(*call), call
        assert (table.admissions, table.aborts, table.total_waits,
                table.total_wait_ns) == (
            ref.admissions, ref.aborts, ref.read_waits + ref.write_waits,
            ref.wait_ns)
        for p in range(3):
            assert table.groups_touching(p) == ref.parts[p].groups
            assert (table.max_concurrent_writers(p)
                    == ref.parts[p].max_concurrent_writers)
        if ref.mv is not None:
            assert (table.mv.epoch, table.mv.deferred, table.mv.reclaimed,
                    table.mv.mv_reads, table.mv.stale_reads) == (
                ref.mv.epoch, ref.mv.deferred, ref.mv.reclaimed,
                ref.mv.mv_reads, ref.mv.stale_reads)
        # The sequences contend: gated modes wait, bounded ones abort.
        if shape["mode"] != "crcw":
            assert table.total_waits > 0
        if "max_wait_ns" in shape:
            assert table.aborts > 0
