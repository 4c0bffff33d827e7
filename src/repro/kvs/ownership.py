"""Per-key concurrency control: the ownership/dispatch layer of the
data tier (the "data-layer scenario diversity" axis of ROADMAP.md).

The paper's Sec. IX measures EREW's 13.6-15.4% throughput@SLO cost
against a flat CREW constant only.  Real stores pick a *concurrency
control* discipline per partition, and the discipline decides who may
touch a key when -- which is exactly what interacts with Altocumulus
migration: a migrated request executes in a foreign group, and whether
it then waits at the key's owner, reads a stable old version, or
proceeds unchecked is the ownership policy's call.

Four disciplines, in decreasing strictness:

* **EREW** (exclusive read, exclusive write): one holder per partition
  at a time.  MICA's highest-performance mode *when traffic is
  partition-affine* -- but a hot partition serializes completely.
* **d-CREW**: reads share a partition up to a concurrency bound ``d``;
  writes are exclusive (so concurrent writers <= 1 <= d always).
  ``d=1`` degenerates to EREW, ``d -> inf`` to CREW -- admission waits
  interpolate monotonically between the two (pinned by the
  ``fig_contention`` gate test).
* **CREW** (concurrent read, exclusive write): reads share without
  bound; a write drains readers and blocks new ones.
* **CRCW**: no admission gating at all (every access pays a version/
  validation cost instead; zero admission waits by construction).

**Multiversion reads** (RLU-style, after ``MultiversionMICAIndexAccessor``
in queue_flex): with ``multiversion=True`` a CREW/d-CREW *read* never
waits for the writer holding the key -- it reads the last committed
version while the writer prepares the next one.  Writers still
serialize with each other, and superseded versions are reclaimed
*deferred*: only once every reader that could still observe them (every
reader of an older epoch) has drained.  :class:`MultiversionAccessor`
is the epoch tracker plus the deferred-reclamation queue.

Everything is simulated-time bookkeeping: ``OwnershipTable.admit`` is
called when a handler is about to run, returns how long admission
blocks the core (charged as startup latency), and records the hold so
later admissions observe it.  All accounting surfaces through the
telemetry spine under ``kvs.ownership.*``.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set

from repro.telemetry import MetricRegistry

#: The recognised ownership disciplines.
OWNERSHIP_MODES = ("erew", "crew", "crcw", "dcrew")

#: Mix presets for :class:`KvsSpec` (get / scan / delete fractions,
#: Zipf skew, and the hot-key concentration).  ``hot_key`` drives a
#: high-Zipf single-partition hot spot: a configurable fraction of all
#: traffic lands on a handful of keys owned by one partition.
MIX_PRESETS: Dict[str, Dict[str, float]] = {
    "default": dict(get_fraction=0.5, scan_fraction=0.0,
                    delete_fraction=0.0, zipf_s=0.0, hot_key_fraction=0.0),
    "write_heavy": dict(get_fraction=0.05, scan_fraction=0.0,
                        delete_fraction=0.05, zipf_s=0.9,
                        hot_key_fraction=0.0),
    "scan_heavy": dict(get_fraction=0.5, scan_fraction=0.05,
                       delete_fraction=0.0, zipf_s=0.9,
                       hot_key_fraction=0.0),
    "hot_key": dict(get_fraction=0.9, scan_fraction=0.0,
                    delete_fraction=0.0, zipf_s=1.1,
                    hot_key_fraction=0.5),
}


@dataclass(frozen=True)
class KvsSpec:
    """Picklable description of a KVS-backed run: which MICA workload to
    wire into the system and under which ownership discipline.

    This is the data-layer analogue of :class:`~repro.faults.FaultPlan`
    / :class:`~repro.workload.jobs.JobShape`: a frozen dataclass of
    primitives, so it pickles across the sweep runner's process boundary
    and content-hashes into the result-cache key
    (``SPEC_SCHEMA_VERSION`` 7).

    ``mix`` selects a preset from :data:`MIX_PRESETS`; any explicitly
    set fraction/skew field overrides the preset's value.
    """

    mode: str = "erew"
    #: d-CREW concurrency bound (holders per partition); ignored by the
    #: other modes.
    d: int = 2
    #: RLU-style multiversion reads (CREW / d-CREW only).
    multiversion: bool = False
    mix: str = "default"
    get_fraction: Optional[float] = None
    scan_fraction: Optional[float] = None
    delete_fraction: Optional[float] = None
    zipf_s: Optional[float] = None
    hot_key_fraction: Optional[float] = None
    #: Keys in the hot set (all owned by one partition).
    hot_keys: int = 16
    n_keys: int = 4_000
    #: Service-time model: ``"nanorpc"`` or ``"erpc"``.
    service: str = "nanorpc"
    #: Admission waits beyond this bound abort the operation instead of
    #: blocking the core (``None`` = wait forever, never abort).
    max_wait_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in OWNERSHIP_MODES:
            raise ValueError(
                f"mode must be one of {OWNERSHIP_MODES}, got {self.mode!r}"
            )
        if self.mix not in MIX_PRESETS:
            raise ValueError(
                f"mix must be one of {tuple(MIX_PRESETS)}, got {self.mix!r}"
            )
        if self.d < 1:
            raise ValueError(f"d-CREW bound must be >= 1, got {self.d}")
        if self.multiversion and self.mode not in ("crew", "dcrew"):
            raise ValueError(
                "multiversion reads require mode 'crew' or 'dcrew', "
                f"got {self.mode!r}"
            )
        if self.service not in ("nanorpc", "erpc"):
            raise ValueError(
                f"service must be 'nanorpc' or 'erpc', got {self.service!r}"
            )
        if self.n_keys <= 0:
            raise ValueError(f"need at least one key, got {self.n_keys}")
        if self.hot_keys <= 0:
            raise ValueError(f"need at least one hot key, got {self.hot_keys}")
        if self.max_wait_ns is not None and self.max_wait_ns < 0:
            raise ValueError(
                f"max_wait_ns must be >= 0, got {self.max_wait_ns}"
            )
        for name in ("get_fraction", "scan_fraction", "delete_fraction",
                     "hot_key_fraction"):
            value = getattr(self, name)
            if value is not None and not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0,1], got {value}")
        if self.zipf_s is not None and self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")

    # ------------------------------------------------------------------
    def mix_params(self) -> Dict[str, float]:
        """The effective mix: preset values with explicit overrides."""
        params = dict(MIX_PRESETS[self.mix])
        for name in params:
            value = getattr(self, name)
            if value is not None:
                params[name] = float(value)
        return params


class MultiversionAccessor:
    """RLU-style epoch tracker with deferred version reclamation.

    Readers register in the current *epoch*; a committing writer
    advances the epoch and enqueues the superseded version for
    reclamation.  A deferred version may only be reclaimed once every
    reader registered in its commit epoch or an older one has drained --
    until then a stale reader could still dereference it.

    Only a version's own commit epoch can hold it back.  Versions are
    reclaimed in commit order, and the sweep that reclaims one has found
    every reader of its epoch and of each older epoch drained; from then
    on those readers count as gone for every later version, even for a
    sweep whose ``now`` is earlier (a commit sweeps at its writer's
    start, which can lie after the next read's admission).  An epoch's
    readers are fixed once a commit ends it.  So each deferred record is
    one number, the latest end of a read registered in its commit
    epoch, and a sweep pops records from the front while that end has
    passed: O(1) amortised per call.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        registry = registry if registry is not None else MetricRegistry()
        self.epoch = 0
        #: Latest end of a read registered in the current epoch.
        self._epoch_end = -math.inf
        #: Deferred versions awaiting reclamation, oldest first, each as
        #: the latest read end of its commit epoch (``-inf``: unread).
        self._deferred: Deque[float] = deque()
        self._m_epoch = registry.gauge(
            "kvs.ownership.epoch", fn=lambda: self.epoch
        )
        self._m_mv_reads = registry.counter("kvs.ownership.mv_reads")
        self._m_stale_reads = registry.counter("kvs.ownership.stale_reads")
        self._m_deferred = registry.gauge(
            "kvs.ownership.deferred", fn=lambda: len(self._deferred)
        )
        self._m_reclaimed = registry.counter("kvs.ownership.reclaimed")

    # ------------------------------------------------------------------
    def read(self, now: float, end_ns: float, writer_active: bool) -> None:
        """Register one multiversion read over ``[now, end_ns]``.

        ``writer_active`` marks a read that proceeded while a writer
        held the key -- the read that plain CREW would have blocked; it
        observes the previous (stale-but-consistent) version.
        """
        self._m_mv_reads.value += 1
        if writer_active:
            self._m_stale_reads.value += 1
        if end_ns > self._epoch_end:
            self._epoch_end = end_ns
        deferred = self._deferred
        if deferred and deferred[0] <= now:
            self.sweep(now)

    def writer_commit(self, now: float) -> None:
        """A writer installed a new version: advance the epoch and defer
        the superseded version's reclamation."""
        self._deferred.append(self._epoch_end)
        self._epoch_end = -math.inf
        self.epoch += 1
        self.sweep(now)

    def sweep(self, now: float) -> int:
        """Reclaim every deferred version whose commit-epoch readers have
        all drained by ``now``; returns how many were reclaimed."""
        deferred = self._deferred
        reclaimed = 0
        while deferred and deferred[0] <= now:
            deferred.popleft()
            reclaimed += 1
        if reclaimed:
            self._m_reclaimed.value += reclaimed
        return reclaimed

    @property
    def mv_reads(self) -> int:
        return self._m_mv_reads.value

    @property
    def stale_reads(self) -> int:
        return self._m_stale_reads.value

    @property
    def reclaimed(self) -> int:
        return self._m_reclaimed.value

    @property
    def deferred(self) -> int:
        return len(self._deferred)


class _PartitionState:
    """Reader/writer hold bookkeeping for one partition (all times ns).

    Holds are intervals derived from the simulated clock at admission:
    the admitted operation occupies the partition over
    ``[now + wait, now + wait + hold_ns]``.  A discipline keeps only
    what its waits read: EREW one any-op ``busy_until``; CREW/d-CREW
    the writer's ``writer_free_at`` (writers are exclusive in every
    gated mode) and, when writers drain readers, the latest reader end;
    d-CREW also every reader end, sorted and pruned against the clock
    when read.
    """

    __slots__ = ("reader_ends", "readers_free_at", "writer_free_at",
                 "busy_until", "groups", "max_concurrent_writers",
                 "writers_active")

    def __init__(self) -> None:
        #: d-CREW: admitted readers' end times, sorted.
        self.reader_ends: List[float] = []
        #: CREW/d-CREW without multiversion reads: the latest end of an
        #: admitted reader, which a writer drains.
        self.readers_free_at = 0.0
        self.writer_free_at = 0.0
        #: EREW: single any-op exclusive hold.
        self.busy_until = 0.0
        #: Groups whose handlers performed this partition's data access.
        self.groups: Set[int] = set()
        #: High-water mark of overlapping writers ever admitted (for the
        #: d-CREW invariant: <= 1 in every gated mode, unbounded only
        #: in CRCW where nothing waits).
        self.max_concurrent_writers = 0
        self.writers_active: List[float] = []

    def note_writer(self, start_ns: float, end_ns: float) -> None:
        # Overlap is judged against the new hold's *start*, not the
        # admission clock: a writer admitted behind an active one starts
        # exactly when its predecessor ends, and back-to-back holds are
        # serial, not concurrent.
        active = self.writers_active
        if active and active[0] <= start_ns:
            del active[:bisect_right(active, start_ns)]
        insort(active, end_ns)
        if len(active) > self.max_concurrent_writers:
            self.max_concurrent_writers = len(active)


class OwnershipTable:
    """Admission control over a store's partitions for one discipline.

    One table serves a whole system (or fabric): handlers call
    ``admit(partition, write, now, hold_ns, group=None)`` right before
    executing an operation and charge the returned wait as on-core
    startup latency, and the table's recorded holds make later
    admissions observe the contention.  ``hold_ns`` is how long the
    operation will occupy the partition once admitted (its handler
    service time); ``group`` is the manager group whose handler performs
    the data access, recorded for the per-key invariant audits.
    ``admit`` returns the wait in ns, or ``None`` when the wait exceeded
    the ``max_wait_ns`` bound and the operation was aborted instead
    (counted, no hold recorded).  EREW admission happens *at the owner*
    (a remote access is forwarded there), so the table also witnesses
    the EREW invariant: each partition is only ever touched by its
    owner group.

    ``admit`` is bound at construction to the discipline's own gate
    (:meth:`_admit_erew`, :meth:`_admit_crcw` or :meth:`_admit_crew`), so
    no call re-tests the mode.
    """

    def __init__(
        self,
        n_partitions: int,
        mode: str,
        d: int = 2,
        multiversion: bool = False,
        max_wait_ns: Optional[float] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if mode not in OWNERSHIP_MODES:
            raise ValueError(
                f"mode must be one of {OWNERSHIP_MODES}, got {mode!r}"
            )
        if n_partitions <= 0:
            raise ValueError(
                f"need at least one partition, got {n_partitions}"
            )
        if d < 1:
            raise ValueError(f"d-CREW bound must be >= 1, got {d}")
        if multiversion and mode not in ("crew", "dcrew"):
            raise ValueError(
                "multiversion reads require mode 'crew' or 'dcrew', "
                f"got {mode!r}"
            )
        if max_wait_ns is not None and max_wait_ns < 0:
            raise ValueError(f"max_wait_ns must be >= 0, got {max_wait_ns}")
        self.mode = mode
        self.d = int(d)
        self.max_wait_ns = max_wait_ns
        #: d-CREW's reader bound; ``None`` leaves CREW reads unbounded.
        self._read_slots = self.d if mode == "dcrew" else None
        self.registry = registry if registry is not None else MetricRegistry()
        self._parts = [_PartitionState() for _ in range(n_partitions)]
        reg = self.registry
        self._m_admissions = reg.counter("kvs.ownership.admissions")
        self._m_read_waits = reg.counter("kvs.ownership.read_waits")
        self._m_write_waits = reg.counter("kvs.ownership.write_waits")
        self._m_wait_ns = reg.counter("kvs.ownership.wait_ns")
        self._m_read_wait_ns = reg.counter("kvs.ownership.read_wait_ns")
        self._m_write_wait_ns = reg.counter("kvs.ownership.write_wait_ns")
        self._m_aborts = reg.counter("kvs.ownership.aborts")
        self.mv: Optional[MultiversionAccessor] = (
            MultiversionAccessor(reg) if multiversion else None
        )
        if mode == "erew":
            self.admit = self._admit_erew
        elif mode == "crcw":
            self.admit = self._admit_crcw
        else:
            self.admit = self._admit_crew

    # ------------------------------------------------------------------
    @property
    def n_partitions(self) -> int:
        return len(self._parts)

    def _waited(self, wait: float, write: bool) -> bool:
        """Account a positive admission wait; False when it exceeds the
        bound, which aborts the operation instead."""
        if self.max_wait_ns is not None and wait > self.max_wait_ns:
            self._m_aborts.value += 1
            return False
        self._m_wait_ns.value += wait
        if write:
            self._m_write_waits.value += 1
            self._m_write_wait_ns.value += wait
        else:
            self._m_read_waits.value += 1
            self._m_read_wait_ns.value += wait
        return True

    def _admit_erew(self, partition: int, write: bool, now: float,
                    hold_ns: float, group: Optional[int] = None
                    ) -> Optional[float]:
        """EREW: any access waits for the partition's previous hold."""
        state = self._parts[partition]
        wait = state.busy_until - now
        if wait > 0.0:
            if not self._waited(wait, write):
                return None
        else:
            wait = 0.0
        self._m_admissions.value += 1
        start = now + wait
        end = start + hold_ns
        state.busy_until = end
        if write:
            state.note_writer(start, end)
        if group is not None:
            state.groups.add(group)
        return wait

    def _admit_crcw(self, partition: int, write: bool, now: float,
                    hold_ns: float, group: Optional[int] = None) -> float:
        """CRCW: nothing waits; writers are recorded for the audit."""
        state = self._parts[partition]
        self._m_admissions.value += 1
        if write:
            start = now + 0.0
            state.note_writer(start, start + hold_ns)
        if group is not None:
            state.groups.add(group)
        return 0.0

    def _admit_crew(self, partition: int, write: bool, now: float,
                    hold_ns: float, group: Optional[int] = None
                    ) -> Optional[float]:
        """CREW and d-CREW, with or without multiversion reads."""
        state = self._parts[partition]
        mv = self.mv
        slots = self._read_slots
        if write:
            # Serialize with the previous writer...
            wait = state.writer_free_at - now
            if mv is None:
                # ... and drain every admitted reader (a multiversion
                # writer installs a fresh version instead of waiting).
                drain = state.readers_free_at - now
                if drain > wait:
                    wait = drain
        else:
            wait = 0.0 if mv is not None else state.writer_free_at - now
            if slots is not None:
                # Bounded read concurrency: wait for a holder slot (the
                # moment the (len-d+1)-oldest reader drains).
                ends = state.reader_ends
                if ends and ends[0] <= now:
                    del ends[:bisect_right(ends, now)]
                if len(ends) >= slots:
                    slot_free = ends[len(ends) - slots] - now
                    if slot_free > wait:
                        wait = slot_free
        if wait > 0.0:
            if not self._waited(wait, write):
                return None
        else:
            wait = 0.0
        self._m_admissions.value += 1
        start = now + wait
        end = start + hold_ns
        if write:
            state.writer_free_at = end
            state.note_writer(start, end)
            if mv is not None:
                mv.writer_commit(start)
        else:
            if slots is not None:
                insort(state.reader_ends, end)
            if mv is not None:
                mv.read(now, end, state.writer_free_at > start)
            elif end > state.readers_free_at:
                state.readers_free_at = end
        if group is not None:
            state.groups.add(group)
        return wait

    # ------------------------------------------------------------------
    # Invariant audits (the hypothesis conservation battery reads these)
    # ------------------------------------------------------------------
    def groups_touching(self, partition: int) -> Set[int]:
        """The set of groups whose handlers accessed ``partition``."""
        return set(self._parts[partition].groups)

    def max_concurrent_writers(self, partition: int) -> int:
        """High-water mark of overlapping writer holds on ``partition``."""
        return self._parts[partition].max_concurrent_writers

    @property
    def admissions(self) -> int:
        return self._m_admissions.value

    @property
    def total_waits(self) -> int:
        return self._m_read_waits.value + self._m_write_waits.value

    @property
    def total_wait_ns(self) -> float:
        return self._m_wait_ns.value

    @property
    def aborts(self) -> int:
        return self._m_aborts.value

    def mean_wait_ns(self) -> float:
        """Mean admission wait over every admitted operation."""
        if not self._m_admissions.value:
            return 0.0
        return self._m_wait_ns.value / self._m_admissions.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OwnershipTable {self.mode} parts={len(self._parts)} "
            f"admissions={self.admissions} waits={self.total_waits}>"
        )


__all__ = [
    "OWNERSHIP_MODES",
    "MIX_PRESETS",
    "KvsSpec",
    "MultiversionAccessor",
    "OwnershipTable",
]
