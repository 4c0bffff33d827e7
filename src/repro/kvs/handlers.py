"""MICA RPC handlers: operation mix, service-time model and EREW
execution semantics (Sec. IX).

The service-time model follows the two network stacks the paper ports
MICA onto:

* **eRPC** -- full stack lowers RPC latency to ~850 ns [27]; per-op
  costs ride on top.
* **nanoRPC** -- hardware-terminated stack at ~40 ns [23]; GET/SET
  handlers complete in ~50 ns, SCANs in ~50 us (the Fig. 14 mix:
  99.5% GET/SET + 0.5% SCAN).

GETs fetch the value from the MICA log and write it to the response
buffer, so they run slightly longer than SETs (Sec. IX-B).  Hash-bucket
probe depth adds a small per-probe cost, making service times respond
to the actual store state.

EREW penalty: each key partition is owned by one manager group.  A
request that was migrated away from its owner group pays one extra
remote cache access to reach the owner's partition -- the
application-level concurrency overhead the paper measures as a
13.6-15.4% throughput@SLO loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.kvs.dataset import Dataset
from repro.kvs.ownership import OWNERSHIP_MODES, OwnershipTable
from repro.sim.rng import ExactDraws
from repro.workload.connections import ConnectionPool
from repro.workload.request import Request, RequestKind

# Enum members bound once: a class-attribute read of an Enum member
# costs more than the rest of a kind test.
_GET = RequestKind.GET
_SET = RequestKind.SET
_SCAN = RequestKind.SCAN
_DELETE = RequestKind.DELETE
#: The kinds :meth:`MicaWorkload.request_factory` draws, in draw order.
_DRAW_KINDS = (_SCAN, _DELETE, _GET, _SET)


@dataclass(frozen=True)
class MicaServiceModel:
    """On-core handler time for each MICA operation (all ns)."""

    stack_ns: float
    get_extra_ns: float
    set_extra_ns: float
    scan_ns: float
    probe_ns: float = 2.0
    scan_items: int = 64

    @staticmethod
    def erpc() -> "MicaServiceModel":
        """eRPC stack: ~850 ns on-CPU per small RPC."""
        return MicaServiceModel(
            stack_ns=850.0, get_extra_ns=100.0, set_extra_ns=50.0, scan_ns=50_000.0
        )

    @staticmethod
    def nanorpc() -> "MicaServiceModel":
        """nanoRPC stack: ~40 ns stack, ~50 ns GET/SET, ~50 us SCAN."""
        return MicaServiceModel(
            stack_ns=40.0, get_extra_ns=15.0, set_extra_ns=10.0, scan_ns=50_000.0
        )

    def service_ns(self, kind: RequestKind, probe_depth: int) -> float:
        """Handler time for one operation."""
        if kind is _SCAN:
            return self.scan_ns
        # DELETE is a SET without the value write; GET pays the log
        # fetch + response-buffer write.
        extra = self.get_extra_ns if kind is _GET else self.set_extra_ns
        if kind is _DELETE:
            extra = self.set_extra_ns * 0.5
        return self.stack_ns + extra + probe_depth * self.probe_ns

    def mean_service_ns(
        self,
        get_fraction: float,
        scan_fraction: float = 0.0,
        delete_fraction: float = 0.0,
        probe_depth: float = 1.0,
    ) -> float:
        """Analytic mean of the op mix.

        ``delete_fraction`` carves DELETEs out of the non-SCAN mass
        (mirroring :meth:`MicaWorkload.request_factory`'s draw order),
        and ``probe_depth`` is the expected hash-bucket probe depth --
        pass the store's measured mean instead of assuming 1.
        """
        if not 0 <= scan_fraction <= 1 or not 0 <= get_fraction <= 1:
            raise ValueError("fractions must be in [0,1]")
        if not 0 <= delete_fraction <= 1:
            raise ValueError("delete_fraction must be in [0,1]")
        if scan_fraction + delete_fraction > 1:
            raise ValueError("scan + delete fractions exceed 1")
        if probe_depth < 0:
            raise ValueError(f"probe_depth must be >= 0, got {probe_depth}")
        gs = 1.0 - scan_fraction - delete_fraction
        probe = probe_depth * self.probe_ns
        get = self.stack_ns + self.get_extra_ns + probe
        set_ = self.stack_ns + self.set_extra_ns + probe
        delete = self.stack_ns + self.set_extra_ns * 0.5 + probe
        return (
            gs * (get_fraction * get + (1 - get_fraction) * set_)
            + scan_fraction * self.scan_ns
            + delete_fraction * delete
        )


class MicaWorkload:
    """Binds a dataset, an op mix and a service model into the hooks the
    simulation needs: a ``request_factory`` for the load generator and
    an ``execute`` hook that runs the op against the real store.

    Partition-to-group locality: the workload pre-computes, for each
    partition, a connection id whose RSS hash lands on the owner group,
    so un-migrated requests always execute in their EREW owner's group
    (the paper's partition-per-manager mapping).
    """

    #: Per-op concurrency-control cost in the non-EREW modes (version
    #: check / optimistic validation on every access -- the overhead
    #: EREW avoids, Sec. IX-B).
    CREW_CONTROL_NS = 8.0

    def __init__(
        self,
        dataset: Dataset,
        model: MicaServiceModel,
        n_groups: int,
        get_fraction: float = 0.5,
        scan_fraction: float = 0.0,
        delete_fraction: float = 0.0,
        zipf_s: float = 0.0,
        mode: str = "erew",
        seed: int = 11,
        constants: HwConstants = DEFAULT_CONSTANTS,
        ownership: Optional[OwnershipTable] = None,
        hot_key_fraction: float = 0.0,
        hot_keys: int = 16,
        affinity: bool = True,
        sim=None,
    ) -> None:
        if affinity and dataset.store.n_partitions != n_groups:
            raise ValueError(
                f"dataset has {dataset.store.n_partitions} partitions but the "
                f"system has {n_groups} groups; EREW needs one partition per group"
            )
        if not 0 <= get_fraction <= 1 or not 0 <= scan_fraction <= 1:
            raise ValueError("fractions must be in [0,1]")
        if not 0 <= delete_fraction <= 1:
            raise ValueError("delete_fraction must be in [0,1]")
        if scan_fraction + delete_fraction > 1:
            raise ValueError("scan + delete fractions exceed 1")
        if mode not in OWNERSHIP_MODES:
            raise ValueError(
                f"mode must be one of {OWNERSHIP_MODES}, got {mode!r}"
            )
        if not 0 <= hot_key_fraction <= 1:
            raise ValueError("hot_key_fraction must be in [0,1]")
        self.dataset = dataset
        self.model = model
        self.n_groups = int(n_groups)
        self.get_fraction = float(get_fraction)
        self.scan_fraction = float(scan_fraction)
        self.delete_fraction = float(delete_fraction)
        self.mode = mode
        self.zipf_s = float(zipf_s)
        self.constants = constants
        #: Admission gate (repro.kvs.ownership).  CRCW/d-CREW require
        #: one (created here if absent); EREW/CREW gate only when one is
        #: passed explicitly -- the legacy path stays table-free and
        #: bit-identical.
        if ownership is None and mode in ("crcw", "dcrew"):
            ownership = OwnershipTable(dataset.store.n_partitions, mode)
        if ownership is not None and ownership.mode != mode:
            raise ValueError(
                f"ownership table is {ownership.mode!r} but workload mode "
                f"is {mode!r}"
            )
        if (ownership is not None
                and ownership.n_partitions != dataset.store.n_partitions):
            raise ValueError(
                f"ownership table covers {ownership.n_partitions} partitions "
                f"but the store has {dataset.store.n_partitions}"
            )
        self.ownership = ownership
        #: Simulator supplying the clock for admission bookkeeping; set
        #: by wire_kvs (admission waits need simulated time).
        self.sim = sim
        self.affinity = bool(affinity)
        self.hot_key_fraction = float(hot_key_fraction)
        self._hot_keys = (
            self._pick_hot_keys(int(hot_keys)) if hot_key_fraction > 0 else []
        )
        #: Per-request draws: numpy's ``default_rng(seed)`` stream, read
        #: through the pure-Python scalar reader.
        self._rng = ExactDraws(np.random.PCG64(seed))
        self._pool = ConnectionPool(max(1024, 64 * n_groups))
        self._conn_for_group = (
            self._find_representative_connections() if affinity else []
        )
        #: SET payload: key 0's loaded value, read without a counted GET.
        self._sample_value = dataset.values[0]
        self.executed = 0
        self.remote_accesses = 0
        self.aborted = 0
        # Everything below is fixed here so that the per-request hooks
        # do not re-derive it from the mix and the mode on every call.
        scan, delete = self.scan_fraction, self.delete_fraction
        #: Kind draw: ``r`` below each bound picks the kind of that
        #: position in :data:`_DRAW_KINDS`, else SET.
        self._scan_below = scan
        self._delete_below = scan + delete
        self._get_below = scan + delete + (1.0 - scan - delete) * self.get_fraction
        #: Service time per :data:`_DRAW_KINDS` position and probe depth,
        #: filled in as depths appear.
        self._service: List[Dict[int, float]] = [{} for _ in _DRAW_KINDS]
        self._sample_key = dataset.sampler(self._rng, self.zipf_s)
        self._owners = dataset.store.owners
        self._partitions = dataset.store.partitions
        self._admit = ownership.admit if ownership is not None else None
        #: Which group performs a read's / a write's data access: EREW
        #: forwards every access to the owner, CRCW runs each one where
        #: it landed, CREW/d-CREW send writes to the owner and run reads
        #: locally.
        self._at_owner = {
            "erew": (True, True), "crcw": (False, False),
        }.get(mode, (False, True))
        #: Kinds that pay no remote-owner penalty when migrated: CRCW
        #: accesses every partition directly, and CREW/d-CREW reads are
        #: concurrent everywhere.
        self._ownerless = {
            "erew": (), "crcw": tuple(RequestKind),
        }.get(mode, (_GET, _SCAN))

    # ------------------------------------------------------------------
    #: Connections per group: enough that a baseline with per-core
    #: queues still sees a realistic many-flow mix.
    CONNS_PER_GROUP = 32

    #: Partition that owns the hot-key set (fixed so the hot-key mix is
    #: a *single-partition* hot spot by construction).
    HOT_PARTITION = 0

    def _pick_hot_keys(self, n: int) -> list:
        """The first ``n`` dataset keys owned by :data:`HOT_PARTITION`."""
        if n <= 0:
            raise ValueError(f"need at least one hot key, got {n}")
        store = self.dataset.store
        hot = [k for k in self.dataset.keys
               if store.owner_of(k) == self.HOT_PARTITION][:n]
        if not hot:
            raise ValueError(
                f"dataset has no keys owned by partition {self.HOT_PARTITION}"
            )
        return hot

    def _find_representative_connections(self) -> list:
        """For each group, a pool of connection ids that RSS-hash onto it
        (under the group-count modulus this workload targets)."""
        found: list = [[] for _ in range(self.n_groups)]
        remaining = self.n_groups
        conn = 0
        while remaining and conn < 4_000_000:
            g = self._pool.hash_to_queue(conn, self.n_groups)
            bucket = found[g]
            if len(bucket) < self.CONNS_PER_GROUP:
                bucket.append(conn)
                if len(bucket) == self.CONNS_PER_GROUP:
                    remaining -= 1
            conn += 1
        if any(not bucket for bucket in found):
            raise RuntimeError("could not find connections covering all groups")
        return found

    # ------------------------------------------------------------------
    # Load-generator hook
    # ------------------------------------------------------------------
    def request_factory(self, request: Request) -> None:
        """Assign op kind, key, owner-aligned connection and service time."""
        rng = self._rng
        r = rng.random()
        if r < self._scan_below:
            drawn = 0
        elif r < self._delete_below:
            drawn = 1
        elif r < self._get_below:
            drawn = 2
        else:
            drawn = 3
        kind = _DRAW_KINDS[drawn]
        if (self.hot_key_fraction > 0.0
                and rng.random() < self.hot_key_fraction):
            # Hot-key mix: a concentrated slice of traffic hammers a
            # handful of keys all owned by one partition.
            hot = self._hot_keys
            key = hot[rng.integers(0, len(hot))]
        else:
            key = self._sample_key()
        owner = self._owners[key]
        request.kind = kind
        request.key = key
        if self.affinity:
            # One partition per group: the owner is its group.
            pool = self._conn_for_group[owner]
            request.connection = pool[rng.integers(0, len(pool))]
        else:
            # Multi-leaf fabrics: no owner-affine flow placement; the
            # fabric's own steering decides where the request lands.
            request.connection = rng.integers(0, self._pool.n_connections)
        probe = self._partitions[owner].index.bucket_load(key)
        by_depth = self._service[drawn]
        service = by_depth.get(probe)
        if service is None:
            service = self.model.service_ns(kind, probe)
            if self.mode != "erew":
                # Non-exclusive modes pay concurrency control (version
                # check / validation) on every access.
                service += self.CREW_CONTROL_NS
            by_depth[probe] = service
        request.service_time = service
        request.remaining = service

    # ------------------------------------------------------------------
    # Execution hook (RpcSystem.execute: charged when a request starts)
    # ------------------------------------------------------------------
    def executor_for(self, group_offset: int) -> Callable[[Request], float]:
        """An ``execute`` hook whose leaf occupies the global group-id
        range starting at ``group_offset`` (multi-leaf fabrics share one
        workload; each leaf's local group ids are disambiguated by its
        offset for the ownership audits)."""
        if not group_offset:
            return self.execute
        return partial(self.execute, group_offset=int(group_offset))

    def execute(self, request: Request, group_offset: int = 0) -> float:
        """Run the op against the store; return extra on-core latency
        (admission wait under the ownership discipline, plus the EREW
        remote-owner penalty for migrated requests)."""
        key = request.key
        if key is None:
            return 0.0
        if request.gang_shadow:
            # Gang shadows are bookkeeping clones of their primary; the
            # primary alone touches the store.
            return 0.0
        kind = request.kind
        try:
            owner = self._owners[key]
        except (KeyError, TypeError):  # never set, or not bytes
            owner = self.dataset.store.owner_of(key)
        admission_wait = 0.0
        admit = self._admit
        if admit is not None:
            write = kind is _SET or kind is _DELETE
            if self._at_owner[write]:
                touch = owner
            else:
                group = request.group_id
                touch = group_offset + (group if group is not None else 0)
            sim = self.sim
            admission_wait = admit(
                owner, write, sim.now if sim is not None else 0.0,
                request.service_time, touch,
            )
            if admission_wait is None:
                self.aborted += 1
                request.app_result = None
                return 0.0
        self.executed += 1
        # Straight to the owner's partition: the store's routing would
        # resolve the owner again.
        partition = self._partitions[owner]
        if kind is _GET:
            request.app_result = partition.get(key)
        elif kind is _SET:
            partition.set(key, self._sample_value)
        elif kind is _SCAN:
            request.app_result = len(partition.scan(key, self.model.scan_items))
        elif kind is _DELETE:
            request.app_result = partition.delete(key)
        if request.migrations > 0 and kind not in self._ownerless:
            # Migrated away from the EREW owner: one remote access to the
            # owner's partition.
            self.remote_accesses += 1
            return admission_wait + self.constants.coherence_msg_ns
        return admission_wait
