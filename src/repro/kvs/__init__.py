"""A MICA-like in-memory key-value store (Sec. IX).

MICA [Lim et al., NSDI'14] is the end-to-end application the paper (and
Nebula / nanoPU / HERD before it) evaluates.  This package implements a
functional Python equivalent:

* :mod:`repro.kvs.log` -- the DRAM-resident circular log holding values.
* :mod:`repro.kvs.hashtable` -- the bucketed hash index over the log.
* :mod:`repro.kvs.store` -- EREW-partitioned store (one partition per
  owner, no concurrency control -- MICA's highest-performance mode).
* :mod:`repro.kvs.dataset` -- the paper's dataset shape: 1.6M pairs of
  16 B keys / 512 B values (~819 MB per manager partition; scaled down
  by default for test-speed).
* :mod:`repro.kvs.dedup` -- at-most-once duplicate detection for
  retried RPCs (the fault-injection client's server-side window).
* :mod:`repro.kvs.handlers` -- GET/SET/SCAN RPC handlers with the
  service-time model for the eRPC (~850 ns) and nanoRPC (~50 ns)
  stacks, plus the EREW remote-owner penalty migrated requests pay.
* :mod:`repro.kvs.ownership` -- pluggable per-key concurrency control
  (EREW / CREW / CRCW / d-CREW admission gating) with RLU-style
  multiversion reads, and the picklable :class:`KvsSpec` that wires a
  KVS-backed workload through quick_run/run_workload/PointSpec.
* :mod:`repro.kvs.wiring` -- attaches a KvsSpec's store + workload to
  any built system (single server, rack, datacenter).
"""

from repro.kvs.log import CircularLog, LogRecord
from repro.kvs.hashtable import HashIndex
from repro.kvs.store import MicaPartition, MicaStore
from repro.kvs.dataset import Dataset, build_dataset
from repro.kvs.dedup import DuplicateDetector
from repro.kvs.handlers import MicaServiceModel, MicaWorkload
from repro.kvs.ownership import (
    MIX_PRESETS,
    OWNERSHIP_MODES,
    KvsSpec,
    MultiversionAccessor,
    OwnershipTable,
)
from repro.kvs.wiring import attach_executor, wire_kvs

__all__ = [
    "CircularLog",
    "LogRecord",
    "HashIndex",
    "MicaPartition",
    "MicaStore",
    "Dataset",
    "build_dataset",
    "DuplicateDetector",
    "MicaServiceModel",
    "MicaWorkload",
    "OWNERSHIP_MODES",
    "MIX_PRESETS",
    "KvsSpec",
    "MultiversionAccessor",
    "OwnershipTable",
    "attach_executor",
    "wire_kvs",
]
