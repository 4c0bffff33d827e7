"""Sharded parallel-in-time execution of fabrics of fabrics.

A datacenter is an ordinary :class:`~repro.cluster.fabric.Fabric` (see
:meth:`~repro.cluster.fabric.FabricConfig.datacenter`); this package
runs one partitioned at its top switch: per-member subtrees execute in
shards synchronized by conservative lookahead windows, bit-identical to
the serial engine (``quick_run(system="datacenter", shards=N)``,
``--shards N``).
"""

from repro.datacenter.sharded import (
    MirrorRack,
    ShardedDatacenter,
    build_sharded_topology,
)

__all__ = [
    "MirrorRack",
    "ShardedDatacenter",
    "build_sharded_topology",
]
