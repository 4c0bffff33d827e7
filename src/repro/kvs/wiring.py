"""Attach a :class:`~repro.kvs.ownership.KvsSpec` to any built system.

The spec travels through ``run_workload(kvs=...)`` / ``quick_run`` /
``PointSpec``; this module turns it into live objects at run time,
inside the worker process, deterministically from the run's master
seed:

* one :class:`~repro.kvs.store.MicaStore` + preloaded dataset,
  registered into the system's telemetry registry (``kvs.p<i>.*``),
* one :class:`~repro.kvs.ownership.OwnershipTable` for the spec's
  discipline (``kvs.ownership.*`` instruments),
* one :class:`~repro.kvs.handlers.MicaWorkload` whose
  ``request_factory`` feeds the load generator and whose ``execute``
  hook runs ops against the store.

Leaf discovery handles every tier: a bare server gets the hook as its
``execute`` (admission waits and remote-owner penalties charge real
on-core latency when a request starts, on every scheduler); rack and
datacenter fabrics get one hook per leaf server, all sharing the one
store and ownership table so cross-server contention on a hot partition
is observed by everyone.  On multi-leaf fabrics each leaf's manager
groups occupy a distinct global group-id range so the per-partition
invariant audits (EREW: one group ever touches a partition) remain
meaningful across servers.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.core.scheduler import AltocumulusSystem
from repro.kvs.dataset import build_dataset
from repro.kvs.handlers import MicaServiceModel, MicaWorkload
from repro.kvs.ownership import KvsSpec, OwnershipTable
from repro.telemetry import MetricRegistry


def _leaves(system) -> List[Tuple[object, int]]:
    """Flatten a system (a single server, or a fabric of any depth) into
    ``(leaf, n_groups)`` pairs."""
    # Imported here: repro.cluster reaches this module through the
    # faults package, so a module-scope import would cycle.
    from repro.cluster.fabric import Fabric

    servers = system.leaves() if isinstance(system, Fabric) else [system]
    out: List[Tuple[object, int]] = []
    for srv in servers:
        if isinstance(srv, AltocumulusSystem):
            out.append((srv, srv.config.n_groups))
        else:
            out.append((srv, 1))
    return out


def attach_executor(leaf, executor: Callable) -> None:
    """Hook a KVS ``executor`` (:meth:`MicaWorkload.execute`) into one
    server as its ``execute`` hook, which every scheduler charges when a
    request starts."""
    if leaf.execute is not None:
        raise ValueError(
            "system already has an execute hook; cannot wire a KvsSpec "
            "on top of an existing workload"
        )
    leaf.execute = executor


def wire_kvs(system, sim, spec: KvsSpec, seed: int) -> MicaWorkload:
    """Build the spec's store + ownership table + workload and hook them
    into ``system``; returns the workload (its ``request_factory`` goes
    to the load generator)."""
    leaves = _leaves(system)
    single = len(leaves) == 1
    if single:
        # One leaf: partition-per-group owner affinity, exactly the
        # paper's EREW layout (non-grouped schedulers get a 4-partition
        # store behind their single queue, as in fig14's Nebula cell).
        leaf, groups = leaves[0]
        n_partitions = groups if isinstance(leaf, AltocumulusSystem) else 4
        n_groups = n_partitions
    else:
        # Fabric: one shared store over every leaf's groups; the
        # fabric's own steering (not flow affinity) places requests.
        n_partitions = sum(groups for _, groups in leaves)
        n_groups = n_partitions
    registry = getattr(system, "metrics", None)
    if registry is None:
        registry = MetricRegistry()
    dataset = build_dataset(
        n_partitions=n_partitions,
        n_keys=spec.n_keys,
        seed=seed,
        registry=registry,
    )
    table = OwnershipTable(
        n_partitions,
        spec.mode,
        d=spec.d,
        multiversion=spec.multiversion,
        max_wait_ns=spec.max_wait_ns,
        registry=registry,
    )
    model = (
        MicaServiceModel.erpc()
        if spec.service == "erpc"
        else MicaServiceModel.nanorpc()
    )
    mix = spec.mix_params()
    workload = MicaWorkload(
        dataset,
        model,
        n_groups=n_groups,
        get_fraction=mix["get_fraction"],
        scan_fraction=mix["scan_fraction"],
        delete_fraction=mix["delete_fraction"],
        zipf_s=mix["zipf_s"],
        mode=spec.mode,
        seed=seed,
        ownership=table,
        hot_key_fraction=mix["hot_key_fraction"],
        hot_keys=spec.hot_keys,
        affinity=single,
        sim=sim,
    )
    offset = 0
    for leaf, groups in leaves:
        attach_executor(leaf, workload.executor_for(offset))
        offset += groups
    return workload
