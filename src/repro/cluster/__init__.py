"""The fabric tier: racks, datacenters and deeper, as one recursive node.

Altocumulus schedules nanosecond-scale RPCs *within* one server; this
package scales the reproduction out through switch models and pluggable
steering (the RackSched/Rain design point).  A :class:`Fabric` is N
members behind one switch and one steering policy; a rack is a fabric of
servers and a datacenter a fabric of racks.  Fabrics quack like a single
:class:`~repro.schedulers.base.RpcSystem`, so the whole existing stack
-- :func:`repro.api.run_workload`, the sweep runner and its cache, the
analysis layer -- drives them unchanged::

    from repro import quick_run

    result = quick_run(system="rack", n_cores=64)   # 4 servers x 16

or, with full control::

    from repro.cluster import FabricConfig, build_fabric

    rack = FabricConfig.rack(n_servers=8, cores_per_server=16,
                             policy="power_of_d", d=2, staleness_ns=5_000.0)
    dc = build_fabric(sim, streams, FabricConfig.datacenter(n_racks=4,
                                                            rack=rack))
"""

from repro.cluster.fabric import Fabric, FabricConfig, build_fabric, tier_names
from repro.cluster.metrics import imbalance_index, per_member_completed
from repro.cluster.policies import (
    POLICY_NAMES,
    ConnectionHashSteering,
    PowerOfDSteering,
    RoundRobinSteering,
    ShortestExpectedWaitSteering,
    SteeringPolicy,
    make_policy,
)
from repro.cluster.switch import SwitchCore

__all__ = [
    "ConnectionHashSteering",
    "Fabric",
    "FabricConfig",
    "POLICY_NAMES",
    "PowerOfDSteering",
    "RoundRobinSteering",
    "ShortestExpectedWaitSteering",
    "SteeringPolicy",
    "SwitchCore",
    "build_fabric",
    "imbalance_index",
    "make_policy",
    "per_member_completed",
    "tier_names",
]
