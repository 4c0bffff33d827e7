"""Canonical run fingerprints for the engine-determinism golden test.

The fast-path work on the simulation kernel (event free-list, threshold
caching, slotted records) must not change *any* observable simulation
output.  To prove it, ``tests/data/determinism_golden.json`` stores a
fingerprint of one fixed-seed run per scheduler system, captured from
the pre-optimization engine; ``tests/test_determinism.py`` recomputes
the same fingerprints against the current engine and requires exact
equality -- bit-identical per-request timestamps and percentiles.

Floats are serialized with ``repr``: CPython's shortest round-tripping
representation, so two runs fingerprint equal iff every value is
bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, Optional

from repro.api import quick_run
from repro.control import ControlConfig
from repro.faults import FaultEvent, FaultPlan, RetryPolicy

#: The systems the golden file covers (d-FCFS, JBSQ, RSS++,
#: work stealing, Altocumulus) plus the rack-scale cluster tier and the
#: datacenter fabric tier.  The five single-server entries were captured
#: from the pre-optimization engine; the "rack" entry was captured when
#: the cluster tier was introduced and pins switch timing, steering
#: decisions, and per-server stream spawning ever since; the
#: "datacenter" entry was captured when the fabric tier was introduced
#: and additionally pins spine timing, inter-rack steering, and
#: per-rack stream spawning.
GOLDEN_SYSTEMS = (
    "rss", "rpcvalet", "rsspp", "zygos", "altocumulus", "rack", "datacenter",
)

#: Faulted golden entries: the same fixed workload driven through the
#: fault-injection subsystem (retrying client + injector).  These pin
#: the *faulted* event order -- retry timing, fault-stream coin flips,
#: failover redispatch -- so refactors of repro.faults can't silently
#: change behavior.  Captured when the subsystem was introduced.
FAULTED_GOLDEN_SYSTEMS = (
    "altocumulus+faults", "rack+faults", "datacenter+faults",
)

#: Controlled golden entries: the same fixed workloads with an adaptive
#: control plane attached (:mod:`repro.control`).  A ``"+ctl:<name>"``
#: suffix runs the entry with ``ControlConfig(controller=name)``.  The
#: ``static`` entry must stay bit-identical to the corresponding plain
#: entry forever -- attaching a do-nothing controller is not allowed to
#: perturb the event order -- while the ``hysteresis``/``bandit``
#: entries pin the controlled event order (epoch timers, actuation
#: timing, the dedicated ``"control"`` RNG stream) against refactors.
CONTROLLED_GOLDEN_SYSTEMS = (
    "rack+ctl:static",
    "rack+ctl:hysteresis",
    "datacenter+ctl:bandit",
    "rack+faults+ctl:hysteresis",
)

#: Job-structured golden entries: the same fixed workload grouped into
#: jobs (:mod:`repro.workload.jobs`).  A ``"+fanout"`` suffix scatters
#: mixed-width jobs (shared sibling flows) and a ``"+gang"`` suffix
#: admits mixed-demand multi-core gangs; both pin the job-path event
#: order -- the dedicated ``"jobs"`` stream, the scatter emission order,
#: gang admission and shadow dispatch -- against refactors.  Captured
#: when the job model was introduced.
JOB_GOLDEN_SYSTEMS = (
    "rack+fanout", "datacenter+fanout", "altocumulus+gang",
)

#: Data-layer golden entries: the same fixed workload driven through the
#: MICA KVS with an ownership discipline attached
#: (:mod:`repro.kvs.ownership`).  A ``"+crew-mv"`` suffix wires a CREW
#: table with multiversion reads (epoch tracking, stale reads, deferred
#: reclamation); ``"+dcrew-hotkey"`` wires a bounded d-CREW table (d=2)
#: on the hot-key mix across the rack tier.  Both pin the data-path
#: event order -- the KVS op stream, admission-wait startup charging,
#: epoch commits -- against refactors.  Captured when the ownership
#: layer was introduced.
KVS_GOLDEN_SYSTEMS = (
    "altocumulus+crew-mv", "rack+dcrew-hotkey",
)

#: Every golden entry (plain, faulted, controlled, jobs, then the KVS
#: data layer).
ALL_GOLDEN_SYSTEMS = (
    GOLDEN_SYSTEMS + FAULTED_GOLDEN_SYSTEMS + CONTROLLED_GOLDEN_SYSTEMS
    + JOB_GOLDEN_SYSTEMS + KVS_GOLDEN_SYSTEMS
)

_GOLDEN_RETRY = RetryPolicy(
    timeout_ns=50_000.0,
    max_retries=3,
    backoff_base_ns=20_000.0,
    backoff_cap_ns=100_000.0,
    jitter=0.5,
)

#: One plan per faulted entry, exercising every single-server fault kind
#: (altocumulus) and the rack-only kinds (rack).
GOLDEN_FAULT_PLANS: Dict[str, FaultPlan] = {
    "altocumulus+faults": FaultPlan(
        events=(
            FaultEvent(time_ns=20_000.0, kind="nic_drop", target=0,
                       magnitude=0.2, duration_ns=30_000.0),
            FaultEvent(time_ns=30_000.0, kind="core_stall", target=0,
                       subtarget=3, magnitude=25.0, duration_ns=40_000.0),
            FaultEvent(time_ns=60_000.0, kind="manager_fail", target=0,
                       subtarget=1),
        ),
        retry=_GOLDEN_RETRY,
    ),
    "rack+faults": FaultPlan(
        events=(
            FaultEvent(time_ns=15_000.0, kind="server_crash", target=1,
                       duration_ns=40_000.0),
            FaultEvent(time_ns=30_000.0, kind="tor_degrade", target=2,
                       magnitude=0.25, duration_ns=30_000.0),
        ),
        retry=_GOLDEN_RETRY,
    ),
    # Datacenter-applicable kinds only (targets are racks at this tier):
    # a rack-granular crash, a NIC drop burst, and both spine port fault
    # flavors, overlapping so admission, steering and retry interact.
    "datacenter+faults": FaultPlan(
        events=(
            FaultEvent(time_ns=15_000.0, kind="server_crash", target=1,
                       duration_ns=40_000.0),
            FaultEvent(time_ns=25_000.0, kind="nic_drop", target=0,
                       magnitude=0.3, duration_ns=40_000.0),
            FaultEvent(time_ns=35_000.0, kind="spine_degrade", target=1,
                       magnitude=0.25, duration_ns=30_000.0),
            FaultEvent(time_ns=50_000.0, kind="spine_partition", target=0,
                       duration_ns=25_000.0),
        ),
        retry=_GOLDEN_RETRY,
    ),
}

#: ``"<entry>+ctl:<name>"`` suffix: run the entry with an attached
#: ``ControlConfig(controller=name)`` at the library-default epoch.
_CTL_RE = re.compile(r"\+ctl:([a-z_]+)$")


def _golden_job_shapes():
    """Fixed job shapes for the ``+fanout`` / ``+gang`` suffixes.

    Built lazily (the suffix strings stay importable even if the jobs
    module is being refactored) but deterministic: the shapes are
    constants of the golden contract.
    """
    from repro.workload.jobs import ChoiceDegree, JobShape

    return {
        "fanout": JobShape(fanout=ChoiceDegree((1, 2, 4), (0.5, 0.3, 0.2))),
        "gang": JobShape(core_demand=ChoiceDegree((1, 2), (0.75, 0.25))),
    }


def _golden_kvs_specs():
    """Fixed data-layer specs for the ``+crew-mv`` / ``+dcrew-hotkey``
    suffixes.  Lazy for the same reason as the job shapes; the specs are
    constants of the golden contract."""
    from repro.kvs.ownership import KvsSpec

    return {
        "crew-mv": KvsSpec(mode="crew", multiversion=True),
        "dcrew-hotkey": KvsSpec(mode="dcrew", d=2, mix="hot_key"),
    }

#: Fixed workload: 32 cores at ~80% load with exponential service, small
#: enough to run all five systems in a few seconds, loaded enough that
#: Altocumulus migrations and work stealing actually trigger.
GOLDEN_PARAMS = dict(
    n_cores=32,
    rate_rps=24e6,
    mean_service_ns=1000.0,
    n_requests=3000,
    seed=7,
)


def run_golden(system: str):
    """Run one golden-config simulation and return its result.

    ``system`` may be a plain registered name, a ``"<name>+faults"``
    entry (same workload under that entry's fault plan), and/or carry a
    ``"+ctl:<name>"`` suffix (same workload with that adaptive controller attached), or a
    ``"+fanout"`` / ``"+gang"`` suffix (same workload grouped into the
    fixed golden job shapes), or a ``"+crew-mv"`` / ``"+dcrew-hotkey"``
    suffix (same workload driven through the MICA data layer under that
    fixed ownership spec).
    """
    kvs = None
    for spec_name, spec_suffix in (("crew-mv", "+crew-mv"),
                                   ("dcrew-hotkey", "+dcrew-hotkey")):
        if system.endswith(spec_suffix):
            kvs = _golden_kvs_specs()[spec_name]
            system = system[: -len(spec_suffix)]
            break
    jobs = None
    for shape_name, shape_suffix in (("fanout", "+fanout"),
                                     ("gang", "+gang")):
        if system.endswith(shape_suffix):
            jobs = _golden_job_shapes()[shape_name]
            system = system[: -len(shape_suffix)]
            break
    control: Optional[ControlConfig] = None
    ctl = _CTL_RE.search(system)
    if ctl is not None:
        control = ControlConfig(controller=ctl.group(1))
        system = system[: ctl.start()]
    faults: Optional[FaultPlan] = GOLDEN_FAULT_PLANS.get(system)
    if faults is not None:
        system = system.rsplit("+", 1)[0]
    return quick_run(system=system, faults=faults, control=control,
                     jobs=jobs, kvs=kvs, **GOLDEN_PARAMS)


def run_fingerprint(system: str) -> Dict[str, object]:
    """Run one golden-config simulation (see :func:`run_golden`) and
    fingerprint its output."""
    result = run_golden(system)
    hasher = hashlib.sha256()
    for r in result.requests:
        record = (
            r.req_id,
            repr(r.arrival),
            repr(r.enqueued),
            repr(r.started),
            repr(r.finished),
            r.migrations,
            r.steals,
            r.core_id,
            r.group_id,
        )
        hasher.update(json.dumps(record).encode())
    lat = result.latency
    job_digest: Optional[Dict[str, object]] = None
    if result.jobs is not None:
        job_digest = {
            "count": result.jobs.count,
            "completed": result.jobs.completed,
            "dropped": result.jobs.dropped,
            "subrequests": result.jobs.subrequests,
            "job_p99_ns": repr(result.jobs.latency.p99),
        }
    fingerprint = {
        "system_name": result.system_name,
        "requests_sha256": hasher.hexdigest(),
        "count": lat.count,
        "mean_ns": repr(lat.mean),
        "p50_ns": repr(lat.p50),
        "p90_ns": repr(lat.p90),
        "p99_ns": repr(lat.p99),
        "p999_ns": repr(lat.p999),
        "max_ns": repr(lat.maximum),
        "sim_time_ns": repr(result.sim_time_ns),
        "throughput_rps": repr(result.throughput_rps),
        "dropped": result.dropped,
    }
    if job_digest is not None:
        fingerprint["jobs"] = job_digest
    return fingerprint


def all_fingerprints() -> Dict[str, Dict[str, object]]:
    return {system: run_fingerprint(system) for system in ALL_GOLDEN_SYSTEMS}


#: Golden entries whose end-of-run NoC and messaging counters are pinned
#: in ``tests/data/messaging_golden.json``: every single-server
#: Altocumulus golden entry, so UPDATE/MIGRATE/ACK accounting is covered
#: with and without faults, gangs and the KVS data layer, plus two
#: ``"altocumulus@<groups>x<size>"`` entries on 64 cores that widen the
#: UPDATE fan-out from one peer per manager to 3 and 15.
MESSAGING_GOLDEN_SYSTEMS = (
    "altocumulus", "altocumulus+faults", "altocumulus+gang",
    "altocumulus+crew-mv", "altocumulus@4x16", "altocumulus@16x4",
)


def _run_grouped(shape: str):
    """The golden workload at double rate on a 64-core Altocumulus
    system split into ``"<groups>x<size>"`` groups."""
    from repro.api import run_workload
    from repro.core.config import AltocumulusConfig
    from repro.core.scheduler import AltocumulusSystem
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.workload.arrivals import PoissonArrivals
    from repro.workload.service import Exponential

    n_groups, group_size = (int(x) for x in shape.split("x"))
    sim = Simulator()
    streams = RandomStreams(GOLDEN_PARAMS["seed"])
    system = AltocumulusSystem(
        sim, streams,
        AltocumulusConfig(n_groups=n_groups, group_size=group_size),
    )
    return run_workload(
        system, sim, streams,
        arrivals=PoissonArrivals(2 * GOLDEN_PARAMS["rate_rps"]),
        service=Exponential(GOLDEN_PARAMS["mean_service_ns"]),
        n_requests=GOLDEN_PARAMS["n_requests"],
    )


def messaging_snapshot(system: str) -> Dict[str, object]:
    """The ``noc.*`` and ``messaging.*`` instruments after a golden run.

    The ``@`` entries have no determinism golden of their own, so their
    snapshot also carries the run's per-request digest and end time.
    """
    base, _, shape = system.partition("@")
    result = _run_grouped(shape) if shape else run_golden(base)
    snapshot: Dict[str, object] = {
        name: value for name, value in sorted(result.metrics.items())
        if name.startswith(("noc.", "messaging."))
    }
    if shape:
        hasher = hashlib.sha256()
        for r in result.requests:
            hasher.update(json.dumps((
                r.req_id, repr(r.enqueued), repr(r.started),
                repr(r.finished), r.migrations, r.group_id,
            )).encode())
        snapshot["requests_sha256"] = hasher.hexdigest()
        snapshot["sim_time_ns"] = repr(result.sim_time_ns)
    return snapshot
