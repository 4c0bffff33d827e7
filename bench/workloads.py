"""The benchmark's five workloads: system shape, traffic and run options.

Each workload loads one layer of the simulator heavily and leaves the
others idle, so a change to one layer shows on the workload that runs it
and not on the workloads that bypass it (README.md gives the profile
shares behind each choice).  All traffic is open loop in simulated time:
Poisson arrivals never wait on the server.

Everything here goes through the program's public API; the benchmark
changes nothing under ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.api import build_system
from repro.control import ControlConfig
from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.kvs.ownership import KvsSpec
from repro.kvs.wiring import wire_kvs
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.jobs import ChoiceDegree, JobShape
from repro.workload.service import Exponential, Fixed, ServiceDistribution

#: ``build(sim, streams, n) -> (system, extra run_workload kwargs)``.
BuildFn = Callable[[Simulator, RandomStreams, int], Tuple[Any, Dict[str, Any]]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Requests per run, or jobs on a job-structured workload.
    n: int
    rate_rps: float
    service: ServiceDistribution
    build: BuildFn


def _server(sim, streams, n):
    return build_system("altocumulus", sim, streams, 64), {}


def _steal(sim, streams, n):
    return build_system("zygos", sim, streams, 64), {}


def _rack(sim, streams, n):
    return build_system("rack", sim, streams, 64), {}


#: fig_contention's server and data layer at its 25% hot-key cell.
KVS_SPEC = KvsSpec(
    mode="crew", multiversion=True, mix="hot_key",
    hot_key_fraction=0.25, scan_fraction=0.002,
)


def _kvs(sim, streams, n):
    system = AltocumulusSystem(sim, streams, AltocumulusConfig(
        n_groups=4, group_size=8, threshold_mode="fixed", fixed_threshold=2.0,
    ))
    # Wired here rather than through run_workload(kvs=...) so dataset
    # population counts as set-up, not as simulation time.
    data = wire_kvs(system, sim, KVS_SPEC, seed=streams.master_seed)
    return system, {"request_factory": data.request_factory}


CHAOS_RATE_RPS = 20e6

#: Enough retries that every job completes: the backoff sum of six
#: retries (at least 0.5 x 440 us with jitter) outlasts each fault window
#: (0.2 x the span: 40 us at full size), so a failed job is a model change.
CHAOS_RETRY = RetryPolicy(
    timeout_ns=50_000.0,
    max_retries=6,
    backoff_base_ns=20_000.0,
    backoff_cap_ns=100_000.0,
    jitter=0.5,
)


def _chaos(sim, streams, n):
    # Fault times scale with the run's simulated span so a scaled run
    # meets the same faults at the same relative points.
    span = n / CHAOS_RATE_RPS * 1e9
    plan = FaultPlan(
        events=(
            FaultEvent(time_ns=0.15 * span, kind="server_crash", target=1,
                       duration_ns=0.2 * span),
            FaultEvent(time_ns=0.25 * span, kind="nic_drop", target=0,
                       magnitude=0.3, duration_ns=0.2 * span),
            FaultEvent(time_ns=0.35 * span, kind="spine_degrade", target=1,
                       magnitude=0.25, duration_ns=0.2 * span),
        ),
        retry=CHAOS_RETRY,
    )
    return build_system("datacenter", sim, streams, 64), {
        "faults": plan,
        "control": ControlConfig(controller="hysteresis"),
        "jobs": JobShape(fanout=ChoiceDegree((1, 2, 4), (0.5, 0.3, 0.2))),
    }


#: Why each workload: README.md has the profile shares.  server runs the
#: Altocumulus inter-group migration path (core, sim, hw); steal runs
#: ZygOS idle-thief probing (schedulers; core idle); rack is server's
#: traffic through the fabric (cluster, numpy's choice()); kvs drives
#: the ownership layer's admission and multiversion reads (kvs); chaos is
#: the only one running the faults, control, datacenter and job layers,
#: so a feature layer that taxes the plain path shows on the other four.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("server", 16_000, 48e6, Exponential(1000.0), _server),
    Workload("steal", 16_000, 40e6, Exponential(1000.0), _steal),
    Workload("rack", 16_000, 48e6, Exponential(1000.0), _rack),
    Workload("kvs", 8_000, 12e6, Fixed(100.0), _kvs),
    Workload("chaos", 4_000, CHAOS_RATE_RPS, Exponential(1000.0), _chaos),
)}
