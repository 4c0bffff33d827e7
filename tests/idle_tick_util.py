"""Fixed Altocumulus runs that pin the manager tick loop's parked path.

A parked manager tick (empty MR queue, nothing to migrate) skips the
Algorithm 1 body and fills in its UPDATE later, but must leave every
observable output exactly as the full tick would: the request
timeline, every registry instrument, and each runtime's tick count.
``tests/data/idle_tick_golden.json`` stores :func:`idle_tick_snapshot`
of each case in :data:`IDLE_TICK_CASES`, each captured from a tick loop
that wrote every tick's UPDATE and charge when the tick ran, or checked
against one; the tier-1 test ``tests/test_idle_ticks.py`` recomputes
and compares them.

The cases cover what an idle tick must still account for: software
dispatch (the tick's charge delays dispatches), the MSR interface (the
tick's charge stretches the cadence), hardware dispatch across four
groups, MIGRATEs into idle groups, tracing (NoC spans of every UPDATE),
and the estimator-driven ``model`` threshold on eight groups, with and
without a worker reassignment landing on a parked group (a threshold
read the parked ticks skip must change no later one).  The later cases
add what a parked tick defers past: the data layer's shape at low load
(every group parked most of the run), software messaging and dispatch
(MIGRATE charges on the manager core), manager crashes and a worker
reassignment landing on parked groups, and NoC link contention (parked
UPDATEs replayed through the link state).  The engine cases pin what
the simulator reports around parked ticks: two systems sharing one
simulator, and runs cut short by ``max_events`` or ``stop()`` while
groups park (``end_cut``, ``events_processed``, ``pending`` and
``updates_received`` at every cut).

Regenerate (only for an intentional behaviour change)::

    PYTHONPATH=src python -c "import json, sys; sys.path.insert(0, 'tests'); \\
    from idle_tick_util import all_snapshots; \\
    print(json.dumps(all_snapshots(), indent=1, sort_keys=True))" \\
    > tests/data/idle_tick_golden.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict

from repro.api import run_workload
from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.experiments.fig10_comparison import SERVICE as FIG10_SERVICE
from repro.experiments.fig10_comparison import _ac_rss_builder
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.telemetry import TraceSink, capture
from repro.workload.arrivals import MMPPArrivals, PoissonArrivals
from repro.workload.generator import LoadGenerator
from repro.workload.service import Exponential

#: Case name -> parameters.  ``fig10`` cases build fig10's ``ac_rss``
#: system (2 x 8 cores, PCIe NIC, software dispatch, ISA interface) and
#: offer its bimodal service; ``hw`` cases build a ``groups`` x ``size``
#: hardware-dispatch system (``config`` overrides its defaults) and
#: offer 1 us exponential service.  ``burst`` cases arrive in MMPP
#: batches of that mean size, so one group's queue spikes while its
#: peers idle: MIGRATEs into idle groups in every index order.
#: ``reassign`` moves a worker from group 0 to group 1 a sixth of the way
#: through the run (:func:`_schedule_reassign`).  ``fail`` crashes and
#: restarts each listed group's manager at that fraction of the run.
IDLE_TICK_CASES: Dict[str, Dict[str, Any]] = {
    "ac_rss@0.25": dict(shape="fig10", rate_mrps=0.25, n=1500),
    "ac_rss@2": dict(shape="fig10", rate_mrps=2.0, n=2000),
    "ac_rss@4": dict(shape="fig10", rate_mrps=4.0, n=3000),
    "ac_rss_msr@2": dict(shape="fig10", rate_mrps=2.0, n=2000,
                         interface="msr"),
    "hw_4x16@12": dict(shape="hw", groups=4, size=16, rate_mrps=12.0,
                       n=3000),
    "hw_4x16_burst@16": dict(shape="hw", groups=4, size=16, rate_mrps=16.0,
                             n=3000, burst=16.0),
    "hw_8x4_burst@16": dict(shape="hw", groups=8, size=4, rate_mrps=16.0,
                            n=3000, burst=4.0),
    # Groups idle between bursts while their estimator load keeps
    # moving.
    "hw_8x4_burst@8": dict(shape="hw", groups=8, size=4, rate_mrps=8.0,
                           n=3000, burst=4.0),
    "hw_8x4_burst_reassign@8": dict(shape="hw", groups=8, size=4,
                                    rate_mrps=8.0, n=3000, burst=4.0,
                                    reassign=True),
    "hw_4x8_burst@8": dict(shape="hw", groups=4, size=8, rate_mrps=8.0,
                           n=3000, burst=8.0,
                           config=dict(threshold_mode="fixed",
                                       fixed_threshold=2.0)),
    "hw_16x4_burst@8": dict(shape="hw", groups=16, size=4, rate_mrps=8.0,
                            n=2000, burst=8.0,
                            config=dict(threshold_mode="fixed",
                                        fixed_threshold=2.0)),
    # A cadence (the 24 ns ISA tick cost) shorter than the farthest
    # UPDATE's 34 ns flight: copies of consecutive broadcasts overlap.
    "hw_16x4_period_10ns@8": dict(shape="hw", groups=16, size=4,
                                  rate_mrps=8.0, n=600,
                                  config=dict(period_ns=10.0)),
    "hw_4x16_burst_traced@16": dict(shape="hw", groups=4, size=16,
                                    rate_mrps=16.0, n=2000, burst=16.0,
                                    trace=True),
    # The kvs benchmark's server shape without the data layer.
    "hw_4x8_fixed@6": dict(shape="hw", groups=4, size=8, rate_mrps=6.0,
                           n=3000,
                           config=dict(threshold_mode="fixed",
                                       fixed_threshold=2.0)),
    "hw_4x16_sw_messaging_burst@16": dict(shape="hw", groups=4, size=16,
                                          rate_mrps=16.0, n=3000,
                                          burst=16.0,
                                          config=dict(messaging="sw",
                                                      dispatch_mode="sw")),
    "hw_4x8_fail@4": dict(shape="hw", groups=4, size=8, rate_mrps=4.0,
                          n=3000, fail=((1 / 3, 2), (2 / 3, 0))),
    "hw_8x4_reassign@4": dict(shape="hw", groups=8, size=4, rate_mrps=4.0,
                              n=3000, reassign=True),
    "hw_4x16_burst_contended@16": dict(shape="hw", groups=4, size=16,
                                       rate_mrps=16.0, n=2000, burst=16.0,
                                       config=dict(noc_link_contention=True)),
    # Engine cases (:func:`_engine_snapshot`): two systems with different
    # group counts and tick cadences on one simulator, so their parked
    # ticks' keys interleave; and runs cut short while groups park, by
    # the ``max_events`` budget every ``chunk`` events, or by
    # ``sim.stop()`` at each ``(fraction, after_ticks)``: at the tick
    # grid time nearest that fraction of the run, before the ticks due
    # then or after them.
    "pair_hw_4x8@2_ac_rss@0.5": dict(
        shape="pair",
        members=(dict(shape="hw", groups=4, size=8, rate_mrps=2.0, n=1500),
                 dict(shape="fig10", rate_mrps=0.5, n=600)),
    ),
    "hw_4x8_max_events@1": dict(shape="hw", groups=4, size=8, rate_mrps=1.0,
                                n=1500, chunk=4099),
    "ac_rss_max_events@0.25": dict(shape="fig10", rate_mrps=0.25, n=400,
                                   chunk=1999),
    "hw_4x8_stop@1": dict(shape="hw", groups=4, size=8, rate_mrps=1.0,
                          n=1500,
                          stops=((0.25, False), (0.5, True), (0.75, False))),
    "ac_rss_stop@0.25": dict(shape="fig10", rate_mrps=0.25, n=400,
                             stops=((0.3, True), (0.6, False))),
}

SEED = 1


def _canonical(value: Any) -> Any:
    """JSON-stable form: floats as ``repr`` (bit-exact, NaN-safe)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _build(sim: Simulator, streams: RandomStreams, case: Dict[str, Any]):
    if case["shape"] == "hw":
        config = AltocumulusConfig(
            n_groups=case["groups"], group_size=case["size"],
            **case.get("config", {}),
        )
        return AltocumulusSystem(sim, streams, config), Exponential(1000.0)
    if "interface" not in case:
        return _ac_rss_builder(sim, streams), FIG10_SERVICE
    # fig10's configuration read off a throwaway build, with another
    # software-hardware interface.
    config = _ac_rss_builder(Simulator(), RandomStreams(SEED)).config
    config = dataclasses.replace(config, interface=case["interface"])
    return AltocumulusSystem(sim, streams, config), FIG10_SERVICE


def _schedule_reassign(sim: Simulator, system: AltocumulusSystem,
                       span_ns: float) -> None:
    """Move a worker from group 0 to group 1 from a sixth of the way
    through the run, as the control plane's rebalancer does."""

    def reassign() -> None:
        # Only an idle worker moves: retry each Period until one is.
        if not system.reassign_worker(0, 1):
            sim.schedule(system.config.period_ns, reassign)

    sim.schedule_at(span_ns / 6, reassign)


def idle_tick_snapshot(name: str) -> Dict[str, Any]:
    """Run one case and return its registry snapshot, request digest,
    per-runtime tick counts and (traced cases) trace digest."""
    case = IDLE_TICK_CASES[name]
    if case["shape"] == "pair" or "chunk" in case or "stops" in case:
        return _engine_snapshot(case)
    sink = TraceSink(capacity=1_000_000) if case.get("trace") else None
    with capture(trace=sink):
        sim = Simulator()
        streams = RandomStreams(SEED)
        system, service = _build(sim, streams, case)
        rate_rps = case["rate_mrps"] * 1e6
        span_ns = case["n"] / rate_rps * 1e9
        if case.get("reassign"):
            _schedule_reassign(sim, system, span_ns)
        for fraction, group in case.get("fail", ()):
            sim.schedule_at(fraction * span_ns, system.fail_manager, group)
        if "burst" in case:
            arrivals = MMPPArrivals(rate_rps, batch_mean=case["burst"])
        else:
            arrivals = PoissonArrivals(rate_rps)
        result = run_workload(
            system, sim, streams, arrivals, service,
            n_requests=case["n"],
        )
    hasher = hashlib.sha256()
    for r in result.requests:
        hasher.update(json.dumps((
            r.req_id, repr(r.arrival), repr(r.enqueued), repr(r.started),
            repr(r.finished), r.migrations, r.core_id, r.group_id,
        )).encode())
    snapshot: Dict[str, Any] = {
        "requests_sha256": hasher.hexdigest(),
        "ticks": [runtime.ticks for runtime in system.runtimes],
        "metrics": _canonical(result.metrics),
    }
    if sink is not None:
        snapshot["trace_events"] = len(sink)
        snapshot["trace_sha256"] = hashlib.sha256(
            json.dumps(_canonical(sink.chrome_events())).encode()
        ).hexdigest()
    return snapshot


def _engine_snapshot(case: Dict[str, Any]) -> Dict[str, Any]:
    """Run an engine case (see :data:`IDLE_TICK_CASES`) without
    ``run_workload``: its own generators, Poisson arrivals, no
    ``expect``, to a horizon of twice the longest member's span.  A
    ``chunk`` or ``stops`` case records the engine's and the tiles'
    state at every cut, reading each tile's counters through a registry
    snapshot (which fills the parked ticks in)."""
    sim = Simulator()
    members = case["members"] if case["shape"] == "pair" else (case,)
    built = []
    horizon = 0.0
    for index, member in enumerate(members):
        streams = RandomStreams(SEED + index)
        system, service = _build(sim, streams, member)
        rate_rps = member["rate_mrps"] * 1e6
        generator = LoadGenerator(
            sim, streams, PoissonArrivals(rate_rps), service,
            sink=system.offer, n_requests=member["n"], warmup_fraction=0.1,
        )
        generator.attach(system)
        generator.start()
        built.append((system, generator))
        horizon = max(horizon, 2 * member["n"] / rate_rps * 1e9)
    system = built[0][0]
    cuts = []

    def record() -> None:
        snap = system.metrics.snapshot("messaging")
        cuts.append(_canonical({
            "now": sim.now,
            "end_cut": list(sim.end_cut),
            "events_processed": sim.events_processed,
            "pending": sim.pending,
            "pending_active": sim.pending_active,
            "updates_received": [
                snap[f"messaging.m{i}.updates_received"]
                for i in range(len(system.managers))
            ],
            "ticks": [runtime.ticks for runtime in system.runtimes],
        }))

    period = system.config.period_ns
    for fraction, after_ticks in case.get("stops", ()):
        at = round(fraction * horizon / 2 / period) * period
        if after_ticks:
            # Scheduled once the ticks due at ``at`` are re-armed.
            sim.schedule_at(at - 1.0, sim.schedule_at, at, sim.stop)
        else:
            sim.schedule_at(at, sim.stop)
    if "chunk" in case or "stops" in case:
        while sim.now < horizon:
            sim.run(until=horizon, max_events=case.get("chunk"))
            record()
    else:
        sim.run(until=horizon)
    snapshot: Dict[str, Any] = {"cuts": cuts, "members": []}
    for system, generator in built:
        system.shutdown()
        hasher = hashlib.sha256()
        for r in generator.requests:
            hasher.update(json.dumps((
                r.req_id, repr(r.arrival), repr(r.enqueued), repr(r.started),
                repr(r.finished), r.migrations, r.core_id, r.group_id,
            )).encode())
        snapshot["members"].append({
            "requests_sha256": hasher.hexdigest(),
            "ticks": [runtime.ticks for runtime in system.runtimes],
            "metrics": _canonical(system.metrics.snapshot()),
        })
    return snapshot


def all_snapshots() -> Dict[str, Dict[str, Any]]:
    return {name: idle_tick_snapshot(name) for name in IDLE_TICK_CASES}
