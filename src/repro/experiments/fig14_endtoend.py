"""Fig. 14 -- end-to-end MICA over nanoRPC, 64 cores, real-world traffic:
Nebula vs AC_rss-ISA vs AC_rss-MSR (p99 latency and SLO-violation ratio
vs throughput).

Workload: 99.5% ~50 ns GET/SET plus 0.5% ~50 us SCAN (the paper's mix;
mean ~315 ns, so 64-core capacity is ~200 MRPS -- the paper's x-axis to
700 MRPS is unreachable at this mix and we sweep to capacity, see
EXPERIMENTS.md).  Keys are Zipf-skewed, so scans cluster in their EREW
owner groups; Altocumulus evacuates the short requests out of
scan-clogged groups while Nebula's global JBSQ keeps committing them
behind scans.  The AC_rss configurations pair the commodity RSS/PCIe
NIC with the in-CPU Altocumulus hardware (dispatch_mode="hw"); ISA vs
MSR differ only in the software-hardware interface cost, which
stretches the MSR runtime's effective migration cadence.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.experiments.common import (
    ExperimentResult,
    real_world_arrivals,
    scaled,
)
from repro.hw.constants import DEFAULT_CONSTANTS
from repro.kvs import (
    MicaServiceModel,
    MicaWorkload,
    attach_executor,
    build_dataset,
)
from repro.runner import PointSpec, ref, run_points
from repro.schedulers.jbsq import nebula
from repro.workload.service import Fixed


def _nebula_erew(sim, streams):
    system = nebula(sim, streams, N_CORES)
    system.startup_overhead_ns = DEFAULT_CONSTANTS.coherence_msg_ns
    return system

N_CORES = 64
N_GROUPS = 4
SCAN_FRACTION = 0.005
SCAN_NS = 50_000.0
RATES_MRPS = [25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 170.0, 185.0, 200.0]


def _service_model() -> MicaServiceModel:
    model = MicaServiceModel.nanorpc()
    return MicaServiceModel(
        stack_ns=model.stack_ns,
        get_extra_ns=model.get_extra_ns,
        set_extra_ns=model.set_extra_ns,
        scan_ns=SCAN_NS,
        probe_ns=model.probe_ns,
        scan_items=model.scan_items,
    )


def _mean_service_ns() -> float:
    return _service_model().mean_service_ns(get_fraction=0.5,
                                            scan_fraction=SCAN_FRACTION)


#: system name -> (Altocumulus interface, runtime enabled); ``None``
#: entries are the Nebula baseline.
_SYSTEMS: List[Tuple[str, object]] = [
    # Nebula has no partition-core affinity, so under EREW every
    # request pays one remote access to its owner partition.
    ("nebula", None),
    ("ac_rss_isa", ("isa", True)),
    ("ac_rss_msr", ("msr", True)),
    # The pre-runtime baseline of Fig. 14: the same RSS-fed groups
    # with prediction/migration switched off.
    ("ac_rss_norun", ("isa", False)),
]


def _wired_builder(sim, streams, system: str, seed: int):
    """Build one Fig. 14 system with its MICA workload wired in; the
    workload is constructed here (in the worker, deterministically from
    ``seed``) and handed back as ``(system, request_factory)``."""
    wiring = dict(_SYSTEMS)[system]
    if wiring is None:
        sys_obj = _nebula_erew(sim, streams)
    else:
        interface, runtime = wiring
        config = AltocumulusConfig(
            n_groups=N_GROUPS,
            group_size=N_CORES // N_GROUPS,
            variant="rss",
            dispatch_mode="hw",
            interface=interface,
            period_ns=100.0,
            bulk=40,
            concurrency=3,
            slo_multiplier=10.0,
            runtime_enabled=runtime,
        )
        sys_obj = AltocumulusSystem(sim, streams, config)
    workload = MicaWorkload(
        build_dataset(n_partitions=N_GROUPS, n_keys=4_000, seed=seed),
        _service_model(),
        n_groups=N_GROUPS,
        scan_fraction=SCAN_FRACTION,
        zipf_s=0.9,
        seed=seed,
    )
    attach_executor(sys_obj, workload.execute)
    return sys_obj, workload.request_factory


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Regenerate Fig. 14 (end-to-end MICA: Nebula vs AC ISA/MSR)."""
    n_requests = scaled(80_000, scale)
    mean_ns = _mean_service_ns()
    slo_ns = 10.0 * mean_ns
    cells = [(name, mrps) for name, _ in _SYSTEMS for mrps in RATES_MRPS]
    specs = [
        PointSpec(
            builder=ref(_wired_builder, system=name, seed=seed),
            service=Fixed(mean_ns),  # overridden per request by the factory
            rate_rps=mrps * 1e6,
            n_requests=n_requests,
            seed=seed,
            arrivals=ref(real_world_arrivals),
            slo_ns=slo_ns,
            tag=f"{name}@{mrps:.0f}M",
        )
        for name, mrps in cells
    ]
    rows: List[List[object]] = []
    at_slo: Dict[str, float] = {}
    for (name, mrps), point in zip(cells, run_points(specs, label="fig14")):
        p99 = point.latency.p99
        rows.append(
            [
                name,
                mrps,
                p99 / 1000.0,
                point.violation_ratio,
                point.throughput_rps / 1e6,
            ]
        )
        if p99 <= slo_ns and mrps > at_slo.get(name, 0.0):
            at_slo[name] = mrps
        else:
            at_slo.setdefault(name, 0.0)
    notes = [
        f"SLO = 10 x mean service ({mean_ns:.0f} ns) = {slo_ns / 1000:.2f} us p99.",
        "throughput@SLO (MRPS): "
        + ", ".join(f"{k}={v:.0f}" for k, v in at_slo.items()),
    ]
    if at_slo.get("nebula"):
        notes.append(
            f"AC_rss-ISA / Nebula: {at_slo['ac_rss_isa'] / at_slo['nebula']:.2f}x "
            "(paper: ~2.5x)"
        )
    if at_slo.get("ac_rss_isa"):
        notes.append(
            f"MSR reaches {at_slo['ac_rss_msr'] / at_slo['ac_rss_isa']:.0%} of the "
            "ISA max throughput (paper: 91%)."
        )
    return ExperimentResult(
        exp_id="fig14",
        title="MICA/nanoRPC end-to-end: Nebula vs AC_rss ISA/MSR (64 cores)",
        headers=["system", "offered_mrps", "p99_us", "violation_ratio",
                 "achieved_mrps"],
        rows=rows,
        notes="\n".join(notes),
        series={"throughput_at_slo_mrps": at_slo},
    )
