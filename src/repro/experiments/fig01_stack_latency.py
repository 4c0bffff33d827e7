"""Fig. 1 -- On-CPU latency for different RPC stacks, split into stack
*processing* time and *scheduling* time (300 B RPC on a server).

Reproduction: for each stack we pair its published processing cost with
the scheduling machinery it historically runs on, simulate a 16-core
server at moderate load, and attribute measured latency minus processing
(minus NIC delivery) to scheduling:

* **TCP/IP** -- kernel network stack (~15 us processing) over a
  kernel-based centralized scheduler with ~5 us scheduling granularity.
* **eRPC** -- optimized user-space stack (~850 ns) over software
  work stealing (ZygOS-style, 200-400 ns steals).
* **nanoRPC** -- hardware-terminated stack (~40 ns) over a hardware
  JBSQ scheduler.

The figure's message -- processing has shrunk to the point where
scheduling dominates -- re-emerges from the measured split.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, scaled
from repro.hw.nic import PcieDelivery
from repro.runner import PointSpec, ref, run_points
from repro.stack import STACKS
from repro.schedulers.centralized import ShinjukuSystem
from repro.schedulers.jbsq import nebula
from repro.schedulers.work_stealing import ZygosSystem
from repro.workload.service import Fixed


def _tcpip_builder(sim, streams):
    return ShinjukuSystem(
        sim,
        streams,
        16,
        delivery=PcieDelivery(),
        dispatch_ns=1_500.0,  # interrupt + kernel wakeup per request
        quantum_ns=1_000_000.0,
        switch_overhead_ns=1_000.0,
    )


def _erpc_builder(sim, streams):
    return ZygosSystem(sim, streams, 16, delivery=PcieDelivery())


def _nanorpc_builder(sim, streams):
    return nebula(sim, streams, 16)


#: Stack name -> (core load, system builder).  Processing costs come
#: from :data:`repro.stack.STACKS` at the figure's 300 B request / 64 B
#: response point.  Kernel stacks run at low utilization (0.3) to bound
#: latency.
_SYSTEMS = {
    "tcpip": (0.3, _tcpip_builder),
    "erpc": (0.5, _erpc_builder),
    "nanorpc": (0.5, _nanorpc_builder),
}


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Regenerate Fig. 1 (processing vs scheduling split)."""
    n_requests = scaled(30_000, scale)
    processing = {name: stack_ns() for name, stack_ns in STACKS.items()}
    specs = []
    for name, processing_ns in processing.items():
        load, builder = _SYSTEMS[name]
        specs.append(
            PointSpec(
                builder=ref(builder),
                service=Fixed(processing_ns),
                rate_rps=load * 16 / processing_ns * 1e9,
                n_requests=n_requests,
                seed=seed,
                tag=name,
            )
        )
    results = run_points(specs, label="fig01")
    rows = []
    for (name, processing_ns), result in zip(processing.items(), results):
        mean_latency = result.latency.mean
        scheduling_ns = max(0.0, mean_latency - processing_ns)
        rows.append(
            [
                name,
                processing_ns / 1000.0,
                scheduling_ns / 1000.0,
                mean_latency / 1000.0,
                scheduling_ns / mean_latency if mean_latency else 0.0,
            ]
        )
    return ExperimentResult(
        exp_id="fig01",
        title="On-CPU latency split: processing vs scheduling (16 cores, 50% load)",
        headers=[
            "stack",
            "processing_us",
            "scheduling_us",
            "mean_latency_us",
            "scheduling_share",
        ],
        rows=rows,
        notes=(
            "Scheduling time = measured mean latency minus stack processing\n"
            "time (NIC delivery included in the scheduling share, as the\n"
            "paper's on-CPU measurement window does). Expect the scheduling\n"
            "share to grow monotonically from tcpip to nanorpc."
        ),
    )
