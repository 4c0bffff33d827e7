"""Fixed KVS-backed runs that pin the MICA data layer's outputs.

The determinism goldens pin each run's request timeline, but not what
the data layer computed along the way: the ``kvs.*`` counters, how many
operations executed, went remote or aborted, and each operation's
result.  ``tests/data/kvs_golden.json`` stores :func:`kvs_snapshot` of
every case in :data:`KVS_GOLDEN_CASES`; ``tests/test_kvs_golden.py``
recomputes and compares them.

The cases cover every execution path of :class:`MicaWorkload`:

* ``altocumulus+crew-mv`` and ``rack+dcrew-hotkey`` -- the two KVS
  determinism-golden runs (multiversion epochs and deferred
  reclamation; bounded d-CREW reads on a hot partition across a rack);
* ``bench-kvs`` -- the benchmark's ``kvs`` workload, reduced: a 4 x 8
  Altocumulus server on the 25% hot-key mix with rare SCANs under CREW
  with multiversion reads;
* ``altocumulus+erew-write-heavy`` -- EREW admission on the write-heavy
  mix (DELETEs, Zipf skew below 1);
* ``altocumulus+dcrew-abort`` -- d-CREW with an admission-wait bound,
  so operations abort;
* ``altocumulus+erew-tablefree`` -- EREW without an ownership table
  (fig13's wiring: eRPC service, Zipf 0.9), paying only the
  remote-owner penalty.

Regenerate (only for an intentional behaviour change)::

    PYTHONPATH=src python -c "import json; \\
    from tests.kvs_golden_util import all_snapshots; \\
    print(json.dumps(all_snapshots(), indent=1, sort_keys=True))" \\
    > tests/data/kvs_golden.json
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List

from repro.api import build_system, run_workload
from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.kvs.dataset import build_dataset
from repro.kvs.handlers import MicaServiceModel, MicaWorkload
from repro.kvs.ownership import KvsSpec
from repro.kvs.wiring import attach_executor, wire_kvs
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.request import Request
from repro.workload.service import Exponential, Fixed
from tests.determinism_util import GOLDEN_PARAMS, _golden_kvs_specs

#: The benchmark's ``kvs`` data layer: fig_contention's server at its
#: 25% hot-key cell.
BENCH_KVS_SPEC = KvsSpec(
    mode="crew", multiversion=True, mix="hot_key",
    hot_key_fraction=0.25, scan_fraction=0.002,
)

#: Case name -> parameters.  ``system`` is a registered system built at
#: the determinism golden's size and load, or ``"bench"`` for the
#: benchmark's 4 x 8 server with its fixed 100 ns service; ``spec`` is
#: the wired KVS spec, or ``None`` for a table-free EREW workload
#: attached by hand.
KVS_GOLDEN_CASES: Dict[str, Dict[str, Any]] = {
    "altocumulus+crew-mv": dict(
        system="altocumulus", spec=_golden_kvs_specs()["crew-mv"]),
    "rack+dcrew-hotkey": dict(
        system="rack", spec=_golden_kvs_specs()["dcrew-hotkey"]),
    "bench-kvs": dict(system="bench", spec=BENCH_KVS_SPEC, n=2_000),
    "altocumulus+erew-write-heavy": dict(
        system="altocumulus", spec=KvsSpec(mode="erew", mix="write_heavy")),
    "altocumulus+dcrew-abort": dict(
        system="altocumulus",
        spec=KvsSpec(mode="dcrew", d=2, mix="hot_key", max_wait_ns=40.0)),
    "altocumulus+erew-tablefree": dict(system="altocumulus", spec=None),
}


def _tablefree(system, sim, streams) -> MicaWorkload:
    """An EREW workload with no ownership table, wired as fig13 does."""
    workload = MicaWorkload(
        build_dataset(n_partitions=system.config.n_groups, n_keys=4_000,
                      seed=streams.master_seed, registry=system.metrics),
        MicaServiceModel.erpc(),
        n_groups=system.config.n_groups,
        scan_fraction=0.0,
        zipf_s=0.9,
        seed=streams.master_seed,
    )
    attach_executor(system, workload.execute)
    return workload


def run_case(case: str):
    """Run one case; returns ``(result, workload, requests)`` where
    ``requests`` is every request the workload's factory built, in
    emission order (warm-up included)."""
    params = KVS_GOLDEN_CASES[case]
    sim = Simulator()
    if params["system"] == "bench":
        streams = RandomStreams(1)
        system = AltocumulusSystem(sim, streams, AltocumulusConfig(
            n_groups=4, group_size=8, threshold_mode="fixed",
            fixed_threshold=2.0,
        ))
        arrivals, service = PoissonArrivals(12e6), Fixed(100.0)
        n = params["n"]
    else:
        streams = RandomStreams(GOLDEN_PARAMS["seed"])
        system = build_system(params["system"], sim, streams,
                              GOLDEN_PARAMS["n_cores"])
        arrivals = PoissonArrivals(GOLDEN_PARAMS["rate_rps"])
        service = Exponential(GOLDEN_PARAMS["mean_service_ns"])
        n = GOLDEN_PARAMS["n_requests"]
    if params["spec"] is None:
        workload = _tablefree(system, sim, streams)
    else:
        # What run_workload(kvs=spec) does, keeping hold of the workload.
        workload = wire_kvs(system, sim, params["spec"],
                            seed=streams.master_seed)
    requests: List[Request] = []
    make: Callable[[Request], None] = workload.request_factory

    def factory(request: Request) -> None:
        make(request)
        requests.append(request)

    result = run_workload(system, sim, streams, arrivals, service, n,
                          request_factory=factory)
    return result, workload, requests


def kvs_snapshot(case: str) -> Dict[str, Any]:
    """Every ``kvs.*`` instrument, the workload's execution counters,
    a digest of every request's KVS fields and timeline, and a digest
    of every request's ``app_result``."""
    result, workload, requests = run_case(case)
    timeline = hashlib.sha256()
    results = hashlib.sha256()
    for r in requests:
        timeline.update(json.dumps((
            r.req_id, r.kind.value, r.key.hex(), repr(r.service_time),
            r.connection, repr(r.arrival), repr(r.enqueued),
            repr(r.started), repr(r.finished), r.migrations, r.core_id,
            r.group_id,
        )).encode())
        results.update(repr((r.req_id, r.app_result)).encode())
    return {
        "kvs": {name: value for name, value in sorted(result.metrics.items())
                if name.startswith("kvs.")},
        "executed": workload.executed,
        "remote_accesses": workload.remote_accesses,
        "aborted": workload.aborted,
        "requests": len(requests),
        "requests_sha256": timeline.hexdigest(),
        "app_results_sha256": results.hexdigest(),
    }


def all_snapshots() -> Dict[str, Dict[str, Any]]:
    return {case: kvs_snapshot(case) for case in KVS_GOLDEN_CASES}
