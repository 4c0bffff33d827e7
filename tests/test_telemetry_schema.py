"""Metrics-schema regression: the instrument set is a public surface.

The pinned snapshot in ``tests/data/metrics_schema.json`` is the schema
of the golden 32-core Altocumulus system (the same shape the determinism
goldens use).  Renaming, retyping, or dropping an instrument breaks
downstream consumers of ``--metrics-out`` snapshots, so it must show up
here as an explicit diff -- regenerate the file deliberately::

    PYTHONPATH=src python -c "
    import json
    from repro.api import build_system
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    s = build_system('altocumulus', Simulator(), RandomStreams(7), 32)
    print(json.dumps(s.metrics.schema(), indent=2))
    " > tests/data/metrics_schema.json

The fabric presets are pinned the same way: ``metrics_schema_<name>.json``
holds ``build_system(<name>, Simulator(), RandomStreams(7), 32)``'s
schema for ``rack`` and ``datacenter``, and ``fabric_extra_keys.json``
holds the ``stats.extra`` key lists each fabric writes at shutdown after
a golden-parameter run (plus a datacenter carrying two tenants).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import build_system, quick_run, run_workload
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.service import Exponential
from repro.workload.tenants import TenantClass, TenantConnectionPool
from tests.determinism_util import GOLDEN_PARAMS

DATA = Path(__file__).parent / "data"
PINNED = DATA / "metrics_schema.json"
EXTRA_KEYS = DATA / "fabric_extra_keys.json"

FABRICS = ("rack", "datacenter")

#: Two tenants for the tenant-carrying datacenter pin.
PIN_TENANTS = (
    TenantClass("a", 0.5, slo_ns=5_000.0, n_connections=64),
    TenantClass("b", 0.5, slo_ns=20_000.0, n_connections=64),
)


def test_altocumulus_schema_matches_pinned_snapshot():
    system = build_system("altocumulus", Simulator(), RandomStreams(7), 32)
    assert system.metrics.schema() == json.loads(PINNED.read_text())


def test_snapshot_covers_every_schema_entry():
    system = build_system("altocumulus", Simulator(), RandomStreams(7), 32)
    snapshot = system.metrics.snapshot()
    for entry in system.metrics.schema():
        assert entry["name"] in snapshot


@pytest.mark.parametrize("name", FABRICS)
def test_fabric_schema_matches_pinned_snapshot(name):
    system = build_system(name, Simulator(), RandomStreams(7), 32)
    pinned = DATA / f"metrics_schema_{name}.json"
    assert system.metrics.schema() == json.loads(pinned.read_text())


@pytest.mark.parametrize("name", FABRICS)
def test_fabric_snapshot_covers_every_schema_entry(name):
    system = build_system(name, Simulator(), RandomStreams(7), 32)
    snapshot = system.metrics.snapshot()
    for entry in system.metrics.schema():
        assert entry["name"] in snapshot


def _tenant_datacenter_extra_keys():
    from repro.api import _default_datacenter_config
    from repro.cluster import build_fabric

    sim = Simulator()
    streams = RandomStreams(GOLDEN_PARAMS["seed"])
    config = dataclasses.replace(
        _default_datacenter_config(GOLDEN_PARAMS["n_cores"]),
        tenants=PIN_TENANTS,
    )
    system = build_fabric(sim, streams, config)
    result = run_workload(
        system, sim, streams,
        arrivals=PoissonArrivals(GOLDEN_PARAMS["rate_rps"]),
        service=Exponential(GOLDEN_PARAMS["mean_service_ns"]),
        n_requests=GOLDEN_PARAMS["n_requests"],
        connections=TenantConnectionPool(PIN_TENANTS),
    )
    return list(result.extra)


def _extra_keys(entry):
    if entry == "datacenter+tenants":
        return _tenant_datacenter_extra_keys()
    return list(quick_run(system=entry, **GOLDEN_PARAMS).extra)


@pytest.mark.parametrize("entry", FABRICS + ("datacenter+tenants",))
def test_fabric_extra_keys_match_pin(entry):
    assert _extra_keys(entry) == json.loads(EXTRA_KEYS.read_text())[entry]
