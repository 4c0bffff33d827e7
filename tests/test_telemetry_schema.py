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
schema for ``rack`` and ``datacenter``, and
``metrics_schema_datacenter_tenants.json`` holds that datacenter's
schema when it carries the two ``PIN_TENANTS``::

    PYTHONPATH=src:. python -c "
    import json
    from tests.test_telemetry_schema import _build_system
    s = _build_system('datacenter+tenants')
    print(json.dumps(s.metrics.schema(), indent=2))
    " > tests/data/metrics_schema_datacenter_tenants.json

A run reports every named metric through this registry, so the pins
cover every fabric and tenant result metric.  The ``job.*`` instruments
a job-structured run binds at its end are not in a built system's
schema.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import _default_datacenter_config, build_system
from repro.cluster import build_fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.tenants import TenantClass

DATA = Path(__file__).parent / "data"
PINNED = DATA / "metrics_schema.json"

FABRICS = ("rack", "datacenter")

#: Two tenants for the tenant-carrying datacenter pin.
PIN_TENANTS = (
    TenantClass("a", 0.5, slo_ns=5_000.0, n_connections=64),
    TenantClass("b", 0.5, slo_ns=20_000.0, n_connections=64),
)


def _build_system(entry):
    if entry == "datacenter+tenants":
        config = dataclasses.replace(
            _default_datacenter_config(32), tenants=PIN_TENANTS
        )
        return build_fabric(Simulator(), RandomStreams(7), config)
    return build_system(entry, Simulator(), RandomStreams(7), 32)


def test_altocumulus_schema_matches_pinned_snapshot():
    system = build_system("altocumulus", Simulator(), RandomStreams(7), 32)
    assert system.metrics.schema() == json.loads(PINNED.read_text())


def test_snapshot_covers_every_schema_entry():
    system = build_system("altocumulus", Simulator(), RandomStreams(7), 32)
    snapshot = system.metrics.snapshot()
    for entry in system.metrics.schema():
        assert entry["name"] in snapshot


@pytest.mark.parametrize("name", FABRICS + ("datacenter+tenants",))
def test_fabric_schema_matches_pinned_snapshot(name):
    system = _build_system(name)
    pinned = DATA / f"metrics_schema_{name.replace('+', '_')}.json"
    assert system.metrics.schema() == json.loads(pinned.read_text())


@pytest.mark.parametrize("name", FABRICS)
def test_fabric_snapshot_covers_every_schema_entry(name):
    system = build_system(name, Simulator(), RandomStreams(7), 32)
    snapshot = system.metrics.snapshot()
    for entry in system.metrics.schema():
        assert entry["name"] in snapshot
