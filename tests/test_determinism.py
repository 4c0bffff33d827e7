"""Golden-output determinism gate for the optimized simulation engine.

``tests/data/determinism_golden.json`` was captured from the engine
*before* the fast-path rework (event free-list, timer reuse, memoized
Erlang-C, threshold caching, batched RNG prefetch, slotted records).
The optimizations claim zero observable behavior change, so the current
engine must reproduce those fingerprints exactly: bit-identical
per-request timestamps, migration/steal counts, core/group placement,
and latency percentiles for every scheduler system.

If an intentional semantic change ever invalidates the goldens,
regenerate them with::

    PYTHONPATH=src python -c "
    import json
    from tests.determinism_util import all_fingerprints
    print(json.dumps(all_fingerprints(), indent=2))
    " > tests/data/determinism_golden.json

and say so loudly in the commit message -- a silent regeneration defeats
the whole gate.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.determinism_util import (
    ALL_GOLDEN_SYSTEMS,
    MESSAGING_GOLDEN_SYSTEMS,
    messaging_snapshot,
    run_fingerprint,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "determinism_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("system", ALL_GOLDEN_SYSTEMS)
def test_bit_identical_to_pre_optimization_engine(system, golden):
    current = run_fingerprint(system)
    expected = golden[system]
    # Compare the request digest last: the scalar fields give a readable
    # failure (which percentile moved) before the opaque hash does.
    for key in expected:
        if key == "requests_sha256":
            continue
        assert current[key] == expected[key], f"{system}: field {key!r} diverged"
    assert current["requests_sha256"] == expected["requests_sha256"], (
        f"{system}: per-request timestamps diverged from the "
        "pre-optimization engine"
    )


def test_optimized_engine_is_self_deterministic():
    """Two back-to-back runs of the optimized engine are bit-identical."""
    first = run_fingerprint("altocumulus")
    second = run_fingerprint("altocumulus")
    assert first == second


def test_faulted_run_is_self_deterministic():
    """Fault injection (retry jitter, drop coin flips, failover) draws
    only from its dedicated streams, so faulted runs are bit-reproducible
    too."""
    first = run_fingerprint("rack+faults")
    second = run_fingerprint("rack+faults")
    assert first == second


def test_static_controller_golden_matches_uncontrolled():
    """Attaching the do-nothing static controller adds epoch timers but
    must not perturb a single event: its golden entry equals the plain
    entry field-for-field."""
    import json

    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["rack+ctl:static"] == golden["rack"]


def test_controlled_run_is_self_deterministic():
    """An actuating controller (drains, knob pushes, policy swaps under
    faults) draws only from the dedicated "control" stream, so
    controlled runs are bit-reproducible too."""
    first = run_fingerprint("rack+faults+ctl:hysteresis")
    second = run_fingerprint("rack+faults+ctl:hysteresis")
    assert first == second


MESSAGING_GOLDEN_PATH = Path(__file__).parent / "data" / "messaging_golden.json"


@pytest.mark.parametrize("system", MESSAGING_GOLDEN_SYSTEMS)
def test_end_of_run_noc_and_messaging_counters_pinned(system):
    """Every ``noc.*`` and ``messaging.*`` instrument at the end of an
    Altocumulus golden run equals its pinned value exactly: ejection-port
    occupancy, per-vnet message counts, summed NoC latency and every
    tile's UPDATE/MIGRATE/ACK counters."""
    expected = json.loads(MESSAGING_GOLDEN_PATH.read_text())[system]
    assert messaging_snapshot(system) == expected
