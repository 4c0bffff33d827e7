"""The MICA data layer's outputs equal their pinned values.

``tests/data/kvs_golden.json`` holds, for each case of
:data:`tests.kvs_golden_util.KVS_GOLDEN_CASES`, every ``kvs.*``
instrument, the workload's ``executed`` / ``remote_accesses`` /
``aborted`` counts, a digest of every request's KVS fields and timeline
and a digest of every request's ``app_result``.  A change to the data
layer's host cost must leave all of them exactly as they are.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.kvs_golden_util import KVS_GOLDEN_CASES, kvs_snapshot

GOLDEN_PATH = Path(__file__).parent / "data" / "kvs_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(KVS_GOLDEN_CASES)


@pytest.mark.parametrize("case", sorted(KVS_GOLDEN_CASES))
def test_data_layer_outputs_pinned(case, golden):
    snapshot = json.loads(json.dumps(kvs_snapshot(case)))
    expected = golden[case]
    # Counters first: a moved counter names what diverged before the
    # opaque digests do.
    assert snapshot["kvs"] == expected["kvs"]
    for field in ("executed", "remote_accesses", "aborted", "requests"):
        assert snapshot[field] == expected[field], field
    assert snapshot["requests_sha256"] == expected["requests_sha256"]
    assert snapshot["app_results_sha256"] == expected["app_results_sha256"]


def test_cases_reach_every_execution_path(golden):
    """The pinned runs exercise deferred reclamation, stale reads,
    aborts, remote-owner penalties and DELETEs."""
    assert golden["bench-kvs"]["kvs"]["kvs.ownership.deferred"] > 0
    assert golden["bench-kvs"]["kvs"]["kvs.ownership.stale_reads"] > 0
    assert golden["altocumulus+dcrew-abort"]["aborted"] > 0
    assert golden["altocumulus+erew-tablefree"]["remote_accesses"] > 0
    deletes = sum(
        value for name, value in
        golden["altocumulus+erew-write-heavy"]["kvs"].items()
        if name.endswith(".deletes")
    )
    assert deletes > 0
