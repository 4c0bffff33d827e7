"""Unit tests for the typed metric registry (repro.telemetry.registry)."""

import json

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricNameError,
    MetricNamespaceError,
    MetricRegistry,
    validate_namespace,
)


class TestCounter:
    def test_owned_counter_preserves_int(self):
        reg = MetricRegistry()
        c = reg.counter("sys.ops")
        c.value += 1
        c.inc(2)
        assert c.read() == 3
        assert isinstance(reg.snapshot()["sys.ops"], int)

    def test_float_amounts_become_float(self):
        reg = MetricRegistry()
        c = reg.counter("sys.busy_ns")
        c.inc(1.5)
        assert reg.snapshot()["sys.busy_ns"] == 1.5

    def test_bound_counter_reads_live_value(self):
        state = {"n": 0}
        reg = MetricRegistry()
        c = reg.counter("sys.live", fn=lambda: state["n"])
        state["n"] = 7
        assert c.read() == 7
        with pytest.raises(MetricError):
            c.inc()


class TestGauge:
    def test_owned_gauge_set(self):
        reg = MetricRegistry()
        g = reg.gauge("sys.depth")
        g.set(4)
        assert reg.snapshot()["sys.depth"] == 4

    def test_bound_gauge_rejects_set(self):
        reg = MetricRegistry()
        g = reg.gauge("sys.clock", fn=lambda: 42.0)
        assert g.read() == 42.0
        with pytest.raises(MetricError):
            g.set(1)


class TestHistogram:
    def test_observe_buckets_and_sum(self):
        reg = MetricRegistry()
        h = reg.histogram("sys.lat", bounds=[10.0, 100.0])
        for v in (5.0, 50.0, 500.0):
            h.observe(v)
        snap = reg.snapshot()["sys.lat"]
        assert snap["count"] == 3
        assert snap["sum"] == 555.0
        assert snap["buckets"] == {"le_10": 1, "le_100": 1, "le_inf": 1}

    def test_bounds_must_increase(self):
        reg = MetricRegistry()
        with pytest.raises(MetricError):
            reg.histogram("sys.bad", bounds=[10.0, 10.0])
        with pytest.raises(MetricError):
            reg.histogram("sys.empty", bounds=[])


class TestNaming:
    @pytest.mark.parametrize("bad", [
        "nodots", "Caps.name", "noc.", ".noc", "noc..messages",
        "noc.1bad", "noc.mess ages",
    ])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(MetricNameError):
            MetricRegistry().counter(bad)

    def test_duplicate_rejected_across_kinds(self):
        reg = MetricRegistry()
        reg.counter("noc.messages")
        with pytest.raises(MetricNameError):
            reg.gauge("noc.messages")

    def test_namespace_validation(self):
        assert validate_namespace("messaging.m0") == "messaging.m0"
        with pytest.raises(MetricNamespaceError):
            validate_namespace("Bad")


class TestHierarchy:
    def test_child_snapshot_prefixed(self):
        parent, child = MetricRegistry(), MetricRegistry()
        child.counter("system.offered").inc(5)
        parent.attach_child("srv0", child)
        parent.gauge("cluster.imbalance").set(1.5)
        snap = parent.snapshot()
        assert snap["srv0.system.offered"] == 5
        assert snap["cluster.imbalance"] == 1.5

    def test_schema_is_sorted_and_typed(self):
        parent, child = MetricRegistry(), MetricRegistry()
        child.histogram("system.latency_ns")
        parent.counter("noc.messages")
        parent.attach_child("srv0", child)
        assert parent.schema() == [
            {"name": "noc.messages", "type": "counter"},
            {"name": "srv0.system.latency_ns", "type": "histogram"},
        ]

    def test_self_and_double_attach_rejected(self):
        parent, child = MetricRegistry(), MetricRegistry()
        with pytest.raises(MetricError):
            parent.attach_child("x", parent)
        parent.attach_child("srv0", child)
        with pytest.raises(MetricError):
            parent.attach_child("srv1", child)

    def test_to_json_is_strict(self):
        reg = MetricRegistry()
        reg.gauge("sys.nan", fn=lambda: float("nan"))
        reg.gauge("sys.inf", fn=lambda: float("inf"))
        doc = json.loads(reg.to_json())
        assert doc["sys.nan"] is None
        assert doc["sys.inf"] == "inf"


class TestFilteredSnapshot:
    """snapshot(prefix): the cheap namespaced read the control loop
    polls every epoch."""

    def _hierarchy(self):
        root = MetricRegistry()
        root.counter("faults.dropped").inc(3)
        root.counter("faults.retry.attempts").inc(7)
        root.counter("system.completed").inc(11)
        child = MetricRegistry()
        child.counter("cluster.decisions").inc(5)
        child.counter("queue.len").inc(2)
        root.attach_child("rack0", child)
        sibling = MetricRegistry()
        sibling.counter("cluster.decisions").inc(9)
        sibling.counter("queue.len").inc(1)
        root.attach_child("rack1", sibling)
        return root

    def test_prefix_selects_own_namespace(self):
        root = self._hierarchy()
        assert root.snapshot("faults") == {
            "faults.dropped": 3,
            "faults.retry.attempts": 7,
        }

    def test_nested_prefix(self):
        root = self._hierarchy()
        assert root.snapshot("faults.retry") == {"faults.retry.attempts": 7}

    def test_exact_name_match(self):
        root = self._hierarchy()
        assert root.snapshot("faults.dropped") == {"faults.dropped": 3}

    def test_prefix_descends_into_children(self):
        root = self._hierarchy()
        assert root.snapshot("rack0.cluster") == {
            "rack0.cluster.decisions": 5,
        }

    def test_child_mount_point_selects_whole_child(self):
        root = self._hierarchy()
        assert root.snapshot("rack0") == {
            "rack0.cluster.decisions": 5,
            "rack0.queue.len": 2,
        }

    def test_disjoint_prefix_is_empty(self):
        root = self._hierarchy()
        assert root.snapshot("nothing") == {}

    def test_invalid_prefix_rejected(self):
        with pytest.raises(MetricNamespaceError):
            self._hierarchy().snapshot("bad prefix!")

    def test_filtered_equals_filtering_the_full_snapshot(self):
        root = self._hierarchy()
        full = root.snapshot()
        for prefix in ("faults", "faults.retry", "system", "rack0",
                       "rack0.cluster", "rack1"):
            expected = {
                name: value for name, value in full.items()
                if name == prefix or name.startswith(prefix + ".")
            }
            assert root.snapshot(prefix) == expected

    def test_unfiltered_snapshot_unchanged(self):
        root = self._hierarchy()
        full = root.snapshot()
        assert full["system.completed"] == 11
        assert full["rack0.queue.len"] == 2
        assert full["rack1.queue.len"] == 1
        assert len(full) == 7
