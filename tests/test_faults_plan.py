"""Unit tests for the fault-injection data layer: plans and their
validation/expansion/serialization, the health view steering policies
consult, and the KVS-layer duplicate detector."""

import json

import pytest

from repro.faults import (
    ALL_HEALTHY,
    DEFAULT_DEGRADED_PENALTY,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    HealthView,
    PAIRED_KINDS,
    RECOVERY_KINDS,
    RetryPolicy,
)
from repro.kvs.dedup import DuplicateDetector
from repro.telemetry import MetricRegistry


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        retry = RetryPolicy()
        assert retry.timeout_ns > 0
        assert retry.max_retries >= 0

    @pytest.mark.parametrize("kwargs", [
        {"timeout_ns": 0.0},
        {"timeout_ns": -1.0},
        {"max_retries": -1},
        {"backoff_base_ns": 10.0, "backoff_cap_ns": 5.0},  # cap < base
        {"backoff_cap_ns": -5.0},
        {"jitter": -0.1},
        {"jitter": 1.5},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(FaultPlanError):
            RetryPolicy(**kwargs)

    def test_backoff_doubles_then_caps(self):
        retry = RetryPolicy(backoff_base_ns=10_000.0, backoff_cap_ns=35_000.0)
        assert retry.backoff_ns(1) == 10_000.0
        assert retry.backoff_ns(2) == 20_000.0
        assert retry.backoff_ns(3) == 35_000.0  # capped, not 40_000
        assert retry.backoff_ns(4) == 35_000.0


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time_ns=0.0, kind="gamma_ray")

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time_ns=-1.0, kind="server_crash")

    def test_duration_only_on_paired_kinds(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(time_ns=0.0, kind="manager_fail", duration_ns=10.0)

    @pytest.mark.parametrize("kind,magnitude", [
        ("core_stall", 0.5),   # a stall must slow down, not speed up
        ("nic_drop", 0.0),     # drop probability must be in (0, 1]
        ("nic_drop", 1.5),
        ("tor_degrade", 1.0),  # a degrade at factor 1.0 is a no-op
        ("tor_degrade", 0.0),
    ])
    def test_magnitude_ranges(self, kind, magnitude):
        with pytest.raises(FaultPlanError):
            FaultEvent(time_ns=0.0, kind=kind, magnitude=magnitude,
                       duration_ns=10.0)

    def test_every_paired_kind_has_a_recovery(self):
        assert set(RECOVERY_KINDS.values()) == set(PAIRED_KINDS)
        assert set(PAIRED_KINDS) | set(RECOVERY_KINDS) <= set(FAULT_KINDS)


class TestFaultPlan:
    def test_duration_expands_to_recovery_event(self):
        plan = FaultPlan(events=(
            FaultEvent(time_ns=100.0, kind="server_crash", target=2,
                       duration_ns=50.0),
        ))
        expanded = plan.expanded_events()
        assert [(e.time_ns, e.kind) for e in expanded] == [
            (100.0, "server_crash"), (150.0, "server_recover"),
        ]
        assert expanded[1].target == 2

    def test_expansion_is_time_sorted_and_stable(self):
        plan = FaultPlan(events=(
            FaultEvent(time_ns=200.0, kind="manager_fail", target=0),
            FaultEvent(time_ns=100.0, kind="nic_drop", target=1,
                       magnitude=0.5, duration_ns=50.0),
            FaultEvent(time_ns=100.0, kind="server_crash", target=0,
                       duration_ns=300.0),
        ))
        kinds = [(e.time_ns, e.kind) for e in plan.expanded_events()]
        assert kinds == [
            (100.0, "nic_drop"),        # declaration order breaks the tie
            (100.0, "server_crash"),
            (150.0, "nic_drop_stop"),
            (200.0, "manager_fail"),
            (400.0, "server_recover"),
        ]

    def test_json_round_trip(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time_ns=1_000.0, kind="core_stall", target=1,
                           subtarget=3, magnitude=10.0, duration_ns=500.0),
                FaultEvent(time_ns=2_000.0, kind="manager_fail", target=0),
            ),
            retry=RetryPolicy(timeout_ns=9_000.0, max_retries=2, jitter=0.25),
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        # to_dict output is plain JSON data.
        json.dumps(plan.to_dict())

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"events": [], "retry": {}, "oops": 1})

    def test_events_list_coerced_to_tuple(self):
        plan = FaultPlan(events=[
            FaultEvent(time_ns=0.0, kind="manager_fail", target=0),
        ])
        assert isinstance(plan.events, tuple)


class TestHealthView:
    def test_all_healthy_singleton_never_impaired(self):
        assert not ALL_HEALTHY.impaired
        assert ALL_HEALTHY.usable(123)
        assert ALL_HEALTHY.penalty(0) == 0.0

    def test_down_and_recover(self):
        health = HealthView(4)
        assert not health.impaired
        health.set_down(1, True)
        assert health.impaired
        assert not health.usable(1)
        assert health.usable_servers() == [0, 2, 3]
        health.set_down(1, False)
        assert not health.impaired
        assert health.usable(1)

    def test_degraded_nests(self):
        health = HealthView(2)
        health.add_degraded(0)
        health.add_degraded(0)
        assert health.impaired and health.degraded(0)
        assert health.penalty(0) == DEFAULT_DEGRADED_PENALTY
        assert health.usable(0)  # degraded is usable, just penalized
        health.remove_degraded(0)
        assert health.degraded(0)  # one layer still active
        health.remove_degraded(0)
        assert not health.impaired

    def test_remove_degraded_below_zero_raises(self):
        health = HealthView(2)
        with pytest.raises(ValueError):
            health.remove_degraded(0)


class TestDuplicateDetector:
    def test_counts_unique_and_duplicates(self):
        detector = DuplicateDetector(MetricRegistry())
        assert detector.observe(7) is False
        assert detector.observe(7) is True
        assert detector.observe(8) is False
        assert detector.unique == 2
        assert detector.duplicates == 1
        assert detector.seen(7) and not detector.seen(9)

    def test_responses_conserved(self):
        detector = DuplicateDetector(MetricRegistry())
        observed = [detector.observe(i % 3) for i in range(10)]
        assert detector.unique + detector.duplicates == len(observed)
