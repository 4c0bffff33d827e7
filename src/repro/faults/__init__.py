"""Deterministic, seeded fault injection for the Altocumulus repro.

The paper's claim is that scheduling stays sound under pressure;
this package supplies the pressure.  A :class:`FaultPlan` schedules
server crashes, core stalls, ToR port degradation/partition, NIC drop
bursts, and manager failures at absolute simulator times; the
:class:`FaultInjector` wires the plan into a live system (single server
or rack); the :class:`RetryClient` absorbs the damage with per-request
timeouts, capped exponential backoff retries, and KVS-layer duplicate
detection.  Everything draws from dedicated RNG streams, so faulted
runs are bit-reproducible and fault-free runs are bit-identical to the
pre-fault engine (both pinned by the golden determinism gate).

See ``docs/faults.md`` for the plan schema, the determinism contract,
and the telemetry the layer emits.
"""

from repro.faults.client import RetryClient
from repro.faults.health import ALL_HEALTHY, DEFAULT_DEGRADED_PENALTY, HealthView
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    ONESHOT_KINDS,
    PAIRED_KINDS,
    RECOVERY_KINDS,
    RetryPolicy,
)

__all__ = [
    "ALL_HEALTHY",
    "DEFAULT_DEGRADED_PENALTY",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "HealthView",
    "ONESHOT_KINDS",
    "PAIRED_KINDS",
    "RECOVERY_KINDS",
    "RetryClient",
    "RetryPolicy",
]
