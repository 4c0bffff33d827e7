"""Declarative fault schedules: what breaks, when, and for how long.

A :class:`FaultPlan` is a frozen, picklable description of every fault a
run injects, plus the client-side :class:`RetryPolicy` that absorbs
them.  Plans are *data*, never behaviour: the same plan attached to the
same seed always produces the same simulation, because

* every fault fires at an absolute simulator time (``time_ns``), never
  at a wall-clock or random instant, and
* all randomness the fault layer consumes (NIC drop coin flips, retry
  backoff jitter) comes from dedicated named RNG streams (``"faults"``,
  ``"client_retry"``), so attaching a plan never perturbs the draws of
  the workload streams -- the stream-exact determinism contract the
  golden tests pin.

Being plain frozen dataclasses, plans hash cleanly through the sweep
runner's content-addressed cache (:func:`repro.runner.spec.fingerprint`)
and round-trip through JSON for the ``--faults`` CLI flag.

Fault kinds
-----------
==================  ======================  =================================
kind                target / subtarget      magnitude
==================  ======================  =================================
``server_crash``    server index            --  (paired: ``server_recover``)
``core_stall``      server idx / core idx   service-time slowdown factor > 1
``nic_drop``        server index            drop probability in (0, 1]
``tor_degrade``     switch port             bandwidth factor in (0, 1)
``tor_partition``   switch port             --  (silent blackhole)
``spine_degrade``   spine port (rack idx)   bandwidth factor in (0, 1)
``spine_partition`` spine port (rack idx)   --  (silent blackhole)
``manager_fail``    server idx / group idx  --  (one-shot, no pair)
==================  ======================  =================================

Port kinds are keyed by switch tier label: ``tor_*`` kinds target a
depth-1 fabric's switch (a rack's ToR, one port per server) and
``spine_*`` kinds a depth-2 fabric's switch (a datacenter's spine, one
port per rack); against any other system they are structurally
inapplicable and counted as skipped.  Against a fabric,
``server_crash`` and friends address its *members* (racks, at the
datacenter tier: that tier's unit of failure).

A ``duration_ns`` on a window kind expands into the paired recovery
event; one-shot kinds (``manager_fail``) take no duration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

#: Switch tier labels the port-fault kinds address: ``<label>_degrade``
#: and ``<label>_partition`` hit the switch of the fabric whose tier
#: carries that label (see :func:`repro.cluster.fabric.tier_names`).
PORT_FAULT_LABELS: Tuple[str, ...] = ("tor", "spine")

#: Fault kinds that open a window and are closed by a paired recovery
#: event (generated from ``duration_ns`` or listed explicitly).
PAIRED_KINDS: Dict[str, str] = {
    "server_crash": "server_recover",
    "core_stall": "core_resume",
    "nic_drop": "nic_drop_stop",
    "tor_degrade": "tor_restore",
    "tor_partition": "tor_heal",
    "spine_degrade": "spine_restore",
    "spine_partition": "spine_heal",
}

#: Recovery kinds, mapping back to the window they close.
RECOVERY_KINDS: Dict[str, str] = {v: k for k, v in PAIRED_KINDS.items()}

#: One-shot kinds with no recovery pair.
ONESHOT_KINDS: Tuple[str, ...] = ("manager_fail",)

#: Every kind accepted in a plan.
FAULT_KINDS: Tuple[str, ...] = (
    tuple(PAIRED_KINDS) + tuple(RECOVERY_KINDS) + ONESHOT_KINDS
)

#: Window kinds whose magnitude is required and range-checked.
_MAGNITUDE_RANGE = {
    "core_stall": (1.0, float("inf")),  # slowdown factor
    "nic_drop": (0.0, 1.0),  # drop probability (0 excluded below)
    "tor_degrade": (0.0, 1.0),  # bandwidth factor (both ends excluded)
    "spine_degrade": (0.0, 1.0),  # bandwidth factor (both ends excluded)
}


class FaultPlanError(ValueError):
    """Raised when a plan (or its JSON form) is malformed."""


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side timeout/retry behaviour while a plan is attached.

    Attributes
    ----------
    timeout_ns:
        Per-attempt response deadline.  An attempt with no response by
        then is counted ``timed_out`` and (budget permitting) retried.
    max_retries:
        Retry attempts *after* the original send; 0 disables retries
        (timeouts then fail the request immediately).
    backoff_base_ns / backoff_cap_ns:
        Capped exponential backoff: retry ``k`` (1-based) waits
        ``min(cap, base * 2**(k-1))``, scaled by jitter.
    jitter:
        Fractional +/- jitter applied to each backoff wait, drawn from
        the dedicated ``"client_retry"`` stream (0 = deterministic
        spacing; 0.5 = waits in [0.5x, 1.5x]).
    """

    timeout_ns: float = 50_000.0
    max_retries: int = 3
    backoff_base_ns: float = 10_000.0
    backoff_cap_ns: float = 100_000.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout_ns <= 0:
            raise FaultPlanError(
                f"timeout_ns must be positive, got {self.timeout_ns}"
            )
        if self.max_retries < 0:
            raise FaultPlanError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_ns < 0 or self.backoff_cap_ns < 0:
            raise FaultPlanError("backoff times must be >= 0")
        if self.backoff_cap_ns < self.backoff_base_ns:
            raise FaultPlanError(
                f"backoff_cap_ns ({self.backoff_cap_ns}) must be >= "
                f"backoff_base_ns ({self.backoff_base_ns})"
            )
        if not 0 <= self.jitter < 1:
            raise FaultPlanError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff_ns(self, retry_index: int) -> float:
        """Nominal (pre-jitter) wait before retry ``retry_index`` (1-based)."""
        return min(
            self.backoff_cap_ns, self.backoff_base_ns * 2 ** (retry_index - 1)
        )


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``duration_ns`` is expansion sugar: a window event carrying it is
    split into the start event plus its paired recovery event at
    ``time_ns + duration_ns`` (see :meth:`FaultPlan.expanded_events`).
    """

    time_ns: float
    kind: str
    target: int = 0
    subtarget: int = 0
    magnitude: float = 0.0
    duration_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}"
            )
        if self.time_ns < 0:
            raise FaultPlanError(f"time_ns must be >= 0, got {self.time_ns}")
        if self.target < 0 or self.subtarget < 0:
            raise FaultPlanError("target/subtarget must be >= 0")
        if self.duration_ns is not None:
            if self.kind not in PAIRED_KINDS:
                raise FaultPlanError(
                    f"{self.kind!r} takes no duration_ns (one-shot or "
                    "recovery event)"
                )
            if self.duration_ns <= 0:
                raise FaultPlanError(
                    f"duration_ns must be positive, got {self.duration_ns}"
                )
        rng = _MAGNITUDE_RANGE.get(self.kind)
        if rng is not None:
            lo, hi = rng
            if not lo <= self.magnitude <= hi or (
                self.kind in ("nic_drop", "tor_degrade", "spine_degrade")
                and not 0 < self.magnitude
            ) or (
                self.kind in ("tor_degrade", "spine_degrade")
                and self.magnitude >= 1.0
            ):
                raise FaultPlanError(
                    f"{self.kind!r} magnitude {self.magnitude} out of range"
                )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of :class:`FaultEvent` plus the client
    :class:`RetryPolicy` that rides with it."""

    events: Tuple[FaultEvent, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        # Tolerate list input (JSON, hand-written plans) by freezing it.
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    def expanded_events(self) -> List[FaultEvent]:
        """The concrete schedule: durations split into start/stop pairs,
        sorted by (time, declaration order) for deterministic firing."""
        concrete: List[FaultEvent] = []
        for event in self.events:
            if event.duration_ns is not None:
                stop_kind = PAIRED_KINDS[event.kind]
                concrete.append(replace(event, duration_ns=None))
                concrete.append(
                    FaultEvent(
                        time_ns=event.time_ns + event.duration_ns,
                        kind=stop_kind,
                        target=event.target,
                        subtarget=event.subtarget,
                    )
                )
            else:
                concrete.append(event)
        order = {id(e): i for i, e in enumerate(concrete)}
        concrete.sort(key=lambda e: (e.time_ns, order[id(e)]))
        return concrete

    # ------------------------------------------------------------------
    # JSON round-trip (the --faults CLI surface)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "retry": {
                "timeout_ns": self.retry.timeout_ns,
                "max_retries": self.retry.max_retries,
                "backoff_base_ns": self.retry.backoff_base_ns,
                "backoff_cap_ns": self.retry.backoff_cap_ns,
                "jitter": self.retry.jitter,
            },
            "events": [
                {
                    key: value
                    for key, value in (
                        ("time_ns", e.time_ns),
                        ("kind", e.kind),
                        ("target", e.target),
                        ("subtarget", e.subtarget),
                        ("magnitude", e.magnitude),
                        ("duration_ns", e.duration_ns),
                    )
                    if value is not None
                }
                for e in self.events
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {"retry", "events"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan keys {sorted(unknown)}; "
                "expected 'retry' and 'events'"
            )
        try:
            retry = RetryPolicy(**data.get("retry", {}))
            events = tuple(
                FaultEvent(**entry) for entry in data.get("events", [])
            )
        except TypeError as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc
        return cls(events=events, retry=retry)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
