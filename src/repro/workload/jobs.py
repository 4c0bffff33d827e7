"""Job-structured requests: scatter-gather fan-out and multi-core gangs.

A :class:`Job` owns ``k`` sub-requests.  Two orthogonal axes generalize
the flat one-request/one-core model:

* **Fan-out** (scatter-gather, the tail-at-scale regime of RackSched's
  request model): a job scatters ``k`` sibling sub-requests across the
  fabric at one arrival instant and completes on the *last* response.
  Job latency is the max over siblings, so the job-level tail inflates
  roughly by the harmonic number ``H_k`` relative to a single request.
* **Core demand** (gang admission, per "Zero Queueing for Multi-Server
  Jobs"): a job demands ``c`` cores *simultaneously* for its span.  The
  scheduler holds it at the head of its queue until ``c`` cores are
  idle, then occupies all of them -- the primary sub-request carries the
  work, ``c - 1`` *gang shadows* (see :func:`make_gang_shadow`) occupy
  the remaining cores for exactly the same span.

This module holds the job vocabulary; the one open-loop
:class:`~repro.workload.generator.LoadGenerator` emits jobs of a given
:class:`JobShape` and finishes each at its last sibling's terminal.

Compilation contract: a trivial :class:`JobShape` (fan-out 1, demand 1)
compiles down to the flat ``Request`` path -- the generator emits plain
requests, draws nothing from the ``"jobs"`` stream and keeps no
:class:`Job` records, so existing runs stay bit-identical.

Determinism: all job shapes are pre-drawn from the dedicated ``"jobs"``
RNG stream at generator construction (one batch for fan-outs, one for
core demands), so the workload streams ("arrivals", "service",
"connections") see exactly the draw sequence the flat path would see
for the same number of emissions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.workload.request import Request

#: Gang shadows get req_ids derived from the primary's id at this
#: stride, so a shadow id can never collide with another primary's
#: shadows; it also bounds the per-job core demand.
GANG_SHADOW_STRIDE = 64

#: Parent-job trace marks live in their own id space, far above both
#: generator req_ids and the retry client's attempt ids (2**32), so
#: per-request and per-job telescoping spans never collide.
JOB_TRACE_ID_BASE = 2**33

# ----------------------------------------------------------------------
# Degree distributions
# ----------------------------------------------------------------------
class DegreeDistribution(abc.ABC):
    """An integer-valued distribution for fan-out / core-demand degrees.

    Separate from :class:`~repro.workload.service.ServiceDistribution`
    because degrees are small positive integers drawn once per *job*
    (not per sub-request) from the dedicated ``"jobs"`` stream.
    """

    @abc.abstractmethod
    def sample_many(self, rng: np.random.Generator, n: int) -> List[int]:
        """Draw ``n`` degrees (consumes the stream iff non-degenerate)."""

    @property
    @abc.abstractmethod
    def max_value(self) -> int:
        """Largest degree this distribution can produce."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected degree."""


class FixedDegree(DegreeDistribution):
    """Every job gets the same degree.  Draws nothing from the stream,
    so ``FixedDegree(1)`` is exactly the flat-request model."""

    def __init__(self, k: int = 1) -> None:
        if k < 1:
            raise ValueError(f"degree must be >= 1, got {k}")
        self.k = int(k)

    def sample_many(self, rng: np.random.Generator, n: int) -> List[int]:
        return [self.k] * n

    @property
    def max_value(self) -> int:
        return self.k

    @property
    def mean(self) -> float:
        return float(self.k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FixedDegree({self.k})"


class ChoiceDegree(DegreeDistribution):
    """Degrees drawn from a finite weighted support (one draw per job)."""

    def __init__(
        self,
        values: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not values:
            raise ValueError("need at least one degree value")
        self.values = tuple(int(v) for v in values)
        if any(v < 1 for v in self.values):
            raise ValueError(f"degrees must be >= 1, got {self.values}")
        if weights is None:
            self.weights: Tuple[float, ...] = tuple(
                1.0 / len(self.values) for _ in self.values
            )
        else:
            if len(weights) != len(values):
                raise ValueError("weights must match values in length")
            total = float(sum(weights))
            if total <= 0 or any(w < 0 for w in weights):
                raise ValueError(f"weights must be non-negative, got {weights}")
            self.weights = tuple(float(w) / total for w in weights)

    def sample_many(self, rng: np.random.Generator, n: int) -> List[int]:
        idx = rng.choice(len(self.values), size=n, p=list(self.weights))
        return [self.values[int(i)] for i in idx]

    @property
    def max_value(self) -> int:
        return max(self.values)

    @property
    def mean(self) -> float:
        return float(sum(v * w for v, w in zip(self.values, self.weights)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChoiceDegree({self.values}, {self.weights})"


class UniformDegree(DegreeDistribution):
    """Degrees uniform on the integers ``[lo, hi]`` (one draw per job)."""

    def __init__(self, lo: int, hi: int) -> None:
        if lo < 1 or hi < lo:
            raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
        self.lo = int(lo)
        self.hi = int(hi)

    def sample_many(self, rng: np.random.Generator, n: int) -> List[int]:
        return [int(v) for v in rng.integers(self.lo, self.hi + 1, size=n)]

    @property
    def max_value(self) -> int:
        return self.hi

    @property
    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniformDegree({self.lo}, {self.hi})"


# ----------------------------------------------------------------------
# Job shape (workload-level configuration)
# ----------------------------------------------------------------------
@dataclass
class JobShape:
    """Declarative job structure attached to a workload.

    Attributes
    ----------
    fanout:
        Sub-requests per job (scatter-gather width).  The job completes
        when the *last* sibling terminates.
    core_demand:
        Cores each sub-request occupies simultaneously (gang width).
        Demands above 1 require a gang-capable scheduler
        (:func:`system_supports_gang`).
    sibling_connections:
        ``"shared"`` -- all siblings of a job carry the job's one flow
        id, so hash steering pins the whole scatter to one destination
        (the tail-at-scale blow-up case); ``"distinct"`` -- each sibling
        draws its own flow id, so even hash steering spreads them.
    """

    fanout: DegreeDistribution = field(default_factory=FixedDegree)
    core_demand: DegreeDistribution = field(default_factory=FixedDegree)
    sibling_connections: str = "shared"

    def __post_init__(self) -> None:
        if self.sibling_connections not in ("shared", "distinct"):
            raise ValueError(
                "sibling_connections must be 'shared' or 'distinct', "
                f"got {self.sibling_connections!r}"
            )
        if self.core_demand.max_value > GANG_SHADOW_STRIDE:
            raise ValueError(
                f"core demand {self.core_demand.max_value} exceeds the "
                f"gang-width limit {GANG_SHADOW_STRIDE}"
            )

    @property
    def is_trivial(self) -> bool:
        """True when every job is one sub-request on one core -- the
        shape that compiles down to the flat ``Request`` path."""
        return (
            isinstance(self.fanout, FixedDegree)
            and self.fanout.k == 1
            and isinstance(self.core_demand, FixedDegree)
            and self.core_demand.k == 1
        )


# ----------------------------------------------------------------------
# Job record
# ----------------------------------------------------------------------
class Job:
    """One job and its lifecycle: ``fanout`` sub-requests scattered at
    ``arrival``, complete at the last sibling's terminal.

    Ducks the measurement interface of :class:`Request` (``completed``,
    ``dropped``, ``finished``, ``arrival``) so the latency summarizers
    in :mod:`repro.analysis.metrics` work on job lists unchanged.
    """

    __slots__ = (
        "job_id", "arrival", "fanout", "core_demand", "connection",
        "terminals", "failed_subs", "finished",
    )

    def __init__(
        self,
        job_id: int,
        arrival: float,
        fanout: int,
        core_demand: int,
        connection: int,
    ) -> None:
        self.job_id = job_id
        self.arrival = arrival
        self.fanout = fanout
        self.core_demand = core_demand
        self.connection = connection
        #: Siblings that reached a terminal state (completed or dropped).
        self.terminals = 0
        #: Siblings that terminated without completing.
        self.failed_subs = 0
        #: Time of the last sibling terminal, once all arrived.
        self.finished: Optional[float] = None

    @property
    def dropped(self) -> bool:
        """A job is dropped iff any sibling failed (all-or-nothing)."""
        return self.finished is not None and self.failed_subs > 0

    @property
    def completed(self) -> bool:
        return self.finished is not None and self.failed_subs == 0

    @property
    def latency(self) -> float:
        """Job latency: first scatter to last sibling response, in ns."""
        if self.finished is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.finished - self.arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = (
            "done" if self.completed
            else ("dropped" if self.dropped else "open")
        )
        return (
            f"<Job #{self.job_id} k={self.fanout} c={self.core_demand} "
            f"{self.terminals}/{self.fanout} {status}>"
        )


# ----------------------------------------------------------------------
# Gang shadows
# ----------------------------------------------------------------------
def make_gang_shadow(primary: Request, index: int) -> Request:
    """A placeholder occupying one secondary core of a gang.

    The shadow runs for exactly the primary's service time but is fenced
    out of system-level accounting (``gang_shadow`` short-circuits
    ``RpcSystem._request_completed``): stats, hooks, latency histograms
    and run termination only ever see the primary.  Shadow req_ids are
    negative and derived from the primary at :data:`GANG_SHADOW_STRIDE`,
    so they are distinct per (primary, slot) and can never collide with
    generator or retry-attempt ids.
    """
    if not 1 <= index < GANG_SHADOW_STRIDE:
        raise ValueError(
            f"gang shadow index must be in [1, {GANG_SHADOW_STRIDE}), "
            f"got {index}"
        )
    shadow = Request(
        req_id=-((primary.req_id + 1) * GANG_SHADOW_STRIDE + index),
        arrival=primary.arrival,
        service_time=primary.service_time,
        size_bytes=primary.size_bytes,
        connection=primary.connection,
        job_id=primary.job_id,
        fanout=primary.fanout,
        sibling_index=primary.sibling_index,
        core_demand=primary.core_demand,
        gang_shadow=True,
    )
    shadow.enqueued = primary.enqueued
    return shadow


def system_supports_gang(system) -> bool:
    """True when ``system`` admits multi-core gang jobs -- it (or, for a
    fabric of any depth, every leaf scheduler) declares
    ``supports_gang``."""
    # Imported here: repro.cluster imports this package's tenant model,
    # so a module-scope import would cycle.
    from repro.cluster.fabric import Fabric

    leaves = system.leaves() if isinstance(system, Fabric) else [system]
    return all(getattr(leaf, "supports_gang", False) for leaf in leaves)


__all__ = [
    "GANG_SHADOW_STRIDE",
    "JOB_TRACE_ID_BASE",
    "DegreeDistribution",
    "FixedDegree",
    "ChoiceDegree",
    "UniformDegree",
    "JobShape",
    "Job",
    "make_gang_shadow",
    "system_supports_gang",
]
