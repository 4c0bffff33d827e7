"""Multi-tenant traffic classes: production-shaped load for the fabric.

A datacenter fabric never serves one uniform request stream: it serves
*tenants*, each with its own traffic share, latency SLO, key-popularity
skew, and connection count.  This module models that mix declaratively:

* :class:`TenantClass` -- one tenant's traffic contract (share of the
  offered load, SLO target, Zipf skew over its own flows, how many
  logical connections it keeps open).
* :class:`TenantMix` -- a validated set of tenant classes.  It owns the
  partition of the global connection-id space into contiguous per-tenant
  blocks, so a request's tenant is recoverable from its ``connection``
  field alone (``tenant_of``) -- no per-request tagging, no new fields
  on the hot-path :class:`~repro.workload.request.Request`.
* :class:`TenantConnectionPool` -- a drop-in
  :class:`~repro.workload.connections.ConnectionPool` that first picks a
  tenant by traffic share, then a flow within the tenant by its own Zipf
  law.  Both picks are folded into **one** uniform draw per request
  (inverse-CDF in both stages), so the pool consumes exactly one stream
  value per request regardless of tenant count -- the same
  chunk-invariant determinism contract the base pool's batched sampling
  relies on -- and scales to millions of logical connections because
  sampling is a binary search, never a linear scan.
* :class:`SuperposedArrivals` -- the merge of per-tenant arrival
  processes into one aggregate :class:`~repro.workload.arrivals.ArrivalProcess`
  (e.g. one bursty MMPP tenant riding on Poisson background tenants).
* :func:`tenant_slo_summary` -- per-tenant SLO attainment and latency
  percentiles over a finished request set: the post-hoc reference for
  the ``tenant.<name>.*`` instruments a fabric keeps live.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.workload.arrivals import ArrivalProcess
from repro.workload.connections import ConnectionPool
from repro.workload.request import Request

#: Tenant names become metric-name segments (``tenant.<name>.slo_met``),
#: so they must be valid lowercase identifiers.
_TENANT_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


@dataclass(frozen=True)
class TenantClass:
    """One tenant's traffic contract.

    Attributes
    ----------
    name:
        Lowercase identifier; doubles as the metric namespace segment.
    share:
        Fraction of the offered load this tenant contributes, in (0, 1].
        A mix's shares must sum to 1.
    slo_ns:
        The tenant's latency SLO target (attainment = fraction of its
        completed requests at or under this).
    zipf_s:
        Key/flow skew *within* the tenant: 0 = uniform over its
        connections, larger = hot-flow dominated (same convention as
        :class:`~repro.workload.connections.ConnectionPool`).
    n_connections:
        Logical connections the tenant keeps open.  Only a cumulative
        weight array scales with this, so millions are fine.
    """

    name: str
    share: float
    slo_ns: float
    zipf_s: float = 0.0
    n_connections: int = 1024

    def __post_init__(self) -> None:
        if not _TENANT_NAME_RE.match(self.name):
            raise ValueError(
                f"tenant name {self.name!r} must match {_TENANT_NAME_RE.pattern}"
            )
        if not 0 < self.share <= 1:
            raise ValueError(f"share must be in (0, 1], got {self.share}")
        if self.slo_ns <= 0:
            raise ValueError(f"slo_ns must be positive, got {self.slo_ns}")
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")
        if self.n_connections <= 0:
            raise ValueError(
                f"need at least one connection, got {self.n_connections}"
            )


class TenantMix:
    """A validated tenant set plus the connection-space partition.

    Tenant ``t`` owns the contiguous connection-id block
    ``[offset(t), offset(t) + n_connections(t))``; blocks are laid out in
    declaration order.  ``tenant_of`` inverts the mapping with one binary
    search.
    """

    def __init__(self, tenants: Iterable[TenantClass]) -> None:
        self.tenants: Tuple[TenantClass, ...] = tuple(tenants)
        if not self.tenants:
            raise ValueError("a tenant mix needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        total_share = sum(t.share for t in self.tenants)
        if abs(total_share - 1.0) > 1e-9:
            raise ValueError(
                f"tenant shares must sum to 1, got {total_share:.6f}"
            )
        self._shares = np.array([t.share for t in self.tenants], dtype=float)
        #: Cumulative share edges; the last edge is forced to exactly 1.0
        #: so a uniform draw in [0, 1) always lands in some tenant.
        self._cum_shares = np.cumsum(self._shares)
        self._cum_shares[-1] = 1.0
        counts = np.array([t.n_connections for t in self.tenants], dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))

    @property
    def names(self) -> List[str]:
        return [t.name for t in self.tenants]

    @property
    def total_connections(self) -> int:
        return int(self._offsets[-1])

    def offset(self, tenant: int) -> int:
        """First connection id owned by ``tenant``."""
        return int(self._offsets[tenant])

    def owns(self, connection: int) -> bool:
        """True when ``connection`` lies in some tenant's block.  Traffic
        outside the pool (a workload not drawn from the tenant pool)
        belongs to no tenant."""
        return 0 <= connection < self.total_connections

    def tenant_of(self, connection: int) -> int:
        """Index of the tenant owning ``connection``."""
        if not 0 <= connection < self.total_connections:
            raise ValueError(
                f"connection {connection} outside [0, {self.total_connections})"
            )
        return int(np.searchsorted(self._offsets, connection, side="right")) - 1

    def __len__(self) -> int:
        return len(self.tenants)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{t.name}:{t.share:.0%}" for t in self.tenants
        )
        return f"<TenantMix {parts}>"


class TenantConnectionPool(ConnectionPool):
    """Connection sampling over a tenant mix, one uniform draw each.

    Each draw ``u ~ U[0, 1)`` is consumed twice by inverse-CDF: the
    tenant is ``searchsorted(cum_shares, u)``, and the residual
    ``v = (u - lo) / share`` -- itself uniform in [0, 1) -- picks the
    flow inside the tenant through the tenant's own Zipf inverse CDF
    (or a plain scaling for uniform tenants).  Consuming exactly one
    stream value per request keeps batched sampling bit-identical to
    scalar sampling, the contract the load generator's prefetch relies
    on.
    """

    def __init__(self, mix: Union[TenantMix, Sequence[TenantClass]]) -> None:
        if not isinstance(mix, TenantMix):
            mix = TenantMix(mix)
        self.mix = mix
        self.n_connections = mix.total_connections
        self.zipf_s = 0.0  # per-tenant skew lives in the mix
        self._weights = None  # base-class uniform marker (unused paths)
        #: Per-tenant cumulative flow-popularity CDF (None = uniform).
        self._tenant_cdf: List[object] = []
        for t in mix.tenants:
            if t.zipf_s == 0.0:
                self._tenant_cdf.append(None)
            else:
                ranks = np.arange(1, t.n_connections + 1, dtype=float)
                weights = ranks**-t.zipf_s
                self._tenant_cdf.append(np.cumsum(weights / weights.sum()))

    def _flows_from_uniform(
        self, tenant: int, v: np.ndarray
    ) -> np.ndarray:
        """Map uniforms in [0, 1) to flow indices within ``tenant``."""
        n = self.mix.tenants[tenant].n_connections
        cdf = self._tenant_cdf[tenant]
        if cdf is None:
            idx = (v * n).astype(np.int64)
        else:
            idx = np.searchsorted(cdf, v, side="right")
        # Float roundoff at the top edge must not escape the block.
        return np.minimum(idx, n - 1)

    def sample_many(self, rng: np.random.Generator, n: int) -> "list[int]":
        u = rng.random(n)
        tenant = np.searchsorted(self.mix._cum_shares, u, side="right")
        lo = self.mix._cum_shares - self.mix._shares
        v = (u - lo[tenant]) / self.mix._shares[tenant]
        out = np.empty(n, dtype=np.int64)
        for t in range(len(self.mix)):
            mask = tenant == t
            if not mask.any():
                continue
            out[mask] = self.mix.offset(t) + self._flows_from_uniform(
                t, v[mask]
            )
        return out.tolist()

    def sample(self, rng: np.random.Generator) -> int:
        return self.sample_many(rng, 1)[0]

    def popularity(self) -> Sequence[float]:
        """Per-connection traffic share, in connection-id order."""
        shares: List[float] = []
        for t, cdf in zip(self.mix.tenants, self._tenant_cdf):
            if cdf is None:
                shares.extend([t.share / t.n_connections] * t.n_connections)
            else:
                pmf = np.diff(np.concatenate(([0.0], cdf)))
                shares.extend((t.share * pmf).tolist())
        return shares


class SuperposedArrivals(ArrivalProcess):
    """The superposition (merge) of several arrival processes.

    Emits the union of the component processes' arrival instants, so a
    tenant mix can combine, say, one diurnal MMPP tenant with Poisson
    background tenants into the single gap stream the load generator
    pulls.  Component draws interleave deterministically on the shared
    stream in next-arrival order, and the internal clock makes batched
    ``next_gaps`` bit-identical to scalar draws.
    """

    def __init__(self, processes: Sequence[ArrivalProcess]) -> None:
        self.processes = list(processes)
        if not self.processes:
            raise ValueError("superposition needs at least one process")
        self._now_ns = 0.0
        self._next_at: List[float] = []

    def next_gap(self, rng: np.random.Generator) -> float:
        if not self._next_at:
            self._next_at = [
                self._now_ns + p.next_gap(rng) for p in self.processes
            ]
        i = min(range(len(self._next_at)), key=self._next_at.__getitem__)
        at = self._next_at[i]
        gap = at - self._now_ns
        self._now_ns = at
        self._next_at[i] = at + self.processes[i].next_gap(rng)
        return gap

    @property
    def mean_rate(self) -> float:
        return sum(p.mean_rate for p in self.processes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SuperposedArrivals of {len(self.processes)}>"


def tenant_slo_summary(
    requests: Sequence[Request], mix: TenantMix
) -> Dict[str, Dict[str, float]]:
    """Per-tenant SLO attainment and latency over finished requests.

    Returns ``{tenant_name: {completed, slo_met, attainment, p50_ns,
    p99_ns}}``.  Attainment is the fraction of the tenant's completed
    requests with latency at or under its ``slo_ns`` (1.0 for a tenant
    that saw no traffic: an idle tenant has no violations).  Requests on
    connections the mix does not own are charged to no tenant.
    """
    # Imported here: the analysis package itself imports the workload
    # package (request records), so a module-scope import would cycle.
    from repro.analysis.metrics import summarize_latencies

    buckets: List[List[Request]] = [[] for _ in mix.tenants]
    for r in requests:
        if r.finished is None or not mix.owns(r.connection):
            continue
        buckets[mix.tenant_of(r.connection)].append(r)
    out: Dict[str, Dict[str, float]] = {}
    for tenant, bucket in zip(mix.tenants, buckets):
        met = sum(1 for r in bucket if r.latency <= tenant.slo_ns)
        lat = summarize_latencies(bucket)
        out[tenant.name] = {
            "completed": len(bucket),
            "slo_met": met,
            "attainment": met / len(bucket) if bucket else 1.0,
            "p50_ns": lat.p50,
            "p99_ns": lat.p99,
        }
    return out
