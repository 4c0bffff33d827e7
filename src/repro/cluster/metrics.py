"""Fabric-wide measurement: imbalance, steering counters, tenant SLOs.

A fabric tier's evaluation questions are distributional -- how unevenly
did load land across members, what did steering decide, which tenants
kept their SLOs -- so this module turns a
:class:`~repro.cluster.fabric.Fabric` of any depth into small summaries,
named by the fabric's tier (``cluster.*``/``srv<i>``/``switch`` for a
rack, ``datacenter.*``/``rack<i>``/``spine`` for a datacenter):

* :func:`imbalance_index` -- max/mean of any per-member quantity (1.0 is
  perfect balance; N is everything-on-one-member for N members).
* :func:`register_fabric_instruments` -- steering and balance as live
  instruments in the fabric's :class:`~repro.telemetry.MetricRegistry`,
  whose snapshot every sweep point carries through the runner cache.
  Pure counts stay ints; only genuinely fractional quantities are
  floats.
* :class:`TenantSlo` -- live per-tenant SLO attainment, a completion
  hook plus ``tenant.<name>.*`` instruments.

Per-member detail needs no code here: a fabric attaches each member's
registry as a child, so one snapshot already contains every level
(``rack<i>.cluster.*``, ``rack<i>.srv<j>.*``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.workload.tenants import TenantClass, TenantMix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.fabric import Fabric
    from repro.telemetry import MetricRegistry
    from repro.workload.request import Request


def imbalance_index(counts: Sequence[float]) -> float:
    """Max-over-mean of a per-member quantity.

    1.0 means perfectly balanced; ``len(counts)`` means one member took
    everything.  0.0 when the fabric saw no traffic at all.
    """
    if not counts:
        return 0.0
    total = float(sum(counts))
    if total <= 0:
        return 0.0
    mean = total / len(counts)
    return max(counts) / mean


def per_member_completed(fabric: "Fabric") -> List[int]:
    """Completed-request count per member."""
    return [member.stats.completed for member in fabric.members]


def register_fabric_instruments(
    fabric: "Fabric", registry: "MetricRegistry"
) -> None:
    """Bind live ``<namespace>.*`` instruments for a fabric.

    They read live state (through ``fabric.policy``, so a runtime
    policy swap stays visible) at every registry snapshot:

    * ``imbalance_index`` -- max/mean of per-member completions.
    * ``steer_imbalance`` -- max/mean of steering decisions (how uneven
      the *policy* was, before any queueing happened).
    * ``steer_<member><i>`` -- requests steered to each member.
    * ``steer_refreshes`` (power-of-d) / ``steer_samples``
      (shortest-wait) -- how much telemetry the policy consumed.

    Switch accounting lives under ``<namespace>.<switch>.*``.
    """
    ns = fabric.names.namespace
    member = fabric.names.member
    registry.gauge(
        f"{ns}.imbalance_index",
        fn=lambda: imbalance_index(per_member_completed(fabric)),
    )
    registry.gauge(
        f"{ns}.steer_imbalance",
        fn=lambda: imbalance_index(fabric.policy.decisions),
    )
    for i in range(len(fabric.members)):
        registry.counter(
            f"{ns}.steer_{member}{i}",
            fn=lambda i=i: int(fabric.policy.decisions[i]),
        )
    if getattr(fabric.policy, "refreshes", None) is not None:
        registry.counter(
            f"{ns}.steer_refreshes",
            fn=lambda: int(fabric.policy.refreshes),
        )
    if getattr(fabric.policy, "samples_taken", None) is not None:
        registry.counter(
            f"{ns}.steer_samples",
            fn=lambda: int(fabric.policy.samples_taken),
        )


class TenantSlo:
    """Live per-tenant SLO attainment, fed as a fabric completion hook.

    Requests on connections outside the mix's connection space belong to
    no tenant and are skipped, by the same :meth:`TenantMix.owns` filter
    :func:`~repro.workload.tenants.tenant_slo_summary` applies.
    """

    def __init__(self, tenants: Sequence[TenantClass]) -> None:
        self.mix = TenantMix(tenants)
        self.completed: List[int] = [0] * len(self.mix)
        self.slo_met: List[int] = [0] * len(self.mix)

    def record(self, request: "Request") -> None:
        mix = self.mix
        connection = request.connection
        if not mix.owns(connection):
            return
        tenant = mix.tenant_of(connection)
        self.completed[tenant] += 1
        if request.latency <= mix.tenants[tenant].slo_ns:
            self.slo_met[tenant] += 1

    def register_instruments(self, registry: "MetricRegistry") -> None:
        """Bind ``tenant.<name>.*`` instruments: snapshots mid-run show
        attainment so far, not just the final number."""
        for t, tenant in enumerate(self.mix.tenants):
            prefix = f"tenant.{tenant.name}"
            registry.counter(
                f"{prefix}.completed", fn=lambda t=t: self.completed[t]
            )
            registry.counter(
                f"{prefix}.slo_met", fn=lambda t=t: self.slo_met[t]
            )
            registry.gauge(
                f"{prefix}.attainment",
                fn=lambda t=t: (
                    self.slo_met[t] / self.completed[t]
                    if self.completed[t]
                    else 1.0
                ),
            )
