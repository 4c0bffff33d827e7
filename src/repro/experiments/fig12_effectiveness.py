"""Fig. 12 -- group-size exploration and migration-effectiveness
breakdown.

(a) Group sizes on a 64-core system for AC_int and AC_rss: small groups
waste cores on managers; one giant group recreates the centralized
bottleneck (the manager's ~28 MRPS software dispatch ceiling for
AC_rss, remote-access variance for AC_int).  The paper lands on 16.

(b, c) Replay the *same* recorded workload through AC at several
migration periods and classify every migrated request via its stamped
counterfactual into Eff / InEff-without-harm / InEff-without-benefit /
False (harmful) -- Sec. VIII-D's four-way split -- plus the false-
migration count per period.
"""

from __future__ import annotations

from typing import List

from repro.analysis.effectiveness import MigrationClass, classify_migrations
from repro.core.config import AltocumulusConfig
from repro.core.scheduler import AltocumulusSystem
from repro.experiments.common import (
    ExperimentResult,
    best_at_slo,
    gentle_bursts,
    latency_throughput_curve,
    scaled,
)
from repro.runner import PointSpec, ref, run_points
from repro.workload.connections import ConnectionPool
from repro.workload.service import Bimodal

SERVICE = Bimodal(short_ns=500.0, long_ns=5_000.0, long_fraction=0.029)
L = 10.0
SLO_NS = L * SERVICE.mean

#: (groups, group size) splits of a 64-core system.
GROUP_SPLITS = [(8, 8), (4, 16), (2, 32), (1, 64)]
PERIODS_NS = [40.0, 200.0, 400.0, 1000.0]

# Effectiveness study runs at this 256-core configuration (paper Sec. VIII-C).
EFF_GROUPS, EFF_GROUP_SIZE, EFF_LOAD = 16, 16, 0.85


def _split_builder(sim, streams, n_groups: int, group_size: int,
                   variant: str):
    config = AltocumulusConfig(
        n_groups=n_groups,
        group_size=group_size,
        variant=variant,
        period_ns=200.0,
        bulk=16,
        concurrency=min(8, max(1, n_groups - 1)),
        slo_multiplier=L,
        steering_policy="round_robin",
    )
    return AltocumulusSystem(sim, streams, config)


def _group_size_rows(n_requests: int, seed: int) -> List[List[object]]:
    rows: List[List[object]] = []
    for variant in ("int", "rss"):
        for n_groups, group_size in GROUP_SPLITS:
            builder = ref(_split_builder, n_groups=n_groups,
                          group_size=group_size, variant=variant)
            workers = 64 - n_groups
            capacity = workers / SERVICE.mean * 1e9
            rates = [f * capacity for f in (0.5, 0.7, 0.8, 0.9, 0.95)]
            points = latency_throughput_curve(
                builder, rates, SERVICE, n_requests=n_requests, slo_ns=SLO_NS,
                seed=seed, label=f"fig12:{variant}:{n_groups}x{group_size}",
            )
            best = best_at_slo(points, SLO_NS)
            rows.append(
                [
                    "group_size",
                    f"ac_{variant}",
                    f"{n_groups}x{group_size}",
                    best.rate_rps / 1e6 if best is not None else 0.0,
                    min(p.p99_ns for p in points) / 1000.0,
                ]
            )
    return rows


def _eff_builder(sim, streams, period_ns: float):
    config = AltocumulusConfig(
        n_groups=EFF_GROUPS,
        group_size=EFF_GROUP_SIZE,
        variant="int",
        period_ns=period_ns,
        bulk=16,
        concurrency=8,
        slo_multiplier=L,
        offered_load=EFF_LOAD,
    )
    return AltocumulusSystem(sim, streams, config)


def _effectiveness_metrics(result, slo_ns: float) -> dict:
    """Worker-side distillation: the Sec. VIII-D four-way migration
    breakdown, computed from the stamped counterfactuals before the
    request log is discarded."""
    breakdown = classify_migrations(result.requests, slo_ns)
    return {
        "total": breakdown.total,
        "eff": breakdown.counts[MigrationClass.EFF],
        "ineff_no_harm": breakdown.counts[MigrationClass.INEFF_NO_HARM],
        "ineff_no_benefit": breakdown.counts[MigrationClass.INEFF_NO_BENEFIT],
        "false": breakdown.counts[MigrationClass.FALSE],
    }


def _effectiveness_rows(n_requests: int, seed: int) -> List[List[object]]:
    rows: List[List[object]] = []
    workers = EFF_GROUPS * (EFF_GROUP_SIZE - 1)
    rate = EFF_LOAD * workers / SERVICE.mean * 1e9
    # Strongly skewed steering: the replayed stream is dominated by
    # at-risk requests (the paper replays the baseline's 400K
    # SLO-violating RPCs), so the Eff/InEff split is meaningful.
    # Identical seed per period => identical replayed workload.
    specs = [
        PointSpec(
            builder=ref(_eff_builder, period_ns=period),
            service=SERVICE,
            rate_rps=rate,
            n_requests=n_requests,
            seed=seed,
            arrivals=ref(gentle_bursts),
            connections=ref(ConnectionPool.skewed, n_connections=128,
                            zipf_s=1.0),
            slo_ns=SLO_NS,
            metrics=ref(_effectiveness_metrics, slo_ns=SLO_NS),
            tag=f"period={period:.0f}ns",
        )
        for period in PERIODS_NS
    ]
    for period, point in zip(PERIODS_NS, run_points(specs, label="fig12bc")):
        m = point.metrics
        rows.append(
            [
                "effectiveness",
                f"period={period:.0f}ns",
                m["total"],
                m["eff"],
                m["ineff_no_harm"],
                m["ineff_no_benefit"],
                m["false"],
            ]
        )
    return rows


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Regenerate Fig. 12 (group sizing + migration effectiveness)."""
    n_requests_a = scaled(40_000, scale)
    n_requests_bc = scaled(120_000, scale)
    rows: List[List[object]] = []
    for row in _group_size_rows(n_requests_a, seed):
        rows.append(row + [None, None])
    rows_eff = _effectiveness_rows(n_requests_bc, seed)
    # Normalize column counts: panel (a) rows have 5 + 2 filler columns;
    # re-shape everything into a single 7-column table.
    table_rows: List[List[object]] = []
    for row in rows:
        table_rows.append(row[:7])
    for row in rows_eff:
        table_rows.append(row)
    return ExperimentResult(
        exp_id="fig12",
        title="Group-size exploration and migration effectiveness",
        headers=["panel", "config", "c1", "c2", "c3", "c4", "c5"],
        rows=table_rows,
        notes=(
            "panel 'group_size' columns: c1=split, c2=throughput@SLO (MRPS),\n"
            "  c3=best p99 (us).\n"
            "panel 'effectiveness' columns: c1=migrated, c2=Eff,\n"
            "  c3=InEff w/o harm, c4=InEff w/o benefit, c5=False.\n"
            "Expect: 16-core-ish groups win; eager (40ns) and lazy (1000ns)\n"
            "periods lose effectiveness; False counts stay tiny at 200ns."
        ),
    )
