"""SLO accounting: violation ratios and prediction accuracy.

* **prediction accuracy** (Secs. IV, VIII-E): correctly predicted SLO
  violations over total SLO violations.  With migrations active, a
  "violation" means *would have violated without intervention*: either
  it actually violated, or its no-migration counterfactual does.

Throughput@SLO (Sec. II-A) is read off a load sweep by
:func:`repro.experiments.common.throughput_at_slo`.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

from repro.workload.request import Request


def violation_ratio(requests: Iterable[Request], slo_ns: float) -> float:
    """Fraction of completed requests whose latency exceeds the target."""
    total = 0
    bad = 0
    for r in requests:
        if not r.completed or r.dropped:
            continue
        total += 1
        if r.latency > slo_ns:
            bad += 1
    if total == 0:
        return 0.0
    return bad / total


def counterfactual_violators(
    requests: Iterable[Request], slo_ns: float
) -> Set[int]:
    """Requests that violated, or would have violated without migration.

    A migrated request whose stamped ``no_migration_eta`` implies a
    latency beyond the SLO counts as a (prevented) violator.
    """
    bad: Set[int] = set()
    for r in requests:
        if not r.completed or r.dropped:
            continue
        if r.latency > slo_ns:
            bad.add(r.req_id)
        elif r.no_migration_eta is not None:
            if (r.no_migration_eta - r.arrival) > slo_ns:
                bad.add(r.req_id)
    return bad


def prediction_accuracy(
    requests: Sequence[Request],
    predicted_ids: Set[int],
    slo_ns: float,
) -> float:
    """Correctly predicted violations / total (counterfactual) violations.

    Returns 1.0 when there were no violations to predict (vacuous truth,
    matching how ">95% accuracy" is reported for the relaxed SLO=20A
    case in Fig. 13c).
    """
    violators = counterfactual_violators(requests, slo_ns)
    if not violators:
        return 1.0
    caught = len(violators & predicted_ids)
    return caught / len(violators)

