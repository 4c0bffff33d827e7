#!/usr/bin/env python
"""Compare two pytest-benchmark JSON files and gate on regression.

Usage::

    python tools/compare_bench.py BASELINE.json CANDIDATE.json \
        [--threshold 0.02] [--benchmarks name1,name2]

For every benchmark present in both files (optionally restricted with
``--benchmarks``), the candidate's ``stats.min`` is compared to the
baseline's.  ``min`` is the least noise-sensitive point estimate a
microbenchmark produces -- the fastest observed run bounds the true cost
from above on both sides.  Exits 1 if any compared benchmark regressed
by more than ``--threshold`` (relative), which is how CI and ``make
bench-gate`` enforce the <=2% telemetry-overhead budget on the gated
microbenchmarks.  Exits 2 without comparing when the two files were
recorded on hosts with different CPU counts (``machine_info.cpu.count``):
their timings do not measure the same thing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional


def load_mins(path: str) -> Dict[str, float]:
    """Benchmark name -> stats.min from a pytest-benchmark JSON file."""
    with open(path) as handle:
        doc = json.load(handle)
    return {b["name"]: float(b["stats"]["min"]) for b in doc["benchmarks"]}


def cpu_count(path: str) -> Optional[int]:
    """The recording host's ``machine_info.cpu.count`` (None if absent)."""
    with open(path) as handle:
        doc = json.load(handle)
    return doc.get("machine_info", {}).get("cpu", {}).get("count")


def compare(
    baseline: Dict[str, float],
    candidate: Dict[str, float],
    threshold: float,
    only: Optional[List[str]] = None,
) -> List[str]:
    """Return a list of human-readable regression messages (empty = pass).

    Raises :class:`KeyError` if a requested benchmark is missing from
    either side -- a silently skipped gate is worse than a failing one.
    """
    names = only if only is not None else sorted(
        set(baseline) & set(candidate)
    )
    if not names:
        def _listing(mins: Dict[str, float]) -> str:
            return ", ".join(sorted(mins)) if mins else "<none>"

        raise KeyError(
            "no benchmarks in common between the two files -- nothing "
            "was gated (baseline has: "
            f"{_listing(baseline)}; candidate has: {_listing(candidate)})"
        )
    failures: List[str] = []
    for name in names:
        if name not in baseline:
            raise KeyError(f"benchmark {name!r} missing from baseline")
        if name not in candidate:
            raise KeyError(f"benchmark {name!r} missing from candidate")
        base, cand = baseline[name], candidate[name]
        delta = cand / base - 1.0
        verdict = "FAIL" if delta > threshold else "ok"
        print(f"{verdict:>4}  {name}: min {base:.6g}s -> {cand:.6g}s "
              f"({delta:+.2%}, threshold +{threshold:.0%})")
        if delta > threshold:
            failures.append(
                f"{name} regressed {delta:+.2%} (> +{threshold:.0%})"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline pytest-benchmark JSON")
    parser.add_argument("candidate", help="candidate pytest-benchmark JSON")
    parser.add_argument(
        "--threshold", type=float, default=0.02,
        help="max allowed relative regression of stats.min (default 0.02)",
    )
    parser.add_argument(
        "--benchmarks", default=None, metavar="N1,N2",
        help="comma-separated benchmark names to gate on (default: all "
             "benchmarks present in both files)",
    )
    args = parser.parse_args(argv)
    only = args.benchmarks.split(",") if args.benchmarks else None
    baseline_cpus = cpu_count(args.baseline)
    candidate_cpus = cpu_count(args.candidate)
    if baseline_cpus != candidate_cpus:
        print(
            f"error: the baseline was recorded on {baseline_cpus} CPUs and "
            f"the candidate on {candidate_cpus}; nothing was gated",
            file=sys.stderr,
        )
        return 2
    try:
        failures = compare(
            load_mins(args.baseline), load_mins(args.candidate),
            args.threshold, only,
        )
    except KeyError as exc:
        # exc.args[0], not str(exc): KeyError repr-quotes its message.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
