#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

A is the baseline and B the candidate.  For every (metric, workload)
pair this prints both values, B's change relative to A, the metric's
bound from BENCHMARK.json and a verdict:

* end-to-end metrics: ``ok`` when B is not worse than A by more than the
  bound; ``worse`` when it is and A's own run-to-run spread (quartile
  distance over median of its samples) is within the bound;
  ``unresolved`` when that spread is wider than the bound;
* exact metrics (simulated work counts and profiled call counts, which a
  deterministic run repeats exactly): ``same`` or ``differs``;
* other per-layer metrics: no verdict.

It also reports whether each workload's fingerprint and outcome counts
match.  Files whose host, nproc, seed, scale or run length differ are
refused (exit 2).  Exit 1 when any pair is worse or differs, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SAME_RUN = ("host", "nproc", "seed", "scale", "rounds", "seconds")
#: Where each end-to-end metric's run-to-run samples are kept.
SAMPLES = {"req_per_ref": "req_per_ref", "setup_s": "import_s"}


def spread(samples: List[float]) -> float:
    """Quartile distance over median (0 with fewer than two samples)."""
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median if median else 0.0


def verdict(a: float, b: float, better: str, bound: float,
            a_spread: float) -> str:
    worse_by = (a - b if better == "higher" else b - a) / a if a else 0.0
    if worse_by <= bound:
        return "ok"
    return "unresolved" if a_spread > bound else "worse"


def compare(a: Dict, b: Dict, bench: Dict) -> int:
    mismatched = [k for k in SAME_RUN
                  if a["provenance"].get(k) != b["provenance"].get(k)]
    if mismatched:
        print("refusing to compare runs that differ in: "
              + ", ".join(f"{k} ({a['provenance'].get(k)!r} vs "
                          f"{b['provenance'].get(k)!r})" for k in mismatched),
              file=sys.stderr)
        return 2
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    bad = False
    print(f"{'workload':8s} {'metric':32s} {'A':>14s} {'B':>14s} "
          f"{'delta':>9s} {'bound':>6s}  verdict")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b.get("workloads", {}).get(name)
        if wb is None:
            print(f"{name:8s} missing from B")
            bad = True
            continue
        for key in ("fingerprint", "attempted", "failed"):
            same = wa[key] == wb[key]
            bad |= not same
            print(f"{name:8s} {key:32s} {'same' if same else 'DIFFERS'}")
        exact = set(wa["exact"])
        for metric, va in wa["metrics"].items():
            vb = wb["metrics"].get(metric)
            if vb is None:
                print(f"{name:8s} {metric:32s} missing from B")
                bad = True
                continue
            x, y = va["value"], vb["value"]
            delta = f"{(y - x) / x:+.2%}" if x else "-"
            bound: Optional[float] = None
            if metric in end_to_end:
                m = end_to_end[metric]
                bound = m["bound"]
                a_spread = spread(wa["samples"].get(SAMPLES.get(metric), []))
                note = verdict(x, y, m["better"], bound, a_spread)
                bad |= note == "worse"
            elif metric in exact:
                note = "same" if x == y else "differs"
                bad |= x != y
            else:
                note = "-"
            shown = "-" if bound is None else f"{bound:.0%}"
            print(f"{name:8s} {metric:32s} {x:>14.6g} {y:>14.6g} "
                  f"{delta:>9s} {shown:>6s}  {note}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    return compare(a, b, json.loads(BENCHMARK.read_text()))


if __name__ == "__main__":
    sys.exit(main())
