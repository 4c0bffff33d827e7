#!/usr/bin/env python3
"""Simulation-rate benchmark: five workloads, host time per layer, output checks.

Run from the repository root:

    python3 bench/run.py [--workload NAME]... [--seed N]
                         [--rounds R | --seconds S] [--scale X]
                         [--trace 0|1] [--out FILE]

The plan, one step at a time, with load generated in a single thread:

1. three fresh ``python -c "import repro.api"`` processes time the import;
2. one untimed warm-up run of every workload fills caches and finishes
   lazy imports;
3. timed rounds run every workload once, rotating the order each round
   so slow host phases spread across workloads: ``--rounds`` of them, or
   as many as fit in ``--seconds`` per workload (at least three); each
   timed run is bracketed by timings of the reference loop
   (``reference.py``), which track the host's current speed;
4. unless ``--trace 1``, one run per workload under ``tracemalloc``, in
   a fresh process after two warm-up runs;
5. unless ``--trace 0``, one run per workload under ``cProfile``.

Every run uses the same seed and so simulates identical work.  Every
run's outputs are checked (see ``measure.check``), and its fingerprint
must match every other run of its workload.  Metrics are printed by name
and unit.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``, both without
``--trace``; names get a ``<workload>.`` prefix when several workloads
run.  ``--out`` also writes every number, with provenance, to one JSON
file and the raw cProfile dumps beside it.  Exit status: 0 when every
check passes, 1 when one fails, 2 on bad arguments or a missing program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

IMPORT_PROBES = 3
MIN_TIMED_ROUNDS = 3

WORK_UNITS = {
    "sim.events_per_req": "events/req",
    "hw.noc_msgs_per_req": "msgs/req",
    "core.migrations_per_req": "migr/req",
    "schedulers.probes_per_req": "probes/req",
    "schedulers.steal_hit_ratio": "fraction",
    "cluster.switch_wait_ns_mean": "ns",
    "datacenter.spine_wait_ns_mean": "ns",
    "kvs.admission_wait_ns_mean": "ns",
    "kvs.stale_read_ratio": "fraction",
    "faults.attempts_per_req": "attempts/req",
    "control.actuations": "count",
    "workload.subreq_per_job": "req/job",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Simulation-rate benchmark with per-layer host time.")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--rounds", type=int, default=7,
                        help="timed rounds (default 7)")
    length.add_argument("--seconds", type=float,
                        help="run timed rounds for this long per workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's request count")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: per-layer metrics only; 0: end-to-end only")
    parser.add_argument("--out", type=Path, help="write all results here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.scale <= 0:
        parser.error("--scale must be positive")
    return args


def _fresh_python(*args: str) -> str:
    """Standard output of a fresh interpreter that imports the program
    from this checkout."""
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, capture_output=True, text=True, timeout=600,
    ).stdout


def probe_import(n: int) -> List[float]:
    """Seconds to ``import repro.api`` in each of ``n`` fresh processes."""
    code = ("import time; t = time.perf_counter(); import repro.api; "
            "print(time.perf_counter() - t)")
    return [float(_fresh_python("-c", code)) for _ in range(n)]


def memory_pass(name: str, seed: int, scale: float) -> Dict[str, Any]:
    """The memory-pass record of ``name``, run in a fresh process."""
    record = json.loads(_fresh_python(
        str(BENCH / "measure.py"), name, str(seed), str(scale)))
    record["kind"] = "mem"
    return record


def _git(*args: str) -> Optional[str]:
    # The ceiling stops git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args: argparse.Namespace, started: str) -> Dict[str, Any]:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "scale": args.scale,
        "rounds": None if args.seconds is not None else args.rounds,
        "seconds": args.seconds,
        "started": started,
    }


def _per_ref(timed: List[Dict[str, Any]]) -> List[float]:
    """Each timed run's rate in requests per reference-loop time: the
    host's speed at that moment divides out (see reference.py)."""
    return [r["offered"] * r["ref_s"] / r["host_s"] for r in timed]


def summarize(records: Dict[str, List[Dict[str, Any]]], imports: List[float],
              trace: Optional[int]) -> Dict[str, Dict[str, Any]]:
    """Per-workload metrics, as ``{name: {"value", "unit"}}``."""
    out: Dict[str, Dict[str, Any]] = {}
    import_s = statistics.median(imports)
    for name, runs in records.items():
        timed = [r for r in runs if r["kind"] == "timed"]
        rates = [r["offered"] / r["host_s"] for r in timed]
        build_s = statistics.median(r["build_s"] for r in timed)
        q1, median, q3 = statistics.quantiles(rates, n=4)
        m: Dict[str, Any] = {}

        def put(metric: str, value: float, unit: str) -> None:
            m[metric] = {"value": value, "unit": unit}

        if trace != 1:
            put("req_per_ref", statistics.median(_per_ref(timed)), "req/ref")
            put("setup_s", import_s + build_s, "s")
            mem = next(r for r in runs if r["kind"] == "mem")
            put("peak_mem_mb", mem["peak_bytes"] / 2**20, "MiB")
        if trace != 0:
            traced = next(r for r in runs if r["kind"] == "trace")
            per_layer, total_s = layers.attribute(traced["profile"])
            # Self time is given as a share of the traced total, so that
            # an idle layer reads 0 as a fraction rather than as a time.
            put("trace.self_s", total_s, "s")
            for layer, v in per_layer.items():
                put(f"{layer}.share", v["self_s"] / total_s, "fraction")
                put(f"{layer}.calls", v["calls"], "count")
                put(f"{layer}.entries", v["entries"], "count")
            put("trace.named_share",
                sum(v["self_s"] for v in per_layer.values()) / total_s, "fraction")
            put("trace.overhead", traced["host_s"]
                / statistics.median(r["host_s"] for r in timed), "x")
            put("setup.import_s", import_s, "s")
            put("setup.build_s", build_s, "s")
            put("run.req_per_s_best", max(rates), "req/s")
            put("run.req_per_s_median", median, "req/s")
            put("run.req_per_s_q1", q1, "req/s")
            put("run.req_per_s_q3", q3, "req/s")
            put("run.ref_s", statistics.median(r["ref_s"] for r in timed), "s")
            for metric, unit in WORK_UNITS.items():
                put(metric, timed[0]["work"][metric], unit)
        out[name] = m
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; "
              f"choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    names = list(dict.fromkeys(names))
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")

    imports = probe_import(IMPORT_PROBES)
    records: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}

    def run(name: str, kind: str, mode: Optional[str] = None) -> None:
        record = measure.run_once(WORKLOADS[name], args.seed, args.scale, mode)
        record["kind"] = kind
        records[name].append(record)

    for name in names:
        run(name, "warmup")
    if args.seconds is None:
        def more(done: int) -> bool:
            return done < args.rounds
    else:
        deadline = time.perf_counter() + args.seconds * len(names)

        def more(done: int) -> bool:
            return done < MIN_TIMED_ROUNDS or time.perf_counter() < deadline
    rounds = 0
    while more(rounds):
        shift = rounds % len(names)
        for name in names[shift:] + names[:shift]:
            run(name, "timed")
        rounds += 1
    if args.trace != 1:
        for name in names:
            records[name].append(memory_pass(name, args.seed, args.scale))
    if args.trace != 0:
        for name in names:
            run(name, "trace", "trace")

    failures: List[str] = []
    for name, runs in records.items():
        for record in runs:
            failures += measure.check(name, record)
        prints = {r["fingerprint"] for r in runs}
        if len(prints) != 1:
            failures.append(f"{name}: nondeterministic: {len(prints)} "
                            f"distinct fingerprints over {len(runs)} runs")
    failures = list(dict.fromkeys(failures))  # identical runs fail alike
    metrics = summarize(records, imports, args.trace)

    for name, runs in records.items():
        print(f"{name:8s} fingerprint {runs[0]['fingerprint']} "
              f"({len(runs)} runs, {rounds} timed)")
        for metric, v in metrics[name].items():
            print(f"{name:8s} {metric:32s} {v['value']:>16.6g} {v['unit']}")
    for problem in failures:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    timed = [r for runs in records.values() for r in runs if r["kind"] == "timed"]
    if args.out is not None:
        write_out(args, started, records, imports, metrics, failures)
    flat = (metrics[names[0]] if len(names) == 1 else
            {f"{name}.{k}": v for name in names for k, v in metrics[name].items()})
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in timed),
        "failed": sum(r["failed"] for r in timed),
        "metrics": flat,
    }))
    return 1 if failures else 0


def write_out(args, started, records, imports, metrics, failures) -> None:
    """The full result file, with the raw cProfile dumps beside it."""
    args.out.parent.mkdir(parents=True, exist_ok=True)
    workloads = {}
    for name, runs in records.items():
        timed = [r for r in runs if r["kind"] == "timed"]
        for r in runs:
            if r["kind"] == "trace":
                r["profile"].dump_stats(
                    str(args.out.with_suffix(f".{name}.pstats")))
        workloads[name] = {
            "fingerprint": runs[0]["fingerprint"],
            "attempted": timed[0]["attempted"],
            "failed": timed[0]["failed"],
            "rounds": len(timed),
            "metrics": metrics[name],
            "exact": sorted(k for k, v in metrics[name].items()
                            if v["unit"] == "count" or k in WORK_UNITS),
            "samples": {
                "req_per_ref": _per_ref(timed),
                "import_s": imports,
                "build_s": [r["build_s"] for r in timed],
            },
        }
    args.out.write_text(json.dumps({
        "provenance": provenance(args, started),
        "correct": not failures,
        "failures": failures,
        "workloads": workloads,
    }, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
