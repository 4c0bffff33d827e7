"""Command-line entry point: regenerate the paper's figures and tables.

Usage::

    altocumulus-exp fig10                 # one experiment, full scale
    altocumulus-exp all --scale 0.2       # everything, scaled down
    altocumulus-exp fig07 --out results/  # also write results/fig07.txt
    altocumulus-exp all --jobs 0          # fan sweeps out, one worker/CPU
    altocumulus-exp fig10 --no-cache      # force fresh execution

Sweep points fan out over ``--jobs`` worker processes and are memoized
in a content-addressed on-disk cache (``--cache-dir``, default
``~/.cache/altocumulus``), so a repeated invocation replays from disk
in seconds.  Results are bit-identical for a fixed ``--seed`` no matter
the job count; ``--jobs 1 --no-cache`` reproduces the historical fully
serial behavior exactly.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.runner import default_cache_dir, detect_jobs, get_config, overrides
from repro.experiments.registry import (
    experiment_description,
    get_experiment,
    list_experiments,
)

#: Friendly aliases accepted on the command line.
ALIASES = {
    "rack": "fig_rack",
    "chaos": "fig_chaos",
    "datacenter": "fig_datacenter",
    "adaptive": "fig_adaptive",
    "fanout": "fig_fanout",
    "contention": "fig_contention",
}


class UnknownExperimentError(ValueError):
    """Raised when the requested experiment id is not registered."""


def resolve_ids(experiment: str) -> List[str]:
    """Expand the CLI's experiment argument into registered ids.

    ``"all"`` expands to every id; aliases (``rack`` -> ``fig_rack``)
    are resolved; anything unregistered raises
    :class:`UnknownExperimentError`.
    """
    if experiment == "all":
        return list_experiments()
    exp_id = ALIASES.get(experiment, experiment)
    if exp_id not in list_experiments():
        raise UnknownExperimentError(
            f"unknown experiment {experiment!r}\n"
            f"available: {' '.join(list_experiments())} "
            f"(aliases: {' '.join(sorted(ALIASES))}; or 'all')"
        )
    return [exp_id]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="altocumulus-exp",
        description="Regenerate Altocumulus (MICRO'22) evaluation artifacts.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig10), an alias (rack), or 'all'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="request-count scale factor (default 1.0; benches use <1)",
    )
    parser.add_argument("--seed", type=int, default=1, help="master RNG seed")
    parser.add_argument(
        "--out", default=None, help="directory to write <exp_id>.txt into"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="with --out: also write <exp_id>.json",
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes for sweep points (0 = one per CPU, "
             f"here {detect_jobs()}; 1 = serial in-process; default 0)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache location "
             f"(default {default_cache_dir()})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--no-progress", action="store_true",
        help="suppress live sweep progress on stderr",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export per-request lifecycle spans as Chrome trace-event "
             "JSON (chrome://tracing / Perfetto); implies --jobs 1 and "
             "--no-cache so every run executes in-process",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="with --trace: record every Nth request (default 1 = all)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write every run's telemetry-registry snapshot as JSON; "
             "implies --jobs 1 and --no-cache",
    )
    parser.add_argument(
        "--faults", default=None, metavar="PATH",
        help="inject a FaultPlan (JSON, see docs/faults.md) into every "
             "run of the experiment that does not set its own plan",
    )
    parser.add_argument(
        "--controller", default=None, metavar="NAME",
        help="attach an adaptive control loop to every run of the "
             "experiment that does not set its own (static | hysteresis "
             "| bandit, see docs/architecture.md)",
    )
    parser.add_argument(
        "--control-epoch-ns", type=float, default=None, metavar="NS",
        help="with --controller: the control epoch on the simulated "
             "clock (default 20000)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the 25 hottest functions by "
             "cumulative time after each experiment (implies --jobs 1 so "
             "the profiled work stays in-process)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(exp_id) for exp_id in list_experiments())
        print("\n".join(
            f"{exp_id:<{width}}  {experiment_description(exp_id)}"
            for exp_id in list_experiments()
        ))
        return 0

    if args.jobs < 0:
        print(f"error: --jobs must be >= 0, got {args.jobs}", file=sys.stderr)
        return 2

    if args.cache_dir and not args.no_cache:
        try:
            from repro.runner import ResultCache

            ResultCache(args.cache_dir)
        except NotADirectoryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        ids = resolve_ids(args.experiment)
    except UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    control_cfg = None
    if args.control_epoch_ns is not None and args.controller is None:
        print("error: --control-epoch-ns requires --controller",
              file=sys.stderr)
        return 2
    if args.controller is not None:
        from repro.control import (
            CONTROLLER_NAMES,
            ControlConfig,
            DEFAULT_CONTROL_EPOCH_NS,
        )

        if args.controller not in CONTROLLER_NAMES:
            print(
                f"error: --controller must be one of "
                f"{' | '.join(CONTROLLER_NAMES)}, got {args.controller!r}",
                file=sys.stderr,
            )
            return 2
        try:
            control_cfg = ControlConfig(
                controller=args.controller,
                epoch_ns=(
                    args.control_epoch_ns
                    if args.control_epoch_ns is not None
                    else DEFAULT_CONTROL_EPOCH_NS
                ),
            )
        except ValueError as exc:
            print(f"error: --controller: {exc}", file=sys.stderr)
            return 2

    fault_plan = None
    if args.faults is not None:
        from repro.faults import FaultPlan, FaultPlanError

        try:
            with open(args.faults) as handle:
                fault_plan = FaultPlan.from_json(handle.read())
        except (OSError, ValueError, FaultPlanError) as exc:
            print(f"error: --faults {args.faults}: {exc}", file=sys.stderr)
            return 2

    # The run-shaping flags stamp PointSpec fields; a spec that sets its
    # own value keeps it (see repro.runner.run_points).
    spec_defaults = {}
    if fault_plan is not None:
        spec_defaults["faults"] = fault_plan
    if control_cfg is not None:
        spec_defaults["control"] = control_cfg

    capturing = args.trace is not None or args.metrics_out is not None
    if capturing:
        # Worker processes have their own (inactive) capture globals and
        # cached points replay without executing, so telemetry capture
        # requires fresh in-process execution.
        if args.jobs not in (0, 1):
            print("[--trace/--metrics-out force --jobs 1]", file=sys.stderr)
        args.jobs = 1
        args.no_cache = True
    if args.trace is not None and args.trace_sample < 1:
        print(f"error: --trace-sample must be >= 1, got {args.trace_sample}",
              file=sys.stderr)
        return 2

    from repro.telemetry import TraceSink, capture

    sink = TraceSink(sample_every=args.trace_sample) if args.trace else None

    with capture(
        trace=sink, collect_metrics=args.metrics_out is not None
    ) as cap, overrides(
        jobs=1 if (args.profile or capturing) else args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=not args.no_progress,
        spec_defaults=spec_defaults,
    ):
        counters = get_config().counters
        for exp_id in ids:
            run = get_experiment(exp_id)
            before = counters.snapshot()
            started = time.time()
            if args.profile:
                import cProfile
                import pstats

                profiler = cProfile.Profile()
                profiler.enable()
                result = run(scale=args.scale, seed=args.seed)
                profiler.disable()
            else:
                result = run(scale=args.scale, seed=args.seed)
            elapsed = time.time() - started
            print(result.table())
            if args.profile:
                profile_stats = pstats.Stats(profiler, stream=sys.stdout)
                profile_stats.sort_stats("cumulative").print_stats(25)
            sweep = counters.delta(before)
            stats = ""
            if sweep.points:
                stats = (
                    f"; {sweep.points} sweep points, "
                    f"{sweep.cache_hits} cached, {sweep.executed} executed"
                )
            print(f"[{exp_id} completed in {elapsed:.1f}s{stats}]\n")
            if args.out:
                path = result.save(args.out)
                print(f"[wrote {path}]\n")
                if args.json:
                    print(f"[wrote {result.save_json(args.out)}]\n")

    if args.trace is not None:
        sink.export_chrome(args.trace)
        print(f"[wrote {args.trace}: {len(sink)} trace events"
              f"{f', {sink.dropped_events} overwritten' if sink.dropped_events else ''}]")
    if args.metrics_out is not None:
        import json

        with open(args.metrics_out, "w") as handle:
            json.dump({"runs": cap.runs}, handle, indent=2, sort_keys=True)
        print(f"[wrote {args.metrics_out}: {len(cap.runs)} run snapshots]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
