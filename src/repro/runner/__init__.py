"""Parallel sweep orchestration with content-addressed result caching.

Every evaluation artifact in this repository is an embarrassingly
parallel sweep -- offered rates x seeds x system variants.  This package
turns those sweeps into data (one :class:`PointSpec` per run),
fans them out over a process pool (:class:`SweepRunner`), and memoizes
each point on disk under a stable content hash (:class:`ResultCache`),
so re-runs are instant, crashes resume, and ``--jobs N`` scales the
wall clock down with core count while staying bit-identical to serial
execution.

Typical use (the experiments layer)::

    from repro.runner import PointSpec, ref, run_points

    specs = [
        PointSpec(builder=ref(my_builder, n_cores=64),
                  service=Fixed(850.0), rate_rps=r, n_requests=40_000,
                  seed=1, slo_ns=8_500.0)
        for r in rates
    ]
    results = run_points(specs, label="fig13")   # obeys --jobs/--cache-dir

Entry points (CLI, benchmarks) opt into parallelism and caching through
:func:`configure` / :func:`overrides`; library callers can also drive a
:class:`SweepRunner` directly.
"""

from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.context import (
    RunnerConfig,
    SweepCounters,
    configure,
    detect_jobs,
    get_config,
    overrides,
)
from repro.runner.executor import (
    PointResult,
    TaskResult,
    execute_point,
    execute_spec,
)
from repro.runner.progress import ProgressPrinter, SweepProgress
from repro.runner.runner import (
    SweepRunner,
    SweepStats,
    run_points,
)
from repro.runner.spec import (
    CallableRef,
    PointSpec,
    SpecError,
    TaskSpec,
    fingerprint,
    maybe_ref,
    ref,
)

__all__ = [
    "CallableRef",
    "PointResult",
    "PointSpec",
    "ProgressPrinter",
    "ResultCache",
    "RunnerConfig",
    "SpecError",
    "SweepCounters",
    "SweepProgress",
    "SweepRunner",
    "SweepStats",
    "TaskResult",
    "TaskSpec",
    "configure",
    "default_cache_dir",
    "detect_jobs",
    "execute_point",
    "execute_spec",
    "fingerprint",
    "get_config",
    "maybe_ref",
    "overrides",
    "ref",
    "run_points",
]
