"""Parallel sweep orchestration with content-addressed caching.

:class:`SweepRunner` fans :class:`~repro.runner.spec.PointSpec`\\ s out
to a process pool, consults the on-disk result cache first, persists
each freshly executed point the moment it completes (crash-resume), and
always returns results in submission order so callers can zip specs and
results without caring about completion order.

:func:`run_points` is the convenience entry the experiments layer uses:
it reads the process-wide :mod:`repro.runner.context` configuration
(wired from ``altocumulus-exp --jobs/--cache-dir/--no-cache`` and the
benchmark harness's environment knobs) so experiment ``run(scale,
seed)`` signatures stay unchanged.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import MISSING, dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runner.cache import ResultCache
from repro.runner.context import RunnerConfig, get_config
from repro.runner.executor import PointResult, execute_point
from repro.runner.progress import ProgressPrinter, SweepProgress
from repro.runner.spec import PointSpec, fingerprint

#: Cap on in-flight submissions per worker; bounds parent-side memory
#: for huge sweeps without ever starving the pool.
_BACKLOG_PER_WORKER = 4


@dataclass
class SweepStats:
    """Execution accounting for one :meth:`SweepRunner.run` call."""

    points: int = 0
    cache_hits: int = 0
    elapsed_s: float = 0.0
    jobs: int = 1

    @property
    def executed(self) -> int:
        return self.points - self.cache_hits


class SweepRunner:
    """Executes batches of sweep points with caching and parallelism."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[SweepProgress], None]] = None,
        label: str = "sweep",
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1 (got {jobs}); use "
                             "RunnerConfig jobs=0 for CPU-count detection")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.label = label
        self.last_stats = SweepStats()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[PointSpec]) -> List[PointResult]:
        """Execute ``specs``; results are returned in submission order."""
        started = time.monotonic()
        results: List[Optional[PointResult]] = [None] * len(specs)
        keys: List[Optional[str]] = [None] * len(specs)
        misses: List[int] = []
        hits = 0
        done = 0

        for index, spec in enumerate(specs):
            if self.cache is None:
                misses.append(index)
                continue
            key = fingerprint(spec)
            keys[index] = key
            cached = self.cache.get(key)
            if cached is not None:
                cached.cache_hit = True
                results[index] = cached
                hits += 1
                done += 1
                self._report(len(specs), done, hits, started, finished=False)
            else:
                misses.append(index)

        if misses:
            if self.jobs > 1 and len(misses) > 1:
                done = self._run_pool(specs, misses, results, keys, done,
                                      hits, started)
            else:
                for index in misses:
                    results[index] = self._execute_and_store(
                        specs[index], keys[index]
                    )
                    done += 1
                    self._report(len(specs), done, hits, started,
                                 finished=False)

        elapsed = time.monotonic() - started
        self.last_stats = SweepStats(
            points=len(specs), cache_hits=hits, elapsed_s=elapsed,
            jobs=self.jobs,
        )
        self._report(len(specs), len(specs), hits, started, finished=True)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_pool(
        self,
        specs: Sequence[PointSpec],
        misses: List[int],
        results: List[Optional[PointResult]],
        keys: List[Optional[str]],
        done: int,
        hits: int,
        started: float,
    ) -> int:
        workers = min(self.jobs, len(misses))
        backlog = workers * _BACKLOG_PER_WORKER
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {}
            queue = iter(misses)
            exhausted = False
            while pending or not exhausted:
                while not exhausted and len(pending) < backlog:
                    try:
                        index = next(queue)
                    except StopIteration:
                        exhausted = True
                        break
                    pending[pool.submit(execute_point, specs[index])] = index
                if not pending:
                    break
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = pending.pop(future)
                    result = future.result()  # worker exceptions surface here
                    if self.cache is not None and keys[index] is not None:
                        self.cache.put(keys[index], result)
                    results[index] = result
                    done += 1
                    self._report(len(specs), done, hits, started,
                                 finished=False)
        return done

    def _execute_and_store(
        self, spec: PointSpec, key: Optional[str]
    ) -> PointResult:
        result = execute_point(spec)
        if self.cache is not None and key is not None:
            self.cache.put(key, result)
        return result

    def _report(
        self, total: int, done: int, hits: int, started: float, finished: bool
    ) -> None:
        if self.progress is None or total == 0:
            return
        self.progress(
            SweepProgress(
                label=self.label,
                total=total,
                done=done,
                cache_hits=hits,
                elapsed_s=time.monotonic() - started,
                finished=finished,
            )
        )


#: Declared ``PointSpec`` field defaults: the "unset" test for stamping.
_POINT_DEFAULTS = {
    f.name: f.default for f in fields(PointSpec) if f.default is not MISSING
}


def _stamp_defaults(specs: Sequence[PointSpec],
                    defaults: Dict[str, Any]) -> List[PointSpec]:
    """Apply ``defaults`` to every spec field still at its declared
    default; explicit values win."""
    stamped: List[PointSpec] = []
    for spec in specs:
        unset = {name: value for name, value in defaults.items()
                 if getattr(spec, name) == _POINT_DEFAULTS[name]}
        stamped.append(replace(spec, **unset) if unset else spec)
    return stamped


def run_points(
    specs: Sequence[PointSpec],
    label: str = "sweep",
    config: Optional[RunnerConfig] = None,
) -> List[PointResult]:
    """Run specs under the process-wide runner configuration.

    This is the experiments layer's one entry point: every simulated
    point of every experiment is a :class:`PointSpec` run here.  Serial
    and cache-less by default, parallel and cached when the CLI or
    benchmark harness configured it so.

    The configuration's ``spec_defaults`` (the CLI's ``--faults`` and
    ``--controller``) are stamped onto every spec whose field still has
    its declared default, before hashing: the stamped value is part of
    the spec, so it reaches worker processes and keys the cache.
    """
    cfg = config if config is not None else get_config()
    if cfg.spec_defaults:
        specs = _stamp_defaults(specs, cfg.spec_defaults)
    cache = ResultCache(cfg.cache_dir) if cfg.use_cache else None
    runner = SweepRunner(
        jobs=cfg.effective_jobs,
        cache=cache,
        progress=ProgressPrinter() if cfg.progress else None,
        label=label,
    )
    results = runner.run(specs)
    cfg.counters.record(
        points=runner.last_stats.points,
        cache_hits=runner.last_stats.cache_hits,
        elapsed_s=runner.last_stats.elapsed_s,
    )
    return results
