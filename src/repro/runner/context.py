"""Process-wide runner configuration and sweep accounting.

The experiment registry exposes ``run(scale, seed)`` functions whose
signatures must stay stable (tests, benchmarks and downstream callers
depend on them), so parallelism and caching knobs travel out-of-band:
the CLI and the benchmark harness configure this module, and
:func:`repro.runner.runner.run_points` reads it.

Defaults are deliberately conservative -- serial, no cache -- so that
importing the runner changes nothing for existing callers; only the
entry points that received explicit ``--jobs`` / cache flags opt in.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, Optional


def detect_jobs() -> int:
    """The ``--jobs 0`` / ``jobs=None`` resolution: one worker per CPU."""
    return max(1, os.cpu_count() or 1)


@dataclass
class SweepCounters:
    """Cumulative accounting across :func:`run_points` calls."""

    points: int = 0
    cache_hits: int = 0
    executed: int = 0
    elapsed_s: float = 0.0

    def record(self, points: int, cache_hits: int, elapsed_s: float) -> None:
        self.points += points
        self.cache_hits += cache_hits
        self.executed += points - cache_hits
        self.elapsed_s += elapsed_s

    def snapshot(self) -> "SweepCounters":
        return replace(self)

    def delta(self, earlier: "SweepCounters") -> "SweepCounters":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return SweepCounters(
            points=self.points - earlier.points,
            cache_hits=self.cache_hits - earlier.cache_hits,
            executed=self.executed - earlier.executed,
            elapsed_s=self.elapsed_s - earlier.elapsed_s,
        )


@dataclass
class RunnerConfig:
    """Knobs every sweep dispatched through the runner obeys.

    ``jobs``: worker processes; 1 = serial in-process (today's exact
    behavior), 0 = one per CPU. ``use_cache``: consult/populate the
    content-addressed result cache. ``cache_dir``: cache root (``None``
    = :func:`repro.runner.cache.default_cache_dir`). ``progress``:
    live progress lines on stderr. ``spec_defaults``: ``PointSpec``
    field values (the CLI's ``--faults``/``--controller``)
    stamped onto every spec whose field still has its declared default;
    see :func:`repro.runner.runner.run_points`.
    """

    jobs: int = 1
    use_cache: bool = False
    cache_dir: Optional[str] = None
    progress: bool = False
    spec_defaults: Dict[str, Any] = field(default_factory=dict)
    counters: SweepCounters = field(default_factory=SweepCounters)

    @property
    def effective_jobs(self) -> int:
        return detect_jobs() if self.jobs <= 0 else self.jobs


_CONFIG = RunnerConfig()


def get_config() -> RunnerConfig:
    """The active process-wide configuration (shared mutable instance)."""
    return _CONFIG


def configure(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    progress: Optional[bool] = None,
    spec_defaults: Optional[Dict[str, Any]] = None,
) -> RunnerConfig:
    """Update the process-wide configuration; ``None`` leaves a knob as-is."""
    if jobs is not None:
        _CONFIG.jobs = int(jobs)
    if use_cache is not None:
        _CONFIG.use_cache = bool(use_cache)
    if cache_dir is not None:
        _CONFIG.cache_dir = cache_dir
    if progress is not None:
        _CONFIG.progress = bool(progress)
    if spec_defaults is not None:
        _CONFIG.spec_defaults = dict(spec_defaults)
    return _CONFIG


@contextlib.contextmanager
def overrides(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    progress: Optional[bool] = None,
    spec_defaults: Optional[Dict[str, Any]] = None,
) -> Iterator[RunnerConfig]:
    """Temporarily override configuration knobs (tests, benchmarks)."""
    saved = (_CONFIG.jobs, _CONFIG.use_cache, _CONFIG.cache_dir,
             _CONFIG.progress, _CONFIG.spec_defaults)
    try:
        yield configure(jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
                        progress=progress, spec_defaults=spec_defaults)
    finally:
        (_CONFIG.jobs, _CONFIG.use_cache, _CONFIG.cache_dir,
         _CONFIG.progress, _CONFIG.spec_defaults) = saved
