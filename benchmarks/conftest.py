"""Benchmark-suite plumbing.

Each benchmark regenerates one of the paper's figures/tables through the
experiment registry, times it with pytest-benchmark (single round: these
are minutes-scale simulations, not microbenchmarks), saves the rendered
table into the test's temporary directory and asserts the figure's
headline qualitative property.  The reduced-scale renders never touch
the committed tables under ``results/``.

Scale factors are tuned so the full suite finishes in minutes; run the
``altocumulus-exp`` CLI at scale 1.0 for the fully-sized reproduction.

Environment knobs (defaults preserve serial, uncached timing runs):

* ``ALTOCUMULUS_JOBS`` -- worker processes per sweep (``0`` = one per
  CPU).  Parallel results are bit-identical to serial.
* ``ALTOCUMULUS_CACHE`` -- set to ``1`` to reuse cached sweep points
  across invocations (with ``ALTOCUMULUS_CACHE_DIR`` choosing where).
  Off by default: a benchmark that replays cached results measures the
  cache, not the simulator.
"""

import os

import pytest

from repro.experiments.registry import get_experiment
from repro.runner import overrides

_TRUTHY = {"1", "true", "yes", "on"}


def _runner_knobs():
    jobs = int(os.environ.get("ALTOCUMULUS_JOBS", "1"))
    use_cache = os.environ.get("ALTOCUMULUS_CACHE", "").lower() in _TRUTHY
    return {
        "jobs": jobs,
        "use_cache": use_cache,
        "cache_dir": os.environ.get("ALTOCUMULUS_CACHE_DIR"),
    }


@pytest.fixture
def run_experiment(benchmark, tmp_path):
    """Run one experiment under the benchmark timer and save its render
    under ``tmp_path``."""

    def runner(exp_id, scale, seed=1):
        with overrides(**_runner_knobs()):
            result = benchmark.pedantic(
                lambda: get_experiment(exp_id)(scale=scale, seed=seed),
                rounds=1,
                iterations=1,
            )
        result.save(str(tmp_path))
        return result

    return runner
