"""The proactive SLO-violation prediction model (Sec. IV).

The crux of Altocumulus: predict which queued RPCs will violate the SLO
*before* they do, using queue length as the signal.  The model has three
pieces:

1. **Erlang-C** (Eq. 1): for a ``k``-server queue at offered load ``A``
   Erlangs, the probability an arrival must wait is ``C_k(A)``, and the
   expected queue length is ``E[Nq] = C_k(A) * A / (k - A)``.
2. **Linear transformation** (Eq. 2): the migration threshold is
   ``E[T] = a * E[c * Nq + d] + b`` with constants ``(a, b, c, d)``
   determined empirically per service-time distribution.
3. **Calibration**: :func:`calibrate_threshold_model` least-squares fits
   ``(a, b)`` from simulation-measured first-violation queue lengths
   across loads, exactly how the paper derives Fig. 7(d).

Threshold extremes (Sec. IV trade-off):

* ``T_lower = queue length at the first actual violation`` -- catches
  every violator but migrates many false positives;
* ``T_upper = k * L + 1`` -- every migration saves a violator, but many
  violators go uncaught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

#: Memo size for the Erlang-C fast path.  Sweeps revisit the same
#: (k, load) points constantly -- every manager tick at a configured
#: offered load, every calibration grid point -- so an exact-key LRU
#: short-circuits the O(k) series evaluation.  Keys are *exact* float
#: loads: a hit returns the bit-identical value the series would
#: produce, so memoization never perturbs simulation results.
_ERLANG_CACHE_SIZE = 4096


@lru_cache(maxsize=_ERLANG_CACHE_SIZE)
def _erlang_c_series(k: int, a: float) -> float:
    """The O(k) Erlang-C evaluation for validated ``0 < a < k``."""
    rho = a / k
    # Sum A^i / i! computed iteratively to avoid overflow for large k.
    term = 1.0
    partial = 1.0
    for i in range(1, k):
        term *= a / i
        partial += term
    top = term * a / k / (1.0 - rho)
    return top / (partial + top)


def erlang_c(k: int, load_erlangs: float) -> float:
    """Erlang-C formula: probability an arrival queues in an M/M/k system.

    Memoized on the exact ``(k, load_erlangs)`` pair (LRU of
    ``_ERLANG_CACHE_SIZE`` entries), so repeated evaluations -- the
    per-tick threshold recomputation at a fixed offered load -- cost a
    dictionary lookup instead of an O(k) series.

    Parameters
    ----------
    k:
        Number of servers (worker cores in a group).
    load_erlangs:
        Offered load ``A = lambda * E[S]`` in Erlangs; must satisfy
        ``0 <= A < k`` for a stable queue.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if load_erlangs < 0:
        raise ValueError(f"load must be >= 0, got {load_erlangs}")
    if load_erlangs == 0:
        return 0.0
    if load_erlangs >= k:
        return 1.0  # saturated: every arrival queues
    return _erlang_c_series(k, load_erlangs)


@lru_cache(maxsize=_ERLANG_CACHE_SIZE)
def _expected_queue_length_cached(k: int, load_erlangs: float) -> float:
    c = erlang_c(k, load_erlangs)
    return c * load_erlangs / (k - load_erlangs)


def expected_queue_length(k: int, load_erlangs: float) -> float:
    """Eq. 1: mean number waiting, ``E[Nq] = C_k(A) * A / (k - A)``.

    Memoized exactly like :func:`erlang_c` (same keys, same hit rate).
    """
    if load_erlangs >= k:
        return float("inf")
    return _expected_queue_length_cached(k, load_erlangs)


def expected_wait(k: int, load_erlangs: float, mean_service_ns: float) -> float:
    """Mean queueing delay of an M/M/k system (Little's law on E[Nq])."""
    if mean_service_ns <= 0:
        raise ValueError(f"mean service must be positive, got {mean_service_ns}")
    if load_erlangs <= 0:
        return 0.0
    if load_erlangs >= k:
        return float("inf")
    lam = load_erlangs / mean_service_ns
    return expected_queue_length(k, load_erlangs) / lam


@dataclass(frozen=True)
class ThresholdModel:
    """Eq. 2: ``E[T] = a * E[c * Nq + d] + b``.

    ``E[c*Nq+d] = c*E[Nq]+d`` by linearity, so the model is an affine
    map of the Erlang-C queue length.  ``(c, d)`` rescale the queueing
    model (service-time variance correction); ``(a, b)`` map the
    corrected expectation onto the observed first-violation length.
    """

    a: float = 1.0
    b: float = 0.0
    c: float = 1.0
    d: float = 0.0
    name: str = "identity"

    def threshold(self, k: int, load_erlangs: float) -> float:
        """Predicted SLO-violation threshold queue length at this load."""
        nq = expected_queue_length(k, load_erlangs)
        if math.isinf(nq):
            return float("inf")
        return self.a * (self.c * nq + self.d) + self.b


def upper_bound_threshold(k: int, slo_multiplier: float) -> float:
    """``T_upper = k * L + 1``: the naive bound of Sec. IV.

    Every migration it triggers prevents a violation, but violations at
    shorter queue lengths are missed entirely.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if slo_multiplier <= 0:
        raise ValueError(f"SLO multiplier must be positive, got {slo_multiplier}")
    return k * slo_multiplier + 1


def calibrate_threshold_model(
    loads: Sequence[float],
    measured_thresholds: Sequence[float],
    k: int,
    c: float = 1.0,
    d: float = 0.0,
    name: str = "calibrated",
) -> ThresholdModel:
    """Fit ``(a, b)`` so that ``a*(c*E[Nq]+d)+b`` tracks measured ``T``.

    ``loads`` are offered loads in Erlangs and ``measured_thresholds``
    are the simulation-observed queue lengths at which the first SLO
    violation occurred (one per load) -- the procedure of Sec. IV-A.
    """
    if len(loads) != len(measured_thresholds):
        raise ValueError("loads and thresholds must have equal length")
    if len(loads) < 2:
        raise ValueError("need at least two calibration points")
    xs = np.array([c * expected_queue_length(k, a) + d for a in loads])
    ys = np.asarray(measured_thresholds, dtype=float)
    finite = np.isfinite(xs) & np.isfinite(ys)
    if finite.sum() < 2:
        raise ValueError("not enough finite calibration points")
    slope, intercept = np.polyfit(xs[finite], ys[finite], 1)
    return ThresholdModel(a=float(slope), b=float(intercept), c=c, d=d, name=name)


def first_violation_threshold(
    queue_lengths_at_arrival: Sequence[int],
    violated: Sequence[bool],
) -> Tuple[float, int]:
    """Extract ``T_lower`` from a simulation run.

    Returns ``(threshold, violator_count)`` where ``threshold`` is the
    smallest arrival queue length among SLO-violating requests -- the
    paper's per-load measurement feeding :func:`calibrate_threshold_model`.
    A run with no violations returns ``(inf, 0)``.
    """
    if len(queue_lengths_at_arrival) != len(violated):
        raise ValueError("inputs must have equal length")
    best = float("inf")
    count = 0
    for qlen, bad in zip(queue_lengths_at_arrival, violated):
        if bad:
            count += 1
            if qlen < best:
                best = float(qlen)
    return best, count
