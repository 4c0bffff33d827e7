"""Simulator validation against closed-form queueing theory.

A scheduling simulator is only as credible as its queueing behaviour.
This module pins the DES against textbook results:

* **M/M/1** mean wait: ``rho/(1-rho) * S``
* **M/D/1** (Pollaczek-Khinchine with CV^2=0): half the M/M/1 wait
* **M/G/1** (P-K): ``rho/(1-rho) * (1+CV^2)/2 * S``
* **M/M/k** (Erlang-C): ``C_k(A)/(k*(1-rho)) * S``

:func:`validate_simulator` runs each canonical configuration through
the ideal c-FCFS substrate and reports measured-vs-predicted mean waits
with relative errors.  The benchmark suite gates on these errors, so a
regression in the engine's queueing fidelity fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.prediction import erlang_c
from repro.workload.service import Bimodal, Exponential, Fixed


def mm1_mean_wait_ns(rho: float, mean_service_ns: float) -> float:
    """M/M/1 mean queueing delay."""
    _check(rho, mean_service_ns)
    return rho / (1.0 - rho) * mean_service_ns


def mg1_mean_wait_ns(rho: float, mean_service_ns: float,
                     squared_cv: float) -> float:
    """Pollaczek-Khinchine: M/G/1 mean queueing delay."""
    _check(rho, mean_service_ns)
    if squared_cv < 0:
        raise ValueError(f"squared CV must be >= 0, got {squared_cv}")
    return rho / (1.0 - rho) * (1.0 + squared_cv) / 2.0 * mean_service_ns


def md1_mean_wait_ns(rho: float, mean_service_ns: float) -> float:
    """M/D/1 mean queueing delay (P-K at CV^2 = 0)."""
    return mg1_mean_wait_ns(rho, mean_service_ns, 0.0)


def mmk_mean_wait_ns(k: int, rho: float, mean_service_ns: float) -> float:
    """Erlang-C: M/M/k mean queueing delay."""
    _check(rho, mean_service_ns)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    load = rho * k
    return erlang_c(k, load) / (k * (1.0 - rho)) * mean_service_ns


def _check(rho: float, mean_service_ns: float) -> None:
    if not 0 <= rho < 1:
        raise ValueError(f"utilization must be in [0,1), got {rho}")
    if mean_service_ns <= 0:
        raise ValueError(f"mean service must be positive, got {mean_service_ns}")


@dataclass(frozen=True)
class ValidationPoint:
    """One measured-vs-theory comparison."""

    model: str
    k: int
    rho: float
    predicted_wait_ns: float
    measured_wait_ns: float

    @property
    def relative_error(self) -> float:
        if self.predicted_wait_ns == 0:
            return 0.0 if self.measured_wait_ns == 0 else float("inf")
        return abs(self.measured_wait_ns - self.predicted_wait_ns) / (
            self.predicted_wait_ns
        )


def _mean_wait_metrics(result) -> dict:
    """Mean queueing wait of the measured requests: latency minus
    service minus NIC delivery (30 ns hw-terminated)."""
    waits = [r.latency - r.service_time - 30.0 for r in result.requests]
    return {"mean_wait_ns": sum(waits) / len(waits)}


def validate_simulator(n_requests: int = 120_000,
                       seed: int = 29) -> List[ValidationPoint]:
    """Run the canonical queueing configurations and compare.

    Returns one :class:`ValidationPoint` per model; relative errors of
    a healthy simulator sit well under 10% at this sample size.  Each
    case is one :class:`~repro.runner.PointSpec` dispatched through
    :func:`~repro.runner.run_points`, so it obeys ``--jobs`` and the
    result cache like every other sweep.
    """
    service_ns = 1_000.0
    bimodal = Bimodal(500.0, 5_500.0, 0.1)
    cases = [
        ("M/M/1", 1, 0.7, Exponential(service_ns),
         mm1_mean_wait_ns(0.7, service_ns)),
        ("M/D/1", 1, 0.7, Fixed(service_ns),
         md1_mean_wait_ns(0.7, service_ns)),
        ("M/G/1", 1, 0.7, bimodal,
         mg1_mean_wait_ns(0.7, bimodal.mean, bimodal.squared_cv)),
        ("M/M/8", 8, 0.8, Exponential(service_ns),
         mmk_mean_wait_ns(8, 0.8, service_ns)),
        ("M/M/64", 64, 0.9, Exponential(service_ns),
         mmk_mean_wait_ns(64, 0.9, service_ns)),
    ]
    # Imported here: ``import repro.api`` loads this module (through
    # ``repro.analysis``) and must not load the runner.
    from repro.runner import PointSpec, ref, run_points
    from repro.schedulers.jbsq import ideal_cfcfs

    specs = [
        PointSpec(
            builder=ref(ideal_cfcfs, n_cores=k),
            service=service,
            rate_rps=rho * k / service.mean * 1e9,
            n_requests=n_requests,
            seed=seed,
            metrics=ref(_mean_wait_metrics),
            warmup_fraction=0.2,
            tag=name,
        )
        for name, k, rho, service, _predicted in cases
    ]
    return [
        ValidationPoint(
            model=name, k=k, rho=rho, predicted_wait_ns=predicted,
            measured_wait_ns=result.metrics["mean_wait_ns"],
        )
        for (name, k, rho, _service, predicted), result
        in zip(cases, run_points(specs, label="validation"))
    ]
