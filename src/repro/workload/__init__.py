"""Workload generation: arrival processes, service-time distributions,
connections, the open-loop load generator, and trace replay
(:class:`TraceArrivals` / :class:`TraceService`).

The paper evaluates two traffic classes (Sec. VII-B):

* **Synthetic** -- Poisson arrivals with Fixed / Uniform / Bimodal
  service-time distributions (the standard set from Shinjuku, ZygOS and
  Nebula).
* **Real-world** -- a regression model trained on public-cloud traces
  [Bergsma et al., SOSP'21] that produces bursty, temporally correlated
  batches.  We substitute a Markov-modulated Poisson process (MMPP) with
  batch arrivals, which reproduces the burstiness and temporal
  correlation the paper's adaptability experiments rely on.
"""

from repro.workload.request import Request, RequestKind
from repro.workload.service import (
    Bimodal,
    Exponential,
    Fixed,
    Lognormal,
    ServiceDistribution,
    TraceService,
    Uniform,
)
from repro.workload.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    DriftingMMPPArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.workload.connections import ConnectionPool
from repro.workload.tenants import (
    SuperposedArrivals,
    TenantClass,
    TenantConnectionPool,
    TenantMix,
    tenant_slo_summary,
)
from repro.workload.generator import LoadGenerator
from repro.workload.jobs import (
    ChoiceDegree,
    DegreeDistribution,
    FixedDegree,
    Job,
    JobShape,
    UniformDegree,
    make_gang_shadow,
    system_supports_gang,
)
from repro.workload.closed_loop import ClosedLoopGenerator

__all__ = [
    "Request",
    "RequestKind",
    "ServiceDistribution",
    "Fixed",
    "Uniform",
    "Bimodal",
    "Exponential",
    "Lognormal",
    "TraceService",
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "MMPPArrivals",
    "DriftingMMPPArrivals",
    "TraceArrivals",
    "ConnectionPool",
    "TenantClass",
    "TenantMix",
    "TenantConnectionPool",
    "SuperposedArrivals",
    "tenant_slo_summary",
    "LoadGenerator",
    "DegreeDistribution",
    "FixedDegree",
    "ChoiceDegree",
    "UniformDegree",
    "JobShape",
    "Job",
    "make_gang_shadow",
    "system_supports_gang",
    "ClosedLoopGenerator",
]
