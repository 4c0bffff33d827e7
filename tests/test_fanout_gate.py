"""Regression gates for the job model's headline claims.

Pinned behaviors (fixed seeds, so exact simulations -- the margins
below are generous against incidental perturbation, not noise):

* **Tail-at-scale separation.**  Scatter-gather under shared-flow hash
  steering self-inflicts a k-wide incast; the job-p99 gap between hash
  and shortest-wait steering must be positive and *grow* with the
  fan-out k (the fig_fanout Panel A claim).
* **Zero-queueing boundary.**  Gang admission waits are near zero at
  low core load for every demand and diverge with load, and at a fixed
  load wider gangs wait longer (the fig_fanout Panel B claim).
"""

import pytest

from repro.api import run_workload
from repro.cluster.fabric import FabricConfig, build_fabric
from repro.schedulers.jbsq import ideal_cfcfs
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload import Exponential, PoissonArrivals
from repro.workload.jobs import FixedDegree, JobShape

N_SERVERS = 4
CORES_PER_SERVER = 8
SERVICE_NS = 1000.0
LOAD = 0.65
N_JOBS = 4_000
SEED = 1


def _rack_job_p99(policy: str, k: int) -> float:
    streams = RandomStreams(SEED)
    sim = Simulator()
    rack = build_fabric(sim, streams, FabricConfig.rack(
        n_servers=N_SERVERS, cores_per_server=CORES_PER_SERVER,
        policy=policy,
    ))
    capacity = N_SERVERS * CORES_PER_SERVER / SERVICE_NS * 1e9
    result = run_workload(
        rack, sim, streams, PoissonArrivals(LOAD * capacity / k),
        Exponential(SERVICE_NS), n_requests=N_JOBS, warmup_fraction=0.1,
        jobs=JobShape(fanout=FixedDegree(k), sibling_connections="shared"),
    )
    return result.jobs.latency.p99 if result.jobs else result.latency.p99


def _gang_mean_wait(demand: int, load: float, n_jobs: int = 3_000) -> float:
    streams = RandomStreams(SEED)
    sim = Simulator()
    system = ideal_cfcfs(sim, streams, n_cores=8)
    job_rate = load * 8 / (SERVICE_NS * demand) * 1e9
    result = run_workload(
        system, sim, streams, PoissonArrivals(job_rate),
        Exponential(SERVICE_NS), n_requests=n_jobs, warmup_fraction=0.1,
        jobs=JobShape(core_demand=FixedDegree(demand)),
    )
    waits = [r.started - r.enqueued for r in result.requests
             if r.started is not None and r.enqueued is not None]
    assert waits
    return sum(waits) / len(waits)


class TestFanoutSeparationGate:
    def test_hash_vs_shortest_wait_gap_grows_with_fanout(self):
        gaps = {}
        for k in (2, 4, 8):
            gaps[k] = _rack_job_p99("hash", k) - _rack_job_p99(
                "shortest_wait", k)
        # The incast penalty exists at every width and compounds with k.
        assert gaps[2] > 0
        assert gaps[4] > gaps[2]
        assert gaps[8] > gaps[4]
        # Measured gap at k=8 is ~6 us (hash ~15 us vs shortest-wait
        # ~8.7 us); gate at half that so only a real regression trips.
        assert gaps[8] > 3_000.0

    def test_spread_mitigates_the_hash_incast(self):
        k = 8
        hash_p99 = _rack_job_p99("hash", k)
        spread_p99 = _rack_job_p99("spread", k)
        assert spread_p99 < hash_p99


class TestZeroQueueingGate:
    def test_low_load_is_the_zero_queueing_regime(self):
        # At 30% core load every gang width admits nearly immediately
        # (measured: <0.2 us mean wait even for 4-wide gangs on 8 cores).
        for demand in (1, 2, 4):
            assert _gang_mean_wait(demand, 0.3) < 500.0

    def test_waits_diverge_past_the_boundary(self):
        for demand in (2, 4):
            low = _gang_mean_wait(demand, 0.3)
            high = _gang_mean_wait(demand, 0.85)
            assert high > 2 * low

    def test_wider_gangs_wait_longer_at_fixed_load(self):
        waits = [_gang_mean_wait(demand, 0.7) for demand in (1, 2, 4)]
        assert waits[0] < waits[1] < waits[2]


class TestFanoutTable:
    def test_every_row_accounts_for_every_offered_job(self, monkeypatch):
        """``completed + dropped`` is the offered job count on every row,
        including the k=1 and c=1 rows that run the flat request path:
        those must count every request, not just the measured ones."""
        from repro.experiments import fig_fanout
        from repro.experiments.common import scaled

        monkeypatch.setattr(fig_fanout, "FANOUT_POLICIES", ("hash",))
        monkeypatch.setattr(fig_fanout, "FANOUTS", (1, 2))
        monkeypatch.setattr(fig_fanout, "GANG_DEMANDS", (1, 2))
        monkeypatch.setattr(fig_fanout, "GANG_LOADS", (0.5,))
        scale = 0.01
        result = fig_fanout.run(scale=scale)
        offered = [
            spec.n_requests
            for _, _, spec in fig_fanout._fanout_specs(
                scaled(16_000, scale), 1
            )
        ] + [
            spec.n_requests
            for _, _, spec in fig_fanout._gang_specs(
                scaled(12_000, scale), 1
            )
        ]
        completed = result.headers.index("completed")
        dropped = result.headers.index("dropped")
        assert len(result.rows) == len(offered) == 4
        for row, n_jobs in zip(result.rows, offered):
            assert row[completed] + row[dropped] == n_jobs, row
