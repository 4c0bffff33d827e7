"""Rack-level behavior tests: the steering-policy regression the cluster
tier exists to show, and sweep determinism of the fig_rack experiment."""

import pytest

from repro.api import run_workload
from repro.cluster.fabric import FabricConfig, build_fabric
from repro.runner import overrides
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.connections import ConnectionPool
from repro.workload.service import Exponential


def _run_policy(policy, seed=3, **config_kwargs):
    """A skewed, highly loaded 4-server rack under one steering policy.

    4x4 d-FCFS servers at 75% aggregate load with Zipf-skewed flows: the
    hottest flow alone carries more traffic than one server can absorb,
    so load-oblivious steering must saturate whichever server it lands
    on.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    rack = build_fabric(
        sim, streams,
        FabricConfig.rack(n_servers=4, cores_per_server=4, system="rss",
                   policy=policy, **config_kwargs),
    )
    return run_workload(
        rack, sim, streams,
        arrivals=PoissonArrivals(12e6),
        service=Exponential(1000.0),
        n_requests=6000,
        connections=ConnectionPool.skewed(512, zipf_s=1.2),
    )


class TestSteeringRegression:
    def test_power_of_two_beats_connection_hash_on_skewed_rack(self):
        """The tier's raison d'etre: load-aware inter-server steering
        bounds the rack tail where flow hashing cannot."""
        hashed = _run_policy("hash")
        p2c = _run_policy("power_of_d", d=2)
        # Hash pins the hot flows to one server: its p99 explodes while
        # power-of-2 keeps the rack near its aggregate capacity.  The
        # measured gap is ~19x; require 2x so the gate has headroom.
        assert p2c.latency.p99 < hashed.latency.p99 / 2.0
        assert (
            p2c.metrics["cluster.imbalance_index"]
            < hashed.metrics["cluster.imbalance_index"]
        )
        assert hashed.metrics["cluster.imbalance_index"] > 1.2

    def test_rack_run_is_deterministic_for_a_fixed_seed(self):
        first = _run_policy("power_of_d", d=2)
        second = _run_policy("power_of_d", d=2)
        assert first.latency.p99 == second.latency.p99
        assert [r.finished for r in first.requests] == [
            r.finished for r in second.requests
        ]


class TestFigRackDeterminism:
    """The rack sweep behaves like every other experiment under the
    runner: bit-identical serial vs parallel, replayable from cache."""

    @pytest.fixture(autouse=True)
    def tiny_sweep(self, monkeypatch):
        from repro.experiments import fig_rack

        monkeypatch.setattr(fig_rack, "RACK_SHAPES", ((2, 4),))
        monkeypatch.setattr(fig_rack, "LOAD_FRACTIONS", (0.6,))
        monkeypatch.setattr(
            fig_rack, "POLICIES",
            (("hash", {"policy": "hash"}),
             ("power_of_2", {"policy": "power_of_d", "d": 2})),
        )

    def test_rows_identical_serial_vs_parallel_and_cached(self, tmp_path):
        from repro.experiments import fig_rack
        from repro.runner import get_config

        with overrides(jobs=1, use_cache=False):
            serial = fig_rack.run(scale=0.1)
        with overrides(jobs=4, use_cache=True, cache_dir=str(tmp_path)):
            parallel = fig_rack.run(scale=0.1)
        assert serial.rows == parallel.rows
        assert serial.series == parallel.series
        # Replay must be pure cache hits and still identical.
        with overrides(jobs=4, use_cache=True, cache_dir=str(tmp_path)):
            counters = get_config().counters
            before = counters.snapshot()
            replay = fig_rack.run(scale=0.1)
            sweep = counters.delta(before)
        assert replay.rows == serial.rows
        assert sweep.points == 2
        assert sweep.cache_hits == 2
        assert sweep.executed == 0
