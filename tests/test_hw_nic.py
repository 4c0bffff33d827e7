"""Unit tests for NIC steering and delivery models."""

import numpy as np
import pytest

from repro.hw.nic import HwTerminatedDelivery, PcieDelivery, RssSteering
from repro.sim.rng import ExactDraws, RandomStreams
from tests.conftest import make_request


class TestDelivery:
    def test_hw_terminated_is_flat_30ns(self):
        delivery = HwTerminatedDelivery()
        assert delivery.delivery_ns(make_request(size_bytes=64)) == 30.0
        assert delivery.delivery_ns(make_request(size_bytes=1500)) == 30.0

    def test_pcie_adds_size_dependent_transfer(self):
        delivery = PcieDelivery()
        small = delivery.delivery_ns(make_request(size_bytes=64))
        large = delivery.delivery_ns(make_request(size_bytes=2048))
        assert small == pytest.approx(30.0 + 200.0 + 64 / 2048 * 600.0)
        assert large == 30.0 + 800.0
        assert small < large


class TestSteering:
    def test_connection_policy_is_sticky(self):
        steering = RssSteering(8, policy="connection")
        r = make_request(connection=42)
        assert steering.pick_queue(r) == steering.pick_queue(r)

    def test_connection_policy_separates_flows(self):
        steering = RssSteering(8, policy="connection")
        queues = {
            steering.pick_queue(make_request(connection=c)) for c in range(64)
        }
        assert len(queues) > 4  # many flows spread over many queues

    def test_round_robin_rotates(self):
        steering = RssSteering(4, policy="round_robin")
        picks = [steering.pick_queue(make_request()) for _ in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_random_policy_covers_queues(self):
        steering = RssSteering(4, policy="random",
                               rng=ExactDraws(np.random.PCG64(0)))
        picks = {steering.pick_queue(make_request()) for _ in range(200)}
        assert picks == {0, 1, 2, 3}

    def test_random_policy_matches_generator_scalar_draws(self):
        """10k random-steered picks equal the numpy Generator's scalar
        integers() sequence on the same stream (6 queues: the Lemire
        rejection path is live)."""
        steering = RssSteering(6, policy="random",
                               rng=RandomStreams(3).draws("rss"))
        rng = RandomStreams(3).get("rss")
        picks = [steering.pick_queue(make_request()) for _ in range(10_000)]
        assert picks == [int(rng.integers(0, 6)) for _ in range(10_000)]

    def test_random_requires_rng(self):
        with pytest.raises(ValueError):
            RssSteering(4, policy="random")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            RssSteering(4, policy="magic")

    def test_zero_queues_rejected(self):
        with pytest.raises(ValueError):
            RssSteering(0)
