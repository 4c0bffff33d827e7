"""Unit tests for deterministic named random streams."""

import pytest

from repro.sim.rng import RandomStreams


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).get("arrivals")
        b = RandomStreams(7).get("arrivals")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("arrivals")
        b = RandomStreams(2).get("arrivals")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        a = [streams.get("a").random() for _ in range(5)]
        b = [streams.get("b").random() for _ in range(5)]
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams(7)
        assert streams.get("x") is streams.get("x")

    def test_draw_order_between_streams_does_not_matter(self):
        s1 = RandomStreams(9)
        s2 = RandomStreams(9)
        # Interleave draws differently; per-stream sequences must match.
        a1 = s1.get("a")
        b1 = s1.get("b")
        seq_a1 = [a1.random(), a1.random()]
        seq_b1 = [b1.random()]
        b2 = s2.get("b")
        a2 = s2.get("a")
        seq_b2 = [b2.random()]
        seq_a2 = [a2.random(), a2.random()]
        assert seq_a1 == seq_a2
        assert seq_b1 == seq_b2


class TestSpawn:
    def test_spawned_children_are_deterministic(self):
        a = RandomStreams(7).spawn("child").get("x")
        b = RandomStreams(7).spawn("child").get("x")
        assert a.random() == b.random()

    def test_spawned_children_differ_from_parent(self):
        parent = RandomStreams(7)
        child = parent.spawn("child")
        assert parent.get("x").random() != child.get("x").random()

    def test_sibling_children_differ(self):
        parent = RandomStreams(7)
        assert (
            parent.spawn("a").get("x").random()
            != parent.spawn("b").get("x").random()
        )


class TestValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(-1)

    def test_zero_seed_allowed(self):
        assert RandomStreams(0).get("x") is not None


class TestExactDrawsStreams:
    def test_draws_is_cached_per_name(self):
        streams = RandomStreams(7)
        assert streams.draws("x") is streams.draws("x")
        assert streams.draws("x") is not streams.draws("y")

    def test_draws_reads_the_same_stream_as_get(self):
        draws = RandomStreams(7).draws("steal")
        rng = RandomStreams(7).get("steal")
        assert [draws.integers(0, 63) for _ in range(100)] == [
            int(rng.integers(0, 63)) for _ in range(100)
        ]
        assert draws.uniform(200.0, 400.0) == rng.uniform(200.0, 400.0)

    def test_get_after_draws_rejected(self):
        streams = RandomStreams(7)
        streams.draws("steering")
        with pytest.raises(ValueError, match="draws"):
            streams.get("steering")

    def test_draws_after_get_rejected(self):
        streams = RandomStreams(7)
        streams.get("rss")
        with pytest.raises(ValueError, match="get"):
            streams.draws("rss")

    def test_other_names_stay_independent_of_the_guard(self):
        streams = RandomStreams(7)
        streams.draws("a")
        assert streams.get("b") is streams.get("b")
        assert streams.draws("a") is streams.draws("a")
