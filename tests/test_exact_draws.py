"""Exactness battery for :class:`repro.sim.rng.ExactDraws`.

Every draw must equal what a numpy ``Generator`` on the same seed
returns, in the same interleaved order: successive ``integers`` calls
share a buffered 32-bit half-word while ``random``/``uniform`` take
whole words, so a reader that is right for each call alone can still
drift once calls mix.  Shapes numpy handles by another algorithm must
raise instead of differing.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import ExactDraws

#: Population sizes: tiny, powers of two (no Lemire rejection) and
#: non-powers of two (rejection thresholds > 0).
SIZES = (1, 2, 3, 4, 5, 7, 8, 16, 33, 64, 100, 1000)
#: Spans for integers(), adding the extremes of the 32-bit path.
SPANS = SIZES + (10_000, 2**31 + 1, 2**32 - 1)


def _pair(seed):
    return (
        ExactDraws(np.random.PCG64(seed)),
        np.random.Generator(np.random.PCG64(seed)),
    )


def _apply(op, draws, rng):
    """Run one op on both readers; return (adapter value, numpy value)."""
    kind = op[0]
    if kind == "integers":
        _, low, high = op
        return draws.integers(low, high), int(rng.integers(low, high))
    if kind == "uniform":
        _, low, high = op
        return draws.uniform(low, high), rng.uniform(low, high)
    if kind == "random":
        return draws.random(), rng.random()
    _, n, d = op
    return (
        draws.choice(n, d, replace=False),
        [int(i) for i in rng.choice(n, size=d, replace=False)],
    )


def _battery_ops(seed):
    """Every (n, d) choice shape plus integers/uniform/random, shuffled
    into a seed-specific order and repeated so each op meets the
    half-word buffer in both states."""
    ops = []
    for n in SIZES:
        ops.extend(("choice", n, d) for d in range(1, min(n, 6) + 1))
    for span in SPANS:
        ops.append(("integers", 0, span))
        ops.append(("integers", -7, span - 7))
    ops.extend([("uniform", 200.0, 400.0), ("uniform", -1.5, 3.0)] * 8)
    ops.extend([("random",)] * 16)
    shuffler = random.Random(seed)
    sequence = []
    for _ in range(3):
        shuffler.shuffle(ops)
        sequence.extend(ops)
    return sequence


@pytest.mark.parametrize("seed", range(40))
def test_interleaved_battery_matches_generator(seed):
    draws, rng = _pair(seed)
    for step, op in enumerate(_battery_ops(seed)):
        got, want = _apply(op, draws, rng)
        assert got == want, (step, op)


def test_long_sequences_cross_block_refills():
    """Thousands of words: many refills, met with the half-word buffer
    both full and empty."""
    draws, rng = _pair(99)
    picker = random.Random(99)
    ops = [("integers", 0, 7), ("integers", 0, 64), ("random",),
           ("uniform", 200.0, 400.0), ("choice", 4, 2)]
    for step in range(6_000):
        op = picker.choice(ops)
        got, want = _apply(op, draws, rng)
        assert got == want, (step, op)


def test_choice_covers_full_permutations_and_the_floyd_limit():
    draws, rng = _pair(3)
    for n, d in [(6, 6), (10, 10), (10_000, 5), (10_000, 10_000)]:
        got, want = _apply(("choice", n, d), draws, rng)
        assert got == want
    assert sorted(draws.choice(10, 10, replace=False)) == list(range(10))


def test_integers_trivial_span_consumes_nothing():
    draws, rng = _pair(8)
    for _ in range(50):
        assert draws.integers(0, 9) == int(rng.integers(0, 9))
        assert draws.integers(4, 5) == int(rng.integers(4, 5)) == 4
    assert draws.random() == rng.random()


def test_scalar_types_are_plain_python():
    draws = ExactDraws(np.random.PCG64(0))
    assert type(draws.integers(0, 10)) is int
    assert type(draws.uniform(1.0, 2.0)) is float
    assert type(draws.random()) is float
    assert all(type(i) is int for i in draws.choice(10, 3, replace=False))


_OPS = st.one_of(
    st.tuples(
        st.just("integers"),
        st.integers(-(2**40), 2**40),
        st.integers(1, 2**32 - 1),
    ).map(lambda t: ("integers", t[1], t[1] + t[2])),
    st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=2).map(
        lambda bounds: ("uniform", min(bounds), max(bounds))
    ),
    st.just(("random",)),
    st.integers(0, 10_000).flatmap(
        lambda n: st.tuples(st.just("choice"), st.just(n), st.integers(0, min(n, 8)))
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    ops=st.lists(_OPS, max_size=60),
)
def test_arbitrary_op_sequences_match_generator(seed, ops):
    draws, rng = _pair(seed)
    for op in ops:
        got, want = _apply(op, draws, rng)
        assert got == want, op


class TestOutsideTheVerifiedDomain:
    @pytest.mark.parametrize("low, high", [
        (0, 2**32), (-1, 2**32 - 1), (0, 2**40), (5, 5), (5, 4),
    ])
    def test_integers_span_out_of_range_raises(self, low, high):
        with pytest.raises(ValueError):
            ExactDraws(np.random.PCG64(0)).integers(low, high)

    def test_choice_above_floyd_population_raises(self):
        with pytest.raises(ValueError, match="tail shuffle"):
            ExactDraws(np.random.PCG64(0)).choice(10_001, 2, replace=False)

    def test_choice_with_replacement_raises(self):
        draws = ExactDraws(np.random.PCG64(0))
        with pytest.raises(ValueError):
            draws.choice(5, 2)  # numpy's default is replace=True
        with pytest.raises(ValueError):
            draws.choice(5, 2, replace=True)

    @pytest.mark.parametrize("n, d", [(3, 4), (3, -1)])
    def test_choice_bad_sample_size_raises(self, n, d):
        with pytest.raises(ValueError):
            ExactDraws(np.random.PCG64(0)).choice(n, d, replace=False)

    def test_bad_uniform_range_raises(self):
        draws = ExactDraws(np.random.PCG64(0))
        with pytest.raises(OverflowError):
            draws.uniform(-1e308, 1e308)
        with pytest.raises(ValueError):
            draws.uniform(1.0, 0.0)
