"""Deterministic named random streams.

Every stochastic component (arrival process, service-time sampler, RSS
hash, work-stealing victim selection, ...) draws from its *own* named
stream derived from one master seed.  This gives two properties the
evaluation harness depends on:

* **Reproducibility** -- the same master seed always produces the same
  simulation, regardless of dictionary ordering or module import order.
* **Variance isolation** -- changing one component (e.g. swapping the
  scheduler) does not perturb the random draws of the others, so paired
  comparisons between systems see identical workloads.

A stream is read either through a numpy ``Generator`` (:meth:`RandomStreams.get`)
or through :class:`ExactDraws` (:meth:`RandomStreams.draws`), a
pure-Python reader for per-event scalar draws that returns exactly what
the ``Generator`` would, without numpy's per-call overhead.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List

import numpy as np

_U32 = 0xFFFFFFFF
_TWO32 = 1 << 32
#: ``(word >> 11) * 2**-53``: numpy's 53-bit double from one 64-bit word.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
#: Raw words fetched per ``random_raw`` call.
_BLOCK_WORDS = 512
#: Above this population ``Generator.choice(replace=False)`` switches
#: from Floyd's algorithm to a tail shuffle, which is not reproduced.
_FLOYD_MAX_POPULATION = 10_000


class ExactDraws:
    """numpy ``Generator`` scalar draws, reproduced in pure Python.

    Reads one PCG64 stream's raw 64-bit words in blocks
    (``bit_generator.random_raw``) and derives from them exactly the
    values a ``Generator`` on the same bit generator returns, in the
    same interleaved order:

    * :meth:`integers` -- numpy's 32-bit Lemire rejection method.  It
      consumes 32-bit half-words: the low half of a fresh word first,
      the high half buffered for the next 32-bit draw (PCG64's
      ``next_uint32``), so successive ``integers`` calls share a word.
    * :meth:`random` and :meth:`uniform` -- one whole word each, as a
      53-bit double; they leave the half-word buffer untouched.
    * :meth:`choice` without replacement -- Floyd's algorithm on Lemire
      draws, then a Fisher-Yates shuffle of the sample.

    Shapes numpy handles by another algorithm (a span of ``2**32`` or
    more, a ``choice`` population above 10 000, sampling with
    replacement) raise :class:`ValueError` rather than differ silently.

    The reader runs ahead of the values it has returned, so a stream
    must be read through one adapter only; :class:`RandomStreams`
    enforces this per stream name.

    >>> seed = 7
    >>> draws = ExactDraws(np.random.PCG64(seed))
    >>> rng = np.random.Generator(np.random.PCG64(seed))
    >>> draws.integers(0, 10) == int(rng.integers(0, 10))
    True
    >>> draws.choice(5, 2, replace=False) == list(rng.choice(5, 2, replace=False))
    True
    """

    __slots__ = ("_bitgen", "_next_word", "_has_half", "_half")

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        self._bitgen = bit_generator
        self._next_word = iter(()).__next__
        #: PCG64's buffered upper half-word (``has_uint32``/``uinteger``).
        self._has_half = False
        self._half = 0

    # ------------------------------------------------------------------
    def _word(self) -> int:
        """The stream's next raw 64-bit word."""
        try:
            return self._next_word()
        except StopIteration:
            self._next_word = iter(
                self._bitgen.random_raw(_BLOCK_WORDS).tolist()
            ).__next__
            return self._next_word()

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._word()
        self._half = word >> 32
        self._has_half = True
        return word & _U32

    def _below(self, n: int) -> int:
        """Uniform in ``[0, n)`` for ``1 <= n < 2**32`` (numpy's
        ``buffered_bounded_lemire_uint32``; ``n == 1`` draws nothing)."""
        if n == 1:
            return 0
        # _uint32() inlined: this is the per-event hot path.
        if self._has_half:
            self._has_half = False
            m = self._half * n
        else:
            word = self._word()
            self._half = word >> 32
            self._has_half = True
            m = (word & _U32) * n
        if (m & _U32) < n:
            threshold = (_TWO32 - n) % n
            while (m & _U32) < threshold:
                m = self._uint32() * n
        return m >> 32

    # ------------------------------------------------------------------
    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: uniform in ``[low, high)``."""
        n = high - low
        if not 0 < n < _TWO32:
            raise ValueError(
                f"integers span must be in [1, 2**32), got [{low}, {high})"
            )
        return low + self._below(n)

    def random(self) -> float:
        """``Generator.random()``: uniform double in ``[0, 1)``."""
        return (self._word() >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """``Generator.uniform(low, high)``: ``low + (high - low) * random()``
        for ``low <= high``."""
        low = float(low)
        span = float(high) - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0.0:
            raise ValueError("high - low < 0")
        return low + span * ((self._word() >> 11) * _DOUBLE_UNIT)

    def choice(self, a: int, size: int, replace: bool = True) -> List[int]:
        """``Generator.choice(a, size, replace=False)`` for an integer
        population ``a``: ``size`` distinct ints from ``range(a)``."""
        if replace:
            raise ValueError("only choice(..., replace=False) is reproduced")
        n, d = a, size
        if not 0 <= d <= n:
            raise ValueError(f"cannot take {d} distinct samples from {n}")
        if n > _FLOYD_MAX_POPULATION:
            raise ValueError(
                f"choice population above {_FLOYD_MAX_POPULATION} uses "
                f"numpy's tail shuffle, which is not reproduced (got {n})"
            )
        below = self._below
        # Floyd: for j in [n-d, n) take uniform [0, j], or j on a repeat.
        picked: List[int] = []
        seen = set()
        for j in range(n - d, n):
            val = below(j + 1)
            if val in seen:
                val = j
            seen.add(val)
            picked.append(val)
        # Fisher-Yates over the sample, last position first.
        for i in range(d - 1, 0, -1):
            k = below(i + 1)
            picked[i], picked[k] = picked[k], picked[i]
        return picked


class RandomStreams:
    """A factory of independent, deterministically seeded generators.

    >>> streams = RandomStreams(master_seed=42)
    >>> a = streams.get("arrivals")
    >>> b = streams.get("service")
    >>> a is streams.get("arrivals")
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        if master_seed < 0:
            raise ValueError(f"master seed must be non-negative, got {master_seed}")
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._draws: Dict[str, ExactDraws] = {}

    def _seed_for(self, name: str) -> int:
        """Derive a 64-bit child seed from the master seed and stream name.

        A cryptographic hash (rather than Python's ``hash``) keeps the
        derivation stable across interpreter runs and versions.
        """
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            self._refuse_mixed(name, self._draws, "draws")
            self._streams[name] = np.random.Generator(
                np.random.PCG64(self._seed_for(name))
            )
        return self._streams[name]

    def draws(self, name: str) -> ExactDraws:
        """Return the :class:`ExactDraws` reader for ``name``, creating
        it on first use.

        Every caller gets the same instance, so a component rebuilt
        mid-run (e.g. a swapped steering policy) continues the stream
        where its predecessor stopped.
        """
        draws = self._draws.get(name)
        if draws is None:
            self._refuse_mixed(name, self._streams, "get")
            draws = self._draws[name] = ExactDraws(
                np.random.PCG64(self._seed_for(name))
            )
        return draws

    @staticmethod
    def _refuse_mixed(name: str, other: dict, accessor: str) -> None:
        # ExactDraws reads its stream ahead in blocks: a Generator on the
        # same name would silently reorder the draws of both.
        if name in other:
            raise ValueError(
                f"stream {name!r} is already read through {accessor}(); "
                "a stream must use one of get() or draws(), not both"
            )

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child :class:`RandomStreams` namespaced under ``name``.

        Useful when a subsystem (e.g. one manager group) needs several
        internal streams of its own.
        """
        return RandomStreams(self._seed_for(name) % (2**63))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RandomStreams seed={self.master_seed} "
            f"streams={sorted(self._streams) + sorted(self._draws)}>"
        )
