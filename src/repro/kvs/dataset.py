"""Dataset construction for the MICA experiments.

The paper deploys an 819 MB dataset per manager of 1.6M 16 B/512 B
key/value pairs, 50/50 GET/SET.  Loading 1.6M Python objects per
partition is pointless for a simulation, so :func:`build_dataset`
defaults to a scaled-down population with the same key/value shape;
the full-size figure is a parameter away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from repro.kvs.store import MicaStore
from repro.sim.rng import ExactDraws
from repro.telemetry import MetricRegistry

#: Paper's key/value sizes.
KEY_BYTES = 16
VALUE_BYTES = 512


@dataclass
class Dataset:
    """A loaded key population and the store holding it."""

    keys: List[bytes]
    store: MicaStore
    #: The shared value buffers the keys were loaded with: key ``i``
    #: holds ``values[i % len(values)]``.
    values: List[bytes]

    def __len__(self) -> int:
        return len(self.keys)

    def sample_key(
        self, rng: Union[np.random.Generator, ExactDraws], zipf_s: float = 0.0
    ) -> bytes:
        """Draw a key: uniform by default, Zipf-skewed when ``zipf_s > 0``
        (hot-key popularity typical of KVS traffic).  ``rng`` is a numpy
        ``Generator`` or its pure-Python scalar reader."""
        return self.sampler(rng, zipf_s)()

    def sampler(
        self, rng: Union[np.random.Generator, ExactDraws], zipf_s: float = 0.0
    ) -> Callable[[], bytes]:
        """:meth:`sample_key` with ``rng`` and ``zipf_s`` bound: each call
        draws one key, exactly as ``sample_key(rng, zipf_s)`` would."""
        keys = self.keys
        n = len(keys)
        last = n - 1
        if zipf_s <= 0:
            integers = rng.integers
            return lambda: keys[integers(0, n)]
        # Bounded-Zipf via rejection-free inverse-CDF approximation.
        random = rng.random
        if zipf_s < 1.0:
            exponent = 1.0 / (1.0 - zipf_s)

            def draw() -> bytes:
                rank = int(n * random() ** exponent)
                return keys[rank if rank < n else last]
        else:
            def draw() -> bytes:
                x = n ** random() - 1
                return keys[int(x) if x < last else last]
        return draw


def make_key(i: int) -> bytes:
    """Deterministic 16 B key for index ``i``."""
    return i.to_bytes(8, "little") + b"\x00" * (KEY_BYTES - 8)


def build_dataset(
    n_partitions: int,
    n_keys: int = 20_000,
    value_bytes: int = VALUE_BYTES,
    n_buckets_per_partition: int = 2_048,
    log_bytes_per_partition: int = 32 << 20,
    seed: int = 7,
    registry: Optional[MetricRegistry] = None,
) -> Dataset:
    """Create a store and preload ``n_keys`` key/value pairs.

    Values are pseudo-random bytes of the configured size; keys are
    dense and deterministic so tests can re-derive them.  Pass
    ``registry`` to surface the per-partition ``kvs.p<i>.*`` counters
    through an existing telemetry hierarchy.
    """
    if n_keys <= 0:
        raise ValueError(f"need at least one key, got {n_keys}")
    store = MicaStore(
        n_partitions,
        n_buckets_per_partition=n_buckets_per_partition,
        log_bytes_per_partition=log_bytes_per_partition,
        registry=registry,
    )
    rng = np.random.default_rng(seed)
    keys: List[bytes] = []
    value_pool = [
        rng.bytes(value_bytes) for _ in range(min(64, n_keys))
    ]  # share value buffers; contents are irrelevant to behaviour
    for i in range(n_keys):
        key = make_key(i)
        keys.append(key)
        store.set(key, value_pool[i % len(value_pool)])
    return Dataset(keys=keys, store=store, values=value_pool)
