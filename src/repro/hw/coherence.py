"""Cache-coherence communication cost model.

Software schedulers move work between cores through shared caches, so
their costs are coherence costs:

* handing one message to a worker: >= 70 cycles (Shinjuku's measured
  dispatch floor [26]);
* one work-steal: 2-3 cache misses, 200-400 ns [54];
* falling back to an inter-processor interrupt: ~1 us [26].

Altocumulus's register-level messaging exists precisely to bypass these;
baselines charge them on every scheduling operation.
"""

from __future__ import annotations

import numpy as np

from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.sim.rng import ExactDraws


class CoherenceModel:
    """Samples software inter-core communication costs."""

    def __init__(self, constants: HwConstants = DEFAULT_CONSTANTS) -> None:
        self.constants = constants

    def dispatch_ns(self) -> float:
        """Centralized-dispatcher hand-off of one request to a worker
        (deterministic floor: 70 cycles)."""
        return self.constants.coherence_msg_ns

    def steal_ns(self, rng: ExactDraws | np.random.Generator) -> float:
        """One work-stealing operation: find + fetch pending requests
        from a remote queue (2-3 cache misses, uniform 200-400 ns)."""
        c = self.constants
        return float(rng.uniform(c.steal_min_ns, c.steal_max_ns))

    def interrupt_ns(self) -> float:
        """Inter-processor interrupt (the slow preemption path)."""
        return self.constants.interrupt_ns
