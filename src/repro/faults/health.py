"""The cluster health view steering policies route by.

RackSched tracks per-server liveness in the switch so steering can
excise failed servers from the candidate pool; :class:`HealthView` is
that state for the rack tier.  The fault injector writes it (crash,
partition, degradation windows) and health-aware policies read it.

The fast path mirrors :class:`repro.telemetry.trace.NullSink`: a run
with no fault plan attached never constructs a ``HealthView`` at all --
policies hold the shared :data:`ALL_HEALTHY` singleton, whose
``impaired`` flag is a class-level ``False``, so the healthy steering
path costs one attribute check and is bit-identical to the pre-fault
engine.
"""

from __future__ import annotations

from typing import List

#: Load penalty (in outstanding-request units) a degraded server carries
#: in load-comparison policies: it must look this much shorter than a
#: healthy alternative to win a decision.
DEFAULT_DEGRADED_PENALTY = 16.0


class _AllHealthy:
    """Null health view: nothing is ever down or degraded."""

    impaired = False

    def usable(self, server: int) -> bool:
        return True

    def penalty(self, server: int) -> float:
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ALL_HEALTHY>"


#: Shared null view held by policies when no fault plan is attached.
ALL_HEALTHY = _AllHealthy()


class HealthView:
    """Mutable per-server liveness/degradation state.

    ``down`` means unreachable (crashed server or partitioned ToR port):
    steering must route around it and in-flight responses from it are
    lost.  ``degraded`` means reachable but impaired (straggler core,
    lossy NIC, throttled downlink): health-aware policies bias away via
    :meth:`penalty` without excising the server.
    """

    impaired = False  # becomes an instance attribute on first fault

    def __init__(self, n_servers: int) -> None:
        if n_servers <= 0:
            raise ValueError(f"need at least one server, got {n_servers}")
        self.n_servers = int(n_servers)
        self._down: List[bool] = [False] * self.n_servers
        self._degraded: List[int] = [0] * self.n_servers

    # ------------------------------------------------------------------
    # Injector write side
    # ------------------------------------------------------------------
    def set_down(self, server: int, down: bool) -> None:
        self._down[server] = down
        self._recompute()

    def add_degraded(self, server: int) -> None:
        """Open one degradation window on ``server`` (windows nest)."""
        self._degraded[server] += 1
        self._recompute()

    def remove_degraded(self, server: int) -> None:
        self._degraded[server] -= 1
        if self._degraded[server] < 0:
            raise ValueError(
                f"server {server} has no open degradation window to close"
            )
        self._recompute()

    def _recompute(self) -> None:
        self.impaired = any(self._down) or any(self._degraded)

    # ------------------------------------------------------------------
    # Policy read side
    # ------------------------------------------------------------------
    def usable(self, server: int) -> bool:
        """Can steering send new work to ``server``?"""
        return not self._down[server]

    def down(self, server: int) -> bool:
        return self._down[server]

    def degraded(self, server: int) -> bool:
        return self._degraded[server] > 0

    def penalty(self, server: int) -> float:
        """Load-units handicap for ``server`` in shortest-queue scans."""
        return DEFAULT_DEGRADED_PENALTY if self._degraded[server] else 0.0

    def usable_servers(self) -> List[int]:
        return [s for s in range(self.n_servers) if not self._down[s]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HealthView down={[i for i, d in enumerate(self._down) if d]} "
            f"degraded={[i for i, d in enumerate(self._degraded) if d]}>"
        )
