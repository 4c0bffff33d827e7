"""Software-hardware interface cost model (Sec. VI, Table III).

The runtime reaches the manager-tile hardware either through:

* **Custom ISA instructions** (``altom_send``, ``altom_status``,
  ``altom_update``, ``altom_predict_config``) -- register-level
  micro-ops issued directly from user space, a few cycles each; or
* **x86 MSRs** -- ``rdmsr``/``wrmsr`` syscalls at ~100 cycles each on
  Sandybridge-EP-class servers.

A runtime tick issues a fixed set of accesses (status read, update
write, config write) plus one send per MIGRATE message; the per-access
cost difference is what separates AC_rss-ISA from AC_rss-MSR in Fig. 14.
The tick's arithmetic itself (threshold multiply-adds and pattern
comparisons) is the worst-case 18 ns of Sec. VIII-E.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants

#: Worst-case prediction arithmetic per tick (Sec. VIII-E): 2 muls
#: (7 cycles) + 2 adds (1 cycle) + 3 compares (2 cycles) at 2 GHz ~= 18ns.
PREDICTION_COMPUTE_NS = 18.0

#: Register accesses per tick independent of migrations:
#: altom_status + altom_update + altom_predict_config.
BASE_ACCESSES_PER_TICK = 3


@dataclass(frozen=True)
class HwInterface:
    """Cost model for one flavour of software-hardware interface."""

    kind: str
    access_ns: float

    @staticmethod
    def isa(constants: HwConstants = DEFAULT_CONSTANTS) -> "HwInterface":
        """Custom Altocumulus instructions (Table III)."""
        return HwInterface(kind="isa", access_ns=constants.isa_access_ns)

    @staticmethod
    def msr(constants: HwConstants = DEFAULT_CONSTANTS) -> "HwInterface":
        """x86 ``rdmsr``/``wrmsr`` syscalls (~100 cycles each)."""
        return HwInterface(kind="msr", access_ns=constants.msr_access_ns)

    @staticmethod
    def of(kind: str, constants: HwConstants = DEFAULT_CONSTANTS) -> "HwInterface":
        if kind == "isa":
            return HwInterface.isa(constants)
        if kind == "msr":
            return HwInterface.msr(constants)
        raise ValueError(f"unknown interface kind {kind!r}; expected 'isa' or 'msr'")

    def update_accesses(self, queue_reads: int) -> int:
        """Register accesses of one ``altom_update``: the instruction
        plus its reads of the ``queue_reads``-entry queue-length vector.

        The custom ``altom_update`` moves the whole vector in one more
        access, but the MSR fallback pays one ``rdmsr`` per entry -- a
        major part of why the MSR interface stretches the runtime's
        cadence (Fig. 14).
        """
        if queue_reads < 0:
            raise ValueError(f"queue reads must be >= 0, got {queue_reads}")
        if self.kind == "msr":
            return 1 + queue_reads
        return 2 if queue_reads > 0 else 1

    def tick_cost_ns(self, migrate_messages: int, queue_reads: int = 0) -> float:
        """Manager-core time consumed by one runtime tick.

        ``migrate_messages`` -- ``altom_send`` issues this tick.
        ``queue_reads`` -- reads of the synchronized queue-length vector
        (one per manager group) by the tick's ``altom_update``
        (:meth:`update_accesses`).
        """
        if migrate_messages < 0:
            raise ValueError(f"migrate count must be >= 0, got {migrate_messages}")
        accesses = (
            BASE_ACCESSES_PER_TICK - 1
            + migrate_messages
            + self.update_accesses(queue_reads)
        )
        return PREDICTION_COMPUTE_NS + accesses * self.access_ns
