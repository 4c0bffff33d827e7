"""Tables II & III -- the message protocol and the instruction set,
rendered *from the implementation* rather than hand-copied.

Table II's rows come from :mod:`repro.hw.messaging` (message kinds,
payload sizes, the registers they touch); Table III's per-issue costs
and the tick-cost note from :mod:`repro.core.interface`, the cost model
the simulator charges.  Regenerating them from code keeps the
documentation honest: if the implementation drifts, the artifact
changes.
"""

from __future__ import annotations

from repro.core.interface import HwInterface
from repro.experiments.common import ExperimentResult
from repro.hw.constants import DEFAULT_CONSTANTS
from repro.hw.messaging import (
    ACK_BYTES,
    MIGRATE_HEADER_BYTES,
    UPDATE_BYTES,
    MessageType,
)

_MESSAGE_DESCRIPTIONS = {
    MessageType.PREDICT_CONFIG: (
        "configure PRs to adjust migration parameters",
        "core-local (no NoC traffic)",
        "<reg addr, reg value>",
    ),
    MessageType.MIGRATE: (
        "proactively dequeue RPCs from the MR tail to destination queue(s)",
        f"header {MIGRATE_HEADER_BYTES}B + n x "
        f"{DEFAULT_CONSTANTS.mr_entry_bytes}B descriptors",
        "S, QD, *MR[Tail]",
    ),
    MessageType.UPDATE: (
        "broadcast local queue length to all other managers",
        f"{UPDATE_BYTES}B, one unicast per peer",
        "<q>",
    ),
    MessageType.ACK: (
        "acknowledge completion of a MIGRATE (source forgets descriptors)",
        f"{ACK_BYTES}B",
        "-",
    ),
    MessageType.NACK: (
        "reject a MIGRATE (full receive FIFO / MRs); source restores, "
        "never replays",
        f"{ACK_BYTES}B",
        "-",
    ),
}


#: Managers on the machine the per-issue costs and the tick note assume:
#: ``altom_update`` reads one queue-length vector entry per manager.
MANAGERS = 16


def run(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Render Tables II & III from the implementation."""
    rows = []
    for kind in MessageType:
        desc, wire, fmt = _MESSAGE_DESCRIPTIONS[kind]
        rows.append(["II", kind.value, desc, wire, fmt])

    isa, msr = HwInterface.isa(), HwInterface.msr()
    instructions = [
        ("altom_send r1,r2,r3",
         "send local MR offset content to a peer MR with a batch size",
         isa.access_ns, msr.access_ns),
        ("altom_status r3,r4,r5",
         "return local head, tail and threshold pointers",
         isa.access_ns, msr.access_ns),
        ("altom_update r6,q<n,1>",
         "update local rx queue depth to all managers (vector reg)",
         isa.update_accesses(MANAGERS) * isa.access_ns,
         msr.update_accesses(MANAGERS) * msr.access_ns),
        ("altom_predict_config r7",
         "update migration-related registers",
         isa.access_ns, msr.access_ns),
    ]
    for mnemonic, desc, isa_ns, msr_ns in instructions:
        rows.append(["III", mnemonic, desc,
                     f"{isa_ns:.1f} ns", f"{msr_ns:.0f} ns (MSR lowering)"])

    # The charge the runtime makes for a tick that sends 3 MIGRATEs on
    # a 16-manager machine (one queue-vector entry per manager).
    tick_isa = isa.tick_cost_ns(3, queue_reads=MANAGERS)
    tick_msr = msr.tick_cost_ns(3, queue_reads=MANAGERS)
    return ExperimentResult(
        exp_id="tab2_tab3",
        title="Message protocol (Table II) and instruction set (Table III)",
        headers=["table", "name", "description", "cost/wire", "format"],
        rows=rows,
        notes=(
            "Rendered from repro.hw.messaging and repro.core.interface.\n"
            "One Algorithm-1 tick with 3 MIGRATEs on a 16-manager machine\n"
            f"costs {tick_isa:.1f} ns under the custom ISA vs "
            f"{tick_msr:.0f} ns under MSR syscalls\n"
            "-- the gap behind Fig. 14's ISA/MSR split."
        ),
    )
