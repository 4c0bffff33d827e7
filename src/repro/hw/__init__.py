"""Hardware models: NIC, NoC, PCIe, core tiles, and the Altocumulus
manager-tile microarchitecture (migration registers, FIFOs, migrator
and controller).

Latency constants follow Sec. VII-B of the paper exactly: ~30 ns NIC MAC +
serial I/O + transport, 3 ns per NoC hop, 150 ns QPI, 200-800 ns PCIe
(size-dependent), and >= 70 cycles @ 2 GHz per coherence message.
"""

from repro.hw.constants import HwConstants, DEFAULT_CONSTANTS
from repro.hw.topology import MeshTopology
from repro.hw.noc import Noc, NocMessage
from repro.hw.pcie import PcieLink
from repro.hw.nic import DeliveryModel, HwTerminatedDelivery, PcieDelivery, RssSteering
from repro.hw.cores import Core
from repro.hw.registers import HardwareFifo, MigrationRegisterFile
from repro.hw.coherence import CoherenceModel
from repro.hw.messaging import ManagerTileHw, MessageType

__all__ = [
    "HwConstants",
    "DEFAULT_CONSTANTS",
    "MeshTopology",
    "Noc",
    "NocMessage",
    "PcieLink",
    "DeliveryModel",
    "HwTerminatedDelivery",
    "PcieDelivery",
    "RssSteering",
    "Core",
    "HardwareFifo",
    "MigrationRegisterFile",
    "CoherenceModel",
    "ManagerTileHw",
    "MessageType",
]
