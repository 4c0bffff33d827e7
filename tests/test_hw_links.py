"""Unit tests for the PCIe link model and the coherence cost model."""

import numpy as np
import pytest

from repro.hw.coherence import CoherenceModel
from repro.hw.constants import DEFAULT_CONSTANTS, HwConstants
from repro.hw.pcie import PcieLink


class TestConstants:
    def test_paper_values(self):
        c = DEFAULT_CONSTANTS
        assert c.nic_terminate_ns == 30.0
        assert c.noc_hop_ns == 3.0
        assert c.qpi_ns == 150.0
        assert (c.pcie_min_ns, c.pcie_max_ns) == (200.0, 800.0)
        assert c.coherence_msg_cycles == 70
        assert c.mr_entry_bytes == 14

    def test_cycle_conversions(self):
        c = DEFAULT_CONSTANTS
        assert c.coherence_msg_ns == 35.0  # 70 cycles @ 2 GHz
        assert c.msr_access_ns == 50.0  # 100 cycles @ 2 GHz
        assert c.isa_access_ns < c.msr_access_ns

    def test_custom_frequency(self):
        c = HwConstants(freq_ghz=1.0)
        assert c.coherence_msg_ns == 70.0


class TestPcie:
    def test_minimum_at_zero_bytes(self):
        assert PcieLink().transfer_ns(0) == 200.0

    def test_maximum_at_full_size(self):
        link = PcieLink()
        assert link.transfer_ns(DEFAULT_CONSTANTS.pcie_full_size_bytes) == 800.0

    def test_saturates_beyond_full_size(self):
        assert PcieLink().transfer_ns(1 << 20) == 800.0

    def test_monotone_in_size(self):
        link = PcieLink()
        sizes = [0, 64, 300, 1024, 2048]
        values = [link.transfer_ns(s) for s in sizes]
        assert values == sorted(values)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PcieLink().transfer_ns(-1)


class TestCoherence:
    def test_dispatch_floor(self):
        assert CoherenceModel().dispatch_ns() == 35.0

    def test_steal_cost_in_published_range(self):
        model = CoherenceModel()
        rng = np.random.default_rng(0)
        for _ in range(100):
            cost = model.steal_ns(rng)
            assert 200.0 <= cost <= 400.0

    def test_interrupt_cost(self):
        assert CoherenceModel().interrupt_ns() == 1000.0
