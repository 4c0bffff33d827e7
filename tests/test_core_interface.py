"""Unit tests for the software-hardware interface cost model."""

import pytest

from repro.core.interface import (
    BASE_ACCESSES_PER_TICK,
    PREDICTION_COMPUTE_NS,
    HwInterface,
)


class TestCosts:
    def test_isa_is_cycles_scale(self):
        isa = HwInterface.isa()
        assert isa.access_ns < 5.0

    def test_msr_is_100_cycles(self):
        msr = HwInterface.msr()
        assert msr.access_ns == 50.0  # 100 cycles @ 2 GHz

    def test_isa_much_cheaper_than_msr(self):
        assert HwInterface.isa().access_ns * 10 < HwInterface.msr().access_ns

    def test_prediction_compute_is_18ns(self):
        # Sec. VIII-E's worst-case arithmetic.
        assert PREDICTION_COMPUTE_NS == 18.0


class TestTickCost:
    def test_base_tick_without_migrations(self):
        isa = HwInterface.isa()
        expected = PREDICTION_COMPUTE_NS + BASE_ACCESSES_PER_TICK * isa.access_ns
        assert isa.tick_cost_ns(0) == pytest.approx(expected)

    def test_each_migrate_adds_one_send(self):
        isa = HwInterface.isa()
        assert isa.tick_cost_ns(3) - isa.tick_cost_ns(0) == pytest.approx(
            3 * isa.access_ns
        )

    def test_msr_pays_per_queue_read(self):
        msr = HwInterface.msr()
        base = msr.tick_cost_ns(0, queue_reads=0)
        wide = msr.tick_cost_ns(0, queue_reads=16)
        assert wide - base == pytest.approx(16 * msr.access_ns)

    def test_isa_vector_read_is_one_instruction(self):
        isa = HwInterface.isa()
        assert isa.tick_cost_ns(0, queue_reads=16) - isa.tick_cost_ns(0) == (
            pytest.approx(isa.access_ns)
        )

    def test_msr_tick_can_exceed_typical_period(self):
        """The Fig. 14 mechanism: a 16-group MSR tick costs more than
        the 200 ns default period, stretching the migration cadence."""
        msr = HwInterface.msr()
        assert msr.tick_cost_ns(3, queue_reads=16) > 200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HwInterface.isa().tick_cost_ns(-1)
        with pytest.raises(ValueError):
            HwInterface.isa().tick_cost_ns(0, queue_reads=-1)
        with pytest.raises(ValueError):
            HwInterface.of("smoke-signals")

    def test_of_factory(self):
        assert HwInterface.of("isa").kind == "isa"
        assert HwInterface.of("msr").kind == "msr"


class TestUpdateAccesses:
    def test_update_row_is_instruction_plus_vector(self):
        """Table III's altom_update row: one access plus the 16-entry
        queue vector -- one more access for the ISA, 16 rdmsr for MSR."""
        assert HwInterface.isa().update_accesses(16) == 2
        assert HwInterface.msr().update_accesses(16) == 17
        assert HwInterface.isa().update_accesses(0) == 1
        assert HwInterface.msr().update_accesses(0) == 1

    @pytest.mark.parametrize("kind", ["isa", "msr"])
    @pytest.mark.parametrize("reads", [0, 1, 4, 16])
    def test_tick_charges_the_update_row(self, kind, reads):
        iface = HwInterface.of(kind)
        others = BASE_ACCESSES_PER_TICK - 1  # altom_status + predict_config
        assert iface.tick_cost_ns(2, queue_reads=reads) == (
            PREDICTION_COMPUTE_NS
            + (others + 2 + iface.update_accesses(reads)) * iface.access_ns
        )

    def test_table_iii_renders_the_charged_update_cost(self):
        from repro.experiments import tab2_tab3

        row = next(r for r in tab2_tab3.run().rows
                   if r[1].startswith("altom_update"))
        assert row[3] == "3.0 ns"
        assert row[4] == "850 ns (MSR lowering)"
