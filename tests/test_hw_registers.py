"""Unit and property tests for manager-tile register structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.registers import HardwareFifo, MigrationRegisterFile
from tests.conftest import make_request


class TestHardwareFifo:
    def test_fifo_order(self):
        fifo = HardwareFifo(4)
        reqs = [make_request(req_id=i) for i in range(3)]
        for r in reqs:
            assert fifo.push(r)
        assert [fifo.pop().req_id for _ in range(3)] == [0, 1, 2]

    def test_push_fails_when_full(self):
        fifo = HardwareFifo(2)
        assert fifo.push(make_request(req_id=0))
        assert fifo.push(make_request(req_id=1))
        assert not fifo.push(make_request(req_id=2))

    def test_push_many_all_or_nothing(self):
        fifo = HardwareFifo(3)
        fifo.push(make_request(req_id=0))
        batch = [make_request(req_id=i) for i in (1, 2, 3)]
        assert not fifo.push_many(batch)  # 1 + 3 > 3
        assert len(fifo) == 1
        assert fifo.push_many(batch[:2])
        assert len(fifo) == 3

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            HardwareFifo(1).pop()

    def test_push_many_fills_to_capacity_then_refuses(self):
        fifo = HardwareFifo(3)
        assert fifo.push_many([])  # an empty payload always fits
        batch = [make_request(req_id=i) for i in range(3)]
        assert fifo.push_many(batch)  # exactly the capacity
        assert not fifo.push_many([make_request(req_id=3)])
        assert not fifo.push(make_request(req_id=4))
        assert [fifo.pop().req_id for _ in range(3)] == [0, 1, 2]
        assert len(fifo) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            HardwareFifo(0)


class TestMigrationRegisterFile:
    def test_head_dispatch_order(self):
        mrs = MigrationRegisterFile()
        for i in range(4):
            mrs.enqueue(make_request(req_id=i))
        assert mrs.dequeue_head().req_id == 0
        assert mrs.dequeue_head().req_id == 1

    def test_tail_migration_takes_newest(self):
        mrs = MigrationRegisterFile()
        for i in range(5):
            mrs.enqueue(make_request(req_id=i))
        taken = mrs.dequeue_tail_where(2, lambda r: True)
        # Newest two, returned in arrival order.
        assert [r.req_id for r in taken] == [3, 4]
        assert [r.req_id for r in mrs.entries] == [0, 1, 2]

    def test_tail_migration_clamps_to_size(self):
        mrs = MigrationRegisterFile()
        mrs.enqueue(make_request(req_id=0))
        assert [r.req_id for r in mrs.dequeue_tail_where(5, lambda r: True)] == [0]
        assert len(mrs) == 0

    def test_dequeue_tail_where_skips_ineligible(self):
        mrs = MigrationRegisterFile()
        for i in range(5):
            r = make_request(req_id=i)
            r.migrations = 1 if i >= 3 else 0  # newest two already migrated
            mrs.enqueue(r)
        taken = mrs.dequeue_tail_where(2, lambda r: r.migrations == 0)
        assert [r.req_id for r in taken] == [1, 2]
        # Ineligible ones stay in place, order preserved.
        assert [r.req_id for r in mrs.entries] == [0, 3, 4]

    def test_peek_tail(self):
        mrs = MigrationRegisterFile()
        for i in range(4):
            mrs.enqueue(make_request(req_id=i))
        assert [r.req_id for r in mrs.peek_tail(2)] == [3, 2]
        assert len(mrs) == 4  # non-destructive

    def test_dequeue_empty_raises(self):
        with pytest.raises(IndexError):
            MigrationRegisterFile().dequeue_head()


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("enq"), st.integers(0, 1000)),
        st.tuples(st.just("deq_head"), st.just(0)),
        st.tuples(st.just("deq_tail"), st.integers(0, 5)),
    ),
    max_size=40,
))
def test_mr_file_model_based(ops):
    """Property: the MR file behaves exactly like a Python list with
    head/tail removal, and never loses or duplicates descriptors."""
    mrs = MigrationRegisterFile()
    model = []
    counter = [0]
    for op, arg in ops:
        if op == "enq":
            r = make_request(req_id=counter[0])
            counter[0] += 1
            mrs.enqueue(r)
            model.append(r)
        elif op == "deq_head" and model:
            assert mrs.dequeue_head() is model.pop(0)
        elif op == "deq_tail":
            take = min(arg, len(model))
            expected = model[len(model) - take:]
            del model[len(model) - take:]
            assert mrs.dequeue_tail_where(arg, lambda r: True) == expected
        assert [r.req_id for r in mrs.entries] == [r.req_id for r in model]
