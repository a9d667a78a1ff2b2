"""Unit tests for stream buffers, TSM registers, and the buffer registry."""

import pytest

from repro.core.buffers import BufferRegistry, StreamBuffer, TSMRegister
from repro.core.columnar import ColumnarBlock
from repro.core.errors import TimestampError
from repro.core.tuples import LATENT_TS

from conftest import data, punct


class TestTSMRegister:
    def test_starts_unset(self):
        reg = TSMRegister()
        assert not reg.is_set
        assert reg.value == LATENT_TS

    def test_update_moves_forward_only(self):
        reg = TSMRegister()
        reg.update(5.0)
        assert reg.value == 5.0
        reg.update(3.0)  # stale update ignored
        assert reg.value == 5.0
        reg.update(7.0)
        assert reg.value == 7.0

    def test_latent_does_not_move_register(self):
        reg = TSMRegister()
        reg.update(LATENT_TS)
        assert not reg.is_set

    def test_value_persists(self):
        """The register keeps its value until the next element (paper 4.1)."""
        reg = TSMRegister()
        reg.update(4.0)
        assert reg.value == 4.0  # nothing clears it implicitly

    def test_reset(self):
        reg = TSMRegister()
        reg.update(4.0)
        reg.reset()
        assert not reg.is_set


class TestStreamBufferFIFO:
    def test_push_pop_order(self):
        buf = StreamBuffer("b")
        elems = [data(1.0), data(2.0), data(2.0), data(3.0)]
        for e in elems:
            buf.push(e)
        assert [buf.pop() for _ in range(4)] == elems

    def test_len_and_bool(self):
        buf = StreamBuffer("b")
        assert not buf and buf.is_empty
        buf.push(data(1.0))
        assert buf and len(buf) == 1

    def test_pop_empty_raises(self):
        buf = StreamBuffer("b")
        with pytest.raises(IndexError):
            buf.pop()

    def test_peek_does_not_remove(self):
        buf = StreamBuffer("b")
        buf.push(data(1.0))
        assert buf.peek() is buf.peek()
        assert len(buf) == 1

    def test_peek_empty_is_none(self):
        assert StreamBuffer("b").peek() is None

    def test_iteration_is_fifo(self):
        buf = StreamBuffer("b")
        elems = [data(float(i)) for i in range(5)]
        for e in elems:
            buf.push(e)
        assert list(buf) == elems


class TestOrderEnforcement:
    def test_out_of_order_push_rejected(self):
        buf = StreamBuffer("b")
        buf.push(data(5.0))
        with pytest.raises(TimestampError):
            buf.push(data(4.0))

    def test_equal_timestamps_allowed(self):
        """Simultaneous tuples are first-class (paper Section 4.1)."""
        buf = StreamBuffer("b")
        buf.push(data(5.0))
        buf.push(data(5.0))
        assert len(buf) == 2

    def test_latent_pushes_skip_order_check(self):
        buf = StreamBuffer("b")
        buf.push(data(5.0))
        buf.push(data(LATENT_TS))
        buf.push(data(5.0))
        assert len(buf) == 3

    def test_enforcement_can_be_disabled(self):
        buf = StreamBuffer("b", enforce_order=False)
        buf.push(data(5.0))
        buf.push(data(4.0))
        assert len(buf) == 2


class TestRegisterIntegration:
    def test_peek_refreshes_register(self):
        buf = StreamBuffer("b")
        buf.push(data(3.0))
        buf.peek()
        assert buf.register.value == 3.0

    def test_pop_refreshes_register(self):
        buf = StreamBuffer("b")
        buf.push(punct(9.0))
        buf.pop()
        assert buf.register.value == 9.0

    def test_gate_ts_uses_head_when_nonempty(self):
        buf = StreamBuffer("b")
        buf.push(data(2.0))
        assert buf.gate_ts() == 2.0

    def test_gate_ts_falls_back_to_register_when_empty(self):
        buf = StreamBuffer("b")
        buf.push(data(2.0))
        buf.pop()
        assert buf.is_empty
        assert buf.gate_ts() == 2.0

    def test_gate_ts_unset_is_latent(self):
        assert StreamBuffer("b").gate_ts() == LATENT_TS


class TestCounters:
    def test_enqueue_dequeue_counts(self):
        buf = StreamBuffer("b")
        buf.push(data(1.0))
        buf.push(punct(2.0))
        buf.pop()
        assert buf.enqueued_count == 2
        assert buf.dequeued_count == 1
        assert buf.punctuation_count == 1

    def test_data_count_tracks_live_data_only(self):
        buf = StreamBuffer("b")
        buf.push(data(1.0))
        buf.push(punct(2.0))
        assert buf.data_count == 1
        buf.pop()  # removes the data tuple
        assert buf.data_count == 0
        assert len(buf) == 1

    def test_clear_resets_data_count(self):
        buf = StreamBuffer("b")
        buf.push(data(1.0))
        buf.clear()
        assert buf.data_count == 0 and buf.is_empty

    def test_last_pushed_ts(self):
        buf = StreamBuffer("b")
        assert buf.last_pushed_ts == LATENT_TS
        buf.push(data(4.0))
        assert buf.last_pushed_ts == 4.0


class TestBufferRegistry:
    def test_total_and_peak(self):
        reg = BufferRegistry()
        a = StreamBuffer("a", reg)
        b = StreamBuffer("b", reg)
        a.push(data(1.0))
        b.push(data(1.0))
        b.push(data(2.0))
        assert reg.total == 3 and reg.peak == 3
        a.pop()
        assert reg.total == 2 and reg.peak == 3

    def test_reset_peak(self):
        reg = BufferRegistry()
        buf = StreamBuffer("a", reg)
        buf.push(data(1.0))
        buf.pop()
        reg.reset_peak()
        assert reg.peak == 0

    def test_clear_updates_registry(self):
        reg = BufferRegistry()
        buf = StreamBuffer("a", reg)
        for i in range(5):
            buf.push(data(float(i)))
        buf.clear()
        assert reg.total == 0
        assert reg.peak == 5

    def test_observer_sees_every_change(self):
        reg = BufferRegistry()
        seen = []
        reg.add_observer(seen.append)
        buf = StreamBuffer("a", reg)
        buf.push(data(1.0))
        buf.push(data(2.0))
        buf.pop()
        assert seen == [1, 2, 1]


class TestOnChangeHookIsolation:
    def test_hook_exception_does_not_unwind_mutation(self):
        reg = BufferRegistry()
        buf = StreamBuffer("a", reg)

        def bad_hook():
            raise RuntimeError("consumer blew up")

        buf.on_change = bad_hook
        buf.push(data(1.0))  # must not raise
        assert len(buf) == 1
        assert reg.total == 1
        assert buf.hook_errors == 1
        assert isinstance(buf.last_hook_error, RuntimeError)

    def test_later_notifications_still_fire(self):
        """One bad invocation must not poison the hook for good — the
        cached gate-min of IWP consumers depends on later notifications."""
        reg = BufferRegistry()
        buf = StreamBuffer("a", reg)
        calls = []
        fail_once = [True]

        def flaky_hook():
            calls.append(len(buf))
            if fail_once[0]:
                fail_once[0] = False
                raise ValueError("transient")

        buf.on_change = flaky_hook
        buf.push(data(1.0))
        buf.push(data(2.0))
        buf.pop()
        assert calls == [1, 2, 1]
        assert buf.hook_errors == 1

    def test_every_mutation_kind_is_isolated(self):
        reg = BufferRegistry()
        buf = StreamBuffer("a", reg)
        for i in range(3):
            buf.push(data(float(i)))

        def bad_hook():
            raise RuntimeError("boom")

        buf.on_change = bad_hook
        buf.pop()
        buf.clear()
        assert buf.hook_errors == 2
        assert len(buf) == 0


class TestHeadRunLookahead:
    """``head_run``: the read-only look-ahead the merging join steers by."""

    @staticmethod
    def _block(*stamps):
        return ColumnarBlock.from_tuples([data(ts, {"ts": ts}) for ts in stamps])

    def test_run_closed_by_punctuation_ends_at_its_timestamp(self):
        buf = StreamBuffer("b")
        buf.push_block(self._block(1.0, 2.0))
        buf.push(data(3.0))
        buf.push(punct(4.5))
        buf.push(data(5.0))
        assert buf.head_run(64) == ([1.0, 2.0, 3.0], 4.5)
        assert len(buf) == 5 and buf.register.value == LATENT_TS  # read-only

    def test_exhausted_run_ends_at_the_register_it_will_leave(self):
        buf = StreamBuffer("b")
        assert buf.head_run(64) == ([], LATENT_TS)
        buf.push(data(1.0))
        buf.push(data(2.0))
        assert buf.head_run(64) == ([1.0, 2.0], 2.0)
        buf.drain_batch(2)
        assert buf.head_run(64) == ([], 2.0)  # empty: the held register

    def test_limit_cuts_the_lookahead_at_the_next_row(self):
        buf = StreamBuffer("b")
        buf.push_block(self._block(1.0, 2.0, 3.0, 4.0))
        assert buf.head_run(2) == ([1.0, 2.0], 3.0)
        assert buf.head_run(4) == ([1.0, 2.0, 3.0, 4.0], 4.0)

    def test_latent_row_ends_the_run_at_the_last_stamped_row(self):
        buf = StreamBuffer("b")
        buf.push_block(self._block(1.0, 2.0, LATENT_TS, 3.0))
        assert buf.head_run(64) == ([1.0, 2.0], 2.0)
        assert buf.head_run(1) == ([1.0], 2.0)
        latent_head = StreamBuffer("l")
        latent_head.push(data(LATENT_TS))
        assert latent_head.head_run(64) == ([], LATENT_TS)

    def test_selection_vector_is_honoured(self):
        buf = StreamBuffer("b")
        buf.push_block(self._block(1.0, 2.0, 3.0, 4.0).with_selection([1, 3]))
        assert buf.head_run(64) == ([2.0, 4.0], 4.0)


class TestDrainBatchOverBlocks:
    """``drain_batch`` takes rows out of head blocks without exploding
    them: only the rows that leave are materialized."""

    def test_run_spans_blocks_and_scalars_and_splits_at_the_limit(self):
        rows = [data(float(i), {"i": i}) for i in range(1, 7)]
        buf = StreamBuffer("b")
        buf.push_block(ColumnarBlock.from_tuples(rows[:2]))
        buf.push(rows[2])
        buf.push_block(ColumnarBlock.from_tuples(rows[3:]))
        buf.push(punct(9.0))
        assert buf.drain_batch(4) == rows[:4]
        assert buf.register.value == 4.0 and len(buf) == 3
        assert isinstance(buf._items[0], ColumnarBlock)  # remainder: a block
        assert buf.drain_batch(64) == rows[4:]           # stops at punctuation
        assert buf.head_is_punctuation()

    def test_max_ts_stops_inside_a_block(self):
        rows = [data(float(i)) for i in range(1, 5)]
        buf = StreamBuffer("b")
        buf.push_block(ColumnarBlock.from_tuples(rows))
        assert buf.drain_batch(64, max_ts=3.0) == rows[:2]
        assert buf.drain_batch(64, max_ts=3.0) == []
        assert list(buf) == rows[2:] and buf.data_count == 2
