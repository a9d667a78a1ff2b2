"""Unit tests for stream buffers, TSM registers, and the buffer registry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffers import BufferRegistry, StreamBuffer, TSMRegister
from repro.core.columnar import ColumnarBlock
from repro.core.errors import TimestampError
from repro.core.tuples import (LATENT_TS, DataTuple, Punctuation,
                               TimestampKind)

from conftest import data, punct
from reference_ops import ReferenceBuffer


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

    def test_head_ts_does_not_remove(self):
        buf = StreamBuffer("b")
        buf.push(data(1.0))
        assert buf.head_ts() == buf.head_ts() == 1.0
        assert len(buf) == 1 and buf.register.value == LATENT_TS

    def test_head_ts_empty_is_none(self):
        assert StreamBuffer("b").head_ts() is None

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
    def test_gate_ts_refreshes_register(self):
        buf = StreamBuffer("b")
        buf.push(data(3.0))
        buf.gate_ts()
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
        buf.drain_block(2)
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
    """``drain_block`` takes rows off the head block only: a run never
    crosses a block boundary, and what stays behind stays a block."""

    def test_run_spans_blocks_and_scalars_and_splits_at_the_limit(self):
        rows = [data(float(i), {"i": i}) for i in range(1, 7)]
        buf = StreamBuffer("b")
        buf.push_block(ColumnarBlock.from_tuples(rows[:2]))
        buf.push(rows[2])  # a pushed tuple opens a block of its own
        buf.push_block(ColumnarBlock.from_tuples(rows[3:]))
        buf.push(punct(9.0))
        assert buf.drain_block(64).to_tuples() == rows[:2]
        assert buf.drain_block(64).to_tuples() == rows[2:3]
        assert buf.drain_block(2).to_tuples() == rows[3:5]
        assert buf.register.value == 5.0 and len(buf) == 2
        assert isinstance(buf._items[0], ColumnarBlock)  # remainder: a block
        assert buf.drain_block(64).to_tuples() == rows[5:]
        assert buf.drain_block(64) is None  # stops at punctuation
        assert buf.head_is_punctuation()

    def test_max_ts_stops_inside_a_block(self):
        rows = [data(float(i)) for i in range(1, 5)]
        buf = StreamBuffer("b")
        buf.push_block(ColumnarBlock.from_tuples(rows))
        assert buf.drain_block(64, max_ts=3.0).to_tuples() == rows[:2]
        assert buf.drain_block(64, max_ts=3.0) is None
        assert list(buf) == rows[2:] and buf.data_count == 2


L = LATENT_TS


class TestWholeHeadBlockHandOff:
    """``drain_block`` hands a head block that fits over as it is, with no
    split; every other case takes the split path, and both must leave what
    the list model's drain of the same rows leaves: rows taken, rows left,
    register and counters."""

    @staticmethod
    def _pair(stamps, enforce_order=True, selection=None):
        """A buffer holding one block of ``stamps`` and a
        :class:`ReferenceBuffer` holding the same live rows as tuples; a
        punctuation follows both, so the model's run ends where the block
        does."""
        rows = [data(ts, {"i": i}) for i, ts in enumerate(stamps)]
        block = ColumnarBlock.from_tuples(rows)
        if selection is not None:
            block = block.with_selection(selection)
            rows = [rows[i] for i in selection]
        buf = StreamBuffer("b", enforce_order=enforce_order)
        model = ReferenceBuffer("m", enforce_order=enforce_order)
        buf.push_block(block)
        for row in rows:
            model.push(row)
        mark = punct(99.0)
        for x in (buf, model):
            x.push(mark)
        return buf, model, block

    @staticmethod
    def _same(buf, model, got, limit, max_ts):
        want = model.drain_block(limit, max_ts)
        assert (got.to_tuples() if got is not None else None) == (
            want.to_tuples() if want is not None else None)
        assert list(buf) == list(model)
        assert buf.register.value == model.register.value
        assert (len(buf), buf.dequeued_count, buf.data_count) == (
            len(model), model.dequeued_count, model.data_count)

    @pytest.mark.parametrize("stamps, selection, limit, max_ts", [
        ([1.0, 2.0, 3.0], None, 64, None),
        ([1.0, 2.0, 3.0], None, 3, 3.5),
        ([1.0, 2.0, 3.0, 8.0], [0, 2], 2, 5.0),
        ([L, 2.0, 3.0], None, 64, 4.0),
    ], ids=["no-bound", "exact-limit-below-max-ts", "selection", "latent-head"])
    def test_a_block_that_fits_leaves_as_it_is(self, stamps, selection,
                                               limit, max_ts, monkeypatch):
        buf, model, block = self._pair(stamps, selection=selection)
        for split in ("split_at", "split_below"):
            monkeypatch.setattr(ColumnarBlock, split, None)  # never called
        got = buf.drain_block(limit, max_ts)
        assert got is block
        self._same(buf, model, got, limit, max_ts)

    @pytest.mark.parametrize("stamps, limit, max_ts, enforce_order", [
        ([1.0, 9.0, L], 64, 5.0, True),
        ([1.0, 2.0, L], 64, None, True),
        ([1.0, 2.0, 3.0, 4.0], 2, None, True),
        ([1.0, 2.0, 3.0, 4.0], 64, 3.0, True),
        ([1.0, 2.0, 3.0, 4.0], 0, None, True),
        ([3.0, 7.0, 5.0], 64, 6.0, False),
        ([3.0, 7.0, 5.0], 64, None, False),
    ], ids=["latent-last-row-hides-a-row-above-max-ts",
            "latent-last-row-register", "limit-below-row-count",
            "max-ts-cuts-inside", "limit-zero", "unordered-arc-max-ts",
            "unordered-arc-register"])
    def test_every_fall_back_equals_pop_by_pop(self, stamps, limit, max_ts,
                                               enforce_order):
        buf, model, _ = self._pair(stamps, enforce_order)
        self._same(buf, model, buf.drain_block(limit, max_ts), limit, max_ts)

    def test_push_block_reads_latent_ends_through_the_stamped_rows(self):
        buf = StreamBuffer("b")
        buf.push_block(ColumnarBlock.from_tuples(
            [data(L), data(2.0), data(4.0), data(L)]))
        assert buf.last_pushed_ts == 4.0
        with pytest.raises(TimestampError):
            buf.push_block(ColumnarBlock.from_tuples([data(L), data(3.0)]))


# --------------------------------------------------------------------- #
# The ingest seam: append_row against push(DataTuple)

KIND = TimestampKind.EXTERNAL


def _append(buf, ts, seq, payload):
    buf.append_row(ts, seq, KIND, 0.5, payload)


def _pushed(ts, seq, payload):
    return DataTuple(ts=ts, seq=seq, payload=payload, kind=KIND,
                     arrival_ts=0.5)


class TestOpenTailBlock:
    """``append_row`` extends a block only while the buffer alone holds it."""

    def test_rows_accumulate_in_one_block_and_leave_whole(self):
        buf = StreamBuffer("b")
        for i in range(5):
            _append(buf, float(i), i, {"i": i})
        assert len(buf._items) == 1 and len(buf) == 5
        tail = buf._items[0]
        block = buf.drain_block(64)
        assert block is tail and block.selection is None  # as it lay
        assert block.to_tuples() == [_pushed(float(i), i, {"i": i})
                                     for i in range(5)]
        assert buf.register.value == 4.0 and not buf

    def test_punctuation_closes_the_block(self):
        buf = StreamBuffer("b")
        _append(buf, 1.0, 1, None)
        buf.push(punct(2.0))
        _append(buf, 3.0, 2, None)
        kinds = [type(entry).__name__ for entry in buf._items]
        assert kinds == ["ColumnarBlock", "Punctuation", "ColumnarBlock"]

    def test_append_after_a_split_drain_lands_in_a_fresh_block(self):
        buf = StreamBuffer("b")
        for i in range(4):
            _append(buf, float(i), i, None)
        taken = buf.drain_block(3)
        rest = buf._items[0]
        assert taken.ts is rest.ts  # the split shares the arrays
        _append(buf, 9.0, 9, None)
        assert taken.ts == [0.0, 1.0, 2.0, 3.0]  # never written again
        assert [e.ts for e in buf] == [3.0, 9.0]
        assert buf._items[-1] is not rest

    def test_a_pushed_tuple_extends_the_tail_block(self):
        """``push(DataTuple)`` is ``append_row`` of the tuple's fields: one
        data entrance, so pushed and appended rows share the open block."""
        buf = StreamBuffer("b")
        _append(buf, 1.0, 1, None)
        tail = buf._items[-1]
        buf.push(_pushed(2.0, 2, {"p": 2}))
        _append(buf, 3.0, 3, None)
        assert buf._items[-1] is tail and len(buf._items) == 1
        assert tail.ts == [1.0, 2.0, 3.0] and tail.payloads[1] == {"p": 2}
        assert (len(buf), buf.enqueued_count, buf.data_count) == (3, 3, 3)

    @pytest.mark.parametrize("touch", [
        lambda b: b.pop(), lambda b: b.push(punct(3.0)),
        lambda b: b.drain_block(1), lambda b: b.drain_block(64),
        lambda b: b.snapshot_state(),
        lambda b: b.restore_state(b.snapshot_state()), lambda b: b.clear(),
        lambda b: b.push_block(ColumnarBlock.from_tuples([data(5.0)])),
    ])
    def test_every_other_entrance_closes_the_block(self, touch):
        buf = StreamBuffer("b")
        _append(buf, 1.0, 1, None)
        _append(buf, 2.0, 2, None)
        tail = buf._items[-1]
        touch(buf)
        _append(buf, 6.0, 3, None)
        assert buf._items[-1] is not tail
        assert tail.ts == [1.0, 2.0]

    @pytest.mark.parametrize("read", [
        lambda b: b.head_run(8), lambda b: b.head_ts(), lambda b: b.gate_ts(),
        lambda b: list(b), lambda b: len(b),
    ])
    def test_readers_leave_it_open(self, read):
        buf = StreamBuffer("b")
        _append(buf, 1.0, 1, None)
        tail = buf._items[-1]
        read(buf)
        _append(buf, 2.0, 2, None)
        assert buf._items[-1] is tail and len(buf._items) == 1

    def test_unordered_arc_leaves_the_largest_stamp_in_the_register(self):
        """A whole-block hand-over on an enforce_order=False arc ends where
        pop-by-pop consumption would: at the run's maximum, not its last."""
        buf = StreamBuffer("b", enforce_order=False)
        for seq, ts in enumerate([3.0, 7.0, 5.0]):
            _append(buf, ts, seq, None)
        assert buf.last_pushed_ts == 7.0
        buf.drain_block(64)
        assert buf.register.value == 7.0


#: (verb, timestamp step, latent when 0, buffer, limit, max_ts); every op
#: carries every field and reads the ones its verb needs.
_VERBS = (["row"] * 6 + ["drain_block"] * 4 + ["push", "punct", "pop",
          "head_run", "gate_ts", "snapshot", "restore", "clear"])
_ops = st.lists(st.tuples(
    st.sampled_from(_VERBS), st.integers(-2, 3), st.integers(0, 4),
    st.integers(0, 1), st.integers(1, 6),
    st.one_of(st.none(), st.integers(0, 12))), min_size=10, max_size=60)


class _Side:
    """One side of the comparison: ``fanout`` buffers on one registry."""

    def __init__(self, cls, fanout, enforce_order):
        self.registry = BufferRegistry()
        self.fired = [0] * fanout
        self.buffers = []
        for i in range(fanout):
            buf = cls(f"s->c{i}", self.registry,
                               enforce_order=enforce_order,
                               consumer_name=f"c{i}", consumer_port=i)
            buf.on_change = lambda i=i: self.fired.__setitem__(
                i, self.fired[i] + 1)
            self.buffers.append(buf)

    def observed(self):
        reg = self.registry
        return ([(list(b), len(b), bool(b), b.enqueued_count,
                  b.dequeued_count, b.punctuation_count, b.data_count,
                  b.last_pushed_ts, b.register.value, b.head_ts(),
                  b.head_is_punctuation()) for b in self.buffers],
                self.fired, reg.total, reg.peak, reg.peak_since_mark,
                reg.mutations)


def _outcome(call):
    """The call's result, or its structured order violation."""
    try:
        return call()
    except TimestampError as exc:
        return ("TimestampError", str(exc), exc.operator, exc.port,
                exc.offending_ts, exc.last_seen_ts)


@given(ops=_ops, fanout=st.integers(1, 2), enforce_order=st.booleans())
@settings(max_examples=250, deadline=None)
def test_row_append_is_indistinguishable_from_tuple_push(ops, fanout,
                                                         enforce_order):
    """Random interleavings of every buffer entrance: buffers fed through
    ``append_row`` and ``push`` and :class:`ReferenceBuffer` models fed the
    equivalent ``push(DataTuple)`` show the same elements (payload
    identity, ``seq``), counters, register, registry readings,
    ``on_change`` firings and order violations — latent rows, an unordered
    arc and a two-output source included.  A drained block may be shorter
    than the model's run (a drain never crosses a block boundary), so the
    model is asked for as many rows as the block path gave."""
    real = _Side(StreamBuffer, fanout, enforce_order)
    model = _Side(ReferenceBuffer, fanout, enforce_order)
    handed_out = []  # (block, its rows when it left): must never change
    saved = {}  # buffer index -> (real, model) snapshots to restore later
    clock = 0
    for seq, op in enumerate(ops):
        verb, step, latent, which, limit, max_ts = op
        which %= fanout
        a, b = real.buffers[which], model.buffers[which]
        if max_ts is not None:
            max_ts = float(max_ts)
        if verb in ("row", "push", "punct"):
            clock = max(0, clock + step)
        if verb in ("row", "push"):
            ts = float(clock) if latent else LATENT_TS
            payload = {"seq": seq}
            got = [_outcome(lambda: _append(x, ts, seq, payload)
                            if verb == "row"
                            else x.push(_pushed(ts, seq, payload)))
                   for x in real.buffers]
            want = [_outcome(lambda: x.push(_pushed(ts, seq, payload)))
                    for x in model.buffers]
        elif verb == "punct":
            mark = Punctuation(ts=float(clock), seq=seq, origin="s")
            got = [_outcome(lambda: x.push(mark)) for x in real.buffers]
            want = [_outcome(lambda: x.push(mark)) for x in model.buffers]
        elif verb == "drain_block":
            block = a.drain_block(limit, max_ts)
            if block is None:
                got, want = None, b.drain_block(limit, max_ts)
            else:
                got = block.to_tuples()
                handed_out.append((block, got))
                want = b.drain_block(len(got), max_ts).to_tuples()
        elif verb == "snapshot":
            got, want = saved[which] = (a.snapshot_state(),
                                        b.snapshot_state())
        elif verb == "restore":
            if which not in saved:
                continue
            got, want = (a.restore_state(saved[which][0]),
                         b.restore_state(saved[which][1]))
        elif verb == "pop" and not a:
            continue
        else:
            call = {"pop": lambda x: x.pop(),
                    "head_run": lambda x: x.head_run(limit),
                    "clear": lambda x: x.clear(),
                    "gate_ts": lambda x: x.gate_ts()}[verb]
            got, want = call(a), call(b)
        assert got == want, op
        assert real.observed() == model.observed(), op
        for x, y in zip(real.buffers, model.buffers):
            assert all(r.is_punctuation or r.payload is m.payload
                       for r, m in zip(x, y))
        for block, rows in handed_out:
            assert block.to_tuples() == rows
