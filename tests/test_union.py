"""Unit tests for the union operator: gating, simultaneous tuples, punctuation.

Also home of the gate-memo state machine: the IWP gate (shared by Union and
WindowJoin) is memoised behind the input buffers' ``on_change`` hooks, and
:class:`GateMemoMachine` checks after every random buffer / operator
mutation that it equals a from-scratch recomputation.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.core.columnar import ColumnarBlock
from repro.core.errors import ExecutionError, GraphError
from repro.core.operators import Union, WindowJoin
from repro.core.tuples import LATENT_TS, DataTuple, Punctuation, TimestampKind
from repro.core.windows import WindowSpec

from conftest import OpHarness, reference_gate
from reference_ops import reference_pick


def make_union(n: int = 2, strict: bool = False) -> tuple[Union, OpHarness]:
    op = Union("u", strict=strict)
    return op, OpHarness(op, n_inputs=n)


class TestBasicMerge:
    def test_merges_by_timestamp(self):
        op, h = make_union()
        h.feed(0, 1.0, "a1")
        h.feed(0, 3.0, "a3")
        h.feed(1, 2.0, "b2")
        h.feed(1, 4.0, "b4")
        h.run()
        assert [t.payload for t in h.output_data()] == ["a1", "b2", "a3"]
        # "b4" stays: input 0's register is 3.0, so a future input-0 tuple
        # could still be stamped below 4.0.
        assert h.inputs[1].data_count == 1

    def test_output_is_ordered(self):
        op, h = make_union()
        for ts in (1.0, 2.0, 5.0):
            h.feed(0, ts)
        for ts in (1.5, 2.5, 4.0):
            h.feed(1, ts)
        h.run()
        out_ts = [t.ts for t in h.output_data()]
        assert out_ts == sorted(out_ts)

    def test_three_way_union(self):
        op = Union("u")
        h = OpHarness(op, n_inputs=3)
        h.feed(0, 3.0, "a")
        h.feed(1, 1.0, "b")
        h.feed(2, 2.0, "c")
        h.run()
        # Only "b" can flow: once input 1 drains, its register (1.0) still
        # gates — a future input-1 tuple could be stamped anywhere in [1, 2).
        assert [t.payload for t in h.output_data()] == ["b"]
        h.feed_punctuation(1, 10.0)
        h.run()
        # c flows; a still gated by input 2's register (2.0)
        assert [t.payload for t in h.output_data()] == ["c"]
        h.feed_punctuation(2, 10.0)
        h.run()
        assert [t.payload for t in h.output_data()] == ["a"]

    def test_needs_two_inputs(self):
        op = Union("u")
        OpHarness(op, n_inputs=1)
        with pytest.raises(GraphError):
            op.validate_wiring()


class TestIdleWaiting:
    def test_blocks_when_one_input_never_produced(self):
        op, h = make_union()
        h.feed(0, 1.0)
        assert not op.more()  # input 1 has unknown future: block

    def test_blocks_when_empty_input_register_is_behind(self):
        op, h = make_union()
        h.feed(1, 1.0, "b")
        h.feed(0, 2.0, "a")
        h.run()
        # "b" was emitted; now input 1 is empty with register 1.0 < head 2.0.
        assert [t.payload for t in h.output_data()] == ["b"]
        assert not op.more()

    def test_unblocks_when_register_catches_up(self):
        op, h = make_union()
        h.feed(1, 1.0, "b")
        h.feed(0, 2.0, "a")
        h.run()
        h.feed(1, 3.0, "b2")  # raises input 1's gate above 2.0
        h.run()
        payloads = [t.payload for t in h.output_data()]
        assert payloads == ["b", "a"]

    def test_stalled_input_is_the_gating_one(self):
        op, h = make_union()
        h.feed(1, 1.0)
        h.run()  # consumes nothing (input 0 unknown)
        h.feed(0, 2.0)
        h.run()
        assert not op.more()
        assert op.stalled_input_index() == 1  # register 1.0 gates


class TestSimultaneousTuples:
    def test_all_simultaneous_tuples_flow(self):
        """Paper 4.1: equal timestamps on both inputs must all be emitted."""
        op, h = make_union()
        h.feed(0, 5.0, "a1")
        h.feed(0, 5.0, "a2")
        h.feed(1, 5.0, "b1")
        h.feed(1, 5.0, "b2")
        h.run()
        assert sorted(t.payload for t in h.output_data()) == [
            "a1", "a2", "b1", "b2"]

    def test_late_simultaneous_tuple_not_blocked(self):
        """A simultaneous tuple arriving after its peers must not idle-wait."""
        op, h = make_union()
        h.feed(0, 5.0, "a1")
        h.feed(1, 5.0, "b1")
        h.run()
        h.feed(0, 5.0, "a2")  # same timestamp, arrives later
        assert op.more()
        h.run()
        assert sorted(t.payload for t in h.output_data()) == ["a1", "a2", "b1"]

    def test_strict_mode_strands_simultaneous_tuples(self):
        """The Fig.-1 rules leave one side holding simultaneous tuples."""
        op, h = make_union(strict=True)
        h.feed(0, 5.0, "a1")
        h.feed(1, 5.0, "b1")
        h.feed(1, 5.0, "b2")
        h.run()
        # strict more() needs all inputs nonempty: as soon as one side
        # drains, its simultaneous peers on the other side strand ("the
        # other will be left holding one or more simultaneous tuples").
        stranded = h.inputs[0].data_count + h.inputs[1].data_count
        emitted = len(h.output_data())
        assert stranded == 2 and emitted == 1


class TestPunctuationHandling:
    def test_punctuation_unblocks_other_input(self):
        op, h = make_union()
        h.feed(0, 2.0, "a")
        h.feed_punctuation(1, 3.0)
        h.run()
        out = h.drain_output()
        assert [e.payload for e in out if not e.is_punctuation] == ["a"]

    def test_punctuation_forwarded_downstream(self):
        op, h = make_union()
        h.feed_punctuation(0, 2.0)
        h.feed_punctuation(1, 3.0)
        h.run()
        out = h.drain_output()
        assert [e.ts for e in out] == [2.0]  # min of registers after consume
        assert out[0].is_punctuation
        assert op.punctuation_consumed >= 1

    def test_redundant_punctuation_suppressed(self):
        op, h = make_union()
        h.feed(0, 5.0, "a")
        h.feed_punctuation(1, 5.0)
        h.run()
        out = h.drain_output()
        # data at 5.0 emitted; punctuation at 5.0 adds nothing downstream
        assert len([e for e in out if e.is_punctuation]) == 0
        assert op.punctuation_suppressed == 1

    def test_data_preferred_over_punctuation_at_equal_ts(self):
        op, h = make_union()
        h.feed_punctuation(0, 5.0)
        h.feed(1, 5.0, "b")
        result = h.step()
        assert result.steps == 1
        assert result.consumed_data == 1 and not result.consumed_punctuation

    def test_punctuation_advances_register_when_consumed(self):
        op, h = make_union()
        h.feed_punctuation(1, 10.0)
        h.feed(0, 4.0, "a")
        h.run()
        assert [t.payload for t in h.output_data()] == ["a"]
        assert h.inputs[1].register.value == 10.0


class TestLatentMode:
    def feed_latent(self, h: OpHarness, idx: int, payload) -> None:
        h.inputs[idx].push(DataTuple(ts=LATENT_TS, payload=payload,
                                     kind=TimestampKind.LATENT))

    def test_latent_tuples_flow_immediately(self):
        """Paper Section 5: no idle-waiting for latent timestamps."""
        op, h = make_union()
        self.feed_latent(h, 0, "a")
        assert op.more()  # no gating despite input 1 empty
        h.run()
        assert [t.payload for t in h.output_data()] == ["a"]

    def test_latent_both_inputs(self):
        op, h = make_union()
        self.feed_latent(h, 0, "a")
        self.feed_latent(h, 1, "b")
        h.run()
        assert sorted(t.payload for t in h.output_data()) == ["a", "b"]


class TestExecuteWithoutMore:
    def test_raises(self):
        op, h = make_union()
        h.feed(0, 1.0)
        with pytest.raises(ExecutionError):
            # more() is false (input 1 unknown); forcing a step must fail loudly
            h.step()


class TestStats:
    def test_data_forwarded_counter(self):
        op, h = make_union()
        h.feed(0, 1.0)
        h.feed(1, 2.0)
        h.run()
        assert op.data_forwarded == 1


# --------------------------------------------------------------------- #
# The memoised gate can never be stale


INPUT = st.integers(min_value=0, max_value=2)
STEP = st.sampled_from([0.0, 0.0, 1.0, 2.0])  # a coarse grid: ties abound
LIMIT = st.integers(min_value=1, max_value=4)


class GateMemoMachine(RuleBasedStateMachine):
    """Random mutations of an IWP operator's inputs (and of the operator),
    every one followed by memo == from-scratch recomputation."""

    @initialize(kind=st.sampled_from(["union2", "union3", "join",
                                      "strict-union"]))
    def build(self, kind):
        if kind == "join":
            # Count windows take rows in any order: restores rewind inputs.
            op = WindowJoin("j", WindowSpec.count(4))
        else:
            op = Union("u", strict=kind == "strict-union")
        self.op = op
        self.h = OpHarness(op, n_inputs=3 if kind == "union3" else 2)
        self.h.output._enforce_order = False  # same reason
        self.buffer_states = []
        self.op_states = []
        self.seq = 0
        self.hook_errors = 0

    def buf(self, i):
        return self.h.inputs[i % len(self.h.inputs)]

    def next_ts(self, buf, step):
        last = buf.last_pushed_ts
        return (0.0 if last == LATENT_TS else last) + step

    def payload(self):
        self.seq += 1
        return {"v": self.seq}

    # -- production ---------------------------------------------------- #

    @rule(i=INPUT, step=STEP)
    def push_data(self, i, step):
        buf = self.buf(i)
        buf.push(DataTuple(ts=self.next_ts(buf, step), payload=self.payload()))

    @rule(i=INPUT)
    def push_latent(self, i):
        self.buf(i).push(DataTuple(ts=LATENT_TS, payload=self.payload(),
                                   kind=TimestampKind.LATENT))

    @rule(i=INPUT, step=STEP)
    def push_punctuation(self, i, step):
        buf = self.buf(i)
        buf.push(Punctuation(ts=self.next_ts(buf, step), origin="test"))

    @rule(i=INPUT, steps=st.lists(STEP, min_size=1, max_size=3))
    def push_block(self, i, steps):
        buf = self.buf(i)
        ts, rows = self.next_ts(buf, 0.0), []
        for step in steps:
            ts += step
            rows.append(DataTuple(ts=ts, payload=self.payload()))
        buf.push_block(ColumnarBlock.from_tuples(rows))

    @rule(i=INPUT, step=STEP)
    def push_under_a_raising_hook(self, i, step):
        """A consumer hook that raises after the invalidation ran: the
        buffer isolates the error, the memo is already dropped."""
        buf = self.buf(i)
        hook = buf.on_change

        def raising():
            if hook is not None:
                hook()
            raise RuntimeError("consumer blew up")

        buf.on_change = raising
        try:
            buf.push(DataTuple(ts=self.next_ts(buf, step),
                               payload=self.payload()))
        finally:
            buf.on_change = hook
        self.hook_errors += 1

    # -- consumption --------------------------------------------------- #

    @rule(i=INPUT)
    def pop(self, i):
        if self.buf(i):
            self.buf(i).pop()

    @rule(i=INPUT)
    def drain_one_row(self, i):
        """The union's tie and latent path: one row off the head block."""
        self.buf(i).drain_block(1)

    @rule(i=INPUT, limit=LIMIT, bound=st.none() | STEP)
    def drain_block(self, i, limit, bound):
        buf = self.buf(i)
        head = buf.head_ts()
        buf.drain_block(limit, max_ts=None if bound is None or head is None
                        else head + bound)

    @rule(i=INPUT)
    def clear(self, i):
        self.buf(i).clear()

    @precondition(lambda self: self.op.more())
    @rule()
    def execute_step(self):
        self.op.execute_block(self.h.ctx, 1)

    @precondition(lambda self: self.op.more())
    @rule(limit=LIMIT)
    def execute_block(self, limit):
        self.op.execute_block(self.h.ctx, limit)

    # -- checkpoint / restore ------------------------------------------ #

    @rule(i=INPUT)
    def snapshot_buffer(self, i):
        i %= len(self.h.inputs)
        self.buffer_states.append((i, self.h.inputs[i].snapshot_state()))

    @precondition(lambda self: self.buffer_states)
    @rule(data=st.data())
    def restore_buffer(self, data):
        i, state = data.draw(st.sampled_from(self.buffer_states))
        self.h.inputs[i].restore_state(state)

    @rule()
    def snapshot_operator(self):
        self.op_states.append(self.op.snapshot_state())

    @precondition(lambda self: self.op_states)
    @rule(data=st.data())
    def restore_operator(self, data):
        self.op.restore_state(data.draw(st.sampled_from(self.op_states)))

    # -- the check ----------------------------------------------------- #

    @invariant()
    def memo_equals_recomputation(self):
        op, inputs = self.op, self.h.inputs
        # Ask the operator first: the reference refreshes the registers
        # itself and would mask a memo that forgot to.
        more = op.more()
        answers = (more, op.stalled_input_index(), op.idle_waiting())
        memo = None if op.strict else op._gate
        registers = [buf.register.value for buf in inputs]
        latent, gates, tau, pick, *expected = reference_gate(op)
        assert answers == tuple(expected)
        assert registers == [buf.register.value for buf in inputs]
        if op.strict:
            assert op._gate is None  # a strict operator never reads gates
            assert all(buf.on_change is None for buf in inputs)
        else:
            assert memo is op._gate  # answering twice evaluates once
            assert memo == (latent, gates, tau, pick, expected[2])
        if more:
            assert reference_pick(op) == (
                pick if not op.strict else
                latent if latent is not None else
                min((buf.head_ts(), i) for i, buf in enumerate(inputs))[1])
        assert sum(buf.hook_errors for buf in inputs) == self.hook_errors


GateMemoMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None)
TestGateMemo = GateMemoMachine.TestCase
