"""Unit tests for the run path's boundaries and accounting.

Covers the run-drain primitive on :class:`StreamBuffer` (``drain_batch``),
the run boundary rules (limit / ``more()`` / punctuation) on the
per-operator ``execute_block`` kernels and on :func:`scalar_run` — the loop
of scalar steps the engine falls back to — the ``BatchResult`` accounting,
and the engine-level ``batch_size`` plumbing (validation, stats
equivalence, per-tuple cost charging).
"""

from __future__ import annotations

import pytest
from conftest import ManualClock, OpHarness, data, punct

from repro.core.buffers import BufferRegistry, StreamBuffer
from repro.core.errors import ExecutionError
from repro.core.graph import QueryGraph
from repro.core.operators import (Map, Select, Shed, SinkNode, Union,
                                  WindowJoin)
from repro.core.operators.base import BatchResult, StepResult, scalar_run
from repro.core.execution import ExecutionEngine
from repro.core.tuples import LATENT_TS, TimestampKind
from repro.core.windows import WindowSpec
from repro.sim.clock import VirtualClock
from repro.sim.cost import CostModel


# --------------------------------------------------------------------- #
# StreamBuffer.drain_batch


class TestDrainBatch:
    def test_drains_a_run_up_to_limit(self, registry):
        buf = StreamBuffer("b", registry)
        for ts in (1.0, 2.0, 3.0, 4.0):
            buf.push(data(ts))
        run = buf.drain_batch(3)
        assert [e.ts for e in run] == [1.0, 2.0, 3.0]
        assert len(buf) == 1

    def test_never_crosses_punctuation(self, registry):
        buf = StreamBuffer("b", registry)
        buf.push(data(1.0))
        buf.push(data(2.0))
        buf.push(punct(2.5))
        buf.push(data(3.0))
        run = buf.drain_batch(10)
        assert [e.ts for e in run] == [1.0, 2.0]
        assert buf.peek().is_punctuation  # boundary stays at the head

    def test_punctuation_at_head_yields_empty_run(self, registry):
        buf = StreamBuffer("b", registry)
        buf.push(punct(1.0))
        buf.push(data(2.0))
        assert buf.drain_batch(10) == []
        assert len(buf) == 2

    def test_max_ts_bounds_the_run_exclusively(self, registry):
        buf = StreamBuffer("b", registry)
        for ts in (1.0, 2.0, 3.0):
            buf.push(data(ts))
        run = buf.drain_batch(10, max_ts=3.0)
        assert [e.ts for e in run] == [1.0, 2.0]  # 3.0 >= max_ts stays put

    def test_register_updated_once_to_run_maximum(self, registry):
        buf = StreamBuffer("b", registry)
        for ts in (1.0, 2.0, 5.0):
            buf.push(data(ts))
        buf.drain_batch(10)
        assert buf.register.value == 5.0

    def test_empty_drain_leaves_register_untouched(self, registry):
        buf = StreamBuffer("b", registry)
        assert buf.drain_batch(4) == []
        assert buf.register.value == LATENT_TS

    def test_registry_accounting_matches_scalar_pops(self):
        reg_a, reg_b = BufferRegistry(), BufferRegistry()
        batched = StreamBuffer("a", reg_a)
        scalar = StreamBuffer("b", reg_b)
        for ts in (1.0, 2.0, 3.0):
            batched.push(data(ts))
            scalar.push(data(ts))
        batched.drain_batch(2)
        scalar.pop(), scalar.pop()
        assert reg_a.total == reg_b.total == 1
        assert batched.dequeued_count == scalar.dequeued_count == 2

    def test_latent_elements_drain_without_register_update(self, registry):
        buf = StreamBuffer("b", registry, enforce_order=False)
        buf.push(data(LATENT_TS))
        buf.push(data(LATENT_TS))
        run = buf.drain_batch(10)
        assert len(run) == 2
        assert buf.register.value == LATENT_TS


# --------------------------------------------------------------------- #
# BatchResult accounting


def test_batch_result_accumulates_step_results():
    batch = BatchResult()
    batch.add_step(StepResult(consumed=data(1.0), emitted_data=2, probes=3))
    batch.add_step(StepResult(consumed=punct(2.0), emitted_punctuation=1))
    assert batch.steps == 2
    assert batch.consumed_data == 1
    assert batch.consumed_punctuation == 1
    assert batch.emitted_data == 2
    assert batch.emitted_punctuation == 1
    assert batch.probes == 3


# --------------------------------------------------------------------- #
# Operator.execute_block / scalar_run: run boundaries per operator


def _batch(harness: OpHarness, limit: int) -> BatchResult:
    return harness.op.execute_block(harness.ctx, limit)


class TestStatelessBatch:
    def test_whole_run_applied_and_pushed_once(self):
        h = OpHarness(Select("sel", lambda p: p < 3))
        for i, ts in enumerate((1.0, 2.0, 3.0, 4.0)):
            h.feed(0, ts, payload=i)
        batch = _batch(h, 10)
        assert batch.steps == 4 and batch.consumed_data == 4
        assert batch.emitted_data == 3  # payload 3 filtered out
        assert [t.payload for t in h.output_data()] == [0, 1, 2]

    def test_punctuation_breaks_the_batch(self):
        h = OpHarness(Map("m", lambda p: p))
        h.feed(0, 1.0)
        h.feed_punctuation(0, 1.5)
        h.feed(0, 2.0)
        batch = _batch(h, 10)
        assert batch.steps == 1 and batch.consumed_punctuation == 0
        batch = _batch(h, 10)  # next call handles exactly the punctuation
        assert batch.steps == 1 and batch.consumed_punctuation == 1
        batch = _batch(h, 10)
        assert batch.consumed_data == 1

    def test_empty_input_returns_empty_batch(self):
        h = OpHarness(Map("m", lambda p: p))
        batch = _batch(h, 10)
        assert batch.steps == 0

    def test_limit_respected(self):
        h = OpHarness(Map("m", lambda p: p))
        for ts in (1.0, 2.0, 3.0):
            h.feed(0, ts)
        assert _batch(h, 2).steps == 2
        assert len(h.inputs[0]) == 1


class TestShedBatch:
    def test_probability_mode_matches_scalar_decisions(self):
        outs = []
        for batched in (False, True):
            shed = Shed("shed", 0.5, seed=9)
            h = OpHarness(shed)
            for ts in range(1, 21):
                h.feed(0, float(ts))
            if batched:
                while h.op.more():
                    _batch(h, 7)
            else:
                h.run()
            outs.append([t.ts for t in h.output_data()])
        assert outs[0] == outs[1]


class TestUnionBatch:
    def test_drains_run_strictly_below_other_gate(self):
        h = OpHarness(Union("u"), n_inputs=2)
        for ts in (1.0, 2.0, 3.0):
            h.feed(0, ts)
        h.feed(1, 2.5)
        batch = _batch(h, 10)
        # Input 0's run 1.0, 2.0 drains wholesale below input 1's gate (2.5);
        # then 2.5 itself is enabled by input 0's head at 3.0.  Only 3.0
        # stays gated — exactly the scalar merge.
        assert [t.ts for t in h.output_data()] == [1.0, 2.0, 2.5]
        assert batch.consumed_data == 3

    def test_tie_falls_back_to_single_element_scalar_order(self):
        h = OpHarness(Union("u"), n_inputs=2)
        h.feed(0, 1.0, payload="a")
        h.feed(0, 2.0, payload="b")
        h.feed(1, 1.0, payload="x")
        h.feed(1, 3.0, payload="y")
        while h.op.more():
            _batch(h, 10)
        # Scalar selection at a tie prefers the lowest input index.
        assert [t.payload for t in h.output_data()] == ["a", "x", "b"]

    def test_strict_mode_uses_scalar_fallback(self):
        # The strict kernel drains head-to-head runs, but a tie falls back
        # to the scalar ``min((ts, input))`` selection one element at a
        # time, and it stops the moment an input runs empty.
        h = OpHarness(Union("u", strict=True), n_inputs=2)
        h.feed(0, 1.0, payload="a")
        h.feed(0, 2.0, payload="b")
        h.feed(1, 1.0, payload="x")
        h.feed(1, 3.0, payload="y")
        batch = _batch(h, 10)
        assert batch.steps == 3 and not h.op.more()  # input 0 is empty
        assert [t.payload for t in h.output_data()] == ["a", "x", "b"]


class TestScalarRun:
    """The engine's fallback: a loop of scalar steps under the same run
    boundaries every ``execute_block`` honours."""

    def _strict_join(self):
        join = WindowJoin("j", WindowSpec.time(5.0), key="k", strict=True)
        assert not join.supports_blocks
        return OpHarness(join, n_inputs=2)

    def test_stops_at_limit_and_when_more_turns_false(self):
        h = self._strict_join()
        for ts in (1.0, 2.0, 3.0):
            h.feed(0, ts, payload={"k": 1})
            h.feed(1, ts + 0.5, payload={"k": 1})
        assert scalar_run(h.op, h.ctx, 2).steps == 2
        rest = scalar_run(h.op, h.ctx, 64)
        assert 0 < rest.steps < 64 and not h.op.more()
        assert rest.consumed_data == rest.steps

    def test_stops_right_after_a_punctuation(self):
        h = self._strict_join()
        h.feed(0, 1.0, payload={"k": 1})
        h.feed_punctuation(0, 1.5)
        h.feed(0, 2.0, payload={"k": 1})
        for ts in (1.2, 1.7, 2.5):
            h.feed(1, ts, payload={"k": 1})
        run = scalar_run(h.op, h.ctx, 64)
        assert run.consumed_punctuation == 1
        assert h.op.more()  # the run closed at the punctuation, not at more()
        assert h.inputs[0].peek().ts == 2.0


# --------------------------------------------------------------------- #
# Engine-level batch_size


def _tiny_graph():
    graph = QueryGraph("g")
    src = graph.add_source("src")
    sel = graph.add(Select("sel", lambda p: True))
    sink = graph.add_sink("sink", keep_outputs=True)
    graph.connect(src, sel)
    graph.connect(sel, sink)
    return graph, src, sink


def test_engine_rejects_bad_batch_size():
    graph, _, _ = _tiny_graph()
    with pytest.raises(ExecutionError):
        ExecutionEngine(graph, VirtualClock(), batch_size=0)


def test_batched_engine_stats_match_scalar():
    results = []
    for batch_size in (1, 4):
        graph, src, sink = _tiny_graph()
        clock = VirtualClock()
        engine = ExecutionEngine(graph, clock, cost_model=None,
                                 batch_size=batch_size)
        for i in range(10):
            src.ingest(i, now=float(i))
        src.inject_punctuation(10.0, origin="t")
        engine.wakeup()
        stats = engine.stats
        results.append((sink.delivered, stats.steps, stats.data_steps,
                        stats.punct_steps, stats.emitted_data,
                        dict(stats.per_operator_steps)))
    assert results[0] == results[1]


def test_batched_engine_charges_cost_per_tuple():
    times = []
    for batch_size in (1, 8):
        graph, src, _ = _tiny_graph()
        clock = VirtualClock()
        engine = ExecutionEngine(graph, clock,
                                 cost_model=CostModel.uniform(0.001),
                                 batch_size=batch_size)
        for i in range(20):
            src.ingest(i, now=0.0)
        engine.wakeup()
        times.append((clock.now(), engine.stats.busy_time))
    assert times[0] == pytest.approx(times[1])


def test_sink_batch_counts_latency_per_tuple():
    sink = SinkNode("sink", keep_outputs=True)
    h = OpHarness(sink, clock=ManualClock(5.0))
    for ts in (1.0, 2.0, 3.0):
        h.feed(0, ts, arrival_ts=ts)
    batch = _batch(h, 10)
    assert batch.steps == 3
    assert sink.delivered == 3
    assert sink.latency_count == 3
    assert sink.latency_max == 4.0  # 5.0 - 1.0
    assert [t.ts for t in sink.outputs_seen] == [1.0, 2.0, 3.0]
