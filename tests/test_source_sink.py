"""Tests for source and sink nodes: timestamping, latency, punctuation."""

import ast
import gc
import inspect
import math
import sys
import textwrap
from collections import Counter

import pytest

from repro.core.buffers import BufferRegistry, StreamBuffer
from repro.core.columnar import ColumnarBlock
from repro.core.errors import TimestampError
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import SinkNode, SourceNode, Union
from repro.core.operators.base import OpContext
from repro.core.tuples import LATENT_TS, DataTuple, TimestampKind
from repro.shard.frontier import shard_frontier

from conftest import ManualClock, data, punct


def make_source(kind=TimestampKind.INTERNAL):
    src = SourceNode("s", kind)
    buf = StreamBuffer("s->x")
    src.attach_output(buf, consumer=None)
    return src, buf


class TestInternalSource:
    def test_stamps_with_now(self):
        src, buf = make_source()
        assert src.ingest({"v": 1}, now=3.25) == 3.25
        assert len(buf) == 1
        head = next(iter(buf))
        assert head.ts == 3.25 and head.arrival_ts == 3.25
        assert head.payload == {"v": 1}
        assert head.kind is TimestampKind.INTERNAL

    def test_explicit_ts_forbidden(self):
        src, _ = make_source()
        with pytest.raises(TimestampError):
            src.ingest({"v": 1}, now=1.0, ts=0.5)

    def test_arrival_can_precede_entry(self):
        """A tuple delivered late (busy engine) keeps its physical arrival."""
        src, buf = make_source()
        assert src.ingest({"v": 1}, now=5.0, arrival=4.2) == 5.0
        head = next(iter(buf))
        assert head.ts == 5.0 and head.arrival_ts == 4.2

    def test_watermark_tracks_data(self):
        src, _ = make_source()
        src.ingest({}, now=1.0)
        src.ingest({}, now=4.0)
        assert src.watermark == 4.0 and src.last_data_ts == 4.0
        assert src.ingested_count == 2


class TestExternalSource:
    def test_requires_ts(self):
        src, _ = make_source(TimestampKind.EXTERNAL)
        with pytest.raises(TimestampError):
            src.ingest({}, now=1.0)

    def test_keeps_app_timestamp(self):
        src, buf = make_source(TimestampKind.EXTERNAL)
        assert src.ingest({}, now=5.0, ts=4.0) == 4.0
        head = next(iter(buf))
        assert head.ts == 4.0 and head.arrival_ts == 5.0
        assert head.kind is TimestampKind.EXTERNAL

    def test_rejects_regressing_timestamps(self):
        src, _ = make_source(TimestampKind.EXTERNAL)
        src.ingest({}, now=1.0, ts=10.0)
        with pytest.raises(TimestampError):
            src.ingest({}, now=2.0, ts=9.0)


class TestLatentSource:
    def test_emits_unstamped(self):
        src, buf = make_source(TimestampKind.LATENT)
        assert src.ingest({}, now=5.0) == LATENT_TS
        head = next(iter(buf))
        assert head.ts == LATENT_TS and head.is_latent
        assert head.arrival_ts == 5.0

    def test_ts_forbidden(self):
        src, _ = make_source(TimestampKind.LATENT)
        with pytest.raises(TimestampError):
            src.ingest({}, now=5.0, ts=1.0)


class TestIngestSeam:
    """A row enters as a column append and leaves as a ready block."""

    def test_ingest_builds_no_tuple_and_the_drain_gathers_none(self):
        """The seam as frames instead of a timing: N ingests enter neither
        ``DataTuple.__init__`` nor ``StreamBuffer.push``, and the drain
        that follows hands the rows over as they lie — no ``from_tuples``
        gather, no ``to_tuples`` explosion."""
        names = {DataTuple.__init__.__code__: "DataTuple.__init__",
                 StreamBuffer.push.__code__: "StreamBuffer.push",
                 ColumnarBlock.from_tuples.__func__.__code__: "from_tuples",
                 ColumnarBlock.to_tuples.__code__: "to_tuples"}
        src, buf = make_source()
        entered: list[str] = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code in names:
                entered.append(names[frame.f_code])

        sys.setprofile(profiler)
        try:
            for i in range(64):
                src.ingest({"v": i}, now=float(i))
            block = buf.drain_block(64)
        finally:
            sys.setprofile(None)
        assert entered == []
        assert block.count == 64 and block.selection is None
        assert block.ts == [float(i) for i in range(64)]
        assert block.seq == sorted(set(block.seq))  # one fresh draw per row
        assert not buf and buf.register.value == 63.0

    def test_fan_out_gives_every_output_the_same_row(self):
        src, first = make_source()
        second = StreamBuffer("s->y")
        src.attach_output(second, consumer=None)
        payload = {"v": 1}
        src.ingest(payload, now=1.0)
        src.ingest(payload, now=2.0)
        assert list(first) == list(second)
        assert first._items[0] is not second._items[0]  # a block per arc
        assert all(t.payload is payload for t in first)

    def test_scalar_consumer_sees_the_tuple_a_push_would_have_left(self):
        src, buf = make_source(TimestampKind.EXTERNAL)
        src.ingest({"v": 1}, now=5.0, ts=4.0, arrival=4.5)
        head = buf.pop()
        assert head == DataTuple(ts=4.0, seq=head.seq, payload={"v": 1},
                                 kind=TimestampKind.EXTERNAL, arrival_ts=4.5)


class TestRowEntrance:
    """The per-row path as frames and bytecode: one accounting step per
    buffer mutation, no Enum member loaded per row or per ETS."""

    def test_each_append_is_one_accounting_step(self):
        """N ingests on a source with two output arcs on one registry enter
        ``StreamBuffer._account`` exactly 2N times; the only other frames
        are the entrance itself, ``append_row`` and the constructors of the
        two open tail blocks."""
        names = {SourceNode.ingest.__code__: "ingest",
                 StreamBuffer.append_row.__code__: "append_row",
                 StreamBuffer._account.__code__: "_account",
                 ColumnarBlock.__init__.__code__: "ColumnarBlock"}
        registry = BufferRegistry()
        src = SourceNode("s")
        for consumer in "xy":
            src.attach_output(StreamBuffer(f"s->{consumer}", registry),
                              consumer=None)
        entered: Counter = Counter()

        def profiler(frame, event, arg):
            if event == "call":
                code = frame.f_code
                entered[names.get(code, f"other:{code.co_name}")] += 1

        n = 64
        # A cyclic collection inside the window would resume the suspended
        # generators of earlier tests to close them, and the profiler would
        # count those frames; collect first and hold the collector off.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        sys.setprofile(profiler)
        try:
            for i in range(n):
                src.ingest({"v": i}, now=float(i))
        finally:
            sys.setprofile(None)
            if gc_was_enabled:
                gc.enable()
        assert entered == {"ingest": n, "append_row": 2 * n,
                           "_account": 2 * n, "ColumnarBlock": 2}
        assert registry.total == registry.mutations == 2 * n
        assert not hasattr(BufferRegistry, "_delta")
        assert not hasattr(StreamBuffer, "_notify_change")

    @pytest.mark.parametrize("func", [
        SourceNode.ingest, SourceNode.inject_punctuation,
        StreamBuffer.append_row, shard_frontier,
    ], ids=lambda func: func.__qualname__)
    def test_no_enum_member_load(self, func):
        """Stamping modes are compared against module constants: a
        ``TimestampKind.<member>`` load costs several times a global."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        loads = [node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "TimestampKind"]
        assert loads == []


def external_union():
    """Two external sources into a union into a sink, on one engine."""
    graph = QueryGraph("nan")
    a = graph.add_source("a", TimestampKind.EXTERNAL)
    b = graph.add_source("b", TimestampKind.EXTERNAL)
    union = graph.add(Union("union"))
    sink = graph.add_sink("out")
    graph.connect(a, union)
    graph.connect(b, union)
    graph.connect(union, sink)
    engine = ExecutionEngine(graph, ManualClock())
    return graph, engine, a, b, union, sink


class TestInvalidStamp:
    """A NaN stamp compares neither below nor above anything: admitted at
    a source, it would keep every IWP gate downstream shut for good.  Both
    source entrances refuse it with a structured error, announced on the
    registry's violation hook first, and the union still delivers the
    clean rows that follow."""

    def assert_rejected(self, graph, call):
        seen = []
        graph.registry.on_violation = lambda **fields: seen.append(fields)
        with pytest.raises(TimestampError) as err:
            call()
        fields = err.value.fields
        assert (fields["kind"], fields["operator"], fields["port"]) == (
            "invalid-ts", "a", 0)
        assert math.isnan(fields["offending_ts"])
        assert seen == [fields]
        assert graph.registry.mutations == 0

    def assert_clean_run_delivers(self, engine, a, b, union, sink):
        a.ingest({"v": 1}, now=1.0, ts=1.0)
        b.ingest({"v": 2}, now=1.0, ts=0.5)
        assert a.inject_punctuation(5.0) and b.inject_punctuation(5.0)
        engine.wakeup()
        assert sink.delivered == 2
        assert sum(len(buf) for buf in union.inputs) == 0

    def test_ingest_rejects_a_nan_stamp(self):
        graph, engine, a, b, union, sink = external_union()
        self.assert_rejected(
            graph, lambda: a.ingest({"v": 0}, now=0.0, ts=float("nan")))
        assert a.ingested_count == 0 and a.last_data_ts == LATENT_TS
        self.assert_clean_run_delivers(engine, a, b, union, sink)

    def test_inject_punctuation_rejects_a_nan_stamp(self):
        graph, engine, a, b, union, sink = external_union()
        self.assert_rejected(graph, lambda: a.inject_punctuation(float("nan")))
        assert a.punctuation_injected == 0 and a.watermark == LATENT_TS
        self.assert_clean_run_delivers(engine, a, b, union, sink)

    def test_out_of_order_source_rejects_a_nan_stamp(self):
        src = SourceNode("s", TimestampKind.EXTERNAL, out_of_order=True)
        buf = StreamBuffer("s->x", enforce_order=False)
        src.attach_output(buf, consumer=None)
        with pytest.raises(TimestampError, match="not a timestamp"):
            src.ingest({}, now=0.0, ts=float("nan"))
        assert not buf


class TestPunctuationInjection:
    def test_injects_and_advances_watermark(self):
        src, buf = make_source()
        assert src.inject_punctuation(3.0)
        assert src.watermark == 3.0
        assert buf.pop().is_punctuation

    def test_stale_injection_skipped(self):
        src, buf = make_source()
        src.ingest({}, now=5.0)
        assert not src.inject_punctuation(5.0)
        assert not src.inject_punctuation(4.0)
        assert src.punctuation_injected == 0

    def test_latent_source_never_injects(self):
        src, buf = make_source(TimestampKind.LATENT)
        assert not src.inject_punctuation(1.0)

    def test_source_never_executes(self):
        src, _ = make_source()
        assert not src.more()
        with pytest.raises(NotImplementedError):
            src.execute_block(OpContext(clock=ManualClock()), 1)


class TestSink:
    def make(self, **kwargs):
        sink = SinkNode("out", **kwargs)
        buf = StreamBuffer("x->out")
        sink.attach_input(buf, producer=None)
        clock = ManualClock()
        return sink, buf, OpContext(clock=clock), clock

    def test_latency_statistics(self):
        sink, buf, ctx, clock = self.make()
        buf.push(data(1.0, arrival=1.0))
        buf.push(data(2.0, arrival=2.0))
        clock.t = 2.5
        sink.execute_block(ctx, 1)
        sink.execute_block(ctx, 1)
        assert sink.delivered == 2
        assert sink.mean_latency == pytest.approx((1.5 + 0.5) / 2)
        assert sink.latency_max == pytest.approx(1.5)

    def test_punctuation_eliminated(self):
        sink, buf, ctx, clock = self.make()
        buf.push(punct(1.0))
        sink.execute_block(ctx, 1)
        assert sink.delivered == 0
        assert sink.punctuation_eliminated == 1

    def test_callback_invoked(self):
        seen = []
        sink, buf, ctx, clock = self.make(
            on_output=lambda tup, lat: seen.append((tup.payload, lat)))
        clock.t = 3.0
        buf.push(data(1.0, payload="x", arrival=1.0))
        sink.execute_block(ctx, 1)
        assert seen == [("x", 2.0)]

    def test_keep_outputs(self):
        sink, buf, ctx, clock = self.make(keep_outputs=True)
        buf.push(data(1.0, payload="x"))
        sink.execute_block(ctx, 1)
        assert [t.payload for t in sink.outputs_seen] == ["x"]

    def test_nan_arrival_not_counted(self):
        sink, buf, ctx, clock = self.make()
        buf.push(data(1.0, arrival=float("nan")))
        sink.execute_block(ctx, 1)
        assert sink.delivered == 1
        assert sink.latency_count == 0
        assert math.isnan(sink.mean_latency)
