"""Tests for source and sink nodes: timestamping, latency, punctuation."""

import math
import sys

import pytest

from repro.core.buffers import StreamBuffer
from repro.core.columnar import ColumnarBlock
from repro.core.errors import TimestampError
from repro.core.operators import SinkNode, SourceNode
from repro.core.operators.base import OpContext
from repro.core.tuples import LATENT_TS, DataTuple, TimestampKind

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
        head = buf.peek()
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
        head = buf.peek()
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
        head = buf.peek()
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
        head = buf.peek()
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
        that follows hands the rows over as they lie — no ``drain_batch``
        run, no ``from_tuples`` gather, no ``to_tuples`` explosion."""
        names = {DataTuple.__init__.__code__: "DataTuple.__init__",
                 StreamBuffer.push.__code__: "StreamBuffer.push",
                 StreamBuffer.drain_batch.__code__: "StreamBuffer.drain_batch",
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
            src.execute_step(OpContext(clock=ManualClock()))


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
        sink.execute_step(ctx)
        sink.execute_step(ctx)
        assert sink.delivered == 2
        assert sink.mean_latency == pytest.approx((1.5 + 0.5) / 2)
        assert sink.latency_max == pytest.approx(1.5)

    def test_punctuation_eliminated(self):
        sink, buf, ctx, clock = self.make()
        buf.push(punct(1.0))
        sink.execute_step(ctx)
        assert sink.delivered == 0
        assert sink.punctuation_eliminated == 1

    def test_callback_invoked(self):
        seen = []
        sink, buf, ctx, clock = self.make(
            on_output=lambda tup, lat: seen.append((tup.payload, lat)))
        clock.t = 3.0
        buf.push(data(1.0, payload="x", arrival=1.0))
        sink.execute_step(ctx)
        assert seen == [("x", 2.0)]

    def test_keep_outputs(self):
        sink, buf, ctx, clock = self.make(keep_outputs=True)
        buf.push(data(1.0, payload="x"))
        sink.execute_step(ctx)
        assert [t.payload for t in sink.outputs_seen] == ["x"]

    def test_nan_arrival_not_counted(self):
        sink, buf, ctx, clock = self.make()
        buf.push(data(1.0, arrival=float("nan")))
        sink.execute_step(ctx)
        assert sink.delivered == 1
        assert sink.latency_count == 0
        assert math.isnan(sink.mean_latency)
