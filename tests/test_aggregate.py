"""Unit tests for the tumbling windowed aggregate."""

import pytest

from repro.core.errors import ExecutionError
from repro.core.operators import (
    AggSpec,
    Avg,
    Count,
    Max,
    Min,
    Sum,
    TumblingAggregate,
)
from repro.core.tuples import LATENT_TS, DataTuple, TimestampKind

from conftest import OpHarness


class TestAggregators:
    def test_count(self):
        agg = Count()
        for v in (1, 2, 3):
            agg.update(v)
        assert agg.result() == 3

    def test_sum(self):
        agg = Sum()
        for v in (1, 2, 3):
            agg.update(v)
        assert agg.result() == 6

    def test_avg(self):
        agg = Avg()
        for v in (1.0, 2.0, 3.0):
            agg.update(v)
        assert agg.result() == pytest.approx(2.0)

    def test_avg_empty_is_none(self):
        assert Avg().result() is None

    def test_min_max(self):
        mn, mx = Min(), Max()
        for v in (5, 1, 3):
            mn.update(v)
            mx.update(v)
        assert mn.result() == 1 and mx.result() == 5

    def test_min_max_empty(self):
        assert Min().result() is None and Max().result() is None


def make_tumbling(width: float = 10.0, **kwargs):
    op = TumblingAggregate(
        "agg", width,
        {"n": AggSpec(Count), "total": AggSpec(Sum, "v")}, **kwargs)
    return op, OpHarness(op)


class TestTumblingAggregate:
    def test_emits_on_window_close(self):
        op, h = make_tumbling()
        h.feed(0, 1.0, {"v": 1})
        h.feed(0, 5.0, {"v": 2})
        h.run()
        assert h.output_data() == []  # window [0,10) still open
        h.feed(0, 12.0, {"v": 4})
        h.run()
        out = h.output_data()
        assert len(out) == 1
        assert out[0].payload["n"] == 2 and out[0].payload["total"] == 3
        assert out[0].ts == 10.0  # stamped with the window end

    def test_boundary_tuple_opens_next_window(self):
        op, h = make_tumbling()
        h.feed(0, 0.0, {"v": 1})
        h.feed(0, 10.0, {"v": 2})  # exactly the boundary: next window
        h.run()
        out = h.output_data()
        assert len(out) == 1 and out[0].payload["n"] == 1

    def test_punctuation_closes_window(self):
        """ETS punctuation enables early aggregate emission."""
        op, h = make_tumbling()
        h.feed(0, 1.0, {"v": 7})
        h.feed_punctuation(0, 10.0)
        h.run()
        out = h.drain_output()
        data = [e for e in out if not e.is_punctuation]
        assert len(data) == 1 and data[0].payload["total"] == 7
        assert out[-1].is_punctuation  # punctuation still propagates

    def test_punctuation_inside_window_does_not_close(self):
        op, h = make_tumbling()
        h.feed(0, 1.0, {"v": 7})
        h.feed_punctuation(0, 5.0)
        h.run()
        assert [e for e in h.drain_output() if not e.is_punctuation] == []

    def test_gap_of_empty_windows_skipped(self):
        op, h = make_tumbling()
        h.feed(0, 1.0, {"v": 1})
        h.feed(0, 95.0, {"v": 2})
        h.run()
        out = h.output_data()
        assert len(out) == 1  # no empty-window outputs in between
        h.feed(0, 105.0, {"v": 3})
        h.run()
        out = h.output_data()
        assert len(out) == 1 and out[0].payload["total"] == 2

    def test_emit_empty_windows(self):
        op = TumblingAggregate("agg", 10.0, {"n": AggSpec(Count)},
                               emit_empty=True)
        h = OpHarness(op)
        h.feed(0, 1.0, {"v": 1})
        h.feed(0, 35.0, {"v": 2})
        h.run()
        out = h.output_data()
        assert [t.payload["n"] for t in out] == [1, 0, 0]
        assert [t.ts for t in out] == [10.0, 20.0, 30.0]

    def test_group_by(self):
        op = TumblingAggregate("agg", 10.0, {"n": AggSpec(Count)},
                               group_by="k")
        h = OpHarness(op)
        h.feed(0, 1.0, {"k": "a"})
        h.feed(0, 2.0, {"k": "b"})
        h.feed(0, 3.0, {"k": "a"})
        h.feed_punctuation(0, 10.0)
        h.run()
        out = {t.payload["k"]: t.payload["n"] for t in h.output_data()}
        assert out == {"a": 2, "b": 1}

    def test_output_carries_window_end(self):
        op, h = make_tumbling()
        h.feed(0, 1.0, {"v": 1})
        h.feed_punctuation(0, 30.0)
        h.run()
        out = h.output_data()[0]
        assert out.payload["window_end"] == 10.0

    def test_invalid_width(self):
        with pytest.raises(ExecutionError):
            TumblingAggregate("agg", 0.0, {"n": AggSpec(Count)})

    def test_needs_aggs(self):
        with pytest.raises(ExecutionError):
            TumblingAggregate("agg", 10.0, {})

    def test_latent_tuples_stamped(self):
        op, h = make_tumbling()
        h.clock.t = 15.0
        h.inputs[0].push(DataTuple(ts=LATENT_TS, payload={"v": 1},
                                   kind=TimestampKind.LATENT))
        h.run()
        h.feed(0, 25.0, {"v": 2})
        h.run()
        out = h.output_data()
        assert len(out) == 1 and out[0].ts == 20.0  # window [10,20)
