"""Tests for the Reorder operator and out-of-order stream support."""

import random

import pytest

from repro.core.errors import ExecutionError, TimestampError
from repro.core.ets import OnDemandEts
from repro.core.graph import QueryGraph
from repro.core.operators import Reorder, Union
from repro.core.tuples import LATENT_TS, DataTuple, TimestampKind
from repro.query.pipeline import Pipeline
from repro.sim.cost import CostModel
from repro.sim.kernel import Arrival, Simulation
from repro.workloads.arrival import (
    poisson_arrivals,
    with_out_of_order_timestamps,
)

from conftest import OpHarness


def make_reorder(slack: float = 2.0, **kwargs):
    op = Reorder("r", slack, **kwargs)
    h = OpHarness(op)
    # replace the harness input with an order-tolerant buffer
    h.inputs[0]._enforce_order = False
    return op, h


class TestReorderCore:
    def test_restores_order_with_slack(self):
        op, h = make_reorder(slack=2.0)
        for ts in (3.0, 1.5, 2.0, 5.0, 4.0, 9.0):
            h.feed(0, ts)
        h.run()
        out = [t.ts for t in h.output_data()]
        assert out == sorted(out)
        # with max_seen 9.0 and slack 2.0, everything <= 7.0 is out
        assert out == [1.5, 2.0, 3.0, 4.0, 5.0]
        assert op.pending == 1  # 9.0 still parked

    def test_punctuation_flushes_and_forwards(self):
        op, h = make_reorder(slack=10.0)
        h.feed(0, 3.0)
        h.feed(0, 1.0)
        h.feed_punctuation(0, 5.0)
        h.run()
        out = h.drain_output()
        assert [e.ts for e in out] == [1.0, 3.0, 5.0]
        assert out[-1].is_punctuation
        assert op.pending == 0

    def test_stale_punctuation_swallowed(self):
        op, h = make_reorder(slack=0.0)
        h.feed(0, 10.0)
        h.run()  # watermark 10.0
        h.feed_punctuation(0, 4.0)
        h.run()
        assert all(not e.is_punctuation or e.ts >= 10.0
                   for e in h.drain_output())

    def test_late_tuple_dropped_and_counted(self):
        op, h = make_reorder(slack=1.0)
        h.feed(0, 10.0)
        h.run()  # flushes <= 9.0 (nothing), watermark 9.0
        h.feed(0, 5.0)  # below watermark: late
        h.run()
        assert op.late_dropped == 1

    def test_late_tuple_error_policy(self):
        op, h = make_reorder(slack=0.0, late="error")
        h.feed(0, 10.0)
        h.run()
        h.feed(0, 5.0)
        with pytest.raises(TimestampError, match="slack"):
            h.run()

    def test_equal_to_watermark_is_not_late(self):
        op, h = make_reorder(slack=0.0)
        h.feed(0, 10.0)
        h.run()
        h.feed(0, 10.0)  # simultaneous with the watermark: fine
        h.run()
        assert op.late_dropped == 0
        assert len(h.output_data()) == 2

    def test_latent_passthrough(self):
        op, h = make_reorder(slack=5.0)
        h.inputs[0].push(DataTuple(ts=LATENT_TS, payload="x",
                                   kind=TimestampKind.LATENT))
        h.run()
        assert [t.payload for t in h.output_data()] == ["x"]

    def test_invalid_parameters(self):
        with pytest.raises(ExecutionError):
            Reorder("r", -1.0)
        with pytest.raises(ExecutionError):
            Reorder("r", 1.0, late="ignore")


class TestOutOfOrderSource:
    def test_requires_external_kind(self):
        g = QueryGraph("g")
        with pytest.raises(TimestampError):
            g.add_source("s", TimestampKind.INTERNAL, out_of_order=True)

    def test_accepts_regressing_timestamps(self):
        g = QueryGraph("g")
        src = g.add_source("s", TimestampKind.EXTERNAL, out_of_order=True)
        sink = g.add_sink("sink", keep_outputs=True)
        g.connect(src, sink)
        src.ingest({}, now=1.0, ts=5.0)
        src.ingest({}, now=2.0, ts=3.0)  # regression allowed
        assert src.last_data_ts == 5.0   # frontier, not last

    def test_ordered_source_still_rejects(self):
        g = QueryGraph("g")
        src = g.add_source("s", TimestampKind.EXTERNAL)
        sink = g.add_sink("sink")
        g.connect(src, sink)
        src.ingest({}, now=1.0, ts=5.0)
        with pytest.raises(TimestampError):
            src.ingest({}, now=2.0, ts=3.0)


class TestEndToEndOutOfOrder:
    def build(self, slack: float):
        q = Pipeline("ooo")
        disordered = q.source("disordered", kind=TimestampKind.EXTERNAL,
                              out_of_order=True)
        ordered = q.source("ordered", kind=TimestampKind.EXTERNAL)
        merged = disordered.reorder(slack, name="fix").union(ordered)
        merged.sink("out", keep_outputs=True)
        return (q.compile(), disordered.source_node, ordered.source_node,
                q.sinks["out"])

    def test_union_sees_ordered_stream(self):
        graph, disordered, ordered, sink = self.build(slack=1.0)
        sim = Simulation(graph, ets_policy=OnDemandEts(external_delta=1.0),
                         cost_model=CostModel.zero())
        base = poisson_arrivals(20.0, random.Random(1))
        sim.attach_arrivals(disordered, with_out_of_order_timestamps(
            base, random.Random(2), max_disorder=1.0))
        sim.attach_arrivals(ordered, iter(
            Arrival(float(t), external_ts=float(t)) for t in range(1, 10)))
        sim.run(until=30.0)
        out_ts = [t.ts for t in sink.outputs_seen]
        assert len(out_ts) > 100
        assert out_ts == sorted(out_ts)
        assert graph["fix"].late_dropped == 0  # slack matches the disorder

    def test_insufficient_slack_drops_late_tuples(self):
        graph, disordered, ordered, sink = self.build(slack=0.01)
        sim = Simulation(graph, ets_policy=OnDemandEts(external_delta=1.0),
                         cost_model=CostModel.zero())
        base = poisson_arrivals(50.0, random.Random(1))
        sim.attach_arrivals(disordered, with_out_of_order_timestamps(
            base, random.Random(2), max_disorder=1.0))
        sim.attach_arrivals(ordered, iter(
            Arrival(float(t), external_ts=float(t)) for t in range(1, 10)))
        sim.run(until=30.0)
        assert graph["fix"].late_dropped > 0
        out_ts = [t.ts for t in sink.outputs_seen]
        assert out_ts == sorted(out_ts)  # order still never violated


class TestWorkloadGenerator:
    def test_disorder_bounded(self):
        base = poisson_arrivals(100.0, random.Random(1))
        arrivals = [a for _, a in zip(range(300), with_out_of_order_timestamps(
            base, random.Random(2), max_disorder=0.5))]
        for a in arrivals:
            assert 0.0 <= a.time - a.external_ts <= 0.5 + 1e-9
        ts = [a.external_ts for a in arrivals]
        assert ts != sorted(ts)  # genuinely out of order
