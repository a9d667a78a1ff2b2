"""Tests for the fluent builder combinators of :class:`Pipeline`."""

import pytest

from repro.core.ets import OnDemandEts
from repro.core.errors import GraphError
from repro.core.operators import AggSpec, Count
from repro.core.tuples import TimestampKind
from repro.core.windows import WindowSpec
from repro.query.pipeline import Pipeline
from repro.sim.cost import CostModel
from repro.sim.kernel import Arrival, Simulation


class TestBuilderShapes:
    def test_linear_pipeline(self):
        q = Pipeline("lin")
        q.source("src").select(lambda p: True).map(lambda p: p).sink("out")
        g = q.compile()
        assert {op.name for op in g.operators} == {
            "src", "select_1", "map_1", "out"}

    def test_auto_names_increment(self):
        q = Pipeline()
        s = q.source()
        s.select(lambda p: True).sink()
        s2 = q.source()
        s2.select(lambda p: True).sink()
        assert {op.name for op in q.compile().operators} == {
            "source_1", "select_1", "sink_1",
            "source_2", "select_2", "sink_2"}

    def test_explicit_names(self):
        q = Pipeline()
        q.source("a").select(lambda p: True, name="myfilter").sink("out")
        assert "myfilter" in q.compile()

    def test_union_combinator(self):
        q = Pipeline()
        a = q.source("a")
        b = q.source("b")
        a.union(b).sink("out")
        g = q.compile()
        assert len(g["union_1"].inputs) == 2

    def test_union_needs_other(self):
        q = Pipeline()
        a = q.source("a")
        with pytest.raises(GraphError):
            a.union()

    def test_union_across_queries_rejected(self):
        a = Pipeline().source("a")
        q2 = Pipeline()
        b = q2.source("b")
        with pytest.raises(GraphError):
            b.union(a)

    def test_join_combinator(self):
        q = Pipeline()
        a = q.source("a")
        b = q.source("b")
        a.join(b, WindowSpec.time(10.0), key="k").sink("out")
        g = q.compile()
        assert "join_1" in g

    def test_join_across_queries_rejected(self):
        a = Pipeline().source("a")
        q2 = Pipeline()
        b = q2.source("b")
        with pytest.raises(GraphError):
            b.join(a, WindowSpec.time(1.0))

    def test_aggregates(self):
        q = Pipeline()
        s = q.source("s")
        s.tumbling(10.0, {"n": AggSpec(Count)}).sink("t_out")
        assert "tumbling_1" in q.compile()

    def test_flat_map_and_where(self):
        q = Pipeline()
        (q.source("s")
         .select(lambda p: p["v"] > 0)
         .flat_map(lambda p: [p, p])
         .project(["v"])
         .sink("out"))
        g = q.compile()
        assert "flatmap_1" in g and "project_1" in g

    def test_source_node_accessor(self):
        q = Pipeline()
        s = q.source("s", kind=TimestampKind.EXTERNAL)
        assert s.source_node.timestamp_kind is TimestampKind.EXTERNAL
        sel = s.select(lambda p: True)
        with pytest.raises(GraphError):
            sel.source_node


class TestBuilderRuns:
    def test_built_graph_runs(self):
        q = Pipeline("run")
        fast = q.source("fast")
        slow = q.source("slow")
        merged = fast.select(lambda p: True).union(
            slow.select(lambda p: True))
        sink = merged.sink("out").sinks["out"]
        g = q.compile()
        sim = Simulation(g, ets_policy=OnDemandEts(),
                         cost_model=CostModel.zero())
        sim.attach_arrivals(fast.source_node,
                            iter([Arrival(1.0, {"v": 1})]))
        sim.run(until=5.0)
        assert sink.delivered == 1
