"""Tests for the load shedder and the DOT graph export."""

import pytest

from repro.core.errors import ExecutionError
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Shed, Union
from repro.sim.cost import CostModel
from repro.sim.kernel import Arrival, Simulation

from conftest import OpHarness


class TestShed:
    def test_probability_zero_passes_everything(self):
        op = Shed("s", 0.0)
        h = OpHarness(op)
        for i in range(50):
            h.feed(0, float(i), {"v": i})
        h.run()
        assert len(h.output_data()) == 50
        assert op.shed_count == 0

    def test_probability_one_drops_everything(self):
        op = Shed("s", 1.0)
        h = OpHarness(op)
        for i in range(50):
            h.feed(0, float(i), {"v": i})
        h.run()
        assert h.output_data() == []
        assert op.shed_count == 50

    def test_fractional_shedding_is_seeded(self):
        def run(seed):
            op = Shed("s", 0.5, seed=seed)
            h = OpHarness(op)
            for i in range(200):
                h.feed(0, float(i), {"v": i})
            h.run()
            return op.shed_count

        assert run(1) == run(1)  # reproducible
        count = run(1)
        assert 60 < count < 140  # roughly half

    def test_punctuation_never_shed(self):
        op = Shed("s", 1.0)
        h = OpHarness(op)
        h.feed(0, 1.0, {"v": 1})
        h.feed_punctuation(0, 2.0)
        h.run()
        out = h.drain_output()
        assert len(out) == 1 and out[0].is_punctuation

    def test_shed_fraction(self):
        op = Shed("s", 1.0)
        h = OpHarness(op)
        assert op.shed_fraction != op.shed_fraction  # nan
        h.feed(0, 1.0, {})
        h.run()
        assert op.shed_fraction == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ExecutionError):
            Shed("s", 1.5)
        with pytest.raises(ExecutionError):
            Shed("s", -0.1)

    def test_shedding_does_not_block_downstream(self):
        """A shed stream still advances downstream registers (via ETS)."""
        from repro.core.ets import OnDemandEts
        g = QueryGraph("shed")
        a = g.add_source("a")
        b = g.add_source("b")
        shed = g.add(Shed("shed_all", 1.0))
        u = g.add(Union("u"))
        sink = g.add_sink("sink")
        g.connect(a, shed)
        g.connect(shed, u)
        g.connect(b, u)
        g.connect(u, sink)
        sim = Simulation(g, ets_policy=OnDemandEts(),
                         cost_model=CostModel.zero())
        sim.attach_arrivals(a, iter(Arrival(float(t), {}) for t in (1, 2)))
        sim.attach_arrivals(b, iter([Arrival(3.0, {"keep": True})]))
        sim.run(until=10.0)
        assert sink.delivered == 1  # b's tuple flowed despite a being shed


class TestDotExport:
    def make(self) -> QueryGraph:
        g = QueryGraph("dot")
        a = g.add_source("a")
        b = g.add_source("b")
        sel = g.add(Select("sel", lambda p: True))
        u = g.add(Union("u"))
        sink = g.add_sink("sink")
        g.connect(a, sel)
        g.connect(sel, u)
        g.connect(b, u)
        g.connect(u, sink)
        return g

    def test_dot_structure(self):
        dot = self.make().to_dot()
        assert dot.startswith('digraph "dot" {')
        assert dot.rstrip().endswith("}")
        assert '"a" -> "sel"' in dot
        assert '"u" -> "sink"' in dot

    def test_dot_shapes(self):
        dot = self.make().to_dot()
        assert 'shape=house' in dot          # sources
        assert 'shape=invhouse' in dot       # sinks
        assert 'shape=doublecircle' in dot   # the IWP union
        assert 'shape=box' in dot            # the select

    def test_dot_edge_labels_show_occupancy(self):
        g = self.make()
        g["a"].ingest({}, now=1.0)
        dot = g.to_dot()
        assert '"a" -> "sel" [label="1"]' in dot
