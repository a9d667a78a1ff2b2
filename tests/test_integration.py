"""Integration tests: multi-operator graphs running end-to-end in the kernel."""

import random

import pytest

from repro.core.ets import NoEts, OnDemandEts, PeriodicEtsSchedule
from repro.core.graph import QueryGraph
from repro.core.operators import (
    AggSpec,
    Count,
    Select,
    Sum,
    TumblingAggregate,
    Union,
    WindowJoin,
)
from repro.core.windows import WindowSpec
from repro.query.pipeline import Pipeline
from repro.sim.cost import CostModel
from repro.sim.kernel import Arrival, Simulation
from repro.workloads.arrival import constant_arrivals, poisson_arrivals


class TestDeepPipeline:
    def build(self):
        """union -> tumbling aggregate -> sink: ETS must cross the union."""
        q = Pipeline("deep")
        fast = q.source("fast")
        slow = q.source("slow")
        merged = fast.union(slow)
        agg = merged.tumbling(1.0, {"n": AggSpec(Count),
                                    "sum": AggSpec(Sum, "v")})
        agg.sink("out", keep_outputs=True)
        return (q.compile(), fast.source_node, slow.source_node,
                q.sinks["out"])

    def test_ets_drives_aggregate_emission(self):
        """On-demand ETS punctuation crosses the union and closes windows
        even though the slow stream is silent."""
        g, fast, slow, sink = self.build()
        sim = Simulation(g, ets_policy=OnDemandEts(),
                         cost_model=CostModel.zero())
        sim.attach_arrivals(fast, iter(
            Arrival(0.1 + i * 0.2, {"v": 1}) for i in range(50)))
        sim.run(until=12.0)
        assert sink.delivered >= 9  # ~10 windows of 1 second
        assert sum(t.payload["n"] for t in sink.outputs_seen) <= 50

    def test_without_ets_aggregate_starves(self):
        g, fast, slow, sink = self.build()
        sim = Simulation(g, ets_policy=NoEts(), cost_model=CostModel.zero())
        sim.attach_arrivals(fast, iter(
            Arrival(0.1 + i * 0.2, {"v": 1}) for i in range(50)))
        sim.run(until=12.0)
        assert sink.delivered == 0  # everything stuck at the union


class TestJoinThenUnion:
    def test_mixed_iwp_graph(self):
        g = QueryGraph("mixed")
        a = g.add_source("a")
        b = g.add_source("b")
        c = g.add_source("c")
        join = g.add(WindowJoin("join", WindowSpec.time(5.0)))
        union = g.add(Union("union"))
        sink = g.add_sink("sink", keep_outputs=True)
        g.connect(a, join)
        g.connect(b, join)
        g.connect(join, union)
        g.connect(c, union)
        g.connect(union, sink)
        sim = Simulation(g, ets_policy=OnDemandEts(),
                         cost_model=CostModel.zero())
        sim.attach_arrivals(a, iter([Arrival(1.0, {"x": 1})]))
        sim.attach_arrivals(b, iter([Arrival(2.0, {"y": 2})]))
        sim.attach_arrivals(c, iter([Arrival(3.0, {"z": 3})]))
        sim.run(until=10.0)
        assert sink.delivered == 2  # one join result + the c tuple
        payload_keys = sorted(tuple(sorted(t.payload))
                              for t in sink.outputs_seen)
        assert payload_keys == [("x", "y"), ("z",)]

    def test_multiway_join_cascade(self):
        p = Pipeline("mw")
        s0, s1, s2 = (p.source(f"s{i}") for i in range(3))
        window = WindowSpec.time(10.0)
        s0.join(s1, window).join(s2, window).sink("sink", keep_outputs=True)
        sink = p.sinks["sink"]
        sim = Simulation(p.compile(), ets_policy=OnDemandEts(),
                         cost_model=CostModel.zero())
        for i, src in enumerate((s0, s1, s2)):
            sim.attach_arrivals(src.source_node,
                                iter([Arrival(1.0 + i, {f"k{i}": i})]))
        sim.run(until=10.0)
        assert sink.delivered == 1
        assert set(sink.outputs_seen[0].payload) == {"k0", "k1", "k2"}


class TestFanOut:
    def test_one_source_two_sinks(self):
        g = QueryGraph("fan")
        src = g.add_source("src")
        evens = g.add(Select("evens", lambda p: p["v"] % 2 == 0))
        odds = g.add(Select("odds", lambda p: p["v"] % 2 == 1))
        sink_e = g.add_sink("sink_e")
        sink_o = g.add_sink("sink_o")
        g.connect(src, evens)
        g.connect(src, odds)
        g.connect(evens, sink_e)
        g.connect(odds, sink_o)
        sim = Simulation(g, cost_model=CostModel.zero())
        sim.attach_arrivals(src, iter(
            Arrival(float(i + 1), {"v": i}) for i in range(10)))
        sim.run(until=20.0)
        assert sink_e.delivered == 5 and sink_o.delivered == 5


class TestMultipleComponents:
    def test_independent_queries_share_engine(self):
        g = QueryGraph("two")
        s1 = g.add_source("s1")
        k1 = g.add_sink("k1")
        g.connect(s1, k1)
        s2 = g.add_source("s2")
        k2 = g.add_sink("k2")
        g.connect(s2, k2)
        assert len(g.components()) == 2
        sim = Simulation(g, cost_model=CostModel.zero())
        sim.attach_arrivals(s1, iter([Arrival(1.0, "a")]))
        sim.attach_arrivals(s2, iter([Arrival(2.0, "b")]))
        sim.run(until=5.0)
        assert k1.delivered == 1 and k2.delivered == 1


class TestPeriodicVersusOnDemandIntegration:
    def build(self):
        q = Pipeline("cmp")
        fast = q.source("fast")
        slow = q.source("slow")
        fast.union(slow).sink("out")
        return (q.compile(), fast.source_node, slow.source_node,
                q.sinks["out"])

    def run_with(self, policy=None, periodic=None, seed=3):
        g, fast, slow, sink = self.build()
        sim = Simulation(g, ets_policy=policy, periodic=periodic)
        rng = random.Random(seed)
        sim.attach_arrivals(fast, poisson_arrivals(20.0, rng))
        sim.attach_arrivals(slow, constant_arrivals(0.1))
        sim.run(until=30.0)
        return sim, sink

    def test_on_demand_beats_periodic_latency(self):
        sim_c, sink_c = self.run_with(policy=OnDemandEts())
        sim_b, sink_b = self.run_with(
            periodic=PeriodicEtsSchedule({"slow": 1.0}))
        assert sink_c.mean_latency < sink_b.mean_latency / 10

    def test_on_demand_uses_less_memory(self):
        sim_c, _ = self.run_with(policy=OnDemandEts())
        sim_a, _ = self.run_with()
        assert sim_c.peak_queue_size < sim_a.peak_queue_size


class TestOrderedOutputInvariant:
    def test_sink_sees_ordered_timestamps_under_ets(self):
        q = Pipeline("ord")
        a = q.source("a")
        b = q.source("b")
        a.union(b).sink("out", keep_outputs=True)
        g = q.compile()
        sink = q.sinks["out"]
        sim = Simulation(g, ets_policy=OnDemandEts())
        rng = random.Random(1)
        sim.attach_arrivals(a.source_node, poisson_arrivals(30.0, rng))
        sim.attach_arrivals(b.source_node,
                            poisson_arrivals(0.5, random.Random(2)))
        sim.run(until=20.0)
        ts = [t.ts for t in sink.outputs_seen]
        assert ts == sorted(ts)
        assert sink.delivered > 100


class TestStrictAblationIntegration:
    def test_tsm_rules_dominate_strict_on_simultaneous_load(self):
        """With coarse timestamps (many simultaneous tuples), the TSM rules
        deliver more tuples than the strict Fig.-1 rules — the X1 ablation."""
        def run(strict: bool) -> int:
            g = QueryGraph(f"sim-{strict}")
            a = g.add_source("a")
            b = g.add_source("b")
            u = g.add(Union("u", strict=strict))
            sink = g.add_sink("sink")
            g.connect(a, u)
            g.connect(b, u)
            g.connect(u, sink)
            sim = Simulation(g, ets_policy=NoEts(),
                             cost_model=CostModel.zero())
            # coarse timestamps: arrivals snap to whole seconds
            def coarse(n, phase):
                return iter(Arrival(float(i // 2) + 1.0 + phase, {"v": i})
                            for i in range(n))
            sim.attach_arrivals(a, coarse(40, 0.0))
            sim.attach_arrivals(b, coarse(40, 0.0))
            sim.run(until=60.0)
            return sink.delivered

        assert run(strict=False) > run(strict=True)
