"""Tests for the round-robin scheduling engine (X4 ablation support)."""

import pytest

from repro.core.ets import NoEts, OnDemandEts
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union
from repro.core.scheduling import RoundRobinEngine
from repro.sim.clock import VirtualClock
from repro.sim.cost import CostModel
from repro.sim.kernel import Arrival, Simulation
from repro.workloads.scenarios import ScenarioConfig, build_union_scenario


def union_graph():
    g = QueryGraph("u")
    s1 = g.add_source("s1")
    s2 = g.add_source("s2")
    u = g.add(Union("u"))
    sink = g.add_sink("sink", keep_outputs=True)
    g.connect(s1, u)
    g.connect(s2, u)
    g.connect(u, sink)
    return g, s1, s2, u, sink


class TestRoundRobinBasics:
    def test_tuples_flow(self):
        g, s1, s2, u, sink = union_graph()
        engine = RoundRobinEngine(g, VirtualClock(),
                                  cost_model=CostModel.zero(),
                                  ets_policy=OnDemandEts())
        s1.ingest({"v": 1}, now=1.0)
        engine.clock.advance_to(1.0)
        engine.wakeup()
        assert sink.delivered == 1

    def test_source_poll_triggers_ets(self):
        g, s1, s2, u, sink = union_graph()
        engine = RoundRobinEngine(g, VirtualClock(),
                                  cost_model=CostModel.zero(),
                                  ets_policy=OnDemandEts())
        engine.clock.advance_to(2.0)
        s1.ingest({"v": 1}, now=2.0)
        engine.wakeup()
        assert engine.stats.ets_injected >= 1
        assert sink.delivered == 1

    def test_no_ets_blocks_like_dfs(self):
        g, s1, s2, u, sink = union_graph()
        engine = RoundRobinEngine(g, VirtualClock(),
                                  cost_model=CostModel.zero(),
                                  ets_policy=NoEts())
        s1.ingest({"v": 1}, now=1.0)
        engine.wakeup()
        assert sink.delivered == 0

    def test_batch_size_validated(self):
        g, *_ = union_graph()
        with pytest.raises(ValueError):
            RoundRobinEngine(g, VirtualClock(), quantum=0)

    def test_visit_cost_accrues(self):
        g, s1, s2, u, sink = union_graph()
        clock = VirtualClock()
        engine = RoundRobinEngine(g, clock, cost_model=CostModel.zero(),
                                  visit_cost=1e-3, ets_policy=NoEts())
        s1.ingest({"v": 1}, now=0.0)
        engine.wakeup()
        assert clock.now() > 0.0  # visits charged even though union blocked


class TestRoundRobinInKernel:
    def test_simulation_accepts_engine_cls(self):
        g, s1, s2, u, sink = union_graph()
        sim = Simulation(g, ets_policy=OnDemandEts(),
                         cost_model=CostModel.zero(),
                         batch_size=4,
                         engine_cls=RoundRobinEngine)
        sim.attach_arrivals(s1, iter([Arrival(1.0, {"v": 1})]))
        sim.run(until=5.0)
        assert sink.delivered == 1
        assert isinstance(sim.engine, RoundRobinEngine)

    def test_scenario_config_engine_override(self):
        cfg = ScenarioConfig(scenario="C", duration=5.0, rate_fast=20.0,
                             rate_slow=0.5, engine_cls=RoundRobinEngine)
        handles = build_union_scenario(cfg).run()
        assert isinstance(handles.sim.engine, RoundRobinEngine)
        assert handles.sink.delivered > 0


class TestDfsVersusRoundRobin:
    def run_with(self, engine_cls):
        cfg = ScenarioConfig(scenario="C", duration=20.0, rate_fast=20.0,
                             rate_slow=0.2, seed=5, engine_cls=engine_cls)
        return build_union_scenario(cfg).run()

    def test_same_results_different_cost(self):
        """Both schedulers compute the same stream; DFS pays less overhead."""
        dfs = self.run_with(None)
        rr = self.run_with(RoundRobinEngine)
        assert dfs.sink.delivered == rr.sink.delivered
        assert dfs.recorder.mean <= rr.recorder.mean
