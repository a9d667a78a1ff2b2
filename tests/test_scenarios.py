"""Tests for the paper's scenario builders (A/B/C/D configurations)."""

import itertools

import pytest

from repro.core.ets import NoEts, OnDemandEts
from repro.core.errors import WorkloadError
from repro.core.tuples import TimestampKind
from repro.sim.cost import CostModel
from repro.workloads.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    build_join_scenario,
    build_union_scenario,
    scenario_streams,
)

FAST_CFG = dict(duration=10.0, rate_fast=20.0, rate_slow=0.2, seed=7)


class TestScenarioConfig:
    def test_scenario_labels(self):
        assert SCENARIOS == ("A", "B", "C", "D")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(WorkloadError):
            ScenarioConfig(scenario="Z")

    def test_b_requires_heartbeat_rate(self):
        with pytest.raises(WorkloadError):
            ScenarioConfig(scenario="B")

    def test_d_is_latent(self):
        assert ScenarioConfig(scenario="D").timestamp_kind is \
            TimestampKind.LATENT

    def test_external_flag(self):
        cfg = ScenarioConfig(scenario="C", external=True)
        assert cfg.timestamp_kind is TimestampKind.EXTERNAL

    def test_d_cannot_be_external(self):
        with pytest.raises(WorkloadError):
            ScenarioConfig(scenario="D", external=True)

    def test_policy_selection(self):
        assert isinstance(ScenarioConfig(scenario="C").make_policy(),
                          OnDemandEts)
        assert isinstance(ScenarioConfig(scenario="A").make_policy(), NoEts)

    def test_periodic_schedule_only_for_b(self):
        cfg_b = ScenarioConfig(scenario="B", heartbeat_rate=5.0)
        sched = build_union_scenario(cfg_b, attach=False).sim.periodic
        assert sched is not None and sched.rates == {"slow": 5.0}
        assert build_union_scenario(ScenarioConfig(scenario="A"),
                                    attach=False).sim.periodic is None

    def test_heartbeat_both(self):
        cfg = ScenarioConfig(scenario="B", heartbeat_rate=5.0,
                             heartbeat_both=True)
        sched = build_union_scenario(cfg, attach=False).sim.periodic
        assert set(sched.rates) == {"slow", "fast"}


class TestBuiltGraphShape:
    """Graph and node names are pinned: trace goldens and
    ``idle_fraction("union")`` read them."""

    @staticmethod
    def fig4(graph_name, iwp, role):
        return "\n".join([
            f"QueryGraph {graph_name!r}:",
            "  slow [SourceNode] -> filter_slow",
            f"  filter_slow [Select] -> {iwp}",
            "  fast [SourceNode] -> filter_fast",
            f"  filter_fast [Select] -> {iwp}",
            f"  {iwp} [{role}] -> sink",
            "  sink [SinkNode] -> (terminal)"])

    @staticmethod
    def arcs(handles):
        return [buf.name for buf in handles.graph.buffers]

    def test_union_graph_matches_paper_fig4(self):
        handles = build_union_scenario(ScenarioConfig(scenario="C"))
        assert handles.graph.describe() == self.fig4(
            "paper-union-C", "union", "Union")
        assert self.arcs(handles) == [
            "fast->filter_fast", "slow->filter_slow", "filter_fast->union",
            "filter_slow->union", "union->sink"]
        assert handles.iwp.name == "union"
        assert (handles.fast_source, handles.slow_source, handles.sink) == (
            handles.graph["fast"], handles.graph["slow"],
            handles.graph["sink"])

    def test_join_variant(self):
        handles = build_join_scenario(ScenarioConfig(scenario="C"))
        assert handles.graph.describe() == self.fig4(
            "paper-join-C", "join", "WindowJoin")
        assert self.arcs(handles) == [
            "fast->filter_fast", "slow->filter_slow", "filter_fast->join",
            "filter_slow->join", "join->sink"]
        assert handles.iwp is handles.graph["join"]

    def test_strict_flag_propagates(self):
        for build in (build_union_scenario, build_join_scenario):
            strict = ScenarioConfig(scenario="A", strict_iwp=True)
            assert build(strict, attach=False).iwp.strict, build.__name__
            assert not build(ScenarioConfig(scenario="A"),
                             attach=False).iwp.strict


class TestScenarioBehaviour:
    def run(self, scenario, **kw):
        cfg = ScenarioConfig(scenario=scenario, **FAST_CFG, **kw)
        return build_union_scenario(cfg).run()

    def test_scenario_a_idle_waits(self):
        h = self.run("A")
        assert h.sim.idle_fraction("union") > 0.5
        assert h.sim.engine.stats.ets_injected == 0

    def test_scenario_b_injects_heartbeats(self):
        a = self.run("A")
        b = self.run("B", heartbeat_rate=10.0)
        assert b.slow_source.punctuation_injected > 50
        # heartbeats cut idle-waiting well below scenario A's
        assert b.sim.idle_fraction("union") < 0.8 * a.sim.idle_fraction("union")

    def test_scenario_c_on_demand(self):
        h = self.run("C")
        assert h.sim.engine.stats.ets_injected > 0
        assert h.sim.idle_fraction("union") < 0.05

    def test_scenario_d_never_idles(self):
        h = self.run("D")
        assert h.sim.idle_fraction("union") == pytest.approx(0.0, abs=1e-12)
        assert h.slow_source.timestamp_kind is TimestampKind.LATENT

    def test_latency_ordering_a_worse_than_c(self):
        a = self.run("A")
        c = self.run("C")
        assert a.recorder.mean > 10 * c.recorder.mean

    def test_selectivity_observed(self):
        h = self.run("C", selectivity=0.5)
        fast_filter = h.graph["filter_fast"]
        assert fast_filter.observed_selectivity == pytest.approx(0.5,
                                                                 abs=0.15)

    def test_deterministic_given_seed(self):
        h1 = self.run("C")
        h2 = self.run("C")
        assert h1.sink.delivered == h2.sink.delivered
        assert h1.recorder.mean == pytest.approx(h2.recorder.mean)

    def test_external_scenario_runs(self):
        cfg = ScenarioConfig(scenario="C", external=True, external_skew=0.1,
                             ets_delta=0.1, **FAST_CFG)
        h = build_union_scenario(cfg).run()
        assert h.sink.delivered > 0

    def test_builder_takes_sim_keywords_and_streams_attach_later(self):
        """``attach=False`` + :func:`scenario_streams` by hand is the same
        run as the builder attaching them; a Simulation keyword passed to
        the builder replaces the scenario's own."""
        cfg = ScenarioConfig(scenario="C", **FAST_CFG)
        first, again = scenario_streams(cfg), scenario_streams(cfg)
        for name in ("fast", "slow"):
            assert (list(itertools.islice(first[name], 5))
                    == list(itertools.islice(again[name], 5)))
        built = build_union_scenario(cfg).run()
        late = build_union_scenario(cfg, attach=False)
        assert late.sim.events.next_time() is None
        for name, arrivals in scenario_streams(cfg).items():
            late.sim.attach_arrivals(late.graph[name], arrivals)
        late.run()
        assert late.sink.delivered == built.sink.delivered > 0
        assert late.recorder.mean == built.recorder.mean
        starved = build_union_scenario(cfg, ets_policy=NoEts()).run()
        assert starved.sim.engine.stats.ets_injected == 0
        assert starved.sink.delivered < built.sink.delivered

    def test_zero_cost_model_accepted(self):
        cfg = ScenarioConfig(scenario="C", cost_model=CostModel.zero(),
                             **FAST_CFG)
        h = build_union_scenario(cfg).run()
        # on-demand ETS leaves nothing gated: all but the ~5 % the
        # selections drop reach the sink
        assert h.sink.delivered > 0.8 * h.sim.arrivals_delivered > 0
