"""Tests for the per-operator profiling surface."""

import pytest

from repro.core.ets import OnDemandEts
from repro.obs.profile import format_profile, profile_simulation
from repro.query.pipeline import Pipeline
from repro.sim.cost import CostModel
from repro.sim.kernel import Arrival, Simulation


@pytest.fixture
def run_sim():
    q = Pipeline("prof")
    fast = q.source("fast")
    slow = q.source("slow")
    merged = fast.select(lambda p: True, name="keep").union(slow, name="u")
    merged.sink("out")
    graph = q.compile()
    sim = Simulation(graph, ets_policy=OnDemandEts(),
                     cost_model=CostModel.zero())
    sim.attach_arrivals(fast.source_node,
                        iter(Arrival(float(t), {"v": t})
                             for t in range(1, 6)))
    sim.run(until=10.0)
    return sim


class TestProfile:
    def test_all_operators_listed_in_topo_order(self, run_sim):
        profiles = profile_simulation(run_sim)
        names = [p.name for p in profiles]
        assert set(names) == {"fast", "slow", "keep", "u", "out"}
        assert names.index("fast") < names.index("keep") < names.index("u")

    def test_shares_sum_to_one_over_executed(self, run_sim):
        profiles = profile_simulation(run_sim)
        assert sum(p.share for p in profiles) == pytest.approx(1.0)

    def test_sources_have_zero_steps(self, run_sim):
        profiles = {p.name: p for p in profile_simulation(run_sim)}
        assert profiles["fast"].steps == 0
        assert profiles["keep"].steps >= 5

    def test_consumed_matches_buffer_counts(self, run_sim):
        profiles = {p.name: p for p in profile_simulation(run_sim)}
        # the select consumed every fast tuple
        assert profiles["keep"].consumed == 5
        # the union consumed data plus ETS punctuation
        assert profiles["u"].consumed >= 5

    def test_format_renders(self, run_sim):
        text = format_profile(profile_simulation(run_sim))
        assert "operator profile" in text
        for name in ("fast", "keep", "u", "out"):
            assert name in text
