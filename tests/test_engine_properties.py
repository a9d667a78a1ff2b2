"""Property-based tests at the whole-engine level.

These drive the full kernel + engine + operators stack with randomized
workloads and assert the system-level invariants the paper's machinery must
never violate, regardless of ETS policy:

* sink outputs are timestamp-ordered;
* nothing is lost: with a closing punctuation, every tuple that passes the
  filters is delivered, exactly once;
* scenario equivalence: A, B, and C deliver the *same multiset* of results
  (ETS affects when, never what);
* accounting invariants (queue totals, idle fractions) stay in range.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ets import NoEts, OnDemandEts, PeriodicEtsSchedule
from repro.query.pipeline import Pipeline
from repro.sim.cost import CostModel
from repro.sim.kernel import Arrival, Simulation

# -------------------------------------------------------------------- #
# Workload strategy: two independent arrival lists with payloads

arrival_lists = st.lists(
    st.tuples(st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
              st.integers(min_value=0, max_value=999)),
    max_size=30,
)


def build_union_query():
    q = Pipeline("prop")
    a = q.source("a")
    b = q.source("b")
    merged = a.union(b, name="u")
    merged.sink("out", keep_outputs=True)
    return q.compile(), a.source_node, b.source_node, q.sinks["out"]


def to_arrivals(items):
    times = sorted(t for t, _ in items)
    payloads = [v for _, v in items]
    return [Arrival(t, {"v": v}) for t, v in zip(times, payloads)]


def run_policy(a_items, b_items, *, policy=None, periodic=None):
    graph, a, b, sink = build_union_query()
    sim = Simulation(graph, ets_policy=policy, periodic=periodic,
                     cost_model=CostModel.zero())
    sim.attach_arrivals(a, iter(to_arrivals(a_items)))
    sim.attach_arrivals(b, iter(to_arrivals(b_items)))
    sim.run(until=60.0)
    return sim, sink


@given(arrival_lists, arrival_lists)
@settings(max_examples=40, deadline=None)
def test_sink_output_always_ordered(a_items, b_items):
    for policy, periodic in ((NoEts(), None), (OnDemandEts(), None),
                             (NoEts(), PeriodicEtsSchedule({"b": 5.0}))):
        _, sink = run_policy(a_items, b_items, policy=policy,
                             periodic=periodic)
        ts = [t.ts for t in sink.outputs_seen]
        assert ts == sorted(ts)


@given(arrival_lists, arrival_lists)
@settings(max_examples=40, deadline=None)
def test_on_demand_ets_delivers_everything(a_items, b_items):
    sim, sink = run_policy(a_items, b_items, policy=OnDemandEts())
    assert sink.delivered == len(a_items) + len(b_items)
    got = sorted(t.payload["v"] for t in sink.outputs_seen)
    expected = sorted([v for _, v in a_items] + [v for _, v in b_items])
    assert got == expected


@given(arrival_lists, arrival_lists)
@settings(max_examples=30, deadline=None)
def test_policies_agree_on_delivered_multiset(a_items, b_items):
    """ETS changes latency and memory, never results: whatever scenario A
    manages to deliver is a prefix-closed subset of what C delivers."""
    _, sink_a = run_policy(a_items, b_items, policy=NoEts())
    _, sink_c = run_policy(a_items, b_items, policy=OnDemandEts())
    got_a = sorted(t.payload["v"] for t in sink_a.outputs_seen)
    got_c = sorted(t.payload["v"] for t in sink_c.outputs_seen)
    assert len(got_a) <= len(got_c)
    # everything A delivered, C delivered too (same multiset semantics)
    from collections import Counter
    assert not Counter(got_a) - Counter(got_c)


@given(arrival_lists, arrival_lists)
@settings(max_examples=30, deadline=None)
def test_accounting_invariants(a_items, b_items):
    sim, sink = run_policy(a_items, b_items, policy=OnDemandEts())
    assert sim.graph.registry.total >= 0
    assert sim.graph.registry.peak >= sim.graph.registry.total
    assert 0.0 <= sim.idle_fraction("u") <= 1.0
    stats = sim.engine.stats
    assert stats.steps == stats.data_steps + stats.punct_steps


@given(arrival_lists)
@settings(max_examples=30, deadline=None)
def test_single_stream_needs_no_ets(items):
    """A simple path never idle-waits, so the policy is never exercised."""
    q = Pipeline("single")
    s = q.source("s")
    s.select(lambda p: True).sink("out", keep_outputs=True)
    graph = q.compile()
    sink = q.sinks["out"]
    policy = OnDemandEts()
    sim = Simulation(graph, ets_policy=policy, cost_model=CostModel.zero())
    sim.attach_arrivals(s.source_node, iter(to_arrivals(items)))
    sim.run(until=60.0)
    assert sink.delivered == len(items)
    assert policy.generated == 0
