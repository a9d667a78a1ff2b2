"""Tests for the DFS execution engine: NOS rules, backtracking, ETS hook."""

from contextlib import nullcontext

import pytest
from conftest import forced_scalar_fallback

from repro.core.ets import NoEts, OnDemandEts
from repro.core.errors import ExecutionError
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union, WindowJoin
from repro.core.tuples import TimestampKind
from repro.core.windows import WindowSpec
from repro.sim.clock import VirtualClock
from repro.sim.cost import CostModel


def union_pipeline(kind=TimestampKind.INTERNAL, keep=True):
    """The paper's Fig.-4 graph: two filtered streams into a union."""
    g = QueryGraph("fig4")
    fast = g.add_source("fast", kind)
    slow = g.add_source("slow", kind)
    f1 = g.add(Select("f1", lambda p: p.get("keep", True)))
    f2 = g.add(Select("f2", lambda p: p.get("keep", True)))
    u = g.add(Union("u"))
    sink = g.add_sink("sink", keep_outputs=keep)
    g.connect(fast, f1)
    g.connect(slow, f2)
    g.connect(f1, u)
    g.connect(f2, u)
    g.connect(u, sink)
    return g, fast, slow, u, sink


def make_engine(graph, *, policy=None, cost=None, **kwargs):
    clock = VirtualClock()
    engine = ExecutionEngine(graph, clock,
                             cost_model=cost if cost is not None
                             else CostModel.zero(),
                             ets_policy=policy, **kwargs)
    return engine, clock


class TestSimplePath:
    def make(self):
        g = QueryGraph("path")
        src = g.add_source("src")
        sel = g.add(Select("sel", lambda p: p["v"] > 0))
        sink = g.add_sink("sink", keep_outputs=True)
        g.connect(src, sel)
        g.connect(sel, sink)
        return g, src, sink

    def test_tuples_flow_to_sink(self):
        g, src, sink = self.make()
        engine, clock = make_engine(g)
        for i in range(3):
            src.ingest({"v": i + 1}, now=float(i))
        engine.wakeup(entry=src)
        assert sink.delivered == 3
        assert [t.payload["v"] for t in sink.outputs_seen] == [1, 2, 3]

    def test_filtered_tuples_dropped(self):
        g, src, sink = self.make()
        engine, _ = make_engine(g)
        src.ingest({"v": -1}, now=0.0)
        src.ingest({"v": 2}, now=1.0)
        engine.wakeup(entry=src)
        assert sink.delivered == 1

    def test_quiescence_empties_buffers(self):
        g, src, sink = self.make()
        engine, _ = make_engine(g)
        for i in range(10):
            src.ingest({"v": 1}, now=float(i))
        engine.wakeup(entry=src)
        assert g.total_buffered() == 0

    def test_wakeup_without_entry_scans(self):
        g, src, sink = self.make()
        engine, _ = make_engine(g)
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup()  # no hint: the scan must find the work
        assert sink.delivered == 1

    def test_stats_counters(self):
        g, src, sink = self.make()
        engine, _ = make_engine(g)
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=src)
        assert engine.stats.steps == 2  # select + sink
        assert engine.stats.data_steps == 2
        assert engine.stats.per_operator_steps == {"sel": 1, "sink": 1}


class TestIdleWaitingWithoutEts:
    def test_fast_tuples_stall_at_union(self):
        g, fast, slow, u, sink = union_pipeline()
        engine, _ = make_engine(g, policy=NoEts())
        fast.ingest({}, now=1.0)
        engine.wakeup(entry=fast)
        assert sink.delivered == 0
        assert u.has_pending_data()

    def test_slow_tuple_releases_backlog(self):
        g, fast, slow, u, sink = union_pipeline()
        engine, _ = make_engine(g, policy=NoEts())
        for i in range(5):
            fast.ingest({"i": i}, now=1.0 + i * 0.01)
            engine.wakeup(entry=fast)
        assert sink.delivered == 0
        slow.ingest({"slow": True}, now=2.0)
        engine.wakeup(entry=slow)
        # the slow tuple releases the fast backlog but is itself gated by
        # the fast stream's register (1.04) until the fast side catches up
        assert sink.delivered == 5
        fast.ingest({"i": 99}, now=3.0)
        engine.wakeup(entry=fast)
        # the fast@3.0 tuple releases slow@2.0 and is itself gated in turn
        assert sink.delivered == 6
        assert u.has_pending_data()
        out_ts = [t.ts for t in sink.outputs_seen]
        assert out_ts == sorted(out_ts)


class TestOnDemandEts:
    def test_backtrack_generates_ets_down_stalled_path(self):
        g, fast, slow, u, sink = union_pipeline()
        clock = VirtualClock()
        policy = OnDemandEts()
        engine = ExecutionEngine(g, clock, cost_model=CostModel.zero(),
                                 ets_policy=policy)
        clock.advance_to(1.0)
        fast.ingest({}, now=1.0)
        engine.wakeup(entry=fast)
        # ETS at the slow source unblocked the union immediately
        assert sink.delivered == 1
        assert policy.generated >= 1
        assert slow.punctuation_injected >= 1

    def test_ets_value_is_current_clock(self):
        g, fast, slow, u, sink = union_pipeline()
        clock = VirtualClock()
        engine = ExecutionEngine(g, clock, cost_model=CostModel.zero(),
                                 ets_policy=OnDemandEts())
        clock.advance_to(7.5)
        fast.ingest({}, now=7.5)
        engine.wakeup(entry=fast)
        assert slow.watermark == 7.5

    def test_once_per_round_bounds_generation(self):
        g, fast, slow, u, sink = union_pipeline()
        engine, clock = make_engine(g, policy=OnDemandEts())
        clock.advance_to(1.0)
        fast.ingest({}, now=1.0)
        fast.ingest({}, now=1.0)
        engine.wakeup(entry=fast)
        assert slow.punctuation_injected == 1  # one ETS served both tuples

    def test_ets_not_offered_when_nothing_pending(self):
        """ETS exists to reactivate idle-waiting operators; a backtrack with
        no data waiting must not generate punctuation."""
        g, fast, slow, u, sink = union_pipeline()
        engine, clock = make_engine(g, policy=OnDemandEts())
        engine.wakeup()  # empty graph: nothing stalls, nothing generated
        assert slow.punctuation_injected == 0
        assert fast.punctuation_injected == 0

    def test_offer_ets_always_ablation(self):
        g, fast, slow, u, sink = union_pipeline()
        # a nonzero cost model makes the clock advance past the data tuple's
        # stamp, so the extra ETS has a fresh timestamp to carry
        engine, clock = make_engine(g, policy=OnDemandEts(),
                                    offer_ets_always=True,
                                    cost=CostModel.uniform(1e-4))
        clock.advance_to(1.0)
        fast.ingest({}, now=1.0)
        engine.wakeup(entry=fast)
        # with the ablation on, the fast source also gets an ETS after the
        # data tuple drained
        assert fast.punctuation_injected >= 1

    def test_latent_streams_never_get_ets(self):
        g, fast, slow, u, sink = union_pipeline(kind=TimestampKind.LATENT)
        engine, clock = make_engine(g, policy=OnDemandEts())
        fast.ingest({}, now=1.0)
        engine.wakeup(entry=fast)
        assert sink.delivered == 1  # latent: no idle-waiting at all
        assert slow.punctuation_injected == 0

    def test_punctuation_eliminated_at_sink(self):
        g, fast, slow, u, sink = union_pipeline()
        engine, clock = make_engine(g, policy=OnDemandEts())
        clock.advance_to(1.0)
        fast.ingest({}, now=1.0)
        engine.wakeup(entry=fast)
        assert g.total_buffered() <= 1  # at most a residual punctuation
        assert sink.punctuation_eliminated >= 0
        assert all(not t.is_punctuation for t in sink.outputs_seen)


class TestJoinPipelineWithEts:
    def test_join_results_flow_with_ets(self):
        g = QueryGraph("join")
        a = g.add_source("a")
        b = g.add_source("b")
        j = g.add(WindowJoin("j", WindowSpec.time(100.0)))
        sink = g.add_sink("sink", keep_outputs=True)
        g.connect(a, j)
        g.connect(b, j)
        g.connect(j, sink)
        engine, clock = make_engine(g, policy=OnDemandEts())
        clock.advance_to(1.0)
        a.ingest({"x": 1}, now=1.0)
        engine.wakeup(entry=a)
        clock.advance_to(2.0)
        b.ingest({"y": 2}, now=2.0)
        engine.wakeup(entry=b)
        assert sink.delivered == 1
        assert sink.outputs_seen[0].payload == {"x": 1, "y": 2}


class TestCostAccounting:
    def test_busy_time_accrues(self):
        g, fast, slow, u, sink = union_pipeline()
        engine, clock = make_engine(g, policy=OnDemandEts(),
                                    cost=CostModel.uniform(1e-3))
        clock.advance_to(1.0)
        fast.ingest({}, now=1.0)
        engine.wakeup(entry=fast)
        assert engine.stats.busy_time > 0
        assert clock.now() > 1.0

    def test_zero_cost_model_keeps_clock(self):
        g, fast, slow, u, sink = union_pipeline()
        engine, clock = make_engine(g, policy=NoEts())
        clock.advance_to(1.0)
        fast.ingest({}, now=1.0)
        engine.wakeup(entry=fast)
        assert clock.now() == 1.0


class TestRoundBudget:
    def test_max_steps_guard_raises(self):
        g, fast, slow, u, sink = union_pipeline()
        engine, clock = make_engine(g, policy=NoEts(), max_steps_per_round=1)
        fast.ingest({}, now=0.0)
        fast.ingest({}, now=0.0)
        with pytest.raises(ExecutionError):
            engine.wakeup(entry=fast)


class TestGraphAutoValidation:
    def test_engine_validates_graph(self):
        g = QueryGraph("bad")
        g.add_source("src")  # dangling source: invalid
        with pytest.raises(Exception):
            ExecutionEngine(g, VirtualClock())


class TestDiamondTopology:
    """Regression: a source fanning out to two arms of one union.

    When one arm is starved (its filter drops everything), the union
    idle-waits gated on that arm and the NOS walk used to chase Forward
    (source → full direct arc) and Backtrack (union → starved arc →
    source) in a cycle forever — in every engine mode, scalar included.
    The dead-operator set in ``ExecutionEngine._walk`` breaks the cycle:
    re-reaching an operator that could not execute in an unchanged buffer
    state is a dead end, so a stalled source falls through to the ETS
    consultation instead of re-forwarding.
    """

    def make(self):
        g = QueryGraph("diamond")
        src = g.add_source("src")
        starve = g.add(Select("starve", lambda p: False))
        u = g.add(Union("u"))
        sink = g.add_sink("sink", keep_outputs=True)
        g.connect(src, starve)
        g.connect(starve, u)
        g.connect(src, u)
        g.connect(u, sink)
        return g, src, u, sink

    def test_walk_terminates_without_ets(self):
        # Pre-fix this wakeup never returned; with NoEts the walk must
        # quiesce with the direct arm still gated on the starved arm.
        g, src, u, sink = self.make()
        engine, clock = make_engine(g, policy=NoEts())
        for i in range(3):
            clock.advance_to(float(i))
            src.ingest({"v": i}, now=float(i))
        engine.wakeup(entry=src)
        assert sink.delivered == 0
        assert u.inputs[1].data_count == 3  # parked, not lost

    def test_on_demand_ets_unblocks_starved_arm(self):
        g, src, u, sink = self.make()
        engine, clock = make_engine(g, policy=OnDemandEts())
        for i in range(3):
            clock.advance_to(float(i))
            src.ingest({"v": i}, now=float(i))
            engine.wakeup(entry=src)
        # Once the clock moves past the stream frontier, the dead-end
        # reaches _try_ets: punctuation rides down the starved arc, lifts
        # the union's gate, and the whole backlog drains.
        clock.advance_to(3.0)
        engine.wakeup()
        assert engine.stats.ets_injected > 0
        assert sink.delivered == 3

    @pytest.mark.parametrize("mode", ["scalar", "batched", "block"])
    def test_terminates_in_every_engine_mode(self, mode):
        """Scalar steps, block kernels, and ("batched") the run step's
        scalar-run fallback serving every operator."""
        with forced_scalar_fallback() if mode == "batched" \
                else nullcontext():
            g, src, u, sink = self.make()
            engine, clock = make_engine(
                g, policy=OnDemandEts(),
                batch_size=8 if mode != "scalar" else 1)
            for i in range(20):
                clock.advance_to(float(i))
                src.ingest({"v": i}, now=float(i))
                if i % 4 == 3:
                    engine.wakeup(entry=src)
            clock.advance_to(20.0)
            engine.wakeup()
        assert sink.delivered == 20
        assert (engine.stats.blocks > 0) is (mode == "block")
        assert (engine.stats.block_fallbacks > 0) is (mode == "batched")
