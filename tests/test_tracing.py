"""Tests asserting the paper's NOS rules through the trace observer."""

import hashlib
import json
import re

import pytest

from repro.cli import main as cli_main
from repro.core.ets import NoEts, OnDemandEts
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union
from repro.experiments.baselines import RoundRobinEngine
from repro.obs import Tracer, summarize
from repro.sim.clock import VirtualClock
from repro.sim.cost import CostModel
from repro.sim.kernel import Arrival, Simulation


def simple_path():
    """The paper's Fig.-2 graph: Source -> Q1 -> Q2 -> Sink."""
    g = QueryGraph("fig2")
    src = g.add_source("src")
    q1 = g.add(Select("Q1", lambda p: True))
    q2 = g.add(Select("Q2", lambda p: True))
    sink = g.add_sink("sink")
    g.connect(src, q1)
    g.connect(q1, q2)
    g.connect(q2, sink)
    return g, src


def union_graph(keep_outputs=False):
    g = QueryGraph("fig4")
    fast = g.add_source("fast")
    slow = g.add_source("slow")
    u = g.add(Union("u"))
    sink = g.add_sink("sink", keep_outputs=keep_outputs)
    g.connect(fast, u)
    g.connect(slow, u)
    g.connect(u, sink)
    return g, fast, slow


def make_engine(graph, policy=None, batch_size=1):
    tracer = Tracer()
    engine = ExecutionEngine(graph, VirtualClock(),
                             cost_model=CostModel.zero(),
                             ets_policy=policy, batch_size=batch_size,
                             observers=[tracer])
    return engine, tracer


class TestSimplePathNOS:
    def test_single_tuple_walk(self):
        """One tuple follows the DFS: execute, Forward, execute, Forward to
        the sink, execute there, then Backtrack up the path."""
        g, src = simple_path()
        engine, tracer = make_engine(g)
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=src)
        seq = tracer.sequence()
        walk = [ev for ev in seq if ev[0] in ("execute", "forward",
                                              "backtrack")]
        assert walk == [
            ("forward", "Q1"),       # source buffer nonempty → Forward
            ("execute", "Q1"),
            ("forward", "Q2"),       # yield → Forward
            ("execute", "Q2"),
            ("forward", "sink"),
            ("execute", "sink"),
            ("backtrack", "Q2"),     # sink empty → Backtrack to pred
            ("backtrack", "Q1"),
            ("backtrack", "src"),
        ]

    def test_two_tuples_use_encore_at_q1(self):
        """With two buffered tuples, after backtracking to Q1 the Encore
        rule re-executes it (paper Section 3.1)."""
        g, src = simple_path()
        engine, tracer = make_engine(g)
        src.ingest({"v": 1}, now=0.0)
        src.ingest({"v": 2}, now=0.0)
        engine.wakeup(entry=src)
        kinds = tracer.kinds()
        assert "encore" in kinds
        assert summarize(tracer.events)["execute"] == 6  # 3 ops x 2 tuples
        assert {e.detail for e in tracer.of_kind("execute")} == {"data"}
        # The same feed on the run path: one execute per operator, and the
        # trace keeps the run length the scalar path spells out as steps.
        g, src = simple_path()
        engine, tracer = make_engine(g, batch_size=8)
        src.ingest({"v": 1}, now=0.0)
        src.ingest({"v": 2}, now=0.0)
        engine.wakeup(entry=src)
        assert [(e.operator, e.detail) for e in tracer.of_kind("execute")] \
            == [("Q1", "block:2"), ("Q2", "block:2"), ("sink", "block:2")]

    def test_quiesce_recorded(self):
        g, src = simple_path()
        engine, tracer = make_engine(g)
        engine.wakeup()
        assert tracer.kinds()[-1] == "quiesce"


class TestBacktrackToStalledPred:
    def test_backtrack_crosses_to_other_branch(self):
        """The modified Backtrack rule goes to pred_j of the *stalled*
        input — i.e. from the union up the other source's branch."""
        g, fast, slow = union_graph()
        engine, tracer = make_engine(g, policy=NoEts())
        fast.ingest({"v": 1}, now=1.0)
        engine.wakeup(entry=fast)
        backtracks = [e for e in tracer.events if e.kind == "backtrack"]
        assert backtracks
        assert backtracks[0].operator == "slow"
        assert "stalled input 1 of u" in backtracks[0].detail

    def test_ets_fires_exactly_at_stalled_source(self):
        g, fast, slow = union_graph()
        engine, tracer = make_engine(g, policy=OnDemandEts())
        engine.clock.advance_to(1.0)
        fast.ingest({"v": 1}, now=1.0)
        engine.wakeup(entry=fast)
        ets_events = tracer.of_kind("ets")
        assert ets_events
        assert ets_events[0].operator == "slow"
        assert ets_events[0].detail == "injected"
        # after the injection the walk moved Forward down the slow branch
        idx = tracer.events.index(ets_events[0])
        following = tracer.events[idx + 1:]
        assert ("forward", "u") in [(e.kind, e.operator) for e in following]

    def test_no_ets_trace_shows_declined_nothing(self):
        """Under NoEts the policy is never consulted (nothing to offer)."""
        g, fast, slow = union_graph()
        engine, tracer = make_engine(g, policy=NoEts())
        fast.ingest({"v": 1}, now=1.0)
        engine.wakeup(entry=fast)
        # policy returns False; trace records the declined offer
        assert all(e.detail == "declined" for e in tracer.of_kind("ets"))


class TestTracerUtilities:
    def test_capacity_appends_truncated_marker(self):
        """Hitting capacity is loud: a terminal event plus a drop counter."""
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.record("execute", f"op{i}", 1)
        assert len(tracer.events) == 3  # 2 regular + the truncated marker
        assert tracer.kinds() == ["execute", "execute", "truncated"]
        assert tracer.dropped == 3
        assert tracer.truncated
        # clearing resets the truncation state too
        tracer.clear()
        assert not tracer.truncated and tracer.dropped == 0

    def test_clear(self):
        tracer = Tracer()
        tracer.record("execute", "x", 1)
        tracer.clear()
        assert tracer.events == []

    def test_format_readable(self):
        tracer = Tracer()
        tracer.record("backtrack", "slow", 3, detail="stalled input 1 of u")
        text = tracer.format()
        assert "round 3" in text and "slow" in text and "stalled" in text

    def test_summarize(self):
        tracer = Tracer()
        tracer.record("execute", "a", 1)
        tracer.record("execute", "b", 1)
        tracer.record("forward", "b", 1)
        assert summarize(tracer.events) == {"execute": 2, "forward": 1}


class TestTheWalkIsTheSameWalk:
    """The memoised gate and the clock-following pump change what a NOS
    decision costs, never which decision is taken."""

    #: sha256 prefix of ``python -m repro trace --duration 10 --rate-fast
    #: 20 <args>`` as recorded before either existed, read with the
    #: ``"ts"`` field the on-demand ETS ``punctuation`` events have carried
    #: since taken out again (the value is checked on its own).
    PINNED = {
        "A": "80246eae6abf3411",
        "B --heartbeat-rate 10": "09c15b62b17903e7",
        "C": "6d6c5982b3ca5280",
        "D": "2d2a95e5e68cf2fe",
        "C --join": "46af7e11975365ba",
    }

    @pytest.mark.parametrize("args", PINNED)
    def test_trace_stream_is_pinned(self, args, capsys):
        assert cli_main(["trace", "--duration", "10", "--rate-fast", "20",
                         *args.split()]) == 0
        stream = capsys.readouterr().out
        if args == "C":
            assert stream.count("\n") == 7016
        ets = [json.loads(line) for line in stream.splitlines()
               if '"origin": "ets"' in line]
        assert bool(ets) == args.startswith("C")  # on-demand ETS only
        assert all(isinstance(e["ts"], float) and e["ts"] <= e["time"]
                   for e in ets)
        stream = re.sub(r'("origin": "ets", .*), "ts": [^,}]+\}', r"\1}",
                        stream)
        assert hashlib.sha256(stream.encode()).hexdigest()[:16] \
            == self.PINNED[args]

    @staticmethod
    def drive(slices, engine_cls=ExecutionEngine):
        """Zero-cost union run; ``f2`` is due exactly at the first horizon,
        ``s2``/``f3`` are scheduled at that same instant — between the
        slices when there are two."""
        g, fast, slow = union_graph(keep_outputs=True)
        sim = Simulation(g, ets_policy=OnDemandEts(),
                         cost_model=CostModel.zero(), engine_cls=engine_cls)
        early = [(fast, 0.5, "f1"), (slow, 0.7, "s1"), (fast, 1.0, "f2")]
        late = [(slow, 1.0, "s2"), (fast, 1.0, "f3"), (fast, 1.5, "f4"),
                (slow, 1.8, "s3")]
        for source, time, tag in early:
            sim.schedule_arrival(source, Arrival(time, tag))
        if slices == 2:
            sim.run(1.0)
        for source, time, tag in late:
            sim.schedule_arrival(source, Arrival(time, tag))
        sim.run(2.0)
        return ([(t.ts, t.payload) for t in g["sink"].outputs_seen],
                sim.engine.stats)

    @pytest.mark.parametrize("engine_cls",
                             [ExecutionEngine, RoundRobinEngine])
    def test_first_pump_of_a_wakeup_is_never_skipped(self, engine_cls):
        """``s2`` and ``f3`` become due with the clock standing where the
        first slice's last pump left it.  The wake-up ``s2`` starts must
        still deliver ``f3`` before it walks — input 0 wins the tie at 1.0
        — exactly as when one slice sees all three at once."""
        one, one_stats = self.drive(1, engine_cls)
        two, two_stats = self.drive(2, engine_cls)
        assert one == two == [
            (0.5, "f1"), (0.7, "s1"), (1.0, "f2"), (1.0, "f3"), (1.0, "s2"),
            (1.5, "f4"), (1.8, "s3")]
        # Two more rounds, not three: the first horizon's drain, and s2's
        # own wake-up (f2's pump could not see it yet) — f3 rode along.
        assert two_stats.rounds == one_stats.rounds + 2
