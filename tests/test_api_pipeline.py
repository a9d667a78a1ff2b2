"""The fluent Pipeline surface: graph parity, knob routing, drive parity.

The contract under test: a :class:`repro.api.Pipeline` is *sugar*, never
semantics — the graph it builds is structurally identical to the one hand
wiring a :class:`QueryGraph` produces, and a pipeline run delivers exactly
what a hand-assembled ``Simulation(graph, ...)`` delivers for the same
feeds and knobs.
"""

from __future__ import annotations

import warnings
from dataclasses import fields

import pytest

from repro.api import (
    AggSpec,
    Arrival,
    Count,
    EngineConfig,
    ExecutionError,
    GraphError,
    NoEts,
    OnDemandEts,
    Map,
    Pipeline,
    QueryGraph,
    Select,
    Shed,
    Simulation,
    Tracer,
    TumblingAggregate,
    Union,
    WindowSpec,
    WorkloadError,
)


def _arrivals(n=40, dt=0.25, start=0.0):
    return [Arrival(time=start + (i + 1) * dt,
                    payload={"v": i % 7, "k": i % 3, "uid": i})
            for i in range(n)]


def _records(sink):
    return [(t.ts, t.payload) for t in sink.outputs_seen]


# --------------------------------------------------------------------- #
# Graph parity


class TestGraphParity:
    def build_by_hand(self):
        g = QueryGraph("parity")
        a = g.add_source("a")
        b = g.add_source("b")
        keep = g.add(Select("keep", lambda p: p["v"] < 5))
        ident = g.add(Map("ident", lambda p: p))
        shed0 = g.add(Shed("shed0", 0.0))
        merge = g.add(Union("merge"))
        agg = g.add(TumblingAggregate("agg", 5.0, {"n": AggSpec(Count)}))
        for upstream, op in ((a, keep), (keep, ident), (b, shed0),
                             (ident, merge), (shed0, merge), (merge, agg),
                             (agg, g.add_sink("out"))):
            g.connect(upstream, op)
        return g.validate()

    def build_pipeline(self):
        p = Pipeline("parity")
        a = p.source("a")
        b = p.source("b")
        (a.select(lambda p: p["v"] < 5, name="keep")
          .map(lambda p: p, name="ident")
          .union(b.shed(0.0, name="shed0"), name="merge")
          .tumbling(5.0, {"n": AggSpec(Count)}, name="agg")
          .sink("out"))
        return p.compile()

    def test_same_structure(self):
        assert self.build_pipeline().describe() == \
            self.build_by_hand().describe()

    def test_auto_names_match_builder(self):
        """Unnamed operators are numbered per kind, from 1 — the scheme
        every golden file and trace assertion was recorded under."""
        p = Pipeline("auto")
        p.source().select(lambda p: True).sink()
        p.source().select(lambda p: True).sink()
        assert [op.name for op in p.compile().operators] == [
            "source_1", "select_1", "sink_1",
            "source_2", "select_2", "sink_2"]
        assert set(p.sinks) == {"sink_1", "sink_2"}

    def test_auto_names_skip_declared_names(self):
        """A generated name never collides with one the graph holds."""
        p = Pipeline("taken")
        p.source("select_1").select(lambda p: True).sink("sink_1")
        p.source("b").select(lambda p: True).sink()
        assert [op.name for op in p.compile().operators] == [
            "select_1", "select_2", "sink_1", "b", "select_3", "sink_2"]

    def test_sink_registers_and_returns_pipeline(self):
        p = Pipeline("s")
        result = p.source("a").sink("out", keep_outputs=True)
        assert result is p
        assert set(p.sinks) == {"out"}
        assert p.sinks["out"].keep_outputs

    def test_compile_freezes_shape(self):
        p = Pipeline("frozen")
        p.source("a").sink("out")
        p.compile()
        with pytest.raises(GraphError):
            p.source("late")


# --------------------------------------------------------------------- #
# Drive parity: Pipeline.run == hand-built Simulation


class TestDriveParity:
    def hand_built(self, arrivals, *, batch_size, policy):
        graph = QueryGraph("drive")
        a = graph.add_source("a")
        b = graph.add_source("b")
        select = graph.add(Select("select_1", lambda p: p["v"] != 2))
        tag = graph.add(Map("map_1", lambda p: {**p, "tag": 1}))
        union = graph.add(Union("union_1"))
        for upstream, op in ((a, select), (b, tag), (select, union),
                             (tag, union),
                             (union, graph.add_sink(
                                 "out", keep_outputs=True))):
            graph.connect(upstream, op)
        sim = Simulation(graph, ets_policy=policy(), batch_size=batch_size)
        sim.attach_arrivals(graph["a"], iter(arrivals))
        sim.attach_arrivals(graph["b"],
                            iter(_arrivals(10, dt=1.1, start=0.05)))
        sim.run(until=60.0)
        return _records(graph["out"])

    def pipeline_built(self, arrivals, *, policy, **engine_knobs):
        p = Pipeline("drive")
        a = p.source("a")
        b = p.source("b")
        (a.select(lambda p: p["v"] != 2)
          .union(b.map(lambda p: {**p, "tag": 1}))
          .sink("out", keep_outputs=True))
        (p.engine(ets_policy=policy, **engine_knobs)
          .feed("a", iter(arrivals))
          .feed(b, iter(_arrivals(10, dt=1.1, start=0.05)))
          .run(until=60.0))
        return _records(p.sinks["out"])

    @pytest.mark.parametrize("policy", [NoEts, OnDemandEts])
    def test_pipeline_matches_hand_built_across_modes(self, policy):
        arrivals = _arrivals()
        scalar = self.hand_built(arrivals, batch_size=1, policy=policy)
        for knobs in ({"batch_size": 1},
                      {"batch_size": 8},
                      {"batch_size": 64},
                      {}):  # pipeline default: batch 64, the block path
            got = self.pipeline_built(arrivals, policy=policy, **knobs)
            assert got == scalar, f"knobs={knobs}"

    def test_default_engine_is_columnar(self):
        p = Pipeline("defaults")
        p.source("a").sink("out")
        sim = p.feed("a", iter(_arrivals(20))).run(until=30.0)
        assert sim.engine.batch_size == 64
        assert sim.engine.stats.blocks > 0

    def test_run_resumes_same_simulation(self):
        p = Pipeline("resume")
        p.source("a").sink("out", keep_outputs=True)
        p.feed("a", iter(_arrivals(20, dt=1.0)))
        first = p.run(until=5.0)
        seen = len(p.sinks["out"].outputs_seen)
        second = p.run(until=60.0)
        assert second is first
        assert len(p.sinks["out"].outputs_seen) >= seen

    def test_feed_unknown_source_raises(self):
        p = Pipeline("bad")
        p.source("a").sink("out")
        p.feed("nope", iter(_arrivals(3)))
        with pytest.raises(WorkloadError):
            p.run(until=1.0)


# --------------------------------------------------------------------- #
# Knob routing: EngineConfig fields vs Simulation kwargs


class TestEngineKnobs:
    def test_config_fields_go_to_config(self):
        p = Pipeline("knobs")
        p.engine(batch_size=16, checkpoint_every=7)
        assert p.config.batch_size == 16
        assert p.config.checkpoint_every == 7

    def test_non_config_knobs_reach_simulation(self):
        from repro.sim import CostModel

        p = Pipeline("knobs2")
        p.source("a").sink("out")
        sim = (p.engine(cost_model=CostModel.zero(), start_time=3.0)
                .build_simulation())
        assert sim.clock.now() == 3.0

    def test_engine_accepts_config_seed(self):
        config = EngineConfig(batch_size=4)
        p = Pipeline("seeded", config=config)
        p.source("a").sink("out")
        sim = p.build_simulation()
        assert sim.engine.batch_size == 4

    def test_batch_size_alone_picks_the_transport(self):
        """``block_mode`` survives only as an init-only consistency check
        on EngineConfig (the frozen benchmark spells its scalar reference
        ``EngineConfig(batch_size=1, block_mode=False)``): agreeing values
        construct, contradicting ones raise, and it is not a field — so
        ``replace`` and ``Pipeline.engine`` neither carry nor accept it."""
        for batch_size, block_mode in ((1, False), (64, True)):
            config = EngineConfig(batch_size=batch_size,
                                  block_mode=block_mode)
            assert config == EngineConfig(batch_size=batch_size)
            assert config.replace(checkpoint_every=5) == EngineConfig(
                batch_size=batch_size, checkpoint_every=5)
            tracer = Tracer()
            p = Pipeline("consistent", config=config)
            p.source("a").sink("out")
            sim = (p.engine(observers=[tracer])
                    .feed("a", iter(_arrivals(6))).run(until=10.0))
            assert sim.engine.batch_size == batch_size
            # One kernel at every width: each step is a kernel call.
            assert sim.engine.stats.blocks == sim.engine.stats.steps > 0
            assert p.sinks["out"].delivered == 6 and tracer.events
        for batch_size, block_mode in ((64, False), (1, True)):
            with pytest.raises(ExecutionError, match="batch_size alone"):
                EngineConfig(batch_size=batch_size, block_mode=block_mode)
        assert "block_mode" not in {f.name for f in fields(EngineConfig)}
        p = Pipeline("default")
        p.source("a").sink("out")
        assert p.engine(batch_size=1).config == EngineConfig(batch_size=1)
        with pytest.raises(TypeError):  # no such knob anywhere below
            p.engine(block_mode=False).build_simulation()

    # The merge rule (core/config.py): ``config`` is the carrier, keywords
    # are ``replace``, a passed value always wins — whatever it equals.

    @staticmethod
    def _knob_graph():
        p = Pipeline("knobs")
        p.source("a").sink("out")
        return p.compile()

    @staticmethod
    def _engine_setup(engine):
        observers = tuple(engine.bus.observers) if engine.bus else ()
        return (engine.batch_size, engine.checkpoint_every,
                engine.max_steps_per_round, observers,
                type(engine.feedback), type(engine.ets_policy))

    def _constructors(self):
        """``name -> f(**kwargs)`` returning what the constructor set up."""
        from repro.api import ExecutionEngine, ShardedEngine, VirtualClock

        def engine(**kw):
            return self._engine_setup(
                ExecutionEngine(self._knob_graph(), VirtualClock(), **kw))

        def simulation(**kw):
            sim = Simulation(self._knob_graph(), **kw)
            return self._engine_setup(sim.engine), sim.recovery

        def sharded(**kw):
            facade = ShardedEngine(self._knob_graph, shards=2, key="k",
                                   backend="serial", **kw)
            try:
                return (facade.state_dir, facade.feedback_enabled,
                        tuple(facade.bus.observers) if facade.bus else (),
                        [(self._engine_setup(shard.engine),
                          shard.manager is not None)
                         for shard in facade.backend.shards])
            finally:
                facade.close(flush=False)

        return {"ExecutionEngine": engine, "Simulation": simulation,
                "ShardedEngine": sharded}

    def test_keywords_are_replace_at_every_constructor(self, tmp_path):
        from itertools import combinations

        from repro.api import FeedbackController, Observer

        class Bindable:  # a Simulation binds its recovery manager
            def bind(self, *args, **kwargs):
                pass

        defaults = {f.name: f.default for f in fields(EngineConfig)}
        assert defaults == dict(
            batch_size=1, checkpoint_every=None, max_steps_per_round=None,
            observers=(), feedback=None, ets_policy=None, recovery=None,
            state_dir=None)
        others = dict(
            batch_size=8, checkpoint_every=3, max_steps_per_round=10 ** 6,
            observers=(Observer(),), feedback=FeedbackController,
            ets_policy=OnDemandEts, recovery=Bindable(),
            state_dir=tmp_path / "other")
        bases = (Pipeline().config,
                 EngineConfig(**{**others, "batch_size": 64,
                                 "state_dir": tmp_path / "base"}))
        subsets = [names for size in range(len(defaults) + 1)
                   for names in combinations(defaults, size)]
        assert len(subsets) == 2 ** 8
        for ctor_name, ctor in self._constructors().items():
            for base in bases:
                for values in (defaults, others):
                    for names in subsets:
                        knobs = {name: values[name] for name in names}
                        assert (ctor(config=base, **knobs)
                                == ctor(config=base.replace(**knobs))), \
                            (ctor_name, base, knobs)
            assert ctor(**knobs) == ctor(config=EngineConfig(**knobs))
            for unknown in ("block_mode", "ets_policy_factory",
                            "engine_kwargs", "batchsize"):
                with pytest.raises(TypeError, match=unknown):
                    ctor(config=bases[0], **{unknown: None})

    def test_a_passed_default_still_wins(self):
        """The two spellings the old equal-to-the-default guess ignored."""
        from repro.api import ExecutionEngine, Observer, VirtualClock

        setups = self._constructors()
        config = Pipeline().config.replace(observers=(Observer(),))
        assert setups["ExecutionEngine"](config=config)[0] == 64
        assert setups["ExecutionEngine"](config=config, batch_size=1)[0] == 1
        assert setups["Simulation"](config=config, batch_size=1)[0][0] == 1
        engine = ExecutionEngine(self._knob_graph(), VirtualClock(),
                                 config=config, observers=[])
        assert engine.bus is None

    def test_from_program_wires_sinks_and_feeds_by_name(self):
        program = """
        STREAM fast (seq int, value float) TIMESTAMP INTERNAL;
        s1 = SELECT * FROM fast WHERE value < 10;
        SINK s1 AS out;
        """
        p = Pipeline.from_program(program, name="esl")
        assert set(p.sinks) == {"out"}
        arrivals = [Arrival(time=(i + 1) * 0.5,
                            payload={"seq": i, "value": float(i)})
                    for i in range(10)]
        (p.engine(ets_policy=OnDemandEts, batch_size=1)
          .feed("fast", iter(arrivals))
          .run(until=30.0))
        assert p.sinks["out"].delivered == 10

    def test_heartbeat_builds_periodic_schedule(self):
        p = Pipeline("hb")
        p.source("a").sink("out")
        sim = (p.engine(ets_policy=NoEts)
                .feed("a", iter(_arrivals(5, dt=2.0)))
                .heartbeat("a", 4.0)
                .run(until=12.0))
        assert sim.heartbeats_delivered > 0

    def test_heartbeat_on_unknown_source_raises(self):
        p = Pipeline("hb-bad")
        p.source("a").sink("out")
        p.feed("a", iter(_arrivals(3))).heartbeat("nosuch", 5.0)
        with pytest.raises(WorkloadError, match=r"heartbeat targets unknown "
                                                r"source 'nosuch'.*\['a'\]"):
            p.run(until=1.0)

    def test_no_deprecation_warnings_from_pipeline(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            p = Pipeline("clean")
            p.source("a").sink("out")
            p.feed("a", iter(_arrivals(10))).run(until=10.0)
