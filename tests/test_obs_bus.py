"""Tests for the instrumentation event bus and its engine integration.

Four contracts from the bus design notes, each load-bearing:

* deterministic registration-order dispatch and per-observer exception
  isolation (a broken exporter must never kill the engine walk);
* subscription by class: ``attach``/``detach`` decide once which observers
  hear which hook, and an instance attribute named like a hook is never
  called;
* the zero-overhead fast path — an engine with no observers stores *no*
  bus at all, and buffer-occupancy forwarding is only wired when some
  observer actually overrides ``on_buffer_change``;
* observation is read-only: replaying a workload with the full observer
  stack attached delivers a byte-identical sink sequence.
"""

from __future__ import annotations

import sys

import pytest
from oracle import DifferentialOracle, Feed

from repro.api import Arrival, OnDemandEts, Pipeline
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union
from repro.obs import (
    HOOKS,
    NULL_BUS,
    ChromeTraceExporter,
    EventBus,
    JsonlExporter,
    MetricsRegistry,
    Observer,
    Tracer,
)
from repro.recovery import RecoveryManager
from repro.sim.clock import VirtualClock
from repro.sim.kernel import Simulation
from repro.workloads.scenarios import ScenarioConfig, build_union_scenario


class Recorder(Observer):
    """Appends (tag, hook) marks to a shared log — ordering probe."""

    def __init__(self, tag: str, log: list) -> None:
        self.tag = tag
        self.log = log

    def on_step(self, **kw) -> None:
        self.log.append((self.tag, "step"))

    def on_quiesce(self, **kw) -> None:
        self.log.append((self.tag, "quiesce"))


class Exploder(Observer):
    """Raises from every hook it overrides."""

    def on_step(self, **kw) -> None:
        raise RuntimeError("boom")


class DepthWatcher(Observer):
    def __init__(self) -> None:
        self.totals: list[int] = []

    def on_buffer_change(self, *, total, time) -> None:
        self.totals.append(total)


# --------------------------------------------------------------------- #
# Bus mechanics


class TestEventBus:
    def test_dispatch_in_registration_order(self):
        log: list = []
        bus = EventBus([Recorder("a", log), Recorder("b", log)])
        bus.attach(Recorder("c", log))
        bus.step(operator="x", round_id=1, time=0.0, kind="data")
        assert log == [("a", "step"), ("b", "step"), ("c", "step")]

    def test_exception_isolation(self):
        """A failing observer is recorded; later observers still fire."""
        log: list = []
        bus = EventBus([Recorder("a", log), Exploder(), Recorder("b", log)])
        bus.step(operator="x", round_id=1, time=0.0, kind="data")
        assert log == [("a", "step"), ("b", "step")]
        assert bus.error_count == 1
        observer, hook, exc = bus.errors[0]
        assert isinstance(observer, Exploder)
        assert hook == "on_step"
        assert isinstance(exc, RuntimeError)

    def test_error_memory_is_capped_but_count_is_not(self):
        bus = EventBus([Exploder()], max_errors=3)
        for i in range(10):
            bus.step(operator="x", round_id=i, time=0.0, kind="data")
        assert len(bus.errors) == 3
        assert bus.error_count == 10

    def test_attach_detach_len(self):
        obs = Observer()
        bus = EventBus()
        assert len(bus) == 0
        bus.attach(obs)
        assert len(bus) == 1
        bus.detach(obs)
        assert len(bus) == 0
        bus.detach(obs)  # absent: no-op, no raise
        assert len(bus) == 0

    def test_null_bus_drops_and_refuses_attach(self):
        NULL_BUS.step(operator="x", round_id=1, time=0.0, kind="data")
        NULL_BUS.fault(kind="degrade", operator="x", round_id=1, time=0.0)
        with pytest.raises(TypeError):
            NULL_BUS.attach(Observer())

    def test_subscription_is_decided_by_the_class(self):
        """An instance attribute named like a hook is never called: not
        when the class leaves the hook alone, and not in place of the
        class's own override."""
        log: list = []
        plain = Observer()
        plain.on_step = lambda **kw: log.append(("plain", "step"))
        recorder = Recorder("a", log)
        recorder.on_quiesce = lambda **kw: log.append(("shadow", "quiesce"))
        bus = EventBus([plain, recorder])
        bus.step(operator="x", round_id=1, time=0.0, kind="data")
        bus.quiesce(round_id=1, time=0.0)
        assert log == [("a", "step"), ("a", "quiesce")]
        assert bus.error_count == 0

    def test_attach_and_detach_re_resolve_listens(self):
        def listened(bus):
            return {hook for hook in HOOKS if bus.listens(hook)}

        watcher, log = DepthWatcher(), []
        recorder = Recorder("a", log)
        bus = EventBus([Observer()])
        assert listened(bus) == set()
        bus.attach(watcher)
        assert listened(bus) == {"on_buffer_change"}
        bus.attach(recorder)
        assert listened(bus) == {"on_buffer_change", "on_step", "on_quiesce"}
        bus.detach(watcher)
        assert listened(bus) == {"on_step", "on_quiesce"}
        bus.buffer_change(total=3, time=0.0)
        bus.step(operator="x", round_id=1, time=0.0, kind="data")
        assert watcher.totals == [] and log == [("a", "step")]
        bus.detach(recorder)
        assert listened(bus) == set()

    def test_base_observer_hooks_are_noops(self):
        obs = Observer()
        obs.on_wakeup(round_id=1, time=0.0)
        obs.on_step(operator="x", round_id=1, time=0.0, kind="data")
        obs.on_nos_decision(decision="forward", operator="x",
                            round_id=1, time=0.0)
        obs.on_ets(operator="x", round_id=1, time=0.0, injected=True)
        obs.on_punctuation(operator="x", round_id=1, time=0.0, origin="ets")
        obs.on_arrival(operator="x", time=0.0)
        obs.on_buffer_change(total=3, time=0.0)
        obs.on_fault(kind="degrade", operator="x", round_id=1, time=0.0)
        obs.on_quiesce(round_id=1, time=0.0)


# --------------------------------------------------------------------- #
# Engine integration


def simple_path():
    g = QueryGraph("obs-path")
    src = g.add_source("src")
    q1 = g.add(Select("Q1", lambda p: True))
    sink = g.add_sink("sink")
    g.connect(src, q1)
    g.connect(q1, sink)
    return g, src


class TestEngineIntegration:
    def test_no_observers_means_no_bus(self):
        """The fast path: nothing attached → the engine stores None, not an
        empty bus (every emission site is one ``is None`` test)."""
        g, src = simple_path()
        engine = ExecutionEngine(g, VirtualClock())
        assert engine.bus is None
        assert ExecutionEngine(g, VirtualClock(), observers=[]).bus is None
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=src)  # still runs fine

    def test_no_observers_fast_path_is_structural(self):
        """The no-observer contract, as counts instead of a timing: engine,
        Simulation and default Pipeline hold no bus and register no buffer
        observer, and a scenario-C run never enters ``repro/obs/bus.py``
        from ``core/execution.py``.  (The kernel's own cold-path emissions
        go to the shared no-op ``NULL_BUS`` by design; not the contract.)"""
        g, _ = simple_path()
        scenario = build_union_scenario(ScenarioConfig(
            scenario="C", duration=5.0, rate_fast=20.0, rate_slow=1.0))
        p = Pipeline("bare")
        p.source("a").union(p.source("b"), name="u").sink("out")
        p.engine(ets_policy=OnDemandEts)
        p.feed("a", [Arrival(time=0.1 * i, payload={"v": i})
                     for i in range(1, 20)])
        p.feed("b", [Arrival(time=1.0, payload={"v": -1})])
        sim = p.build_simulation()
        engines = [ExecutionEngine(g, VirtualClock()), scenario.sim.engine,
                   sim.engine]
        for engine in engines:
            assert engine.bus is None
            assert engine._buffer_forward is None
            registry = engine.graph.registry
            assert not registry._observers

        entered: list[str] = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_back is not None \
                    and frame.f_code.co_filename.endswith("obs/bus.py") \
                    and frame.f_back.f_code.co_filename.endswith(
                        "core/execution.py"):
                entered.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            scenario.run()
            p.run(3.0)
        finally:
            sys.setprofile(None)
        assert scenario.sim.engine.stats.ets_injected > 0
        assert sim.engine.stats.steps > 0
        assert entered == []

    def test_attach_observer_creates_bus(self):
        g, src = simple_path()
        engine = ExecutionEngine(g, VirtualClock())
        log: list = []
        engine.attach_observer(Recorder("a", log))
        assert isinstance(engine.bus, EventBus)
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=src)
        assert ("a", "step") in log and log[-1] == ("a", "quiesce")

    def test_buffer_wiring_is_conditional(self):
        """Occupancy forwarding costs a callback per delta, so it is only
        wired when some observer overrides on_buffer_change."""
        g, _ = simple_path()
        log: list = []
        engine = ExecutionEngine(g, VirtualClock(),
                                 observers=[Recorder("a", log)])
        assert engine._buffer_forward is None
        g2, src2 = simple_path()
        watcher = DepthWatcher()
        engine2 = ExecutionEngine(g2, VirtualClock(), observers=[watcher])
        assert engine2._buffer_forward is not None
        src2.ingest({"v": 1}, now=0.0)
        engine2.wakeup(entry=src2)
        assert watcher.totals  # saw occupancy move
        assert watcher.totals[-1] == 0  # drained at quiescence

    def test_buffer_wiring_is_idempotent(self):
        g, _ = simple_path()
        engine = ExecutionEngine(g, VirtualClock(), observers=[DepthWatcher()])
        forward = engine._buffer_forward
        engine.attach_observer(DepthWatcher())
        assert engine._buffer_forward is forward
        assert g.registry._observers.count(forward) == 1

    def test_failing_observer_does_not_break_the_walk(self):
        g, src = simple_path()
        engine = ExecutionEngine(g, VirtualClock(), observers=[Exploder()])
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=src)
        assert engine.stats.steps == 2  # Q1 and the sink both executed
        assert engine.bus.error_count > 0

    def test_event_stream_shape(self):
        """One wake-up publishes the expected vocabulary, framed by
        wakeup/quiesce."""
        g, src = simple_path()
        events = JsonlExporter()
        engine = ExecutionEngine(g, VirtualClock(), observers=[events])
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=src)
        kinds = [rec["event"] for rec in events.records
                 if rec["event"] != "buffer_change"]  # ingest precedes wakeup
        assert kinds[0] == "wakeup" and kinds[-1] == "quiesce"
        assert "step" in kinds and "nos_decision" in kinds
        wake = next(r for r in events.records if r["event"] == "wakeup")
        assert wake["round_id"] == 1 and wake["entry"] == "src"


# --------------------------------------------------------------------- #
# Observation is read-only: the differential replay


def _union_graph() -> QueryGraph:
    graph = QueryGraph("obs-union")
    fast = graph.add_source("fast")
    slow = graph.add_source("slow")
    f1 = graph.add(Select("filter_fast", lambda p: p["value"] < 0.95))
    f2 = graph.add(Select("filter_slow", lambda p: p["value"] < 0.95))
    union = graph.add(Union("union"))
    sink = graph.add_sink("sink")
    graph.connect(fast, f1)
    graph.connect(slow, f2)
    graph.connect(f1, union)
    graph.connect(f2, union)
    graph.connect(union, sink)
    return graph


def _feeds() -> list[Feed]:
    import random
    rng = random.Random(7)
    feeds = []
    for i in range(300):
        feeds.append(Feed("fast", time=i * 0.02,
                          payload={"seq": i, "value": rng.random()}))
    for i in range(5):
        feeds.append(Feed("slow", time=0.5 + i * 1.3,
                          payload={"seq": i, "value": rng.random()}))
    feeds.sort(key=lambda f: f.time)
    return feeds


@pytest.mark.parametrize("batch_size", [1, 8])
def test_instrumented_replay_is_byte_identical(batch_size):
    """Attaching the full observer stack never changes what a query
    delivers: same tuples, same timestamps, same order."""
    oracle = DifferentialOracle(_union_graph, _feeds(), chunk=16)
    bare = oracle.run(batch_size=batch_size)
    registry = MetricsRegistry()
    events = JsonlExporter()
    observed = oracle.run(batch_size=batch_size, observers=[
        registry, events, ChromeTraceExporter(), Tracer()])
    assert observed == bare
    # and the instrumentation actually saw the run
    assert registry.rounds.total > 0
    assert registry.steps.total > 0
    assert any(rec["event"] == "step" for rec in events.records)


# --------------------------------------------------------------------- #
# A callback attribute is not a hook


class CallbackHolder(Observer):
    """An observer that keeps a plain callback under a hook's name, the way
    a component keeps a hook-shaped attribute for its owner to call."""

    def __init__(self) -> None:
        self.calls = []
        self.on_recovery = lambda *args, **kw: self.calls.append((args, kw))

    def on_checkpoint(self, **kw) -> None:
        """Overrides one hook, so the bus does subscribe this observer."""


def test_callback_attribute_does_not_hear_recovery(tmp_path):
    """A callback stored on the instance under a hook's name is not a hook:
    the manager's ``on_recovery`` event must not be routed into it (a bus
    that resolved hooks per instance would call it)."""
    def build() -> Simulation:
        return Simulation(
            _union_graph(), ets_policy=OnDemandEts(),
            observers=(MetricsRegistry(), CallbackHolder()),
            recovery=RecoveryManager(tmp_path))

    sim = build()
    for i, source in enumerate(("fast", "slow", "fast")):
        sim.schedule_arrival(sim.graph[source], Arrival(
            0.5 * (i + 1), {"seq": i, "value": 0.1}))
    sim.run(until=4.0)
    sim.recovery.checkpoint()
    sim.recovery.close()
    fresh = build()
    report = fresh.recovery.recover()
    assert report.checkpoint_number == 1
    registry, holder = fresh.engine.bus.observers
    assert registry.recoveries.total == 1
    assert holder.calls == []
    assert fresh.engine.bus.error_count == 0, fresh.engine.bus.errors
