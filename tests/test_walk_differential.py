"""The engine's walk against the interpreted reference walk.

:class:`reference_walk.ReferenceWalkEngine` asks every operator at every
NOS decision, pumps the kernel at every clock change and re-prices and
refreshes at every step.  The engine resolves what the graph fixes once
(per-node records, per-operator prices, the idle tracker's feeders) and
pumps only when an event is due.  Both run through ``Simulation`` on the
same graph and feed, over {NoEts, OnDemandEts} × {no cost model,
``CostModel()``} × batch {1, 64}, with and without observers; the
observed events, ``EngineStats``, sink outputs, the clock and every
tracked operator's idle time must be equal.

Beside it, guards for what the engine must keep honouring although it
resolves ahead: a cost model assigned after construction, events the ETS
hook schedules during a walk, and the no-listener emission path.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from oracle import Feed
from reference_walk import ReferenceWalkEngine
from test_engine_random_properties import random_feeds, random_graph

from repro.core.ets import NoEts, OnDemandEts
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union, WindowJoin
from repro.core.windows import WindowSpec
from repro.faults import FaultPlan, PunctuationDelay, SlowSink
from repro.obs.bus import HOOKS, EventBus, Observer
from repro.sim.kernel import Arrival, Simulation
from repro.workloads.scenarios import ScenarioConfig, build_union_scenario

CONFIGS = [(ets, priced, batch)
           for ets in (NoEts, OnDemandEts)
           for priced in (False, True)
           for batch in (1, 64)]


class Recorder(Observer):
    """Every hook call with all its fields, in order."""

    def __init__(self) -> None:
        self.log: list[tuple[str, dict]] = []


for _hook in HOOKS:
    setattr(Recorder, _hook,
            lambda self, _name=_hook, **kw: self.log.append((_name, kw)))


def diamond() -> QueryGraph:
    """One source feeding both arms of a union, one arm starved."""
    g = QueryGraph("diamond")
    src = g.add_source("s0")
    starve = g.add(Select("starve", lambda p: p["uid"] % 4 == 0))
    u = g.add(Union("u"))
    sink = g.add_sink("sink")
    g.connect(src, starve)
    g.connect(starve, u)
    g.connect(src, u)
    g.connect(u, sink)
    return g


def join() -> QueryGraph:
    g = QueryGraph("join")
    a, b = g.add_source("s0"), g.add_source("s1")
    j = g.add(WindowJoin("j", WindowSpec.time(2.0), key="k"))
    sink = g.add_sink("sink")
    g.connect(a, j)
    g.connect(b, j)
    g.connect(j, sink)
    return g


def shape(kind: str, seed: int):
    if kind == "random":
        return random_graph(seed)
    return (["s0"] if kind == "diamond" else ["s0", "s1"],
            diamond if kind == "diamond" else join)


def run(engine_cls, build, feeds, ets, priced, batch, observe, cuts):
    graph = build()
    delivered = []
    for sink in graph.sinks():
        sink.on_output = (lambda t, latency, _name=sink.name:
                          delivered.append((_name, t.ts, repr(t.payload),
                                            latency)))
    recorder = Recorder()
    sim = Simulation(graph, engine_cls=engine_cls, ets_policy=ets(),
                     batch_size=batch,
                     observers=(recorder,) if observe else ())
    if not priced:
        sim.engine.cost_model = None  # assigned after construction
    for source in graph.sources():
        sim.attach_arrivals(source, [
            Arrival(time=f.time, payload={**f.payload,
                                          "k": f.payload["uid"] % 3})
            for f in feeds if f.source == source.name])
    for until in cuts:
        sim.run(max(until, sim.clock.now()))  # a busy engine may be past it
    now, tracker = sim.clock.now(), sim.idle_tracker
    return {
        "events": recorder.log,
        "stats": sim.engine.stats.as_dict(),
        "outputs": delivered,
        "clock": now,
        "idle": [(op.name, tracker.idle_time(op.name),
                  tracker.idle_time(op.name, now))
                 for op in tracker.operators],
        "summary": sim.summary(),
    }


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "diamond", "join"]),
       scale=st.sampled_from([1.0, 1e-4]))
@settings(max_examples=25, deadline=None)
def test_the_walk_equals_the_reference_walk(seed, kind, scale):
    """``scale`` compresses the feed's time axis: at 1e-4 arrivals fall
    due while the engine is busy, mid-walk, after steps and ETS alike."""
    sources, build = shape(kind, seed)
    feeds = [Feed(f.source, f.time * scale, f.payload)
             for f in random_feeds(seed, sources)]
    end = feeds[-1].time + 5.0 * scale
    cut = random.Random(seed).uniform(0.0, end)
    cuts = (cut, end)
    for ets, priced, batch in CONFIGS:
        for observe in (True, False):
            label = (f"{kind} seed={seed} scale={scale} {ets.__name__} "
                     f"priced={priced} batch={batch} observe={observe}")
            expected = run(ReferenceWalkEngine, build, feeds, ets, priced,
                           batch, observe, cuts)
            got = run(ExecutionEngine, build, feeds, ets, priced, batch,
                      observe, cuts)
            assert expected["stats"]["steps"] > 0, label
            for key in expected:
                assert got[key] == expected[key], f"{label}: {key} differs"


# --------------------------------------------------------------------- #
# Guards: what the engine must honour although it resolves ahead


def scenario_c(faults=None, **overrides):
    config = dict(scenario="C", rate_fast=50.0, rate_slow=0.5,
                  duration=10.0, seed=1)
    config.update(overrides)
    return build_union_scenario(ScenarioConfig(**config), faults=faults)


def test_a_cost_model_assigned_after_construction_is_charged():
    """``SlowSink`` replaces ``engine.cost_model`` with an interposer that
    prices each step itself; the engine must charge through it."""
    def busy(slowed: bool):
        handles = scenario_c()
        plan = FaultPlan([SlowSink("sink", start=2.0, duration=5.0,
                                   factor=50.0)])
        if slowed:
            plan.install(handles.sim)
        handles.run()
        return handles.sim.engine.stats.busy_time, plan.stats.slowed

    plain, none_slowed = busy(False)
    slowed_busy, slowed = busy(True)
    assert none_slowed == 0 and slowed > 0
    assert slowed_busy > plain * 1.5


def test_a_delayed_punctuation_is_delivered_at_the_reference_instants():
    """``PunctuationDelay`` schedules its re-injection on the event queue
    from inside the ETS hook, mid-walk; the pump must see it fall due."""
    def run_delayed(engine_cls):
        plan = FaultPlan([PunctuationDelay("slow", delay=0.05, start=1.0,
                                           end=8.0)])
        handles = scenario_c(engine_cls=engine_cls, faults=plan)
        sim, delivered = handles.sim, []
        handles.sink.on_output = lambda t, latency: delivered.append(
            (sim.clock.now(), t.ts, latency))
        handles.run()
        return delivered, plan.stats.punctuation_delayed, \
            sim.engine.stats.as_dict()

    expected = run_delayed(ReferenceWalkEngine)
    assert expected[1] > 0 and len(expected[0]) > 100
    assert expected[2]["ets_injected"] > 0
    assert run_delayed(ExecutionEngine) == expected


#: Every hook the engine's walk, its wake-up edges and the kernel's event
#: trains emit: with nobody overriding them, none may build an event.
BOUND_HOOKS = {"on_nos_decision", "on_step", "on_ets", "on_punctuation",
               "on_wakeup", "on_quiesce", "on_arrival"}


def test_an_unheard_hook_builds_no_event(monkeypatch):
    """With a bare ``Observer`` attached the bus exists but nobody
    overrides a hook: no ``_emit`` at all — not for the walk's hooks, the
    wake-up's edges, the kernel's arrivals, nor the heartbeat train; on
    scenarios B and C, with the bus given at construction or attached to
    the engine later."""
    emitted: list[str] = []
    emit = EventBus._emit

    def counted(bus, hook, kw):
        emitted.append(hook)
        return emit(bus, hook, kw)

    monkeypatch.setattr(EventBus, "_emit", counted)
    for scenario in ("B", "C"):
        for attach in ("config", "attach_observer"):
            extra = {"heartbeat_rate": 10.0} if scenario == "B" else {}
            if attach == "config":
                extra["observers"] = [Observer()]
            handles = scenario_c(scenario=scenario, **extra)
            sim = handles.sim
            if attach == "attach_observer":
                sim.engine.attach_observer(Observer())
            assert sim.engine.bus is not None
            handles.run()
            assert sim.arrivals_delivered > 0
            if scenario == "B":
                assert sim.heartbeats_delivered > 0
            else:
                assert sim.engine.stats.ets_injected > 0
            assert BOUND_HOOKS.isdisjoint(emitted), (scenario, attach)


def test_a_listener_hears_every_bound_hook():
    """The same run with a recorder: every bound hook is heard, and the
    kernel's arrivals and heartbeats reach a listener attached to the bus
    between two ``run`` slices from the next event on."""
    recorder = Recorder()
    handles = scenario_c(scenario="B", heartbeat_rate=10.0,
                         observers=[Observer()])
    sim = handles.sim
    sim.run(2.0)
    sim.engine.bus.attach(recorder)
    sim.run(4.0)
    heard = [hook for hook, _ in recorder.log]
    assert BOUND_HOOKS - {"on_ets"} <= set(heard)
    arrivals = [kw for hook, kw in recorder.log if hook == "on_arrival"]
    beats = [kw for hook, kw in recorder.log
             if hook == "on_punctuation" and kw["origin"] == "heartbeat"]
    assert arrivals and all(2.0 <= kw["time"] <= 4.0 for kw in arrivals)
    assert beats and all(kw["round_id"] >= 1 for kw in beats)


def test_an_observer_attached_to_the_engine_later_hears_the_kernel():
    """No observer at construction, so the engine has no bus until
    ``attach_observer`` creates one between two ``run`` slices: the
    kernel's arrivals and heartbeats reach it from then on, as the
    engine's own hooks do."""
    recorder = Recorder()
    handles = scenario_c(scenario="B", heartbeat_rate=10.0)
    sim = handles.sim
    sim.run(2.0)
    assert sim.engine.bus is None
    sim.engine.attach_observer(recorder)
    sim.run(4.0)
    arrivals = [kw for hook, kw in recorder.log if hook == "on_arrival"]
    beats = [kw for hook, kw in recorder.log
             if hook == "on_punctuation" and kw["origin"] == "heartbeat"]
    assert arrivals and all(2.0 <= kw["time"] <= 4.0 for kw in arrivals)
    assert beats and all(2.0 <= kw["time"] <= 4.0 for kw in beats)


def test_emitters_follow_attach_and_detach():
    """A listener attached straight on the bus between wake-ups is heard
    from the next wake-up on, and silent again once detached."""
    handles = scenario_c(duration=4.0)
    engine = handles.sim.engine
    engine.attach_observer(Observer())
    recorder = Recorder()
    handles.sim.run(1.0)
    engine.bus.attach(recorder)
    handles.sim.run(2.0)
    heard = {hook for hook, _ in recorder.log}
    assert {"on_step", "on_nos_decision", "on_ets"} <= heard
    engine.bus.detach(recorder)
    before = len(recorder.log)
    handles.sim.run(4.0)
    assert len(recorder.log) == before
