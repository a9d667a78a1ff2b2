"""Unit tests for the closed-loop backpressure subsystem (repro.feedback).

Covers the assertion type and its combine rules, reverse-topological
propagation, the hysteresis controller (activation, refresh, relief
train), the AIMD token-bucket throttle, each operator reaction, the
sharded engine's refusal of a controller, the process backend's one
bounded wait, and the byte-identity guarantee when no feedback fires.
"""

from __future__ import annotations

import time
from dataclasses import fields

import pytest

from repro.core.errors import ExecutionError, PolicyError
from repro.core.graph import QueryGraph
from repro.core.operators import Map, Reorder, Select, Shed
from repro.core.execution import ExecutionEngine
from repro.core.tuples import (
    FeedbackPunctuation,
    TimestampKind,
    is_data,
    is_feedback,
)
from repro.experiments.overload import OverloadConfig, run_overload_experiment
from repro.feedback import (
    FeedbackController,
    TokenBucketThrottle,
    propagate_feedback,
)
from repro.obs.bus import Observer
from repro.shard.backends import ProcessBackend, ShardResult, ShardTimeoutError
from repro.shard.engine import ShardedEngine
from repro.sim.clock import VirtualClock


def build_line(*, with_shed: bool = False, with_reorder: bool = False):
    """source -> [shed ->] [reorder ->] select -> sink, validated."""
    graph = QueryGraph("feedback-line")
    source = graph.add_source("src")
    prev = source
    if with_shed:
        prev = graph.add(Shed("shed", 0.0))
        graph.connect(source, prev)
    if with_reorder:
        reorder = graph.add(Reorder("reorder", 2.0))
        graph.connect(prev, reorder)
        prev = reorder
    select = graph.add(Select("sel", lambda p: True))
    graph.connect(prev, select)
    sink = graph.add_sink("sink", keep_outputs=True)
    graph.connect(select, sink)
    graph.validate()
    return graph


def wave(**kw) -> FeedbackPunctuation:
    defaults = dict(ts=1.0, origin="test", pressure=0.5, buffer_depth=10,
                    sink_latency=0.1, frontier_lag=0.2, drop_budget=0.3)
    defaults.update(kw)
    return FeedbackPunctuation(**defaults)


# --------------------------------------------------------------------- #
# The assertion type


class TestFeedbackPunctuation:
    def test_classification(self):
        fb = wave()
        assert fb.is_feedback and is_feedback(fb)
        assert not fb.is_punctuation
        assert not is_data(fb)

    def test_relief_is_zero_pressure(self):
        assert wave(pressure=0.0).is_relief
        assert not wave(pressure=0.1).is_relief

    def test_combine_takes_elementwise_max(self):
        a = wave(pressure=0.8, buffer_depth=5, sink_latency=0.5,
                 frontier_lag=0.1, drop_budget=0.0, ts=1.0)
        b = wave(pressure=0.2, buffer_depth=50, sink_latency=0.1,
                 frontier_lag=0.9, drop_budget=0.4, ts=2.0)
        for combined in (a.combined_with(b), b.combined_with(a)):
            assert combined.pressure == 0.8
            assert combined.buffer_depth == 50
            assert combined.sink_latency == 0.5
            assert combined.frontier_lag == 0.9
            assert combined.drop_budget == 0.4
            assert combined.ts == 2.0

    def test_combine_keeps_higher_pressure_origin(self):
        a = wave(pressure=0.8, origin="worse")
        b = wave(pressure=0.2, origin="better")
        assert a.combined_with(b).origin == "worse"
        assert b.combined_with(a).origin == "worse"


# --------------------------------------------------------------------- #
# Propagation


class TestPropagation:
    def test_reaches_every_operator_in_a_line(self):
        graph = build_line(with_shed=True, with_reorder=True)
        delivered = propagate_feedback(graph, wave(), now=1.0)
        assert set(delivered) == {"src", "shed", "reorder", "sel", "sink"}

    def test_shed_absorbs_drop_budget_upstream(self):
        """A shedder claims the budget: operators above it see budget 0."""
        graph = build_line(with_shed=True)
        delivered = propagate_feedback(graph, wave(drop_budget=0.4), now=1.0)
        assert delivered["shed"].drop_budget == 0.4
        assert delivered["src"].drop_budget == 0.0
        assert graph["shed"].drop_budget == 0.4

    def test_branching_takes_worse_successor(self):
        """An operator feeding two paths reacts to the max-combine."""
        graph = QueryGraph("fan-out")
        source = graph.add_source("src")
        left = graph.add(Map("left", lambda p: p))
        right = graph.add(Map("right", lambda p: p))
        graph.connect(source, left)
        graph.connect(source, right)
        sink_l = graph.add_sink("sink_l")
        sink_r = graph.add_sink("sink_r")
        graph.connect(left, sink_l)
        graph.connect(right, sink_r)
        graph.validate()

        seen = {}
        original = source.on_feedback

        def spy(fb, now):
            seen["src"] = fb
            return original(fb, now)

        source.on_feedback = spy
        propagate_feedback(graph, wave(pressure=0.7), now=1.0)
        assert seen["src"].pressure == 0.7

    def test_data_path_untouched(self):
        """Propagation writes nothing into stream buffers."""
        graph = build_line()
        before = graph.registry.total
        propagate_feedback(graph, wave(), now=1.0)
        assert graph.registry.total == before == 0


# --------------------------------------------------------------------- #
# Reactions


class TestReactions:
    def test_shed_budget_set_and_decayed(self):
        shed = Shed("s", 0.1)
        shed.on_feedback(wave(drop_budget=0.6), now=1.0)
        assert shed.drop_budget == 0.6
        assert shed.effective_probability == 0.6
        shed.on_feedback(wave(pressure=0.0, drop_budget=0.0), now=2.0)
        assert shed.drop_budget == pytest.approx(0.3)
        for t in range(10):
            shed.on_feedback(wave(pressure=0.0, drop_budget=0.0), now=3.0 + t)
        assert shed.drop_budget == 0.0
        assert shed.effective_probability == 0.1

    def test_reorder_narrows_and_recovers_slack(self):
        reorder = Reorder("r", 4.0)
        reorder.on_feedback(wave(pressure=1.0), now=1.0)
        assert reorder.slack == pytest.approx(2.0)
        for t in range(20):
            reorder.on_feedback(wave(pressure=0.0), now=2.0 + t)
        assert reorder.slack == pytest.approx(4.0)
        assert reorder.base_slack == 4.0

    def test_source_forwards_to_throttle(self):
        graph = build_line()
        source = graph["src"]
        source.throttle = TokenBucketThrottle(rate=100.0)
        before = source.throttle.rate
        propagate_feedback(graph, wave(pressure=0.9), now=1.0)
        assert source.throttle.rate == before * 0.5

    def test_throttled_ingest_denied(self):
        graph = build_line()
        source = graph["src"]
        source.throttle = TokenBucketThrottle(rate=1.0, capacity=1)
        assert source.ingest({"v": 1}, now=0.0) is not None
        assert source.ingest({"v": 2}, now=0.001) is None
        assert source.throttled_count == 1


# --------------------------------------------------------------------- #
# The AIMD throttle


class TestTokenBucketThrottle:
    def test_rate_limits_admission(self):
        throttle = TokenBucketThrottle(rate=10.0, capacity=1)
        admitted = sum(
            1 for i in range(200) if throttle.admit(i * 0.01))
        # 2 simulated seconds at 10/s (+1 initial token).
        assert 18 <= admitted <= 22

    def test_aimd_decrease_and_increase(self):
        throttle = TokenBucketThrottle(rate=100.0)
        throttle.on_feedback(wave(pressure=0.8))
        assert throttle.rate == 50.0
        throttle.on_feedback(wave(pressure=0.8))
        assert throttle.rate == 25.0
        for _ in range(100):
            throttle.on_feedback(wave(pressure=0.0))
        assert throttle.rate == 100.0  # additive climb, clamped at max

    def test_min_rate_floor(self):
        throttle = TokenBucketThrottle(rate=100.0, min_rate=10.0)
        for _ in range(20):
            throttle.on_feedback(wave(pressure=1.0))
        assert throttle.rate == 10.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(PolicyError):
            TokenBucketThrottle(rate=0.0)
        with pytest.raises(PolicyError):
            TokenBucketThrottle(rate=10.0, decrease=1.5)

    def test_snapshot_roundtrip(self):
        throttle = TokenBucketThrottle(rate=100.0)
        for i in range(5):
            throttle.admit(i * 0.001)
        throttle.on_feedback(wave(pressure=0.5))
        state = throttle.snapshot_state()
        clone = TokenBucketThrottle(rate=100.0)
        clone.restore_state(state)
        assert clone.rate == throttle.rate
        assert clone.admitted == throttle.admitted
        assert clone.denied == throttle.denied
        assert clone.snapshot_state() == state


# --------------------------------------------------------------------- #
# The hysteresis controller


class FeedbackProbe(Observer):
    def __init__(self):
        self.events = []

    def on_feedback(self, **kw):
        self.events.append(kw)


def engine_with_controller(**controller_kwargs):
    graph = build_line(with_shed=True)
    probe = FeedbackProbe()
    controller = FeedbackController(**controller_kwargs)
    engine = ExecutionEngine(graph, VirtualClock(), feedback=controller,
                             observers=[probe])
    return graph, engine, controller, probe


class TestController:
    def test_validation(self):
        with pytest.raises(PolicyError):
            FeedbackController(high_watermark=0)
        with pytest.raises(PolicyError):
            FeedbackController(high_watermark=10, low_watermark=10)
        with pytest.raises(PolicyError):
            FeedbackController(max_drop_budget=1.5)

    def test_quiet_engine_emits_nothing(self):
        graph, engine, controller, probe = engine_with_controller(
            high_watermark=4)
        source = graph["src"]
        for i in range(20):
            source.ingest({"v": i}, now=float(i))
            engine.wakeup(source)
        assert controller.episodes == 0
        assert probe.events == []

    def test_episode_activates_refreshes_and_relieves(self):
        graph, engine, controller, probe = engine_with_controller(
            high_watermark=4, low_watermark=1, relief_beats=2)
        source = graph["src"]
        # Pile up 8 tuples before letting the engine run: the interval
        # peak crosses the high watermark even though the round drains it.
        for i in range(8):
            source.ingest({"v": i}, now=0.1 * i)
        engine.wakeup(source)
        assert controller.episodes == 1
        assert probe.events[0]["kind"] == "pressure"
        assert probe.events[0]["pressure"] > 0.0
        # Quiet rounds: deactivation relief, then the bounded beat train.
        for i in range(6):
            source.ingest({"v": 100 + i}, now=1.0 + 0.5 * i)
            engine.wakeup(source)
        kinds = [e["kind"] for e in probe.events]
        assert kinds.count("relief") == 1 + 2  # deactivation + beats
        assert controller.pressure == 0.0
        assert not controller.active

    def test_pressure_scales_with_depth(self):
        controller = FeedbackController(high_watermark=10, low_watermark=2,
                                        overload_depth=22)
        assert controller._pressure_of(2) == 0.0
        assert controller._pressure_of(12) == 0.5
        assert controller._pressure_of(22) == 1.0
        assert controller._pressure_of(100) == 1.0
        assert controller._drop_budget_of(10) == 0.0
        assert controller._drop_budget_of(22) == controller.max_drop_budget

    def test_snapshot_roundtrip(self):
        graph, engine, controller, probe = engine_with_controller(
            high_watermark=4, low_watermark=1)
        source = graph["src"]
        for i in range(8):
            source.ingest({"v": i}, now=0.1 * i)
        engine.wakeup(source)
        state = controller.snapshot_state()
        clone = FeedbackController(high_watermark=4, low_watermark=1)
        clone.restore_state(state)
        assert clone.active == controller.active
        assert clone.episodes == controller.episodes
        assert clone.snapshot_state() == state

    def test_controller_state_rides_engine_snapshot(self):
        graph, engine, controller, probe = engine_with_controller(
            high_watermark=4, low_watermark=1)
        source = graph["src"]
        for i in range(8):
            source.ingest({"v": i}, now=0.1 * i)
        engine.wakeup(source)
        state = engine.snapshot_state()
        assert state["feedback"] == controller.snapshot_state()

        graph2 = build_line(with_shed=True)
        controller2 = FeedbackController(high_watermark=4, low_watermark=1)
        engine2 = ExecutionEngine(graph2, VirtualClock(),
                                  feedback=controller2)
        engine2.restore_state(state)
        assert controller2.episodes == controller.episodes
        assert controller2.active == controller.active


# --------------------------------------------------------------------- #
# Byte-identity with feedback disabled / inert


class TestByteIdentity:
    @staticmethod
    def _run(controller):
        graph = QueryGraph("identity")
        source = graph.add_source("src", TimestampKind.EXTERNAL,
                                  out_of_order=True)
        reorder = graph.add(Reorder("reorder", 10.0))
        graph.connect(source, reorder)
        sink = graph.add_sink("sink", keep_outputs=True)
        graph.connect(reorder, sink)
        graph.validate()
        engine = ExecutionEngine(graph, VirtualClock(), feedback=controller)
        source = graph["src"]
        order = [3, 1, 2, 0, 5, 4, 7, 6, 9, 8]
        for i, k in enumerate(order):
            source.ingest({"v": k}, now=0.1 * i, ts=float(k))
            engine.wakeup(source)
        source.inject_punctuation(100.0)
        engine.wakeup(source)
        return [(t.ts, t.payload) for t in graph["sink"].outputs_seen]

    def test_no_controller_equals_inert_controller(self):
        bare = self._run(None)
        inert = self._run(FeedbackController(high_watermark=10 ** 9))
        assert bare == inert
        assert len(bare) == 10


# --------------------------------------------------------------------- #
# Sharded engines run no controller


def _shard_build():
    graph = QueryGraph("shard-feedback")
    graph.add_source("src")
    sink = graph.add_sink("sink")
    graph.connect(graph["src"], sink)
    graph.validate()
    return graph


def test_feedback_disabled_sends_no_clamp():
    """A shard command is rows, punctuation, clock and log position: no
    shard runs a controller, none reports a pressure view, and a facade
    asked for feedback refuses before it builds a shard."""
    with pytest.raises(ExecutionError, match="take no feedback"):
        ShardedEngine(_shard_build, shards=2, key="k",
                      feedback=lambda: FeedbackController(high_watermark=4))
    engine = ShardedEngine(_shard_build, shards=2, key="k", backend="serial")
    try:
        engine.ingest("src", {"k": 1}, time=0.5)
        engine.wakeup()
        for shard in engine.backend.shards:
            assert shard.engine.feedback is None
        assert [f.name for f in fields(ShardResult)] == [
            "shard", "outputs", "frontier", "ingested", "marks"]
        assert not {"pressure", "clamps_broadcast", "retries"} & set(
            engine.summary())
    finally:
        engine.close()


# --------------------------------------------------------------------- #
# The process backend waits once


def _stalling_build():
    graph = QueryGraph("stall")
    source = graph.add_source("src")

    def slow_once(payload):
        if payload.get("stall"):
            time.sleep(0.6)
        return payload

    mapper = graph.add(Map("slow", slow_once))
    graph.connect(source, mapper)
    sink = graph.add_sink("sink")
    graph.connect(mapper, sink)
    graph.validate()
    return graph


def test_persistent_stall_still_raises():
    """A 0.6 s stall against a 0.08 s timeout: the one wait expires and
    the worker is terminated, with no re-poll in between."""
    backend = ProcessBackend(
        1, lambda i: (_stalling_build, {}), op_timeout=0.08)
    try:
        start = time.monotonic()
        with pytest.raises(ShardTimeoutError, match=r"within 0\.08s "
                                                    r"\(terminated\)"):
            backend.apply_all(
                [([("src", {"stall": True}, 0.5, None)], [], 0.5)])
        assert time.monotonic() - start < 0.6
    finally:
        backend.close()


# --------------------------------------------------------------------- #
# The overload experiment (closed vs open loop, end to end)


def test_overload_experiment_closed_loop_bounds_depth():
    open_report = run_overload_experiment(
        OverloadConfig(feedback=False, duration=40.0))
    closed_report = run_overload_experiment(
        OverloadConfig(feedback=True, duration=40.0))
    assert open_report.summary.get("feedback_episodes") is None
    assert closed_report.summary["feedback_episodes"] >= 1
    assert closed_report.throttled > 0
    assert closed_report.peak_queue < open_report.peak_queue
    assert closed_report.latency["p99"] < open_report.latency["p99"]
    assert closed_report.monitor_violations == 0
    # The reliefs unwound the loop by the end of the run.
    assert closed_report.summary["feedback_reliefs"] >= 1
