"""Unit tests for the closed-loop backpressure subsystem (repro.feedback).

Covers the hysteresis controller (activation, refresh, relief train), the
AIMD token-bucket throttle it steps at the sources, the sharded engine's
refusal of a controller, and the byte-identity guarantee when no feedback
fires.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.errors import ExecutionError, PolicyError
from repro.core.graph import QueryGraph
from repro.core.operators import Reorder, Select, Shed
from repro.core.execution import ExecutionEngine
from repro.core.tuples import TimestampKind
from repro.experiments.overload import OverloadConfig, run_overload_experiment
from repro.feedback import FeedbackController, TokenBucketThrottle
from repro.obs.bus import Observer
from repro.shard.backends import ShardResult
from repro.shard.engine import ShardedEngine
from repro.sim.clock import VirtualClock


def build_line():
    """source -> shed -> select -> sink, validated."""
    graph = QueryGraph("feedback-line")
    source = graph.add_source("src")
    shed = graph.add(Shed("shed", 0.0))
    graph.connect(source, shed)
    select = graph.add(Select("sel", lambda p: True))
    graph.connect(shed, select)
    sink = graph.add_sink("sink", keep_outputs=True)
    graph.connect(select, sink)
    graph.validate()
    return graph


# --------------------------------------------------------------------- #
# Reactions


class TestReactions:
    def test_source_forwards_to_throttle(self):
        """End to end: a pressure wave halves the throttled source's rate,
        the relief train climbs it back, and an unthrottled source in the
        same graph is left alone."""
        graph = QueryGraph("two-sources")
        throttled = graph.add_source("src")
        free = graph.add_source("other")
        select = graph.add(Select("sel", lambda p: True))
        other = graph.add(Select("sel2", lambda p: True))
        graph.connect(throttled, select)
        graph.connect(free, other)
        graph.connect(select, graph.add_sink("sink"))
        graph.connect(other, graph.add_sink("sink2"))
        graph.validate()
        throttled.throttle = TokenBucketThrottle(rate=1000.0, increase=100.0)
        controller = FeedbackController(high_watermark=4, low_watermark=1,
                                        relief_beats=2)
        engine = ExecutionEngine(graph, VirtualClock(), feedback=controller)
        for i in range(8):
            throttled.ingest({"v": i}, now=0.001 * i)
        engine.wakeup(throttled)
        assert (controller.emitted, throttled.throttle.rate) == (1, 500.0)
        for i in range(4):
            throttled.ingest({"v": 100 + i}, now=1.0 + i)
            engine.wakeup(throttled)
        assert controller.reliefs == 3  # deactivation + two beats
        assert throttled.throttle.rate == 800.0
        assert throttled.throttle.increases == 3
        assert free.throttle is None

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
        throttle.step(True)
        assert throttle.rate == 50.0
        throttle.step(True)
        assert throttle.rate == 25.0
        for _ in range(100):
            throttle.step(False)
        assert throttle.rate == 100.0  # additive climb, clamped at max

    def test_min_rate_floor(self):
        throttle = TokenBucketThrottle(rate=100.0, min_rate=10.0)
        for _ in range(20):
            throttle.step(True)
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
        throttle.step(True)
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
    graph = build_line()
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
        assert controller.active
        assert probe.events[0] == {"kind": "pressure", "round_id": 1,
                                   "time": 0.0, "depth": 8}
        # Quiet rounds: deactivation relief, then the bounded beat train.
        for i in range(6):
            source.ingest({"v": 100 + i}, now=1.0 + 0.5 * i)
            engine.wakeup(source)
        kinds = [e["kind"] for e in probe.events]
        assert kinds == ["pressure"] + ["relief"] * (1 + 2)  # + beats
        assert not controller.active

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

        graph2 = build_line()
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


def test_a_sharded_engine_refuses_feedback():
    """A facade asked for feedback refuses before it builds a shard; a
    shard command is rows, punctuation, clock and log position, so no
    shard runs a controller and none reports a pressure view."""
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
