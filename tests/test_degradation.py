"""Tests for the degradation ladder: stall detection, fallback, quarantine."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import PolicyError, TimestampError
from repro.core.ets import NoEts, OnDemandEts
from repro.core.execution import EngineStats
from repro.core.tuples import TimestampKind
from repro.faults import FallbackHeartbeat, FaultPlan, QuarantinePolicy, \
    SourceOutage, StallDetector
from repro.obs import EventBus, Tracer
from repro.query.pipeline import Pipeline
from repro.sim.kernel import Arrival, Simulation
from repro.workloads.arrival import constant_arrivals


def build(kind=TimestampKind.INTERNAL):
    q = Pipeline("degrade")
    fast = q.source("fast", kind)
    slow = q.source("slow", kind)
    fast.union(slow, name="merge").sink("out")
    graph = q.compile()
    return graph, graph["fast"], graph["slow"], graph["out"]


# --------------------------------------------------------------------- #
# StallDetector


class TestStallDetector:
    def test_validation(self):
        with pytest.raises(PolicyError):
            StallDetector(0.0)
        with pytest.raises(PolicyError):
            StallDetector(1.0, check_period=0.0)

    def test_check_period_defaults_to_quarter_timeout(self):
        assert StallDetector(8.0).check_period == pytest.approx(2.0)

    def test_watches_only_non_latent_sources(self):
        graph, *_ = build(TimestampKind.LATENT)
        det = StallDetector(1.0)
        det.bind(graph, now=0.0)
        assert det.watched == set()

    def test_poll_flags_silent_sources_once(self):
        graph, *_ = build()
        det = StallDetector(2.0)
        det.bind(graph, now=0.0)
        assert det.poll(1.0) == []
        assert sorted(det.poll(2.0)) == ["fast", "slow"]
        assert det.poll(3.0) == []  # already stalled: not re-reported
        assert det.stalls == 2

    def test_observe_ends_a_stall(self):
        graph, *_ = build()
        det = StallDetector(2.0)
        det.bind(graph, now=0.0)
        det.poll(5.0)
        assert det.observe("fast", 5.5) is True  # recovery
        assert det.observe("fast", 5.6) is False  # plain activity
        assert "fast" not in det.stalled and "slow" in det.stalled
        assert det.recoveries == 1

    def test_observe_ignores_unwatched_names(self):
        det = StallDetector(2.0)
        assert det.observe("ghost", 1.0) is False


# --------------------------------------------------------------------- #
# FallbackHeartbeat


class TestFallbackHeartbeat:
    def test_validation(self):
        with pytest.raises(PolicyError):
            FallbackHeartbeat(heartbeat_period=0.0)

    def test_healthy_path_delegates_to_inner(self):
        graph, fast, slow, _ = build()
        policy = FallbackHeartbeat(OnDemandEts(), heartbeat_period=1.0)
        # wire minimal state: OnDemandEts injects when the source stalls
        assert policy.on_source_stalled(fast, now=5.0, round_id=1) is True
        assert fast.watermark == 5.0

    def test_degrade_resync_cycle(self):
        graph, fast, _, _ = build()
        policy = FallbackHeartbeat(heartbeat_period=1.0)
        assert policy.degrade(fast, now=1.0) is True
        assert policy.degrade(fast, now=2.0) is False  # idempotent
        assert policy.is_degraded("fast")
        assert policy.resync("fast") is True
        assert policy.resync("fast") is False
        assert not policy.is_degraded("fast")
        assert policy.degradations == 1 and policy.resyncs == 1

    def test_heartbeat_ts_internal_uses_clock(self):
        graph, fast, _, _ = build()
        policy = FallbackHeartbeat(heartbeat_period=1.0)
        assert policy.heartbeat_ts(fast, now=7.5) == 7.5

    def test_heartbeat_ts_external_applies_skew_bound(self):
        graph, fast, _, _ = build(TimestampKind.EXTERNAL)
        policy = FallbackHeartbeat(heartbeat_period=1.0, external_delta=0.5)
        fast.ingest({"v": 1}, now=3.0, ts=2.9)
        # skew-bound extrapolation: last ts + elapsed wall time - delta
        assert policy.heartbeat_ts(fast, now=7.0) == pytest.approx(
            2.9 + (7.0 - 3.0) - 0.5)

    def test_heartbeat_ts_external_cold_start_allowed(self):
        """A permanently silent external source still gets fallback values —
        otherwise degradation could never unblock anything."""
        graph, fast, _, _ = build(TimestampKind.EXTERNAL)
        policy = FallbackHeartbeat(heartbeat_period=1.0, external_delta=0.5)
        assert policy.heartbeat_ts(fast, now=7.0) is not None

    def test_heartbeat_ts_latent_is_none(self):
        graph, fast, _, _ = build(TimestampKind.LATENT)
        policy = FallbackHeartbeat(heartbeat_period=1.0)
        assert policy.heartbeat_ts(fast, now=7.0) is None


# --------------------------------------------------------------------- #
# QuarantinePolicy


class TestQuarantinePolicy:
    def test_validation(self):
        with pytest.raises(PolicyError):
            QuarantinePolicy("shrug")

    def test_raise_mode_raises_structured_error(self):
        q = QuarantinePolicy("raise")
        with pytest.raises(TimestampError) as err:
            q.handle(source_name="s", ts=1.0, floor=2.0, now=3.0)
        assert err.value.operator == "s"
        assert err.value.offending_ts == 1.0
        assert err.value.last_seen_ts == 2.0
        assert err.value.fields["kind"] == "quarantine"
        assert q.raised == 1 and q.total == 1

    def test_drop_mode_returns_none_and_counts(self):
        q = QuarantinePolicy("drop")
        stats = EngineStats()
        q.bind(stats=stats)
        assert q.handle(source_name="s", ts=1.0, floor=2.0, now=3.0) is None
        assert q.dropped == 1
        assert stats.quarantine_dropped == 1

    def test_clamp_mode_returns_floor_and_traces(self):
        q = QuarantinePolicy("clamp")
        stats, tracer = EngineStats(), Tracer()
        q.bind(stats=stats, bus=EventBus([tracer]))
        assert q.handle(source_name="s", ts=1.0, floor=2.0, now=3.0) == 2.0
        assert q.clamped == 1
        assert stats.quarantine_clamped == 1
        assert [e.kind for e in tracer.events] == ["quarantine"]

    def test_source_ingest_consults_quarantine(self):
        graph, fast, _, _ = build(TimestampKind.EXTERNAL)
        fast.quarantine = QuarantinePolicy("clamp")
        fast.ingest({"v": 1}, now=1.0, ts=1.0)
        # Regressed: clamped to the frontier, in the stamp and the buffer.
        assert fast.ingest({"v": 2}, now=2.0, ts=0.5) == 1.0
        assert [t.ts for t in fast.outputs[0]] == [1.0, 1.0]
        fast.quarantine = QuarantinePolicy("drop")
        assert fast.ingest({"v": 3}, now=3.0, ts=0.2) is None

    def test_quarantine_floor_includes_punctuation_watermark(self):
        """A fallback heartbeat that outran the application must quarantine
        subsequent older-stamped data, not crash on it."""
        graph, fast, _, _ = build(TimestampKind.EXTERNAL)
        fast.quarantine = QuarantinePolicy("clamp")
        fast.ingest({"v": 1}, now=1.0, ts=1.0)
        fast.inject_punctuation(5.0, origin="fallback:fast")
        assert fast.ingest({"v": 2}, now=6.0, ts=2.0) == 5.0
        assert [t.ts for t in fast.outputs[0]] == [1.0, 5.0, 5.0]
        assert fast.quarantine.clamped == 1

    def test_without_quarantine_watermark_regression_hard_errors(self):
        """Seed behaviour preserved: with no quarantine installed, data
        falling behind a punctuation-advanced watermark is a strict
        (structured) TimestampError — raised by the arc's order enforcement,
        not silently absorbed."""
        graph, fast, _, _ = build(TimestampKind.EXTERNAL)
        fast.ingest({"v": 1}, now=1.0, ts=1.0)
        fast.inject_punctuation(5.0, origin="heartbeat:fast")
        with pytest.raises(TimestampError) as err:
            fast.ingest({"v": 2}, now=6.0, ts=2.0)
        assert err.value.offending_ts == 2.0


# --------------------------------------------------------------------- #
# Kernel integration: the full ladder


class TestKernelIntegration:
    def test_stall_detector_requires_degradable_policy(self):
        graph, *_ = build()
        with pytest.raises(PolicyError, match="FallbackHeartbeat"):
            Simulation(graph, ets_policy=OnDemandEts(),
                       stall_detector=StallDetector(1.0))

    def test_outage_recovery_time_is_bounded(self):
        """The headline claim: with the ladder on, sink silence during a
        fast-stream outage is bounded by timeout + check period + heartbeat
        period — not by the other stream's arrival gaps."""
        from repro.obs.recovery import RecoveryTracker

        graph, fast, slow, sink = build()
        policy = FallbackHeartbeat(OnDemandEts(), heartbeat_period=0.25)
        sim = Simulation(
            graph, ets_policy=policy, cost_model=None,
            stall_detector=StallDetector(1.0, check_period=0.25))
        plan = FaultPlan([SourceOutage("fast", start=5.0, duration=10.0)])
        sim.attach_arrivals(fast, constant_arrivals(10.0), faults=plan)
        # the slow stream keeps carrying data that idle-waits on the dead
        # fast stream at the union — the situation the ladder must unblock
        sim.attach_arrivals(slow, constant_arrivals(4.0))
        tracker = RecoveryTracker().watch(sink)
        sim.run(until=20.0)

        assert sim.engine.stats.degradations >= 1
        assert sim.engine.stats.fallback_heartbeats > 0
        # liveness regained within detection latency + one heartbeat, plus
        # one slow inter-arrival gap for the next deliverable tuple
        assert tracker.max_sink_gap <= 1.0 + 0.25 + 0.25 + 0.25 + 0.05
        assert plan.stats.outage_dropped > 0

    def test_resync_on_recovery_stops_the_train(self):
        graph, fast, slow, sink = build()
        policy = FallbackHeartbeat(OnDemandEts(), heartbeat_period=0.25)
        sim = Simulation(
            graph, ets_policy=policy, cost_model=None,
            stall_detector=StallDetector(1.0, check_period=0.25))
        plan = FaultPlan([SourceOutage("fast", start=5.0, duration=5.0)])
        sim.attach_arrivals(fast, constant_arrivals(10.0), faults=plan)
        # keep the slow source healthy too, so after the outage heals no
        # source is degraded and every fallback train must stop
        sim.attach_arrivals(slow, constant_arrivals(4.0))
        sim.run(until=20.0)

        assert sim.engine.stats.resyncs >= 1
        assert not policy.is_degraded("fast")
        assert not policy.degraded
        count_at_end = sim.engine.stats.fallback_heartbeats
        sim.run(until=25.0)
        assert sim.engine.stats.fallback_heartbeats == count_at_end

    def test_summary_surfaces_ladder_counters(self):
        graph, fast, slow, sink = build()
        policy = FallbackHeartbeat(NoEts(), heartbeat_period=0.5)
        sim = Simulation(graph, ets_policy=policy, cost_model=None,
                         stall_detector=StallDetector(1.0),
                         quarantine=QuarantinePolicy("drop"))
        sim.run(until=5.0)
        summary = sim.summary()
        for key in ("degradations", "resyncs", "fallback_heartbeats",
                    "quarantine_dropped", "quarantine_clamped",
                    "invariant_violations"):
            assert key in summary
        assert summary["degradations"] == 2  # both sources silent

    def test_quarantine_attached_to_all_sources(self):
        graph, fast, slow, _ = build(TimestampKind.EXTERNAL)
        quarantine = QuarantinePolicy("clamp")
        sim = Simulation(graph, ets_policy=NoEts(), quarantine=quarantine)
        assert fast.quarantine is quarantine
        assert slow.quarantine is quarantine

    def test_skew_spike_lands_in_quarantine_not_crash(self):
        """Clock skew past external_delta plus fallback heartbeats: drop and
        clamp modes absorb every regression; nothing unwinds the run."""
        from repro.faults import ClockSkewSpike

        for mode in ("drop", "clamp"):
            graph, fast, slow, sink = build(TimestampKind.EXTERNAL)
            policy = FallbackHeartbeat(
                OnDemandEts(external_delta=0.05), heartbeat_period=0.25,
                external_delta=0.05)
            quarantine = QuarantinePolicy(mode)
            sim = Simulation(
                graph, ets_policy=policy, cost_model=None,
                stall_detector=StallDetector(1.0, check_period=0.25),
                quarantine=quarantine)
            plan = FaultPlan([
                SourceOutage("fast", start=3.0, duration=3.0),
                ClockSkewSpike("fast", start=6.0, duration=2.0, skew=2.0),
            ])
            arrivals = (Arrival(time=0.1 * i, external_ts=0.1 * i,
                                payload={"seq": i}) for i in range(1, 120))
            sim.attach_arrivals(fast, arrivals, faults=plan)
            sim.run(until=12.0)
            assert quarantine.total > 0, mode
            assert quarantine.raised == 0, mode
            assert sink.delivered > 0, mode
