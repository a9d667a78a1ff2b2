"""Tests for the fault path that remains: quarantine, and liveness through an
outage under plain on-demand ETS (no second liveness mechanism)."""

from __future__ import annotations

import pytest

from repro.core.errors import PolicyError, TimestampError
from repro.core.ets import NoEts, OnDemandEts
from repro.core.execution import EngineStats
from repro.core.tuples import TimestampKind
from repro.faults import FaultPlan, QuarantinePolicy, SourceOutage
from repro.obs import EventBus, Observer, Tracer
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
        """An ETS value that outran the application (a clock spike past δ)
        must quarantine subsequent older-stamped data, not crash on it."""
        graph, fast, _, _ = build(TimestampKind.EXTERNAL)
        fast.quarantine = QuarantinePolicy("clamp")
        fast.ingest({"v": 1}, now=1.0, ts=1.0)
        fast.inject_punctuation(5.0, origin="ets:fast")
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
# Kernel integration: on-demand ETS through an outage, quarantine


class TestKernelIntegration:
    def test_outage_recovery_time_is_bounded(self):
        """The headline claim: with on-demand ETS, a fast-stream outage
        never silences the sink for longer than the slow stream's own
        inter-arrival gap — every slow tuple is released at the wake-up its
        arrival triggers, because backtracking punctuates the dead stream."""
        from repro.obs.recovery import RecoveryTracker

        graph, fast, slow, sink = build()
        sim = Simulation(graph, ets_policy=OnDemandEts(), cost_model=None)
        plan = FaultPlan([SourceOutage("fast", start=5.0, duration=10.0)])
        sim.attach_arrivals(fast, constant_arrivals(10.0), faults=plan)
        # the slow stream keeps carrying data that would idle-wait on the
        # dead fast stream at the union without ETS
        sim.attach_arrivals(slow, constant_arrivals(4.0))
        tracker = RecoveryTracker().watch(sink)
        sim.run(until=20.0)

        assert plan.stats.outage_dropped > 0
        assert fast.punctuation_injected > 0
        # one slow gap (0.25 s) plus the cost of the wake-up delivering it
        assert tracker.max_sink_gap <= 0.25 + 1e-3
        assert tracker.time_to_liveness(after=5.0) <= 0.25 + 1e-3

    def test_summary_surfaces_ladder_counters(self):
        """The fault counters that remain (quarantine, invariant monitor)
        are in the summary; the heartbeat-ladder ones are gone."""
        graph, fast, slow, sink = build()
        sim = Simulation(graph, ets_policy=NoEts(), cost_model=None,
                         quarantine=QuarantinePolicy("drop"))
        sim.run(until=5.0)
        summary = sim.summary()
        for key in ("quarantine_dropped", "quarantine_clamped",
                    "invariant_violations"):
            assert summary[key] == 0
        for key in ("degradations", "resyncs", "fallback_heartbeats"):
            assert key not in summary
            assert not hasattr(sim.engine.stats, key)

    def test_quarantine_attached_to_all_sources(self):
        graph, fast, slow, _ = build(TimestampKind.EXTERNAL)
        quarantine = QuarantinePolicy("clamp")
        sim = Simulation(graph, ets_policy=NoEts(), quarantine=quarantine)
        assert fast.quarantine is quarantine
        assert slow.quarantine is quarantine

    def test_an_observer_attached_later_hears_quarantine(self):
        """The kernel binds the policy to the engine, not to its bus as it
        was at construction (None without observers): an observer the
        engine gains later hears every quarantine decision."""
        class Faults(Observer):
            def __init__(self):
                self.kinds = []

            def on_fault(self, *, kind, **_):
                self.kinds.append(kind)

        graph, fast, _, _ = build(TimestampKind.EXTERNAL)
        quarantine = QuarantinePolicy("drop")
        sim = Simulation(graph, ets_policy=NoEts(), cost_model=None,
                         quarantine=quarantine)
        heard = Faults()
        sim.engine.attach_observer(heard)
        sim.attach_arrivals(fast, iter([
            Arrival(time=0.1, external_ts=2.0, payload={"seq": 0}),
            Arrival(time=0.2, external_ts=1.0, payload={"seq": 1})]))
        sim.run(until=1.0)
        assert sim.engine.stats.quarantine_dropped == 1
        assert heard.kinds.count("quarantine") == 1

    def test_skew_spike_lands_in_quarantine_not_crash(self):
        """Clock skew past external_delta under on-demand ETS: the ETS
        values sent for the fast stream outrun its skewed timestamps, and
        drop and clamp modes absorb every regression; nothing unwinds the
        run."""
        from repro.faults import ClockSkewSpike

        for mode in ("drop", "clamp"):
            graph, fast, slow, sink = build(TimestampKind.EXTERNAL)
            quarantine = QuarantinePolicy(mode)
            sim = Simulation(graph, ets_policy=OnDemandEts(external_delta=0.05),
                             cost_model=None, quarantine=quarantine)
            plan = FaultPlan([
                SourceOutage("fast", start=3.0, duration=3.0),
                ClockSkewSpike("fast", start=6.0, duration=2.0, skew=2.0),
            ])
            arrivals = (Arrival(time=0.1 * i, external_ts=0.1 * i,
                                payload={"seq": i}) for i in range(1, 120))
            sim.attach_arrivals(fast, arrivals, faults=plan)
            # the slow stream gives the skew bound a basis on both inputs
            sim.attach_arrivals(slow, (
                Arrival(time=0.25 * i + 0.01, external_ts=0.25 * i,
                        payload={"slow": i}) for i in range(1, 48)))
            sim.run(until=12.0)
            assert plan.stats.skewed > 0, mode
            assert quarantine.total > 0, mode
            assert quarantine.raised == 0, mode
            assert sink.delivered > 0, mode
