"""Tests for the runtime invariant monitors (halt vs degrade)."""

from __future__ import annotations

import pytest

from repro.core.errors import (InvariantViolation, PolicyError,
                               TimestampError)
from repro.core.ets import NoEts
from repro.core.tuples import DataTuple, TimestampKind
from repro.faults import InvariantMonitor
from repro.obs import EventBus, Tracer
from repro.query.pipeline import Pipeline
from repro.sim.kernel import Simulation
from repro.workloads.arrival import constant_arrivals


def build():
    q = Pipeline("monitored")
    fast = q.source("fast")
    slow = q.source("slow")
    fast.union(slow, name="merge").sink("out")
    graph = q.compile()
    return graph, graph["fast"], graph["slow"], graph["out"]


class TestConfiguration:
    def test_bad_mode_rejected(self):
        with pytest.raises(PolicyError):
            InvariantMonitor(mode="panic")

    def test_bad_ceiling_rejected(self):
        with pytest.raises(PolicyError):
            InvariantMonitor(max_total_buffered=0)


class TestSinkMonotonicity:
    def deliver(self, sink, ts):
        sink.on_output(DataTuple(ts=ts, payload=None,
                                 kind=TimestampKind.INTERNAL,
                                 arrival_ts=ts), 0.0)

    def test_monotone_deliveries_pass(self):
        graph, _, _, sink = build()
        monitor = InvariantMonitor().install(graph)
        for ts in (1.0, 2.0, 2.0, 3.0):
            self.deliver(sink, ts)
        assert monitor.violations == 0

    def test_regression_halts_in_halt_mode(self):
        graph, _, _, sink = build()
        monitor = InvariantMonitor().install(graph)
        self.deliver(sink, 5.0)
        with pytest.raises(InvariantViolation) as err:
            self.deliver(sink, 4.0)
        assert err.value.offending_ts == 4.0
        assert err.value.last_seen_ts == 5.0

    def test_regression_counts_in_degrade_mode(self):
        graph, _, _, sink = build()
        tracer = Tracer()
        monitor = InvariantMonitor(mode="degrade").install(graph)
        monitor.bus = EventBus([tracer])
        self.deliver(sink, 5.0)
        self.deliver(sink, 4.0)
        self.deliver(sink, 6.0)
        assert monitor.violations == 1
        assert monitor.recorded and "non-monotone" in monitor.recorded[0]
        assert [e.kind for e in tracer.events] == ["violation"]

    def test_wrapping_preserves_existing_callback(self):
        graph, _, _, sink = build()
        seen = []
        sink.on_output = lambda tup, latency: seen.append(tup.ts)
        InvariantMonitor().install(graph)
        self.deliver(sink, 1.0)
        assert seen == [1.0]


class TestRegisterMonotonicity:
    def test_register_progress_updates_floor(self):
        graph, fast, _, _ = build()
        monitor = InvariantMonitor().install(graph)
        buf = fast.outputs[0]
        buf.register.update(3.0)
        assert monitor.check(now=1.0) == 0
        buf.register.update(5.0)
        assert monitor.check(now=2.0) == 0

    def test_register_regression_detected(self):
        graph, fast, _, _ = build()
        monitor = InvariantMonitor(mode="degrade").install(graph)
        buf = fast.outputs[0]
        buf.register.update(5.0)
        monitor.check(now=1.0)
        buf.register.reset()  # forced regression back to LATENT_TS
        assert monitor.check(now=2.0) == 1
        assert any("regressed" in m for m in monitor.recorded)

    def test_register_regression_raises_in_halt_mode(self):
        graph, fast, _, _ = build()
        monitor = InvariantMonitor().install(graph)
        buf = fast.outputs[0]
        buf.register.update(5.0)
        monitor.check(now=1.0)
        buf.register.reset()
        with pytest.raises(InvariantViolation):
            monitor.check(now=2.0)


class TestBoundedGrowth:
    def test_under_ceiling_passes(self):
        graph, fast, _, _ = build()
        monitor = InvariantMonitor(max_total_buffered=10).install(graph)
        for i in range(5):
            fast.ingest({"n": i}, now=float(i))
        assert monitor.check(now=5.0) == 0

    def test_over_ceiling_detected(self):
        graph, fast, _, _ = build()
        monitor = InvariantMonitor(max_total_buffered=3,
                                   mode="degrade").install(graph)
        for i in range(6):
            fast.ingest({"n": i}, now=float(i))
        assert monitor.check(now=6.0) == 1
        assert any("ceiling" in m for m in monitor.recorded)

    def test_no_ceiling_disables_the_check(self):
        graph, fast, _, _ = build()
        monitor = InvariantMonitor().install(graph)
        for i in range(100):
            fast.ingest({"n": i}, now=float(i))
        assert monitor.check(now=100.0) == 0


class TestIngestViolationBridge:
    def test_buffer_violation_traced_before_raise(self):
        graph, fast, _, _ = build()
        tracer = Tracer()
        monitor = InvariantMonitor().install(graph)
        monitor.bus = EventBus([tracer])
        fast.ingest({"n": 1}, now=2.0)
        fast.inject_punctuation(5.0)
        with pytest.raises(TimestampError):
            # stale punctuation is skipped, but a stale *data* push violates
            # the arc order — the monitor must see it before the raise
            fast.emit(DataTuple(ts=1.0, payload=None,
                                kind=TimestampKind.INTERNAL, arrival_ts=1.0))
        assert monitor.ingest_violations == 1
        assert [e.kind for e in tracer.events] == ["violation"]
        assert "out-of-order" in tracer.events[0].detail


class TestEngineIntegration:
    def test_simulation_runs_checks_every_round(self):
        graph, fast, slow, _ = build()
        monitor = InvariantMonitor(max_total_buffered=1_000, mode="degrade")
        sim = Simulation(graph, ets_policy=NoEts(), cost_model=None,
                         monitor=monitor)
        sim.attach_arrivals(fast, constant_arrivals(10.0))
        sim.attach_arrivals(slow, constant_arrivals(10.0))
        sim.run(until=5.0)
        assert monitor.violations == 0
        assert sim.engine.stats.invariant_violations == 0
        assert sim.summary()["invariant_violations"] == 0

    def test_degrade_mode_counts_into_engine_stats(self):
        graph, fast, slow, _ = build()
        # a ceiling low enough that normal buffering trips it
        monitor = InvariantMonitor(max_total_buffered=1, mode="degrade")
        sim = Simulation(graph, ets_policy=NoEts(), cost_model=None,
                         monitor=monitor)
        sim.attach_arrivals(fast, constant_arrivals(50.0))
        sim.run(until=2.0)
        assert monitor.violations > 0
        assert sim.engine.stats.invariant_violations == monitor.violations
