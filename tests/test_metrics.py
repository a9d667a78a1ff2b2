"""Tests for metrics: latency recorder, idle tracker, queue summary, report."""

import math

import pytest

from repro.core.buffers import StreamBuffer
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union
from repro.core.operators.base import IwpOperator
from repro.obs import MetricsRegistry
from repro.obs.idle import IdleTracker
from repro.obs.latency import LatencyRecorder
from repro.obs.report import format_series, format_table, format_value
from repro.sim.cost import CostModel
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulation
from repro.workloads.scenarios import (ScenarioConfig, build_join_scenario,
                                       build_union_scenario)

from conftest import OpHarness, PollingIdleTracker


class TestLatencyRecorder:
    def test_basic_statistics(self):
        rec = LatencyRecorder()
        for latency in (0.1, 0.2, 0.3):
            rec.record(latency)
        assert rec.count == 3
        assert rec.mean == pytest.approx(0.2)
        assert rec.max_latency == pytest.approx(0.3)
        assert rec.min_latency == pytest.approx(0.1)

    def test_nan_ignored(self):
        rec = LatencyRecorder()
        rec.record(float("nan"))
        assert rec.count == 0

    def test_empty_mean_is_nan(self):
        assert math.isnan(LatencyRecorder().mean)

    def test_usable_as_sink_callback(self):
        rec = LatencyRecorder()
        rec(None, 0.5)
        assert rec.count == 1

    def test_percentiles(self):
        rec = LatencyRecorder()
        for i in range(1, 101):
            rec.record(float(i))
        assert rec.percentile(0.5) == pytest.approx(50.0, abs=2)
        assert rec.percentile(0.99) == pytest.approx(99.0, abs=2)
        assert rec.percentile(0.0) == 1.0
        assert rec.percentile(1.0) == 100.0

    def test_percentile_bounds_checked(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentile(1.5)

    def test_reservoir_bounded(self):
        rec = LatencyRecorder(reservoir_size=10)
        for i in range(1000):
            rec.record(float(i))
        assert rec.count == 1000
        assert len(rec._reservoir) == 10

    def test_summary_keys(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        assert set(rec.summary()) == {"count", "mean", "max", "min",
                                      "p50", "p99"}


class TestIdleTracker:
    def make_blocked_union(self):
        op = Union("u")
        h = OpHarness(op, n_inputs=2)
        return op, h

    def test_accrues_while_blocked(self):
        op, h = self.make_blocked_union()
        tracker = IdleTracker([op])
        h.feed(0, 1.0)  # blocked: input 1 unknown
        tracker.refresh(1.0)
        tracker.refresh(5.0)
        assert tracker.idle_time("u") == pytest.approx(4.0)
        assert tracker.idle_fraction("u") == pytest.approx(0.8)

    def test_interval_closes_when_unblocked(self):
        op, h = self.make_blocked_union()
        tracker = IdleTracker([op])
        h.feed(0, 1.0)
        tracker.refresh(1.0)
        h.feed(1, 2.0)  # now unblocked
        tracker.refresh(3.0)
        h.run()
        tracker.refresh(10.0)
        assert tracker.idle_time("u") == pytest.approx(2.0)

    def test_open_interval_counts_up_to_now(self):
        op, h = self.make_blocked_union()
        tracker = IdleTracker([op])
        h.feed(0, 1.0)
        tracker.refresh(1.0)
        assert tracker.idle_time("u", now=11.0) == pytest.approx(10.0)

    def test_punctuation_is_not_pending_data(self):
        op, h = self.make_blocked_union()
        tracker = IdleTracker([op])
        h.feed_punctuation(0, 1.0)
        tracker.refresh(1.0)
        tracker.refresh(5.0)
        assert tracker.idle_time("u") == 0.0

    def test_snapshot(self):
        op, h = self.make_blocked_union()
        tracker = IdleTracker([op])
        h.feed(0, 1.0)
        tracker.refresh(0.0)
        tracker.refresh(10.0)
        assert set(tracker.snapshot()) == {"u"}

    def test_zero_duration_fraction(self):
        op, _ = self.make_blocked_union()
        tracker = IdleTracker([op])
        assert tracker.idle_fraction("u") == 0.0


class TeeIdleTracker(IdleTracker):
    """The tracker under test, with the polling reference model fed the
    same refresh calls."""

    def __init__(self, operators, start_time: float = 0.0) -> None:
        super().__init__(operators, start_time)
        self.reference = PollingIdleTracker(operators, start_time)

    def refresh(self, now: float) -> None:
        super().refresh(now)
        self.reference.refresh(now)


#: (label, builder, scenario, heartbeat rate, idle-fraction band of E3)
IDLE_CASES = [
    ("A", build_union_scenario, "A", None, (0.90, 1.0)),
    ("B@10", build_union_scenario, "B", 10.0, None),
    ("B@100", build_union_scenario, "B", 100.0, (0.05, 0.40)),
    ("C", build_union_scenario, "C", None, (0.0, 0.005)),
    ("C-join", build_join_scenario, "C", None, (0.0, 0.005)),
]


class TestIdleAccountingIsExact:
    """Reading the memoised gate changes what a refresh costs, never what
    it records: per operator the accrued idle time is ``==`` the polling
    tracker's, not approximately equal."""

    @pytest.mark.parametrize("zero_cost", [False, True],
                             ids=["calibrated", "zero-cost"])
    @pytest.mark.parametrize("batch_size", [1, 64])
    @pytest.mark.parametrize("case", IDLE_CASES, ids=lambda c: c[0])
    def test_equals_polling_reference(self, case, batch_size, zero_cost):
        _, build, scenario, heartbeat_rate, band = case
        handles = build(ScenarioConfig(
            scenario=scenario, heartbeat_rate=heartbeat_rate, duration=20.0,
            batch_size=batch_size,
            cost_model=CostModel.zero() if zero_cost else None))
        sim = handles.sim
        tee = TeeIdleTracker(sim.idle_tracker.operators)
        sim.idle_tracker = sim.engine.idle_tracker = tee
        handles.run()
        assert sim.engine.stats.steps > 500
        for op in tee.operators:
            assert tee.idle_time(op.name) == tee.reference.idle_time(op.name)
        if band is not None:
            low, high = band
            assert low <= sim.idle_fraction(handles.iwp.name) < high

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_the_saving_is_a_count(self, batch_size, monkeypatch):
        """Scenario C, ~2,000 arrivals: the gate is evaluated per input
        *mutation*, not per question; the tracker judges each gate once;
        the pump calls the kernel only when an event is due, and the
        kernel pops only due events."""
        calls = {"evaluations": 0, "mutations": 0, "pumps": 0, "head_ts": 0,
                 "pop_due": 0, "fired": 0}
        judged = []  # every gate whose idle bit a tracker refresh read
        refreshing = [False]

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        class Gate(tuple):
            def __getitem__(self, index):
                if index == 4 and refreshing[0]:
                    judged.append(self)
                return tuple.__getitem__(self, index)

        evaluate, refresh = IwpOperator._evaluate_gate, IdleTracker.refresh

        def evaluate_gate(op):
            calls["evaluations"] += 1
            op._gate = gate = Gate(evaluate(op))
            return gate

        def refresh_judging(tracker, now):
            refreshing[0] = True
            try:
                refresh(tracker, now)
            finally:
                refreshing[0] = False

        def firing(fn):
            def wrapper(*args):
                event = fn(*args)
                calls["fired"] += event is not None
                return event
            return wrapper

        monkeypatch.setattr(IwpOperator, "_evaluate_gate", evaluate_gate)
        monkeypatch.setattr(IdleTracker, "refresh", refresh_judging)
        monkeypatch.setattr(StreamBuffer, "head_ts", counted(
            StreamBuffer.head_ts, "head_ts"))
        monkeypatch.setattr(EventQueue, "pop_due", firing(counted(
            EventQueue.pop_due, "pop_due")))
        monkeypatch.setattr(EventQueue, "pop_next",
                            firing(EventQueue.pop_next))
        handles = build_union_scenario(ScenarioConfig(
            scenario="C", rate_fast=200.0, duration=10.0,
            batch_size=batch_size))
        engine = handles.sim.engine
        engine.deliver_due = counted(engine.deliver_due, "pumps")
        for buf in handles.iwp.inputs:
            buf.on_change = counted(buf.on_change, "mutations")
        handles.run()
        stats, arrivals = engine.stats, handles.sim.arrivals_delivered
        assert arrivals > 1_800 and stats.ets_injected > 1_000
        assert calls["evaluations"] <= calls["mutations"] + stats.rounds
        assert calls["pumps"] <= calls["fired"] + stats.rounds
        assert calls["head_ts"] <= 30 * arrivals
        # No gate is judged twice, so an unchanged gate is never re-judged.
        assert 0 < len({id(g) for g in judged}) == len(judged)
        assert calls["pop_due"] <= calls["fired"] + stats.rounds


class TestQueueSummary:
    def test_shape(self):
        """The occupancy figures ``MetricsRegistry.absorb_simulation``
        folds in: peak, current total, one depth per buffer."""
        g = QueryGraph("g")
        src = g.add_source("src")
        sel = g.add(Select("sel", lambda p: True))
        sink = g.add_sink("sink")
        g.connect(src, sel)
        g.connect(sel, sink)
        sim = Simulation(g)
        src.ingest({}, now=1.0)
        snap = MetricsRegistry().absorb_simulation(sim).as_dict()
        assert snap["repro_queue{field=current_total}"] == 1
        assert snap["repro_queue{field=peak_total}"] == 1
        assert snap["repro_queue{buffer=src->sel,field=depth}"] == 1
        assert snap["repro_queue{buffer=sel->sink,field=depth}"] == 0
        assert snap["repro_queue{field=punctuation_enqueued}"] == 0


class TestReport:
    def test_format_value(self):
        assert format_value(12) == "12"
        assert format_value(1234567) == "1,234,567"
        assert format_value(0.5) == "0.5"
        assert format_value(1.23456e-7) == "1.235e-07"
        assert format_value(float("nan")) == "-"
        assert format_value("text") == "text"
        assert format_value(True) == "True"
        assert format_value(0.0) == "0"

    def test_format_table_aligns(self):
        table = format_table(["a", "long_header"],
                             [[1, 2], [333, 4]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "long_header" in lines[1]
        assert len({len(line) for line in lines[2:]}) == 1

    def test_format_series_plots(self):
        out = format_series([(1, 10.0), (2, 100.0), (3, 1000.0)],
                            log_y=True, title="S")
        assert out.startswith("S")
        assert "*" in out

    def test_format_series_empty(self):
        assert format_series([], title="none") == "none"
