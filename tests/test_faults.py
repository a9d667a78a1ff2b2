"""Unit tests for the fault-injection primitives and plan composition."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import WorkloadError
from repro.core.ets import NoEts, OnDemandEts
from repro.faults import (
    ClockSkewSpike,
    DropTuples,
    DuplicateTuples,
    FaultPlan,
    FaultStats,
    OutOfOrderBurst,
    PunctuationDelay,
    PunctuationLoss,
    SourceOutage,
)
from repro.query.pipeline import Pipeline
from repro.sim.kernel import Arrival, Simulation
from repro.workloads.arrival import constant_arrivals


def arrivals(times, external=False):
    return [Arrival(time=t, payload={"seq": i},
                    external_ts=t if external else None)
            for i, t in enumerate(times)]


def apply(spec, schedule, seed=0):
    plan = FaultPlan([spec], seed=seed)
    return list(plan.wrap(spec.source, iter(schedule))), plan.stats


# --------------------------------------------------------------------- #
# Spec validation


class TestValidation:
    def test_bad_windows_rejected(self):
        with pytest.raises(WorkloadError):
            SourceOutage("s", start=-1.0, duration=5.0)
        with pytest.raises(WorkloadError):
            SourceOutage("s", start=0.0, duration=0.0)
        with pytest.raises(WorkloadError):
            ClockSkewSpike("s", start=0.0, duration=1.0, skew=0.0)
        with pytest.raises(WorkloadError):
            OutOfOrderBurst("s", start=0.0, duration=1.0, max_disorder=-1.0)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(WorkloadError):
            DropTuples("s", probability=1.5)
        with pytest.raises(WorkloadError):
            DuplicateTuples("s", probability=-0.1)
        with pytest.raises(WorkloadError):
            PunctuationLoss("s", probability=2.0)

    def test_bad_outage_mode_rejected(self):
        with pytest.raises(WorkloadError):
            SourceOutage("s", start=0.0, duration=1.0, mode="pause")

    def test_bad_delay_rejected(self):
        with pytest.raises(WorkloadError):
            PunctuationDelay("s", delay=0.0)


# --------------------------------------------------------------------- #
# Arrival-level faults


class TestSourceOutage:
    def test_drop_mode_loses_window_tuples(self):
        out, stats = apply(SourceOutage("s", start=2.0, duration=2.0),
                           arrivals([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert [a.time for a in out] == [1.0, 4.0, 5.0]
        assert stats.outage_dropped == 2
        assert stats.data_lost == 2

    def test_defer_mode_releases_burst_at_recovery(self):
        out, stats = apply(
            SourceOutage("s", start=2.0, duration=2.0, mode="defer"),
            arrivals([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert [a.time for a in out] == [1.0, 4.0, 4.0, 4.0, 5.0]
        # the held tuples come out first at the recovery instant, payloads
        # intact and in their original order
        assert [a.payload["seq"] for a in out] == [0, 1, 2, 3, 4]
        assert stats.deferred == 2
        assert stats.data_lost == 0

    def test_defer_flushes_when_schedule_ends_inside_outage(self):
        out, stats = apply(
            SourceOutage("s", start=2.0, duration=10.0, mode="defer"),
            arrivals([1.0, 3.0, 4.0]))
        assert [a.time for a in out] == [1.0, 12.0, 12.0]
        assert stats.deferred == 2


class TestClockSkewSpike:
    def test_shifts_external_ts_in_window_only(self):
        out, stats = apply(
            ClockSkewSpike("s", start=2.0, duration=2.0, skew=1.5),
            arrivals([1.0, 2.0, 3.0, 4.0], external=True))
        assert [a.external_ts for a in out] == [1.0, 0.5, 1.5, 4.0]
        assert stats.skewed == 2

    def test_internal_arrivals_unaffected(self):
        schedule = arrivals([1.0, 2.0, 3.0])
        out, stats = apply(
            ClockSkewSpike("s", start=0.0, duration=10.0, skew=1.0), schedule)
        assert out == schedule
        assert stats.skewed == 0


class TestDropAndDuplicate:
    def test_probability_one_drops_everything_in_window(self):
        out, stats = apply(DropTuples("s", 1.0, start=2.0, end=4.0),
                           arrivals([1.0, 2.0, 3.0, 4.0]))
        assert [a.time for a in out] == [1.0, 4.0]
        assert stats.dropped == 2

    def test_probability_zero_is_identity(self):
        schedule = arrivals([1.0, 2.0])
        out, stats = apply(DropTuples("s", 0.0), schedule)
        assert out == schedule

    def test_duplicates_preserve_order_and_stamps(self):
        out, stats = apply(DuplicateTuples("s", 1.0),
                           arrivals([1.0, 2.0], external=True))
        assert [a.time for a in out] == [1.0, 1.0, 2.0, 2.0]
        assert [a.external_ts for a in out] == [1.0, 1.0, 2.0, 2.0]
        assert stats.duplicated == 2


class TestOutOfOrderBurst:
    def test_regresses_external_ts_without_clamping(self):
        out, stats = apply(
            OutOfOrderBurst("s", start=0.0, duration=10.0, max_disorder=5.0),
            arrivals([1.0, 2.0, 3.0], external=True))
        assert stats.disordered == 3
        assert all(a.external_ts <= t
                   for a, t in zip(out, [1.0, 2.0, 3.0]))
        assert all(a.external_ts >= t - 5.0
                   for a, t in zip(out, [1.0, 2.0, 3.0]))


# --------------------------------------------------------------------- #
# Plan composition and determinism


class TestFaultPlan:
    def test_wrap_is_deterministic_across_calls(self):
        plan = FaultPlan([DropTuples("s", 0.5),
                          DuplicateTuples("s", 0.5)], seed=7)
        schedule = arrivals([float(i) for i in range(1, 50)])
        first = [(a.time, a.payload["seq"])
                 for a in plan.wrap("s", iter(schedule))]
        second = [(a.time, a.payload["seq"])
                  for a in plan.wrap("s", iter(schedule))]
        assert first == second

    def test_different_seeds_fault_different_tuples(self):
        schedule = arrivals([float(i) for i in range(1, 200)])
        picks = []
        for seed in (1, 2):
            plan = FaultPlan([DropTuples("s", 0.5)], seed=seed)
            picks.append([a.payload["seq"]
                          for a in plan.wrap("s", iter(schedule))])
        assert picks[0] != picks[1]

    def test_specs_compose_in_list_order(self):
        # duplicate-then-outage: duplicates created inside the outage window
        # are swallowed by it; outage-then-duplicate would keep none either
        # way here, so assert via the opposite pairing — an outage upstream
        # of a duplicator means nothing in the window remains to duplicate.
        schedule = arrivals([1.0, 2.5, 4.0])
        plan = FaultPlan([SourceOutage("s", start=2.0, duration=2.0),
                          DuplicateTuples("s", 1.0)], seed=0)
        out = list(plan.wrap("s", iter(schedule)))
        assert [a.time for a in out] == [1.0, 1.0, 4.0, 4.0]
        assert plan.stats.outage_dropped == 1
        assert plan.stats.duplicated == 2

    def test_wrap_ignores_other_sources(self):
        plan = FaultPlan([DropTuples("other", 1.0)])
        schedule = arrivals([1.0, 2.0])
        assert list(plan.wrap("s", iter(schedule))) == schedule

    def test_specs_for_filters_by_source(self):
        drop = DropTuples("a", 1.0)
        spike = ClockSkewSpike("b", start=0.0, duration=1.0, skew=1.0)
        plan = FaultPlan([drop, spike])
        assert plan.specs_for("a") == [drop]
        assert plan.specs_for("b") == [spike]

    def test_stats_reset(self):
        plan = FaultPlan([DropTuples("s", 1.0)])
        list(plan.wrap("s", iter(arrivals([1.0]))))
        assert plan.stats.dropped == 1
        plan.stats.reset()
        assert plan.stats.as_dict() == FaultStats().as_dict()


class TestWrapFeeds:
    def test_faults_per_source_and_remerges_in_time_order(self):
        from oracle import Feed

        feeds = [Feed("a", 1.0, {"n": 1}), Feed("b", 2.0, {"n": 2}),
                 Feed("a", 3.0, {"n": 3}), Feed("b", 4.0, {"n": 4})]
        plan = FaultPlan([SourceOutage("a", start=2.5, duration=2.0)])
        out = plan.wrap_feeds(feeds)
        assert [(f.source, f.time) for f in out] == [
            ("a", 1.0), ("b", 2.0), ("b", 4.0)]
        assert all(isinstance(f, Feed) for f in out)

    def test_empty_feed_list(self):
        assert FaultPlan([]).wrap_feeds([]) == []


# --------------------------------------------------------------------- #
# Punctuation-level faults (installed on a simulation)


def build_sim(**kwargs):
    q = Pipeline("faulted")
    fast = q.source("fast")
    slow = q.source("slow")
    fast.union(slow, name="merge").sink("out")
    graph = q.compile()
    sim = Simulation(graph, **kwargs)
    return sim, graph["fast"], graph["slow"]


class TestPunctuationFaults:
    def test_loss_drops_injections_inside_window(self):
        sim, fast, slow = build_sim(ets_policy=NoEts())
        plan = FaultPlan([PunctuationLoss("slow", start=0.0, end=10.0)])
        plan.install(sim)
        sim.clock.advance_to(5.0)
        assert slow.inject_punctuation(5.0) is False
        assert plan.stats.punctuation_dropped == 1
        sim.clock.advance_to(15.0)
        assert slow.inject_punctuation(15.0) is True
        assert slow.watermark == 15.0

    def test_loss_starves_on_demand_ets(self):
        """With every slow-stream punctuation lost, fast tuples stay gated
        at the union until end of run — the fault scenario B/C both fail
        under, since every punctuation, periodic or on-demand, goes through
        ``inject_punctuation``."""
        def run(lost):
            sim, fast, slow = build_sim(
                ets_policy=OnDemandEts(), cost_model=None)
            if lost:
                FaultPlan([PunctuationLoss("slow")]).install(sim)
            sim.attach_arrivals(fast, constant_arrivals(10.0))
            sim.run(until=5.0)
            return sim.graph["out"].delivered

        assert run(lost=False) > 0
        assert run(lost=True) == 0

    def test_delay_reschedules_through_event_queue(self):
        sim, fast, slow = build_sim(ets_policy=NoEts(), cost_model=None)
        plan = FaultPlan([PunctuationDelay("slow", delay=3.0, end=10.0)])
        plan.install(sim)
        sim.attach_arrivals(fast, constant_arrivals(1.0))
        sim.clock.advance_to(1.0)
        assert slow.inject_punctuation(1.0) is False  # deferred, not applied
        assert plan.stats.punctuation_delayed == 1
        assert slow.watermark < 1.0  # nothing emitted yet
        sim.run(until=6.0)
        assert slow.watermark == 1.0  # the delayed injection landed

    def test_stale_delayed_punctuation_is_discarded(self):
        sim, fast, slow = build_sim(ets_policy=NoEts(), cost_model=None)
        plan = FaultPlan([PunctuationDelay("slow", delay=3.0, end=10.0)])
        plan.install(sim)
        sim.clock.advance_to(1.0)
        slow.inject_punctuation(1.0)  # deferred to t=4
        sim.clock.advance_to(20.0)
        slow.inject_punctuation(20.0)  # outside window: applied immediately
        before = slow.punctuation_injected
        sim.run(until=25.0)  # fires the stale t=4 injection of ts=1.0
        assert slow.punctuation_injected == before  # watermark already past
        assert slow.watermark == 20.0

    def test_install_skips_sources_not_in_graph(self):
        sim, fast, slow = build_sim(ets_policy=NoEts())
        FaultPlan([PunctuationLoss("nope")]).install(sim)  # no error
