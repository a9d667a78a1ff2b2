"""Chaos suite: the differential oracle replayed under fault plans.

Satellite of the fault-injection PR: every fault primitive is composed with
every ETS mode (NoEts / periodic punctuation / OnDemandEts) and both the
scalar (``batch_size=1``) and columnar (``batch_size > 1``) transports,
reusing the PR-1 :class:`~oracle.DifferentialOracle` — which asserts
``stats.blocks > 0`` on every ``batch_size > 1`` run, so the matrix is on
the production transport.  The acceptance claims checked here:

* faults change *which* tuples exist, never engine equivalence — scalar and
  block runs, and all ETS modes, deliver identical faulted data;
* nothing is silently lost: sinks deliver exactly the fed tuples minus the
  losses the fault stats account for;
* sinks stay timestamp-monotone under every fault plan;
* drop/clamp quarantine modes absorb timestamp regressions without any
  unhandled exception;
* under on-demand ETS alone, time-to-liveness after a source outage is
  bounded.
"""

from __future__ import annotations

import pytest
from oracle import DifferentialOracle, Feed

from repro.core.ets import NoEts, OnDemandEts
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union
from repro.core.tuples import TimestampKind
from repro.faults import (
    ClockSkewSpike,
    DropTuples,
    DuplicateTuples,
    FaultPlan,
    OutOfOrderBurst,
    QuarantinePolicy,
    SourceOutage,
)

BATCH_SIZES = (2, 3, 8, 64)


def build_internal() -> QueryGraph:
    graph = QueryGraph("chaos-union")
    a = graph.add_source("a", TimestampKind.INTERNAL)
    b = graph.add_source("b", TimestampKind.INTERNAL)
    union = graph.add(Union("union"))
    sink = graph.add_sink("sink")
    graph.connect(a, union)
    graph.connect(b, union)
    graph.connect(union, sink)
    return graph


def build_external(quarantine_mode: str | None = None):
    def factory() -> QueryGraph:
        graph = QueryGraph("chaos-external")
        a = graph.add_source("a", TimestampKind.EXTERNAL)
        b = graph.add_source("b", TimestampKind.EXTERNAL)
        union = graph.add(Union("union"))
        sink = graph.add_sink("sink")
        graph.connect(a, union)
        graph.connect(b, union)
        graph.connect(union, sink)
        if quarantine_mode is not None:
            quarantine = QuarantinePolicy(quarantine_mode)
            a.quarantine = quarantine
            b.quarantine = quarantine
        return graph

    return factory


def internal_feeds(n=120):
    # interleaved arrivals on both streams, distinct payloads, no ties
    feeds = []
    for i in range(n):
        source = "a" if i % 2 == 0 else "b"
        feeds.append(Feed(source, 0.25 * (i + 1), {"seq": i}))
    return feeds


def external_feeds(n=120):
    return [Feed("a" if i % 2 == 0 else "b", 0.25 * (i + 1),
                 {"seq": i}, external_ts=0.25 * (i + 1) - 0.01)
            for i in range(n)]


#: One representative plan per arrival-level fault primitive, plus a
#: composition of all of them.  Times sit inside the feeds' [0.25, 30] span.
PLANS = {
    "outage-drop": lambda: FaultPlan(
        [SourceOutage("a", start=5.0, duration=10.0)], seed=3),
    "outage-defer": lambda: FaultPlan(
        [SourceOutage("a", start=5.0, duration=10.0, mode="defer")], seed=3),
    "drop": lambda: FaultPlan([DropTuples("b", 0.3)], seed=3),
    "duplicate": lambda: FaultPlan([DuplicateTuples("a", 0.3)], seed=3),
    "composed": lambda: FaultPlan([
        SourceOutage("a", start=5.0, duration=5.0),
        DropTuples("b", 0.2),
        DuplicateTuples("b", 0.2),
    ], seed=3),
}


class TestFaultedOracle:
    """Engine equivalence must survive every fault plan."""

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_batched_equals_scalar_under_faults(self, plan_name):
        plan = PLANS[plan_name]()
        faulted = plan.wrap_feeds(internal_feeds())
        oracle = DifferentialOracle(build_internal, faulted,
                                    chunk=7, punctuate_every=2)
        oracle.assert_run_equals_scalar(BATCH_SIZES)
        oracle.assert_run_equals_scalar(
            BATCH_SIZES, ets_policy_factory=OnDemandEts)

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_ets_modes_agree_under_faults(self, plan_name):
        plan = PLANS[plan_name]()
        faulted = plan.wrap_feeds(internal_feeds())
        oracle = DifferentialOracle(build_internal, faulted,
                                    chunk=7, punctuate_every=2)
        # covers NoEts vs OnDemandEts vs periodic punctuation, scalar and
        # block runs
        oracle.assert_ets_invariant()
        oracle.assert_ets_invariant(batch_size=8)

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_no_silent_tuple_loss(self, plan_name):
        plan = PLANS[plan_name]()
        feeds = internal_feeds()
        faulted = plan.wrap_feeds(feeds)
        # the faulted schedule itself accounts for every loss and gain
        assert len(faulted) == (len(feeds) - plan.stats.data_lost
                                + plan.stats.duplicated)
        oracle = DifferentialOracle(build_internal, faulted, chunk=7)
        for batch_size in (1, 8):
            records = oracle.run(batch_size=batch_size,
                                 ets_policy=OnDemandEts())
            assert len(records) == len(faulted)

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_sinks_stay_timestamp_monotone(self, plan_name):
        plan = PLANS[plan_name]()
        faulted = plan.wrap_feeds(internal_feeds())
        oracle = DifferentialOracle(build_internal, faulted, chunk=7)
        for policy in (NoEts, OnDemandEts):
            records = oracle.run(batch_size=1, ets_policy=policy())
            stamps = [ts for _, ts, _ in records]
            assert stamps == sorted(stamps), plan_name


class TestExternalTimestampFaults:
    """Skew and disorder faults against externally timestamped streams."""

    @pytest.mark.parametrize("mode", ("drop", "clamp"))
    @pytest.mark.parametrize("batch_size", (1, 8))
    def test_quarantine_absorbs_skew_without_crash(self, mode, batch_size):
        plan = FaultPlan([
            ClockSkewSpike("a", start=5.0, duration=10.0, skew=3.0),
        ], seed=5)
        faulted = plan.wrap_feeds(external_feeds())
        oracle = DifferentialOracle(build_external(mode), faulted, chunk=7)
        records = oracle.run(batch_size=batch_size,
                             ets_policy=OnDemandEts(external_delta=0.05))
        assert plan.stats.skewed > 0
        assert records  # survived and delivered
        stamps = [ts for _, ts, _ in records]
        assert stamps == sorted(stamps)

    @pytest.mark.parametrize("mode", ("drop", "clamp"))
    def test_quarantine_absorbs_disorder_without_crash(self, mode):
        plan = FaultPlan([
            OutOfOrderBurst("b", start=5.0, duration=10.0, max_disorder=2.0),
        ], seed=5)
        faulted = plan.wrap_feeds(external_feeds())
        oracle = DifferentialOracle(build_external(mode), faulted, chunk=7)
        records = oracle.run(batch_size=1, ets_policy=NoEts())
        assert plan.stats.disordered > 0
        assert records

    def test_drop_mode_loses_exactly_the_quarantined(self):
        plan = FaultPlan([
            ClockSkewSpike("a", start=5.0, duration=10.0, skew=3.0),
        ], seed=5)
        faulted = plan.wrap_feeds(external_feeds())
        graphs = []

        def factory():
            graphs.append(build_external("drop")())
            return graphs[-1]

        oracle = DifferentialOracle(factory, faulted, chunk=7)
        records = oracle.run(batch_size=1, ets_policy=NoEts())
        quarantine = graphs[-1]["a"].quarantine
        assert quarantine.dropped > 0
        assert len(records) == len(faulted) - quarantine.dropped


class TestEndToEndRecovery:
    """Kernel-level chaos run: the experiment behind claim X8."""

    def test_bounded_time_to_liveness_under_on_demand_ets(self):
        from repro.experiments.chaos import ChaosConfig, run_chaos_experiment

        config = ChaosConfig(duration=60.0, rate_fast=20.0, rate_slow=1.0,
                             outage_start=15.0, outage_duration=20.0)
        report = run_chaos_experiment(config)
        # every tuple arriving in the outage left at the wake-up it caused
        assert report.outage_wakeups == 1
        assert report.time_to_liveness is not None
        assert report.time_to_liveness < config.outage_duration / 2
        assert report.summary["ets_injected"] > 0
        assert report.monitor_violations == 0
        assert report.fault_stats["outage_dropped"] > 0

    def test_on_demand_bounds_what_no_ets_cannot(self):
        from repro.experiments.chaos import ChaosConfig, run_chaos_experiment

        # Without ETS (scenarios A/B), slow tuples arriving during the fast
        # outage stay gated until the outage heals; on-demand ETS (scenario
        # C) punctuates the dead stream at each wake-up that backtracks to
        # it, so they flow.
        kwargs = dict(duration=60.0, rate_fast=20.0, rate_slow=1.0,
                      outage_start=15.0, outage_duration=20.0, seed=11)
        on_demand = run_chaos_experiment(ChaosConfig(**kwargs))
        without = run_chaos_experiment(ChaosConfig(base_ets="none", **kwargs))
        # baseline: slow tuples of the whole outage window pile up and flush
        # only when the fast stream returns — silence spans the outage
        assert without.max_sink_gap >= 15.0
        assert without.outage_wakeups > 10
        assert without.time_to_liveness >= 15.0
        # on-demand: sink silence tracks slow inter-arrival gaps
        assert on_demand.max_sink_gap < 10.0
        assert on_demand.max_sink_gap < without.max_sink_gap
        assert on_demand.outage_wakeups == 1

    @pytest.mark.parametrize("mode", ("drop", "clamp"))
    def test_external_chaos_completes_in_quarantine_modes(self, mode):
        from repro.experiments.chaos import ChaosConfig, run_chaos_experiment

        config = ChaosConfig(duration=40.0, rate_fast=20.0, rate_slow=1.0,
                             external=True, outage_start=10.0,
                             outage_duration=10.0, skew_spike=2.0,
                             skew_spike_start=25.0, skew_spike_duration=5.0,
                             quarantine_mode=mode, batch_size=1)
        report = run_chaos_experiment(config)  # must not raise
        assert report.delivered > 0
        assert report.quarantine_raised == 0
        assert (report.summary["quarantine_dropped"]
                + report.summary["quarantine_clamped"]) > 0
        assert report.monitor_violations == 0

    def test_batched_engine_survives_the_same_chaos(self):
        from repro.experiments.chaos import ChaosConfig, run_chaos_experiment

        config = ChaosConfig(duration=40.0, rate_fast=20.0, rate_slow=1.0,
                             outage_start=10.0, outage_duration=10.0,
                             batch_size=8)
        report = run_chaos_experiment(config)
        assert report.delivered > 0
        assert report.outage_wakeups == 1
        assert report.monitor_violations == 0
