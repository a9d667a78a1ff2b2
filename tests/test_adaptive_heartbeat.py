"""Direct unit tests for :class:`AdaptiveHeartbeatSchedule` mechanics.

``test_adaptive.py`` exercises end-to-end adaptation behaviour under
simulated workloads; this module pins the schedule's *contract* instead:
the exact rate arithmetic, the estimation-window hold, clamping of held
estimates, and the way the kernel consumes the ``PeriodicEtsSchedule``
interface (bind-before-inject, per-injection ``next_period`` re-query,
quiescent min-rate grid).
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import PolicyError
from repro.core.ets import AdaptiveHeartbeatSchedule, NoEts, OnDemandEts
from repro.core.graph import QueryGraph
from repro.core.operators import Union
from repro.core.tuples import TimestampKind
from repro.query.pipeline import Pipeline
from repro.sim.kernel import Simulation
from repro.workloads.arrival import poisson_arrivals


def build():
    q = Pipeline("adaptive-direct")
    fast = q.source("fast")
    slow = q.source("slow")
    fast.union(slow, name="merge").sink("out")
    graph = q.compile()
    return graph, graph["fast"], graph["slow"], graph["out"]


class TestRateArithmetic:
    def test_cold_start_period_is_min_rate(self):
        graph, fast, slow, _ = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.25)
        sched.bind(graph)
        assert sched.next_period(slow, now=0.0) == pytest.approx(4.0)

    def test_exact_rate_after_window(self):
        graph, fast, slow, _ = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.1,
                                          max_rate=1000.0)
        sched.bind(graph)
        sched.next_period(slow, now=0.0)  # primes the (t, count) baseline
        fast.ingested_count = 20
        # 20 tuples over 2 s -> 10/s -> 0.1 s period, exactly
        assert sched.next_period(slow, now=2.0) == pytest.approx(0.1)

    def test_idle_driver_clamps_to_min_rate(self):
        graph, fast, slow, _ = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.5)
        sched.bind(graph)
        sched.next_period(slow, now=0.0)
        # no driver traffic at all: raw rate 0 clamps up to min_rate
        assert sched.next_period(slow, now=10.0) == pytest.approx(2.0)


class TestEstimationWindowHold:
    def make(self, **kwargs):
        graph, fast, slow, _ = build()
        defaults = dict(min_rate=0.1, max_rate=1000.0)
        defaults.update(kwargs)
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, **defaults)
        sched.bind(graph)
        return sched, fast, slow

    def test_short_gap_holds_previous_estimate(self):
        sched, fast, slow = self.make()
        sched.next_period(slow, now=0.0)
        fast.ingested_count = 50
        assert sched.next_period(slow, now=2.0) == pytest.approx(1 / 25.0)
        # a burst arriving within the window must not whipsaw the estimate
        fast.ingested_count = 1_050
        assert sched.next_period(slow, now=2.5) == pytest.approx(1 / 25.0)

    def test_hold_does_not_consume_the_baseline(self):
        sched, fast, slow = self.make()
        sched.next_period(slow, now=0.0)
        fast.ingested_count = 50
        sched.next_period(slow, now=2.0)       # baseline now (2.0, 50)
        fast.ingested_count = 1_050
        sched.next_period(slow, now=2.5)       # held — baseline untouched
        # next full-window estimate spans from t=2.0: (1050-50)/2 = 500/s
        assert sched.next_period(slow, now=4.0) == pytest.approx(1 / 500.0)

    def test_hold_returns_the_clamped_rate(self):
        sched, fast, slow = self.make(min_rate=1.0, max_rate=10.0)
        sched.next_period(slow, now=0.0)
        fast.ingested_count = 10_000
        assert sched.next_period(slow, now=1.0) == pytest.approx(0.1)
        # the held value is the clamped estimate, not the raw 10k/s
        assert sched.next_period(slow, now=1.5) == pytest.approx(0.1)


class TestScheduleContract:
    def test_applies_only_to_driven_sources(self):
        graph, fast, slow, _ = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.5)
        sched.bind(graph)
        assert sched.applies_to(slow)
        assert not sched.applies_to(fast)
        assert sched.period_for("fast") is None
        assert sched.period_for("slow") == pytest.approx(2.0)

    def test_latent_sources_are_never_punctuated(self):
        graph = QueryGraph("latent")
        lat = graph.add_source("lat", TimestampKind.LATENT)
        other = graph.add_source("other")
        union = graph.add(Union("union"))
        graph.add_sink("out")
        graph.connect(lat, union)
        graph.connect(other, union)
        graph.connect(union, graph["out"])
        sched = AdaptiveHeartbeatSchedule({"lat": "other"})
        sched.bind(graph)
        assert not sched.applies_to(lat)


class TestKernelInteraction:
    def test_bind_failure_surfaces_at_run(self):
        graph, fast, slow, _ = build()
        sim = Simulation(graph, ets_policy=NoEts(),
                         periodic=AdaptiveHeartbeatSchedule({"slow": "nope"}))
        with pytest.raises(PolicyError, match="driver"):
            sim.run(until=1.0)

    def test_quiescent_schedule_keeps_min_rate_grid(self):
        graph, fast, slow, _ = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.5)
        sim = Simulation(graph, ets_policy=NoEts(), periodic=sched)
        sim.run(until=10.0)  # no arrivals at all
        # period stays 1/min_rate = 2 s: heartbeats at 2, 4, 6, 8 (and
        # possibly one landing exactly on the horizon)
        assert 4 <= slow.punctuation_injected <= 5

    def test_kernel_requeries_period_every_injection(self):
        graph, fast, slow, _ = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.5)
        calls = []
        orig = sched.next_period

        def spy(source, now):
            calls.append(now)
            return orig(source, now)

        sched.next_period = spy
        sim = Simulation(graph, ets_policy=NoEts(), periodic=sched)
        sim.run(until=10.0)
        assert len(calls) == slow.punctuation_injected
        assert calls == sorted(calls)

    def test_coexists_with_on_demand_ets(self):
        graph, fast, slow, sink = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.5,
                                          max_rate=100.0)
        sim = Simulation(graph, ets_policy=OnDemandEts(), periodic=sched)
        sim.attach_arrivals(fast, poisson_arrivals(20.0, random.Random(7)))
        sim.run(until=10.0)
        assert sink.delivered > 0
        assert slow.punctuation_injected > 0
