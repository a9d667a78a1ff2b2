"""Tests for the adaptive heartbeat schedule (rate-tracking baseline)."""

import random

import pytest

from repro.core.errors import PolicyError
from repro.core.ets import AdaptiveHeartbeatSchedule, NoEts
from repro.query.pipeline import Pipeline
from repro.sim.kernel import Simulation
from repro.workloads.arrival import bursty_arrivals, poisson_arrivals


def build():
    q = Pipeline("adaptive")
    fast = q.source("fast")
    slow = q.source("slow")
    fast.union(slow, name="merge").sink("out")
    return q.compile(), fast.source_node, slow.source_node, q.sinks["out"]


class TestConfiguration:
    def test_bad_rates_rejected(self):
        with pytest.raises(PolicyError):
            AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.0)
        with pytest.raises(PolicyError):
            AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=10.0,
                                      max_rate=1.0)

    @pytest.mark.parametrize("rates", [
        pytest.param(dict(min_rate=float("nan")), id="nan-min"),
        pytest.param(dict(max_rate=float("nan")), id="nan-max"),
        pytest.param(dict(max_rate=float("inf")), id="inf-max"),
    ])
    def test_non_finite_rates_rejected(self, rates):
        """A NaN clamp passes every ``<`` test and dates heartbeats NaN;
        an infinite one clamps the period to zero."""
        with pytest.raises(PolicyError, match="finite"):
            AdaptiveHeartbeatSchedule({"slow": "fast"}, **rates)

    def test_unknown_driver_rejected_at_bind(self):
        graph, fast, slow, sink = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "nope"})
        with pytest.raises(PolicyError, match="driver"):
            sched.bind(graph)

    def test_cold_start_uses_min_rate(self):
        graph, fast, slow, sink = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.5)
        sched.bind(graph)
        assert sched.next_period(slow, now=1.0) == pytest.approx(2.0)

    def test_rate_clamped(self):
        graph, fast, slow, sink = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=1.0,
                                          max_rate=10.0)
        sched.bind(graph)
        sched.next_period(slow, now=0.0)  # prime the counter
        fast.ingested_count = 10_000
        assert sched.next_period(slow, now=1.0) == pytest.approx(0.1)


class TestAdaptationBehaviour:
    def test_tracks_steady_rate(self):
        """At steady state the injection rate converges near the driver's."""
        graph, fast, slow, sink = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.5,
                                          max_rate=500.0)
        sim = Simulation(graph, ets_policy=NoEts(), periodic=sched)
        sim.attach_arrivals(fast, poisson_arrivals(40.0, random.Random(1)))
        sim.run(until=30.0)
        injected_rate = slow.punctuation_injected / 30.0
        assert 10.0 < injected_rate < 120.0  # within ~3x of the 40/s driver

    def test_tracks_rate_ramp_better_than_fixed(self):
        """When the driver's rate shifts and *stays* shifted, adaptive
        heartbeats re-tune while a fixed schedule stays mis-tuned."""
        import itertools

        from repro.core.ets import PeriodicEtsSchedule

        def ramp_arrivals():
            quiet = itertools.takewhile(
                lambda a: a.time < 30.0,
                poisson_arrivals(5.0, random.Random(1)))
            busy = poisson_arrivals(200.0, random.Random(2), start=30.0)
            return itertools.chain(quiet, busy)

        def run(schedule):
            graph, fast, slow, sink = build()
            sim = Simulation(graph, ets_policy=NoEts(), periodic=schedule)
            sim.attach_arrivals(fast, ramp_arrivals())
            sim.run(until=60.0)
            return sink

        fixed = run(PeriodicEtsSchedule({"slow": 5.0}))  # tuned to phase 1
        adaptive = run(AdaptiveHeartbeatSchedule(
            {"slow": "fast"}, min_rate=1.0, max_rate=500.0))
        assert adaptive.mean_latency < fixed.mean_latency / 2

    def test_sub_window_bursts_defeat_adaptation(self):
        """Bursts shorter than the estimation window cannot be tracked — the
        estimate always lags one window behind.  This is the residual gap
        that only on-demand ETS closes (paper Section 1's tuning dilemma)."""
        graph, fast, slow, sink = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=1.0,
                                          max_rate=500.0)
        assert sched.ESTIMATION_WINDOW == 1.0
        sim = Simulation(graph, ets_policy=NoEts(), periodic=sched)
        sim.attach_arrivals(fast, bursty_arrivals(
            200.0, random.Random(1), on_duration=0.5, off_duration=4.5))
        sim.run(until=60.0)
        # latency stays around the pre-burst (min-rate) period, far from
        # what a matched rate would give
        assert sink.mean_latency > 0.05

    def test_quiet_driver_backs_off(self):
        graph, fast, slow, sink = build()
        sched = AdaptiveHeartbeatSchedule({"slow": "fast"}, min_rate=0.2,
                                          max_rate=100.0)
        sim = Simulation(graph, ets_policy=NoEts(), periodic=sched)
        # no arrivals at all: injections settle at min_rate
        sim.run(until=60.0)
        assert slow.punctuation_injected <= 0.2 * 60.0 + 2
