"""The extension / ablation experiments X1–X4 and X6–X9, as measurements.

None of these is a figure of the paper; each tests a design choice the
paper argues for (or one this repository adds) on the deterministic
virtual-time simulation.  One function per ablation builds the workload,
runs it and returns its measurements keyed by variant;
:func:`repro.experiments.validation.validate_ablation_claims` judges them
and EXPERIMENTS.md tabulates them.  Defaults are the full-size workloads
EXPERIMENTS.md quotes (seed 42 unless stated); the keyword arguments
exist so tests can run the same code on fewer tuples.  (X5, raw throughput, is a wall-clock reading
and lives in ``benchmarks/e2e`` as ``sparse-union-ets`` ``tuples_per_s``.)
"""

from __future__ import annotations

import itertools
import random

from ..core.ets import NoEts, OnDemandEts, PeriodicEtsSchedule
from ..query.pipeline import Pipeline
from ..sim.kernel import Arrival, Simulation
from ..workloads.arrival import bursty_arrivals, poisson_arrivals
from ..workloads.scenarios import ScenarioConfig
from .baselines import AdaptiveHeartbeatSchedule, RoundRobinEngine
from .chaos import ChaosConfig, ChaosReport, run_chaos_experiment
from .overload import (OverloadConfig, OverloadReport,
                       run_overload_experiment)
from .runner import (ExperimentResult, run_join_experiment,
                     run_union_experiment)

__all__ = [
    "adaptive_heartbeats",
    "backpressure",
    "bursty_traffic",
    "dfs_vs_round_robin",
    "fault_recovery",
    "join_scenarios",
    "run_ablations",
    "skew_bound_sweep",
    "tsm_vs_strict",
]


def _two_stream_union(name: str, *, strict: bool = False):
    """fast, slow → union → sink, with no filters in the way."""
    p = Pipeline(name)
    fast, slow = p.source("fast"), p.source("slow")
    fast.union(slow, name="merge", strict=strict).sink("out")
    return p.graph, fast.source_node, slow.source_node


def _measured(sim: Simulation, duration: float) -> dict:
    """Run ``sim`` and return its summary plus the punctuation load."""
    summary = sim.run(until=duration).summary()
    summary["punctuation_enqueued"] = sum(
        buf.punctuation_count for buf in sim.graph.buffers)
    return summary


def tsm_vs_strict(*, tuples: int = 400) -> dict[str, dict]:
    """X1: TSM registers + relaxed ``more`` vs the strict Fig.-1 rules.

    Coarse whole-second timestamps, two tuples per tick on each stream, so
    simultaneous tuples are everywhere; no ETS for either variant — the
    point of the registers is that simultaneous tuples flow *without*
    punctuation help (paper Section 4.1).
    """
    def coarse():
        return iter(Arrival(float(i // 2) + 1.0, {"v": i})
                    for i in range(tuples))

    results = {}
    for label, strict in (("tsm", False), ("strict", True)):
        graph, fast, slow = _two_stream_union(f"tsm-{label}", strict=strict)
        sim = Simulation(graph, ets_policy=NoEts())
        sim.attach_arrivals(fast, coarse())
        sim.attach_arrivals(slow, coarse())
        results[label] = _measured(sim, tuples // 2 + 50.0)
    return results


def join_scenarios(*, duration: float = 60.0, window: float = 30.0,
                   **scenario) -> dict[str, ExperimentResult]:
    """X2: scenarios A/B/C/D (B at 100 heartbeats/s) with a window join as
    the IWP operator; ``**scenario`` overrides rates or seed."""
    return {
        label: run_join_experiment(
            ScenarioConfig(scenario=label, duration=duration,
                           heartbeat_rate=100.0 if label == "B" else None,
                           **scenario),
            window_seconds=window)
        for label in "ABCD"
    }


def skew_bound_sweep(*, duration: float = 60.0,
                     deltas: tuple[float, ...] = (0.05, 0.5, 2.0, 10.0),
                     **scenario) -> dict[str | float, ExperimentResult]:
    """X3: skew-bound ETS (``t + τ − δ``) on externally timestamped streams
    whose timestamps lag arrivals by up to 50 ms.

    Keys: ``"no-ets"`` for the scenario-A baseline, then each δ.
    """
    common = dict(duration=duration, external=True, external_skew=0.05,
                  **scenario)
    results: dict[str | float, ExperimentResult] = {
        "no-ets": run_union_experiment(ScenarioConfig(scenario="A",
                                                      **common))}
    for delta in deltas:
        results[delta] = run_union_experiment(ScenarioConfig(
            scenario="C", ets_delta=delta, **common))
    return results


def dfs_vs_round_robin(*, duration: float = 60.0,
                       **scenario) -> dict[str, ExperimentResult]:
    """X4: scenario C under the paper's DFS engine and under round-robin."""
    return {
        label: run_union_experiment(ScenarioConfig(
            scenario="C", duration=duration, engine_cls=engine_cls,
            **scenario))
        for label, engine_cls in (("dfs", None),
                                  ("round-robin", RoundRobinEngine))
    }


def bursty_traffic(*, duration: float = 120.0,
                   off_seconds: float = 9.5) -> dict[str, dict]:
    """X6: an on/off fast stream (500/s for ~0.5 s, then silence) against
    average-tuned, peak-tuned and on-demand punctuation of the sparse
    stream (paper Section 1)."""
    burst_rate, on_seconds = 500.0, 0.5
    average_rate = burst_rate * on_seconds / (on_seconds + off_seconds)
    results = {}
    for label, policy, heartbeat_rate in (
            ("average", NoEts(), average_rate),
            ("peak", NoEts(), burst_rate),
            ("on-demand", OnDemandEts(), None)):
        graph, fast, slow = _two_stream_union(f"bursty-{label}")
        periodic = (PeriodicEtsSchedule({"slow": heartbeat_rate})
                    if heartbeat_rate else None)
        sim = Simulation(graph, ets_policy=policy, periodic=periodic)
        sim.attach_arrivals(fast, bursty_arrivals(
            burst_rate, random.Random(1), on_duration=on_seconds,
            off_duration=off_seconds))
        sim.attach_arrivals(slow, poisson_arrivals(0.05, random.Random(2)))
        results[label] = _measured(sim, duration)
    return results


def adaptive_heartbeats(*, duration: float = 120.0, shift_at: float = 60.0,
                        rate_after: float = 200.0,
                        slow_rate: float = 0.05) -> dict[str, dict]:
    """X7: the fast stream's rate shifts from 5/s mid-run; heartbeats on the
    sparse stream are fixed at the first phase's rate, adaptive, or
    replaced by on-demand ETS."""
    rate_before = 5.0

    def ramp():
        quiet = itertools.takewhile(
            lambda a: a.time < shift_at,
            poisson_arrivals(rate_before, random.Random(1)))
        busy = poisson_arrivals(rate_after, random.Random(2),
                                start=shift_at)
        return itertools.chain(quiet, busy)

    results = {}
    for label, policy, periodic in (
            ("fixed", NoEts(), PeriodicEtsSchedule({"slow": rate_before})),
            ("adaptive", NoEts(), AdaptiveHeartbeatSchedule(
                {"slow": "fast"}, min_rate=1.0, max_rate=500.0)),
            ("on-demand", OnDemandEts(), None)):
        graph, fast, slow = _two_stream_union(f"adaptive-{label}")
        sim = Simulation(graph, ets_policy=policy, periodic=periodic)
        sim.attach_arrivals(fast, ramp())
        sim.attach_arrivals(slow, poisson_arrivals(slow_rate,
                                                   random.Random(3)))
        results[label] = _measured(sim, duration)
        results[label]["heartbeats_injected"] = slow.punctuation_injected
    return results


def fault_recovery(*, duration: float = 60.0, outage_start: float = 15.0,
                   outage_duration: float = 20.0) -> dict[str, ChaosReport]:
    """X8: a fast-stream outage at 20 and 1 tuples/s under no ETS and under
    on-demand ETS, with no other liveness mechanism.

    Keys: ``"no-ets"`` (internal timestamps), ``"internal"`` (on-demand ETS)
    and ``"external"`` (on-demand skew-bound ETS, plus a 2 s clock-skew
    spike on the fast stream — 20x past δ — a quarter outage after it
    heals).  Every arm has a clamping quarantine and a degrade-mode
    invariant monitor.
    """
    common = dict(duration=duration, rate_fast=20.0, rate_slow=1.0, seed=11,
                  outage_start=outage_start, outage_duration=outage_duration)
    spike = dict(skew_spike=2.0,
                 skew_spike_start=(outage_start + outage_duration * 1.25),
                 skew_spike_duration=outage_duration / 4)
    return {
        "no-ets": run_chaos_experiment(ChaosConfig(base_ets="none",
                                                   **common)),
        "internal": run_chaos_experiment(ChaosConfig(**common)),
        "external": run_chaos_experiment(ChaosConfig(external=True,
                                                     **spike, **common)),
    }


def backpressure(**config) -> dict[str, OverloadReport]:
    """X9: the :mod:`.overload` default squeeze — scenario C at 50/s,
    a 6x load spike plus a slow sink over [10 s, 30 s) of 60 s, high
    watermark 48 — open loop and closed loop.

    The closed loop's token bucket admits the whole spike at its nominal
    rate, so any bounding comes from the feedback, not the static cap.
    """
    return {
        label: run_overload_experiment(OverloadConfig(feedback=feedback,
                                                      **config))
        for label, feedback in (("open", False), ("closed", True))
    }


def run_ablations() -> dict[str, dict]:
    """Every ablation at the size and seed EXPERIMENTS.md quotes, keyed by
    claim id."""
    return {
        "X1": tsm_vs_strict(),
        "X2": join_scenarios(),
        "X3": skew_bound_sweep(),
        "X4": dfs_vs_round_robin(),
        "X6": bursty_traffic(),
        "X7": adaptive_heartbeats(),
        "X8": fault_recovery(),
        "X9": backpressure(),
    }
