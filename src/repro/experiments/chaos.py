"""Chaos experiment: the paper's union scenario under an injected fault plan.

This is the executable form of the degradation story: take the Fig.-4
skewed-rates query, kill the fast stream for a while (plus optional skew
spikes), and measure how long the sink stays silent under

* on-demand ETS alone (the paper's scenario C — which only answers when
  the engine happens to backtrack), versus
* on-demand ETS wrapped in the fallback-heartbeat ladder (stall detector +
  fallback trains + quarantine + invariant monitors).

``python -m repro validate`` checks its time-to-liveness bounds as claim
X8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import WorkloadError
from ..core.ets import NoEts, OnDemandEts
from ..faults.degrade import (FallbackHeartbeat, QuarantinePolicy,
                              StallDetector)
from ..faults.monitors import InvariantMonitor
from ..faults.plan import ClockSkewSpike, FaultPlan, SourceOutage
from ..obs.recovery import RecoveryTracker
from ..workloads.scenarios import ScenarioConfig, build_union_scenario

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos_experiment"]

#: Max timestamp lag of the externally timestamped workload, and the
#: skew bound its ETS values assume.
EXTERNAL_SKEW = 0.1
ETS_DELTA = 0.1
#: The invariant monitor's ceiling on graph-wide buffered tuples.
MAX_TOTAL_BUFFERED = 1_000_000


@dataclass(slots=True)
class ChaosConfig:
    """Parameters of one chaos run over the paper's union query.

    The outage targets the *fast* stream: with the sparse stream as the
    union's other input, silencing the fast one stalls deliveries outright,
    which makes time-to-liveness an unambiguous measurement.
    """

    duration: float = 120.0
    rate_fast: float = 50.0
    rate_slow: float = 0.5
    seed: int = 42
    external: bool = False
    outage_start: float = 30.0
    outage_duration: float = 30.0
    skew_spike: float = 0.0
    skew_spike_start: float = 70.0
    skew_spike_duration: float = 10.0
    stall_timeout: float = 2.0
    heartbeat_period: float = 0.5
    quarantine_mode: str = "clamp"
    degrade: bool = True
    #: The healthy-path ETS policy under the ladder: "on-demand" (scenario
    #: C — a wake-up during the outage already recovers via backtracking) or
    #: "none" (scenarios A/B — only the ladder restores liveness).
    base_ets: str = "on-demand"
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.base_ets not in ("on-demand", "none"):
            raise WorkloadError(
                f"base_ets must be 'on-demand' or 'none', got "
                f"{self.base_ets!r}")


@dataclass(slots=True)
class ChaosReport:
    """What one chaos run did and how fast it recovered."""

    config: ChaosConfig
    summary: dict = field(default_factory=dict)
    fault_stats: dict = field(default_factory=dict)
    time_to_liveness: float | None = None
    max_sink_gap: float = 0.0
    delivered: int = 0
    monitor_violations: int = 0

    def as_dict(self) -> dict[str, object]:
        """Every figure under its canonical ``snake_case`` name.

        The one serialized shape shared with ``EngineStats.as_dict()``: the
        simulation summary and the fault-plan stats are folded in flat, and
        the report's own fields override on collision (they are the
        authoritative measurements).
        """
        out: dict[str, object] = dict(self.summary)
        out.update(self.fault_stats)
        out.update(
            delivered=self.delivered,
            time_to_liveness=self.time_to_liveness,
            max_sink_gap=self.max_sink_gap,
            monitor_violations=self.monitor_violations,
        )
        return out


def make_fault_plan(config: ChaosConfig) -> FaultPlan:
    """The fault plan a :class:`ChaosConfig` describes (fast-stream faults)."""
    specs: list = [
        SourceOutage("fast", start=config.outage_start,
                     duration=config.outage_duration),
    ]
    if config.skew_spike > 0:
        specs.append(ClockSkewSpike(
            "fast", start=config.skew_spike_start,
            duration=config.skew_spike_duration, skew=config.skew_spike))
    return FaultPlan(specs, seed=config.seed)


def run_chaos_experiment(config: ChaosConfig) -> ChaosReport:
    """Build, fault, degrade, run, and measure one chaos scenario."""
    scenario = ScenarioConfig(
        scenario="C", duration=config.duration, seed=config.seed,
        rate_fast=config.rate_fast, rate_slow=config.rate_slow,
        external=config.external, external_skew=EXTERNAL_SKEW,
        ets_delta=ETS_DELTA, batch_size=config.batch_size)

    plan = make_fault_plan(config)
    policy = (OnDemandEts(external_delta=ETS_DELTA)
              if config.base_ets == "on-demand" else NoEts())
    detector = None
    quarantine = None
    monitor = InvariantMonitor(max_total_buffered=MAX_TOTAL_BUFFERED,
                               mode="degrade")
    if config.degrade:
        policy = FallbackHeartbeat(policy,
                                   heartbeat_period=config.heartbeat_period,
                                   external_delta=ETS_DELTA)
        detector = StallDetector(config.stall_timeout)
        quarantine = QuarantinePolicy(config.quarantine_mode)

    handles = build_union_scenario(
        scenario, faults=plan, ets_policy=policy, stall_detector=detector,
        quarantine=quarantine, monitor=monitor)
    sim = handles.sim

    tracker = RecoveryTracker().watch(handles.sink)
    sim.run(until=config.duration)

    return ChaosReport(
        config=config,
        summary=sim.summary(),
        fault_stats=plan.stats.as_dict(),
        time_to_liveness=tracker.time_to_liveness(after=config.outage_start),
        max_sink_gap=tracker.max_sink_gap if tracker.times
        else config.duration,
        delivered=handles.sink.delivered,
        monitor_violations=monitor.violations,
    )
