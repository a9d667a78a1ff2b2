"""Chaos experiment: the paper's union scenario under an injected fault plan.

Take the Fig.-4 skewed-rates query, kill the fast stream for a while (plus
an optional clock-skew spike), and measure how long the sink stays silent
under no ETS (scenarios A/B: the union gates the slow stream's tuples on
the dead one until it returns) and under on-demand ETS (scenario C: each
wake-up backtracks to the silent source and punctuates it, so the slow
stream keeps flowing).  Every arm runs with a clamping
:class:`~repro.faults.degrade.QuarantinePolicy` (only a skew spike past δ
ever reaches it) and a degrade-mode invariant monitor.

``python -m repro validate`` checks the result as claim X8.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from ..core.errors import WorkloadError
from ..core.ets import NoEts, OnDemandEts
from ..faults.degrade import QuarantinePolicy
from ..faults.monitors import InvariantMonitor
from ..faults.plan import ClockSkewSpike, FaultPlan, SourceOutage
from ..obs.bus import Observer
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
    quarantine_mode: str = "clamp"
    #: "on-demand" (scenario C) or "none" (scenarios A/B).
    base_ets: str = "on-demand"
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.base_ets not in ("on-demand", "none"):
            raise WorkloadError(
                f"base_ets must be 'on-demand' or 'none', got "
                f"{self.base_ets!r}")


@dataclass(slots=True)
class ChaosReport:
    """What one chaos run did and how fast it recovered.

    ``outage_wakeups`` is the most engine wake-ups any tuple arriving
    during the outage sat through before the sink delivered it, counted
    from the instant an on-demand ETS value can first cover it: its arrival
    for internal timestamps, its arrival plus ``ETS_DELTA + EXTERNAL_SKEW``
    for external ones (the skew-bound value ``t + τ − δ`` trails the clock
    by that much).  1 means every such tuple left at the first wake-up that
    could release it; None means none was delivered.
    """

    config: ChaosConfig
    summary: dict = field(default_factory=dict)
    fault_stats: dict = field(default_factory=dict)
    time_to_liveness: float | None = None
    max_sink_gap: float = 0.0
    outage_wakeups: int | None = None
    delivered: int = 0
    quarantine_raised: int = 0
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
            outage_wakeups=self.outage_wakeups,
            quarantine_raised=self.quarantine_raised,
            monitor_violations=self.monitor_violations,
        )
        return out


class _WakeupLog(Observer):
    """The instant of every engine wake-up."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def on_wakeup(self, *, round_id: int, time: float,
                  entry: str | None = None) -> None:
        self.times.append(time)


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
    """Build, fault, run, and measure one chaos scenario."""
    scenario = ScenarioConfig(
        scenario="C", duration=config.duration, seed=config.seed,
        rate_fast=config.rate_fast, rate_slow=config.rate_slow,
        external=config.external, external_skew=EXTERNAL_SKEW,
        ets_delta=ETS_DELTA, batch_size=config.batch_size)

    plan = make_fault_plan(config)
    policy = (OnDemandEts(external_delta=ETS_DELTA)
              if config.base_ets == "on-demand" else NoEts())
    quarantine = QuarantinePolicy(config.quarantine_mode)
    monitor = InvariantMonitor(max_total_buffered=MAX_TOTAL_BUFFERED,
                               mode="degrade")
    wakeups = _WakeupLog()
    handles = build_union_scenario(
        scenario, faults=plan, ets_policy=policy, quarantine=quarantine,
        monitor=monitor, observers=[wakeups])
    sim = handles.sim

    tracker = RecoveryTracker().watch(handles.sink)
    sim.run(until=config.duration)

    start = config.outage_start
    end = start + config.outage_duration
    lag = ETS_DELTA + EXTERNAL_SKEW if config.external else 0.0
    waited = [bisect_right(wakeups.times, delivered)
              - bisect_left(wakeups.times, arrival + lag)
              for delivered, arrival in zip(tracker.times, tracker.arrivals)
              if start <= arrival < end]
    return ChaosReport(
        config=config,
        summary=sim.summary(),
        fault_stats=plan.stats.as_dict(),
        time_to_liveness=tracker.time_to_liveness(after=start),
        max_sink_gap=tracker.max_sink_gap if tracker.times
        else config.duration,
        outage_wakeups=max(waited, default=None),
        delivered=handles.sink.delivered,
        quarantine_raised=quarantine.raised,
        monitor_violations=monitor.violations,
    )
