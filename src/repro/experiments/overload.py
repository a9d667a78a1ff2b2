"""Overload experiment: the union scenario under a load spike + slow sink.

The chaos experiment measures how the degradation ladder restores
*liveness* when a source dies; this one measures how the feedback loop
(:mod:`repro.feedback`) bounds *latency and memory* when nothing dies but
everything is too fast: a :class:`~repro.faults.plan.LoadSpike` multiplies
the fast stream's arrival rate while a :class:`~repro.faults.plan.SlowSink`
inflates the sink's per-tuple cost — the classic overload squeeze.

Run it open-loop (``feedback=False``: no controller, no throttle — queues
and latency grow with the spike) and closed-loop (``feedback=True``: the
controller's pressure waves drive an AIMD token-bucket throttle at the fast
source, so depth and p99 latency stay bounded at the price of admission
drops).  ``python -m repro chaos --overload`` prints the comparison;
``python -m repro validate`` asserts it as claim X9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import WorkloadError
from ..core.ets import NoEts, OnDemandEts
from ..faults.monitors import InvariantMonitor
from ..faults.plan import FaultPlan, LoadSpike, SlowSink
from ..feedback import FeedbackController, TokenBucketThrottle
from ..obs.latency import LatencyRecorder
from ..workloads.scenarios import ScenarioConfig, build_union_scenario

__all__ = ["OverloadConfig", "OverloadReport", "run_overload_experiment"]


@dataclass(slots=True)
class OverloadConfig:
    """Parameters of one overload run over the paper's union query.

    The spike targets the *fast* stream (the slow one is load-wise
    irrelevant), and the slow-sink window matches the spike window, so the
    squeeze is concentrated and the pre/post segments give the controller
    room to activate and unwind within the run.
    """

    duration: float = 60.0
    rate_fast: float = 50.0
    rate_slow: float = 0.5
    seed: int = 42
    ets_delta: float = 0.1
    base_ets: str = "on-demand"
    batch_size: int = 1
    spike_start: float = 10.0
    spike_duration: float = 20.0
    spike_factor: float = 6.0
    sink_factor: float = 1.0
    #: Extra simulated seconds per sink step inside the spike window.  The
    #: default keeps the sink slower than the spiked arrival rate, which is
    #: what makes the overload real rather than a transient.
    sink_extra: float = 0.004
    #: Closed loop (controller + throttle) when True; open loop otherwise.
    feedback: bool = True
    high_watermark: int = 48
    low_watermark: int | None = None
    overload_depth: int | None = None
    relief_beats: int = 8
    #: Nominal admission rate for the fast source's AIMD token bucket;
    #: None defaults to ``rate_fast * spike_factor`` — permissive enough
    #: to admit the whole spike, so any bounding observed is the AIMD
    #: *feedback* reducing the rate, not the bucket's static cap.
    throttle_rate: float | None = None
    max_total_buffered: int = 1_000_000

    def __post_init__(self) -> None:
        if self.base_ets not in ("on-demand", "none"):
            raise WorkloadError(
                f"base_ets must be 'on-demand' or 'none', got "
                f"{self.base_ets!r}")
        if self.spike_factor < 1.0:
            raise WorkloadError(
                f"spike_factor must be >= 1, got {self.spike_factor}")


@dataclass(slots=True)
class OverloadReport:
    """What one overload run delivered, queued, and throttled."""

    config: OverloadConfig
    summary: dict = field(default_factory=dict)
    fault_stats: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)
    delivered: int = 0
    throttled: int = 0
    peak_queue: int = 0
    monitor_violations: int = 0

    def as_dict(self) -> dict[str, object]:
        """Every figure flat, ``snake_case``, latency keys prefixed."""
        out: dict[str, object] = dict(self.summary)
        out.update(self.fault_stats)
        out.update({f"latency_{k}": v for k, v in self.latency.items()})
        out.update(
            delivered=self.delivered,
            throttled=self.throttled,
            peak_queue=self.peak_queue,
            monitor_violations=self.monitor_violations,
        )
        return out

    def rows(self) -> list[tuple[str, object]]:
        s = self.summary
        loop = "closed (feedback)" if self.config.feedback else "open"
        return [
            ("control loop", loop),
            ("delivered tuples", self.delivered),
            ("throttled at admission", self.throttled),
            ("peak queue depth", self.peak_queue),
            ("p99 latency (s)", round(self.latency.get("p99", 0.0), 4)),
            ("max latency (s)", round(self.latency.get("max", 0.0), 4)),
            ("feedback episodes / waves / reliefs",
             f"{s.get('feedback_episodes', 0)} / "
             f"{s.get('feedback_waves', 0)} / "
             f"{s.get('feedback_reliefs', 0)}"),
            ("spiked / slowed tuples",
             f"{self.fault_stats.get('spiked', 0)} / "
             f"{self.fault_stats.get('slowed', 0)}"),
            ("invariant violations", self.monitor_violations),
        ]


def make_overload_plan(config: OverloadConfig) -> FaultPlan:
    """The fault plan an :class:`OverloadConfig` describes."""
    specs: list = [
        LoadSpike("fast", start=config.spike_start,
                  duration=config.spike_duration,
                  factor=config.spike_factor),
    ]
    if config.sink_factor > 1.0 or config.sink_extra > 0.0:
        specs.append(SlowSink(
            "sink", start=config.spike_start,
            duration=config.spike_duration,
            factor=max(1.0, config.sink_factor), extra=config.sink_extra))
    return FaultPlan(specs, seed=config.seed)


def run_overload_experiment(config: OverloadConfig) -> OverloadReport:
    """Build, squeeze, (optionally) close the loop, run, and measure."""
    scenario = ScenarioConfig(
        scenario="C", duration=config.duration, seed=config.seed,
        rate_fast=config.rate_fast, rate_slow=config.rate_slow,
        ets_delta=config.ets_delta, batch_size=config.batch_size)

    plan = make_overload_plan(config)
    policy = (OnDemandEts(external_delta=config.ets_delta)
              if config.base_ets == "on-demand" else NoEts())
    monitor = InvariantMonitor(max_total_buffered=config.max_total_buffered,
                               mode="degrade")
    controller = None
    if config.feedback:
        controller = FeedbackController(
            high_watermark=config.high_watermark,
            low_watermark=config.low_watermark,
            overload_depth=config.overload_depth,
            relief_beats=config.relief_beats)

    handles = build_union_scenario(
        scenario, faults=plan, ets_policy=policy, feedback=controller,
        monitor=monitor)
    sim = handles.sim
    if config.feedback:
        nominal = (config.throttle_rate if config.throttle_rate is not None
                   else config.rate_fast * config.spike_factor)
        handles.fast_source.throttle = TokenBucketThrottle(rate=nominal)

    recorder = LatencyRecorder(seed=config.seed)
    _chain_on_output(handles.sink, recorder)

    sim.run(until=config.duration)
    summary = sim.summary()

    return OverloadReport(
        config=config,
        summary=summary,
        fault_stats=plan.stats.as_dict(),
        latency=recorder.summary(),
        delivered=handles.sink.delivered,
        throttled=int(summary.get("throttled", 0)),
        peak_queue=sim.peak_queue_size,
        monitor_violations=monitor.violations,
    )


def _chain_on_output(sink, recorder: LatencyRecorder) -> None:
    previous = sink.on_output

    def record(tup, latency) -> None:
        recorder(tup, latency)
        if previous is not None:
            previous(tup, latency)

    sink.on_output = record
