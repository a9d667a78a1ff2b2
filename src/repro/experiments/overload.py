"""Overload experiment: the union scenario under a load spike + slow sink.

The chaos experiment measures how on-demand ETS keeps the query *live*
when a source dies; this one measures how the feedback loop
(:mod:`repro.feedback`) bounds *latency and memory* when nothing dies but
everything is too fast: a :class:`~repro.faults.plan.LoadSpike` multiplies
the fast stream's arrival rate while a :class:`~repro.faults.plan.SlowSink`
inflates the sink's per-tuple cost — the classic overload squeeze.

Run it open-loop (``feedback=False``: no controller, no throttle — queues
and latency grow with the spike) and closed-loop (``feedback=True``: the
controller's pressure waves step an AIMD token-bucket throttle at the fast
source, so depth and p99 latency stay bounded at the price of admission
drops).  ``python -m repro validate`` asserts the comparison as claim X9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.ets import OnDemandEts
from ..faults.monitors import InvariantMonitor
from ..faults.plan import FaultPlan, LoadSpike, SlowSink
from ..feedback import FeedbackController, TokenBucketThrottle
from ..obs.latency import LatencyRecorder
from ..workloads.scenarios import ScenarioConfig, build_union_scenario

__all__ = ["OverloadConfig", "OverloadReport", "run_overload_experiment"]

#: Poisson arrival rates of the fast and slow streams (tuples per second).
RATE_FAST = 50.0
RATE_SLOW = 0.5
#: The spike multiplies the fast stream's arrival rate by ``SPIKE_FACTOR``
#: for ``SPIKE_DURATION`` seconds.
SPIKE_DURATION = 20.0
SPIKE_FACTOR = 6.0
#: Extra simulated seconds per sink step inside the spike window: it keeps
#: the sink slower than the spiked arrival rate, which is what makes the
#: overload real rather than a transient.
SINK_EXTRA = 0.004
#: The skew bound of the on-demand ETS policy, and the invariant monitor's
#: ceiling on graph-wide buffered tuples.
ETS_DELTA = 0.1
MAX_TOTAL_BUFFERED = 1_000_000
#: Total buffered elements at which the closed loop's controller opens an
#: overload episode.
HIGH_WATERMARK = 48


@dataclass(slots=True)
class OverloadConfig:
    """Parameters of one overload run over the paper's union query.

    The spike targets the *fast* stream (the slow one is load-wise
    irrelevant), and the slow-sink window matches the spike window, so the
    squeeze is concentrated and the pre/post segments give the controller
    room to activate and unwind within the run.
    """

    duration: float = 60.0
    seed: int = 42
    spike_start: float = 10.0
    #: Closed loop (controller + throttle) when True; open loop otherwise.
    feedback: bool = True
    low_watermark: int | None = None
    relief_beats: int = 8


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


def make_overload_plan(config: OverloadConfig) -> FaultPlan:
    """The fault plan an :class:`OverloadConfig` describes."""
    return FaultPlan([
        LoadSpike("fast", start=config.spike_start, duration=SPIKE_DURATION,
                  factor=SPIKE_FACTOR),
        SlowSink("sink", start=config.spike_start, duration=SPIKE_DURATION,
                 extra=SINK_EXTRA),
    ], seed=config.seed)


def run_overload_experiment(config: OverloadConfig) -> OverloadReport:
    """Build, squeeze, (optionally) close the loop, run, and measure."""
    scenario = ScenarioConfig(
        scenario="C", duration=config.duration, seed=config.seed,
        rate_fast=RATE_FAST, rate_slow=RATE_SLOW, ets_delta=ETS_DELTA)

    plan = make_overload_plan(config)
    policy = OnDemandEts(external_delta=ETS_DELTA)
    monitor = InvariantMonitor(max_total_buffered=MAX_TOTAL_BUFFERED,
                               mode="degrade")
    controller = None
    if config.feedback:
        controller = FeedbackController(
            high_watermark=HIGH_WATERMARK,
            low_watermark=config.low_watermark,
            relief_beats=config.relief_beats)

    handles = build_union_scenario(
        scenario, faults=plan, ets_policy=policy, feedback=controller,
        monitor=monitor)
    sim = handles.sim
    if config.feedback:
        # Admits the whole spike at its nominal rate, so any bounding
        # observed is the AIMD feedback reducing the rate, not the
        # bucket's static cap.
        handles.fast_source.throttle = TokenBucketThrottle(
            rate=RATE_FAST * SPIKE_FACTOR)

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
