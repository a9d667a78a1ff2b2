"""Scenario runner: execute one configured experiment, collect every metric.

This is the shared machinery beneath the figure generators and the
ablations: build the scenario, run it for the configured duration, and
package the measurements the paper reports (latency, peak queue size,
idle-waiting fraction) together with engine statistics useful for debugging
and the ablations (punctuation counts, CPU utilization, ETS activity).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads.scenarios import (
    ScenarioConfig,
    ScenarioHandles,
    build_join_scenario,
    build_union_scenario,
)

__all__ = ["ExperimentResult", "run_union_experiment", "run_join_experiment",
           "result_from_handles"]


@dataclass(slots=True)
class ExperimentResult:
    """Everything measured by one scenario run (times in stream seconds)."""

    scenario: str
    heartbeat_rate: float | None
    duration: float
    delivered: int
    mean_latency: float
    max_latency: float
    p50_latency: float
    p99_latency: float
    peak_queue: int
    idle_fraction: float
    cpu_utilization: float
    punctuation_enqueued: int
    ets_injected: int
    engine_steps: int
    data_steps: int
    punct_steps: int

    def as_row(self) -> list:
        """Row for the report tables printed by the CLI."""
        return [
            self.scenario,
            self.heartbeat_rate if self.heartbeat_rate is not None else "-",
            self.mean_latency * 1e3,   # ms, as the paper plots
            self.peak_queue,
            self.idle_fraction * 100,  # percent, as the paper quotes
            self.delivered,
        ]

    @staticmethod
    def row_headers() -> list[str]:
        return ["scenario", "hb rate (1/s)", "mean latency (ms)",
                "peak queue (tuples)", "idle-waiting (%)", "delivered"]


def result_from_handles(handles: ScenarioHandles) -> ExperimentResult:
    """Extract an :class:`ExperimentResult` from a finished scenario."""
    config = handles.config
    sim = handles.sim
    stats = sim.engine.stats
    recorder = handles.recorder
    return ExperimentResult(
        scenario=config.scenario,
        heartbeat_rate=(config.heartbeat_rate
                        if config.scenario == "B" else None),
        duration=config.duration,
        delivered=handles.sink.delivered,
        mean_latency=recorder.mean,
        max_latency=recorder.max_latency,
        p50_latency=recorder.percentile(0.5),
        p99_latency=recorder.percentile(0.99),
        peak_queue=sim.peak_queue_size,
        idle_fraction=sim.idle_fraction(handles.iwp.name),
        cpu_utilization=sim.cpu_utilization,
        punctuation_enqueued=sum(buf.punctuation_count
                                 for buf in handles.graph.buffers),
        ets_injected=stats.ets_injected,
        engine_steps=stats.steps,
        data_steps=stats.data_steps,
        punct_steps=stats.punct_steps,
    )


def run_union_experiment(config: ScenarioConfig) -> ExperimentResult:
    """Build, run, and measure the paper's Fig.-4 union query."""
    return result_from_handles(build_union_scenario(config).run())


def run_join_experiment(config: ScenarioConfig, *,
                        window_seconds: float = 60.0) -> ExperimentResult:
    """Build, run, and measure the window-join variant (ablation X2)."""
    handles = build_join_scenario(config, window_seconds=window_seconds)
    return result_from_handles(handles.run())
