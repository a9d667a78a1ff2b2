"""Regeneration of every figure and table in the paper's evaluation.

Paper Section 6 reports three artefacts on the Fig.-4 union query
(50 vs 0.05 tuples/s Poisson streams through 95 %-selectivity filters):

* **Figure 7 (a/b)** — average output latency (log scale): line A (no ETS)
  far above line B (periodic ETS, improving with injection rate), with
  line C (on-demand ETS) orders of magnitude below and within ~0.1 ms of
  line D (latent timestamps).
* **Idle-waiting table** (in-text) — fraction of time the union idle-waits:
  A ≈ 99 %, B@100 Hz ≈ 15 %, C < 0.1 %.
* **Figure 8 (a/b)** — peak total queue size: A in the thousands of tuples,
  C two-plus orders lower, B U-shaped in the injection rate.

:func:`run_sweep` and :func:`idle_waiting_table` return the plotted series
as data; the ``format_*`` helpers render them as the tables and ASCII plots
``python -m repro validate`` prints before its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.report import format_series, format_table
from ..sim.cost import CostModel
from ..workloads.scenarios import ScenarioConfig
from .runner import ExperimentResult, run_union_experiment

__all__ = [
    "DEFAULT_HEARTBEAT_RATES",
    "SweepResult",
    "format_figure7",
    "format_figure8",
    "format_idle_table",
    "idle_waiting_table",
    "run_sweep",
]

#: Periodic-ETS injection rates swept for line B (per second).  The top rate
#: is where punctuation service overhead visibly bends the curves back up.
DEFAULT_HEARTBEAT_RATES: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0, 1000.0,
                                              4000.0)


@dataclass(slots=True)
class SweepResult:
    """All scenario runs behind one figure.

    Attributes:
        baselines: Scenario label → result, for A, C, D.
        periodic: Injection rate → result, for the B sweep.
    """

    baselines: dict[str, ExperimentResult] = field(default_factory=dict)
    periodic: dict[float, ExperimentResult] = field(default_factory=dict)

    def latency_series(self) -> list[tuple[float, float]]:
        return [(rate, res.mean_latency)
                for rate, res in sorted(self.periodic.items())]

    def peak_series(self) -> list[tuple[float, float]]:
        return [(rate, float(res.peak_queue))
                for rate, res in sorted(self.periodic.items())]


def _config(scenario: str, *, duration: float, seed: int,
            heartbeat_rate: float | None = None,
            rate_fast: float = 50.0, rate_slow: float = 0.05,
            cost_model: CostModel | None = None) -> ScenarioConfig:
    return ScenarioConfig(scenario=scenario, duration=duration, seed=seed,
                          heartbeat_rate=heartbeat_rate,
                          rate_fast=rate_fast, rate_slow=rate_slow,
                          cost_model=cost_model)


def run_sweep(*, duration: float = 120.0, sweep_duration: float = 60.0,
              seed: int = 42,
              heartbeat_rates: tuple[float, ...] = DEFAULT_HEARTBEAT_RATES,
              rate_fast: float = 50.0, rate_slow: float = 0.05,
              cost_model: CostModel | None = None) -> SweepResult:
    """Run scenarios A, C, D plus the B sweep once; both figures share it.

    ``sweep_duration`` bounds the expensive high-rate B runs separately from
    the baselines (idle-waiting statistics want longer windows; the B curve
    stabilizes quickly).
    """
    result = SweepResult()
    for scenario in ("A", "C", "D"):
        result.baselines[scenario] = run_union_experiment(
            _config(scenario, duration=duration, seed=seed,
                    rate_fast=rate_fast, rate_slow=rate_slow,
                    cost_model=cost_model))
    for rate in heartbeat_rates:
        result.periodic[rate] = run_union_experiment(
            _config("B", duration=sweep_duration, seed=seed,
                    heartbeat_rate=rate, rate_fast=rate_fast,
                    rate_slow=rate_slow, cost_model=cost_model))
    return result


def idle_waiting_table(*, duration: float = 120.0, seed: int = 42,
                       heartbeat_rate: float = 100.0,
                       rate_fast: float = 50.0, rate_slow: float = 0.05,
                       cost_model: CostModel | None = None,
                       ) -> dict[str, ExperimentResult]:
    """The in-text idle-waiting comparison: A, B@rate, C."""
    kwargs = dict(duration=duration, seed=seed, rate_fast=rate_fast,
                  rate_slow=rate_slow, cost_model=cost_model)
    results = {
        "A": run_union_experiment(_config("A", **kwargs)),
        "B": run_union_experiment(
            _config("B", heartbeat_rate=heartbeat_rate, **kwargs)),
        "C": run_union_experiment(_config("C", **kwargs)),
    }
    return results


# --------------------------------------------------------------------- #
# Rendering

def format_figure7(sweep: SweepResult) -> str:
    rows = []
    for label in ("A", "C", "D"):
        res = sweep.baselines[label]
        rows.append([f"line {label}", "-", res.mean_latency * 1e3,
                     res.p99_latency * 1e3, res.delivered])
    for rate, res in sorted(sweep.periodic.items()):
        rows.append(["line B", rate, res.mean_latency * 1e3,
                     res.p99_latency * 1e3, res.delivered])
    table = format_table(
        ["series", "punct rate (1/s)", "mean latency (ms)",
         "p99 latency (ms)", "delivered"],
        rows, title="Figure 7 — average output latency (paper plots log scale)")
    plot = format_series(
        [(rate, res.mean_latency * 1e3)
         for rate, res in sorted(sweep.periodic.items())],
        log_y=True,
        title="line B: mean latency (ms, log10) vs punctuation rate")
    gap = (sweep.baselines["C"].mean_latency
           - sweep.baselines["D"].mean_latency) * 1e3
    zoom = (f"Figure 7(b) zoom — C minus D = {gap:.4f} ms "
            "(paper: about 0.1 ms)")
    return "\n\n".join([table, plot, zoom])


def format_figure8(sweep: SweepResult) -> str:
    rows = []
    for label in ("A", "C", "D"):
        res = sweep.baselines[label]
        rows.append([f"line {label}", "-", res.peak_queue,
                     res.punctuation_enqueued])
    for rate, res in sorted(sweep.periodic.items()):
        rows.append(["line B", rate, res.peak_queue,
                     res.punctuation_enqueued])
    table = format_table(
        ["series", "punct rate (1/s)", "peak queue (tuples)",
         "punctuation enqueued"],
        rows, title="Figure 8 — peak total queue size")
    plot = format_series(
        [(rate, float(res.peak_queue))
         for rate, res in sorted(sweep.periodic.items())],
        log_y=True,
        title="line B: peak queue (tuples, log10) vs punctuation rate")
    return "\n\n".join([table, plot])


def format_idle_table(results: dict[str, ExperimentResult]) -> str:
    rows = [[label, res.heartbeat_rate or "-", res.idle_fraction * 100]
            for label, res in results.items()]
    return format_table(
        ["scenario", "hb rate (1/s)", "idle-waiting (% of time)"], rows,
        title=("Idle-waiting share of the union operator "
               "(paper: A=99 %, B@100=15 %, C<0.1 %)"))
