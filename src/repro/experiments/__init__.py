"""Experiment harness: scenario runner, figures, ablations, claim
validation, and the chaos / overload / crash experiments."""

from .ablations import run_ablations
from .chaos import ChaosConfig, ChaosReport, run_chaos_experiment
from .crash import CrashConfig, CrashReport, run_crash_experiment
from .overload import OverloadConfig, OverloadReport, run_overload_experiment
from .figures import (
    DEFAULT_HEARTBEAT_RATES,
    SweepResult,
    format_figure7,
    format_figure8,
    format_idle_table,
    idle_waiting_table,
    run_sweep,
)
from .validation import (
    ClaimResult,
    format_claims,
    run_validation,
    validate_ablation_claims,
    validate_paper_claims,
)
from .runner import (
    ExperimentResult,
    result_from_handles,
    run_join_experiment,
    run_union_experiment,
)

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "ClaimResult",
    "CrashConfig",
    "CrashReport",
    "DEFAULT_HEARTBEAT_RATES",
    "ExperimentResult",
    "OverloadConfig",
    "OverloadReport",
    "SweepResult",
    "format_figure7",
    "format_figure8",
    "format_idle_table",
    "idle_waiting_table",
    "result_from_handles",
    "run_ablations",
    "run_chaos_experiment",
    "run_crash_experiment",
    "run_join_experiment",
    "run_overload_experiment",
    "run_sweep",
    "run_union_experiment",
    "run_validation",
    "validate_ablation_claims",
    "validate_paper_claims",
    "format_claims",
]
