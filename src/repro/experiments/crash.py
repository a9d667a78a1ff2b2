"""Crash-recovery experiment: kill the process mid-run, recover, compare.

The executable form of the durability story (see DESIGN.md section 4f):
run the paper's union scenario with a :class:`~repro.recovery.RecoveryManager`
attached, crash-stop it with a :class:`~repro.faults.plan.ProcessCrash` at a
chosen instant, rebuild the graph from scratch, recover from the checkpoint
directory, resume the arrival schedules past the WAL, and verify the
combined sink output is **byte-identical** to a run that never crashed —
no tuple lost, none delivered twice.

``python -m repro validate`` checks it as claims R1 and R2.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field

from ..core.errors import WorkloadError
from ..core.ets import NoEts, OnDemandEts
from ..faults.plan import FaultPlan, ProcessCrash, SimulatedCrash
from ..obs import EventBus, MetricsRegistry
from ..recovery import RecoveryManager, RecoveryReport
from ..workloads.scenarios import (ScenarioConfig, build_union_scenario,
                                   scenario_streams)

__all__ = ["CrashConfig", "CrashReport", "run_crash_experiment"]

#: Canonical sink record, comparable across runs: (ts, payload).
_SinkRecord = tuple[float, object]


@dataclass(slots=True)
class CrashConfig:
    """Parameters of one crash-stop + recovery cycle over the union query."""

    duration: float = 60.0
    rate_fast: float = 50.0
    rate_slow: float = 0.5
    seed: int = 42
    crash_at: float = 30.0
    checkpoint_every: int = 50
    #: Checkpoint/WAL directory; None uses (and removes) a temp directory.
    state_dir: str | None = None
    #: Corrupt the newest checkpoint before recovering — demonstrates the
    #: loud fallback to the previous one.
    corrupt_latest: bool = False
    base_ets: str = "on-demand"
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.base_ets not in ("on-demand", "none"):
            raise WorkloadError(
                f"base_ets must be 'on-demand' or 'none', got "
                f"{self.base_ets!r}")
        if not 0.0 < self.crash_at < self.duration:
            raise WorkloadError(
                f"crash_at must fall inside (0, duration), got "
                f"{self.crash_at} with duration {self.duration}")
        if self.checkpoint_every < 1:
            raise WorkloadError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}")


@dataclass(slots=True)
class CrashReport:
    """What one crash-recovery cycle did, and whether it was exactly-once."""

    config: CrashConfig
    #: The uncrashed run's sink records.
    reference: list[_SinkRecord] = field(default_factory=list)
    #: The crashed run's sink records, then the recovered run's.
    output: list[_SinkRecord] = field(default_factory=list)
    pre_crash_delivered: int = 0
    recovery: dict = field(default_factory=dict)
    checkpoints_written: int = 0

    @property
    def identical(self) -> bool:
        return self.output == self.reference

    @property
    def reference_delivered(self) -> int:
        return len(self.reference)

    @property
    def post_recovery_delivered(self) -> int:
        return len(self.output) - self.pre_crash_delivered

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "identical": self.identical,
            "reference_delivered": self.reference_delivered,
            "pre_crash_delivered": self.pre_crash_delivered,
            "post_recovery_delivered": self.post_recovery_delivered,
            "checkpoints_written": self.checkpoints_written,
        }
        out.update({f"recovery_{k}": v for k, v in self.recovery.items()
                    if k not in ("skipped", "suppressed",
                                 "ingests_by_source")})
        return out


def _scenario(config: CrashConfig) -> ScenarioConfig:
    return ScenarioConfig(
        scenario="C", duration=config.duration, seed=config.seed,
        rate_fast=config.rate_fast, rate_slow=config.rate_slow,
        batch_size=config.batch_size)


def _capture(sink) -> list[_SinkRecord]:
    trace: list[_SinkRecord] = []
    previous = sink.on_output

    def record(tup, latency) -> None:
        trace.append((tup.ts, tup.payload))
        if previous is not None:
            previous(tup, latency)

    sink.on_output = record
    return trace


def _policy(config: CrashConfig):
    return OnDemandEts() if config.base_ets == "on-demand" else NoEts()


def _build(config: CrashConfig, *, recovery: RecoveryManager | None,
           faults: FaultPlan | None = None, attach: bool = True):
    handles = build_union_scenario(
        _scenario(config), faults=faults, attach=attach,
        ets_policy=_policy(config),
        checkpoint_every=config.checkpoint_every if recovery else None,
        recovery=recovery)
    return handles, handles.sim, _capture(handles.sink)


def _corrupt_latest_checkpoint(manager: RecoveryManager) -> None:
    numbers = manager.store.numbers()
    if not numbers:
        return
    path = manager.store.path_for(numbers[-1])
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def run_crash_experiment(config: CrashConfig) -> CrashReport:
    """One full cycle: reference run, crashed run, recovery, comparison."""
    scenario = _scenario(config)

    # Reference: the same workload with nothing attached and no crash.
    handles, sim, reference = _build(config, recovery=None)
    sim.run(until=config.duration)

    state_dir = config.state_dir or tempfile.mkdtemp(prefix="repro-crash-")
    try:
        # Crashed run: durably logged, checkpointed, killed at crash_at.
        registry = MetricsRegistry()
        manager = RecoveryManager(state_dir, bus=EventBus([registry]))
        plan = FaultPlan([ProcessCrash("fast", at=config.crash_at)],
                         seed=config.seed)
        handles, sim, pre = _build(config, recovery=manager, faults=plan)
        try:
            sim.run(until=config.duration)
            raise WorkloadError(
                f"crash_at={config.crash_at} fired no crash (schedule "
                "ended first?)")
        except SimulatedCrash:
            pass
        checkpoints_written = int(registry.checkpoints.total)
        manager.close()

        if config.corrupt_latest:
            _corrupt_latest_checkpoint(manager)

        # Recovery: fresh process image, restore + replay, resume feeds.
        manager = RecoveryManager(state_dir)
        handles, sim, post = _build(config, recovery=manager, attach=False)
        report: RecoveryReport = manager.recover()
        for name, arrivals in scenario_streams(scenario).items():
            sim.attach_arrivals(handles.graph[name], arrivals,
                                skip=report.ingests_by_source.get(name, 0))
        sim.run(until=config.duration)
        manager.close()
    finally:
        if config.state_dir is None:
            shutil.rmtree(state_dir, ignore_errors=True)

    return CrashReport(
        config=config,
        reference=reference,
        output=pre + post,
        pre_crash_delivered=len(pre),
        recovery=report.as_dict(),
        checkpoints_written=checkpoints_written,
    )
