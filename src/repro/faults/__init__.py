"""Fault injection and fault containment for the repro DSMS.

Three layers, usable independently and designed to compose:

* :mod:`repro.faults.plan` — seeded, composable fault specs
  (:class:`FaultPlan`) that wrap arrival schedules and punctuation paths:
  source outages, clock-skew spikes, drops, duplicates, out-of-order
  bursts, punctuation loss/delay, load spikes, and slow sinks;
* :mod:`repro.faults.degrade` — :class:`QuarantinePolicy`, which keeps
  ingest crash-free when a clock spike regresses external timestamps
  (liveness through a silent source is on-demand ETS's job, not a fault
  layer's);
* :mod:`repro.faults.monitors` — :class:`InvariantMonitor` watchdogs that
  prove the run stayed sound (monotone sinks, monotone TSM registers,
  bounded buffers).
"""

from .degrade import QuarantinePolicy
from .monitors import InvariantMonitor
from .plan import (
    ClockSkewSpike,
    DropTuples,
    DuplicateTuples,
    FaultPlan,
    FaultSpec,
    FaultStats,
    LoadSpike,
    OutOfOrderBurst,
    ProcessCrash,
    PunctuationDelay,
    PunctuationLoss,
    ReshardCrash,
    SimulatedCrash,
    SlowSink,
    SourceOutage,
)

__all__ = [
    "ClockSkewSpike",
    "DropTuples",
    "DuplicateTuples",
    "FaultPlan",
    "FaultSpec",
    "FaultStats",
    "InvariantMonitor",
    "LoadSpike",
    "OutOfOrderBurst",
    "ProcessCrash",
    "PunctuationDelay",
    "PunctuationLoss",
    "QuarantinePolicy",
    "ReshardCrash",
    "SimulatedCrash",
    "SlowSink",
    "SourceOutage",
]
