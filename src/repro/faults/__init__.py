"""Fault injection and graceful degradation for the repro DSMS.

Three layers, usable independently and designed to compose:

* :mod:`repro.faults.plan` — seeded, composable fault specs
  (:class:`FaultPlan`) that wrap arrival schedules and punctuation paths:
  source outages, clock-skew spikes, drops, duplicates, out-of-order
  bursts, punctuation loss/delay, load spikes, and slow sinks;
* :mod:`repro.faults.degrade` — the degradation ladder
  (:class:`StallDetector` → :class:`FallbackHeartbeat` →
  :class:`QuarantinePolicy`) that keeps the engine live and crash-free
  when those faults hit;
* :mod:`repro.faults.monitors` — :class:`InvariantMonitor` watchdogs that
  prove the degradation stayed graceful (monotone sinks, monotone TSM
  registers, bounded buffers).
"""

from .degrade import FallbackHeartbeat, QuarantinePolicy, StallDetector
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
    "FallbackHeartbeat",
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
    "StallDetector",
]
