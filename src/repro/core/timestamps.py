"""ETS value generation (paper Section 5, "On-Demand Generation of ETS").

When execution backtracks to a source node whose input buffer is empty, the
node generates an Enabling Time-Stamp:

* **internally timestamped** streams: the ETS value is the current system
  (virtual) clock — any tuple that enters later will be stamped later;
* **externally timestamped** streams: the ETS value is application-dependent;
  the canonical technique (Srivastava & Widom, PODS 2004; quoted by the
  paper) is the skew bound ``t + τ − δ`` where ``t`` is the last tuple's
  timestamp, ``τ`` the time elapsed since it arrived, and ``δ`` the maximum
  skew between two arrivals;
* **latent** streams: never need ETS (they never idle-wait).

Generators are small strategy objects so experiments can swap them per
source.
"""

from __future__ import annotations

from typing import Protocol

from .operators.source import SourceNode
from .tuples import LATENT_TS, TimestampKind

__all__ = [
    "EtsGenerator",
    "InternalClockEts",
    "SkewBoundEts",
    "default_generator_for",
]


class EtsGenerator(Protocol):
    """Strategy producing ETS values for one stalled source."""

    def propose(self, source: SourceNode, now: float) -> float | None:
        """Return an ETS value for ``source`` at virtual time ``now``.

        Returning None means no useful ETS can be produced right now (the
        engine then leaves the path idle until real data arrives).
        """
        ...


class InternalClockEts:
    """ETS for internally timestamped streams: the current virtual clock.

    Correctness is immediate — internal timestamps are assigned on entry
    using the same clock, so every future tuple is stamped ≥ now.
    """

    def propose(self, source: SourceNode, now: float) -> float | None:
        return now


class SkewBoundEts:
    """Skew-bound ETS for externally timestamped streams: ``t + τ − δ``.

    Args:
        delta: Maximum skew (stream seconds) between an application timestamp
            and its arrival; larger deltas are safer but unblock less.

    A source that has produced no data yet gives ``t`` no value, so no ETS
    is proposed: a never-started external stream keeps gating its IWP
    consumer until its first tuple arrives.
    """

    def __init__(self, delta: float) -> None:
        if delta < 0:
            raise ValueError(f"skew delta must be non-negative, got {delta}")
        self.delta = float(delta)

    def propose(self, source: SourceNode, now: float) -> float | None:
        if source.last_data_ts == LATENT_TS:
            return None  # no basis for estimation
        elapsed = now - source.last_arrival_wall
        return source.last_data_ts + elapsed - self.delta


def default_generator_for(source: SourceNode, *,
                          external_delta: float = 0.0) -> EtsGenerator | None:
    """Pick the natural ETS generator for a source's timestamp kind."""
    kind = source.timestamp_kind
    if kind is TimestampKind.INTERNAL:
        return InternalClockEts()
    if kind is TimestampKind.EXTERNAL:
        return SkewBoundEts(external_delta)
    return None  # latent streams never need ETS
