"""Quarantine for regressed timestamps.

Liveness through a dead or silent source is on-demand ETS's job: the NOS
walk backtracks to the stalled source and punctuates it at the wake-up that
needs it (paper Section 5; claim X8).  What on-demand ETS cannot fix is a
source whose clock spikes past the declared skew bound ``external_delta``:
its next timestamps fall below the punctuation already sent.  A
:class:`QuarantinePolicy` decides — per configuration — whether such a
regressed external timestamp raises (strict), is dropped, or is clamped to
the stream frontier, with counters surfaced in ``EngineStats`` and on the
event bus.
"""

from __future__ import annotations

from ..core.errors import PolicyError, TimestampError
from ..core.execution import EngineStats
from ..obs.bus import EventBus

__all__ = ["QuarantinePolicy"]


class QuarantinePolicy:
    """What happens to a timestamp that regressed below the stream frontier.

    After a clock-skew fault past the skew bound an arriving external
    timestamp can sit below the source's frontier (the ETS punctuation
    already sent) — strictly a :class:`TimestampError`.  The quarantine
    policy turns that hard crash into a configurable degradation:

    * ``"raise"`` — keep the strict behaviour (default; the error still
      carries structured fields);
    * ``"drop"`` — discard the offending tuple and count it;
    * ``"clamp"`` — admit the tuple with its timestamp raised to the
      frontier, preserving content at the cost of timestamp fidelity.

    Counters are mirrored into the bound :class:`EngineStats` and every
    decision is published as a ``"quarantine"`` fault event on the bound
    event bus.
    """

    MODES = ("raise", "drop", "clamp")

    def __init__(self, mode: str = "raise") -> None:
        if mode not in self.MODES:
            raise PolicyError(
                f"quarantine mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        self.dropped = 0
        self.clamped = 0
        self.raised = 0
        self._stats: EngineStats | None = None
        self._bus: EventBus | None = None

    def bind(self, stats: EngineStats | None = None,
             bus: EventBus | None = None) -> None:
        """Mirror counters into ``stats`` and decisions onto ``bus``."""
        self._stats = stats
        self._bus = bus

    @property
    def total(self) -> int:
        return self.dropped + self.clamped + self.raised

    def _trace(self, source_name: str, detail: str, now: float) -> None:
        round_id = self._stats.rounds if self._stats is not None else 0
        if self._bus is not None:
            self._bus.fault(kind="quarantine", operator=source_name,
                            round_id=round_id, time=now, detail=detail)

    def handle(self, *, source_name: str, ts: float, floor: float,
               now: float) -> float | None:
        """Decide one regressed timestamp; called by ``SourceNode.ingest``.

        Returns the admitted (possibly clamped) timestamp, None to drop the
        tuple, or raises in ``"raise"`` mode.
        """
        mode = self.mode
        if mode == "drop":
            self.dropped += 1
            if self._stats is not None:
                self._stats.quarantine_dropped += 1
            self._trace(source_name, f"drop ts={ts} floor={floor}", now)
            return None
        if mode == "clamp":
            self.clamped += 1
            if self._stats is not None:
                self._stats.quarantine_clamped += 1
            self._trace(source_name, f"clamp ts={ts} -> {floor}", now)
            return floor
        self.raised += 1
        self._trace(source_name, f"raise ts={ts} floor={floor}", now)
        raise TimestampError(
            f"source {source_name!r}: quarantined timestamp regression "
            f"({ts} below frontier {floor})",
            operator=source_name, port=0, offending_ts=ts,
            last_seen_ts=floor, kind="quarantine",
        )
