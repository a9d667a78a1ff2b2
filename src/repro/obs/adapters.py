"""Adapters: legacy observability surfaces re-expressed as bus observers.

The original tracing layer (:class:`~repro.core.tracing.Tracer` fed by an
engine subclass that re-implemented the walk) predates the event bus.
:class:`TraceObserver` closes that era: it listens to the bus and records
the *exact* event vocabulary the old tracer produced —
``execute`` / ``forward`` / ``encore`` / ``backtrack`` / ``ets`` /
``quiesce`` plus the fault-path kinds (``degrade``, ``fallback``,
``resync``, ``quarantine``, ``violation``) — so every Fig.-2 trace-sequence
assertion passes unchanged while the duplicated walk logic is gone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .bus import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tracing import Tracer

__all__ = ["TraceObserver"]


class TraceObserver(Observer):
    """Feeds a legacy :class:`Tracer` from the event bus.

    The mapping preserves the historical record stream one-to-one:
    punctuation injections, buffer changes, and wake-up starts — events the
    old tracer never saw — are deliberately not recorded.
    """

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def on_step(self, *, operator, round_id, time, kind, steps=1, probes=0,
                probes_emitted=0, emitted_data=0, emitted_punctuation=0,
                duration=0.0) -> None:
        detail = f"block:{steps}" if kind == "block" else kind
        self.tracer.record("execute", operator, round_id, detail=detail)

    def on_nos_decision(self, *, decision, operator, round_id, time,
                        detail="") -> None:
        self.tracer.record(decision, operator, round_id, detail=detail)

    def on_ets(self, *, operator, round_id, time, injected,
               offered=True) -> None:
        self.tracer.record("ets", operator, round_id,
                           detail="injected" if injected else "declined")

    def on_fault(self, *, kind, operator, round_id, time, detail="") -> None:
        self.tracer.record(kind, operator, round_id, detail=detail)

    def on_quiesce(self, *, round_id, time) -> None:
        self.tracer.record("quiesce", "-", round_id)
