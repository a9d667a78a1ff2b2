"""Execution tracing: observe the engine's NOS decisions.

The paper specifies the execution model as rules (Fig. 3's two-step cycle,
the Forward/Encore/Backtrack NOS rules, the Backtrack-to-source ETS hook).
A :class:`Tracer` records each decision the engine takes so tests can assert
the rules *literally* — e.g. that processing one tuple through the Fig.-2
simple path produces exactly ``execute(Q1), forward(Q2), execute(Q2),
backtrack(Q1), backtrack(source)`` — and so users can debug surprising
schedules.

The tracer is an ordinary bus observer: pass it in
``ExecutionEngine(observers=[tracer])`` and the engine's single walk
implementation feeds it.  Punctuation injections, buffer changes and
wake-up starts are not recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .bus import Observer

__all__ = ["TraceEvent", "Tracer", "summarize"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One engine decision.

    Attributes:
        kind: ``"execute"``, ``"forward"``, ``"encore"``, ``"backtrack"``,
            ``"ets"``, ``"quiesce"``, a fault-path kind
            (``"quarantine"``, ``"violation"``, ``"checkpoint-corrupt"``),
            or the terminal ``"truncated"`` marker.
        operator: Name of the operator (or source) the decision concerns.
        round_id: Engine wake-up round during which it happened.
        detail: Optional extra (e.g. stalled input index for backtrack,
            whether an ETS injection succeeded).
    """

    kind: str
    operator: str
    round_id: int
    detail: str = ""


class Tracer(Observer):
    """Accumulates :class:`TraceEvent` records with light query helpers.

    Args:
        capacity: Optional cap on recorded events.  Hitting the cap no
            longer loses information silently: a terminal ``"truncated"``
            event marks the cut and :attr:`dropped` counts every event
            discarded after it.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.events: list[TraceEvent] = []
        self.capacity = capacity
        self.dropped = 0

    @property
    def truncated(self) -> bool:
        """Did recording hit the capacity limit?"""
        return self.dropped > 0

    def record(self, kind: str, operator: str, round_id: int,
               detail: str = "") -> None:
        if self.capacity is not None and len(self.events) >= self.capacity:
            if not self.dropped:
                self.events.append(TraceEvent(
                    "truncated", "-", round_id,
                    detail=f"capacity {self.capacity} reached; "
                           "subsequent events dropped"))
            self.dropped += 1
            return
        self.events.append(TraceEvent(kind, operator, round_id, detail))

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def kinds(self) -> list[str]:
        return [e.kind for e in self.events]

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def sequence(self) -> list[tuple[str, str]]:
        """(kind, operator) pairs in order — the usual assertion target."""
        return [(e.kind, e.operator) for e in self.events]

    def format(self) -> str:
        """Human-readable dump, one decision per line."""
        return "\n".join(
            f"[round {e.round_id}] {e.kind:10s} {e.operator}"
            + (f"  ({e.detail})" if e.detail else "")
            for e in self.events
        )

    # ------------------------------------------------------------------ #
    # Bus hooks

    def on_step(self, *, operator, round_id, time, kind, steps=1, probes=0,
                probes_emitted=0, emitted_data=0, emitted_punctuation=0,
                duration=0.0) -> None:
        detail = f"block:{steps}" if kind == "block" else kind
        self.record("execute", operator, round_id, detail=detail)

    def on_nos_decision(self, *, decision, operator, round_id, time,
                        detail="") -> None:
        self.record(decision, operator, round_id, detail=detail)

    def on_ets(self, *, operator, round_id, time, injected,
               offered=True) -> None:
        self.record("ets", operator, round_id,
                    detail="injected" if injected else "declined")

    def on_fault(self, *, kind, operator, round_id, time, detail="") -> None:
        self.record(kind, operator, round_id, detail=detail)

    def on_quiesce(self, *, round_id, time) -> None:
        self.record("quiesce", "-", round_id)


def summarize(events: Iterable[TraceEvent]) -> dict[str, int]:
    """Count events by kind — a quick sanity surface for tests and examples."""
    counts: dict[str, int] = {}
    for e in events:
        counts[e.kind] = counts.get(e.kind, 0) + 1
    return counts
