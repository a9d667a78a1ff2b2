"""Idle-waiting accounting for IWP operators.

The paper reports "the percentage of time the union operator spends in an
idle-waiting state" (Section 6): 99 % without ETS, 15 % with 100 Hz periodic
ETS, under 0.1 % with on-demand ETS.  An operator is *idle-waiting* when it
holds at least one pending data tuple but its ``more`` condition is false —
tuples are sitting in its input buffers purely because of timestamp skew.

:class:`IdleTracker` integrates that state over virtual time.  The engine
refreshes the tracker after every state transition it causes (steps, ETS
injections, wake-ups, quiescence) — *after* charging the transition's CPU
cost, so an interval opens and closes at the post-charge clock and the
accrued intervals are exact up to the engine's own step granularity.  The
idle bit is part of each IWP operator's memoised gate, so a refresh judges
only operators whose gate changed since the previous refresh — and the
engine calls it at a wake-up's edges and after an ETS injection only when
some tracked gate did; otherwise it just moves :attr:`IdleTracker.last_seen`,
all such a refresh would do.  The state is evaluated lazily here, never stamped at the buffer
mutation itself, which happens before the charge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.operators.base import IwpOperator

__all__ = ["IdleTracker"]


class IdleTracker:
    """Integrates idle-waiting time per tracked (IWP) operator."""

    def __init__(self, operators: Iterable["IwpOperator"],
                 start_time: float = 0.0) -> None:
        #: The tracked operators, and per operator the memoised gate its
        #: state was last judged from (index-parallel).  A refresh skips an
        #: operator whose memo is still that gate, so one that finds every
        #: memo judged only moves :attr:`last_seen` — which the engine does
        #: itself instead of calling :meth:`refresh`.
        self.tracked = tuple(operators)
        self.judged: list[tuple | None] = [None] * len(self.tracked)
        #: The tracked operators and those feeding them: only their steps
        #: move a tracked gate, so only theirs need a refresh after.
        self.feeders = frozenset(self.tracked).union(
            pred for op in self.tracked for pred in op.predecessors
            if pred is not None)
        self._index = {op.name: i for i, op in enumerate(self.tracked)}
        self._blocked_since: list[float | None] = [None] * len(self.tracked)
        self._total = [0.0] * len(self.tracked)
        self._start = start_time
        #: The latest instant the tracker was brought to: open intervals
        #: are counted up to it when no ``now`` is given.
        self.last_seen = start_time

    @property
    def operators(self) -> list["IwpOperator"]:
        return list(self.tracked)

    def refresh(self, now: float) -> None:
        """Open or close each tracked operator's idle interval at ``now``.

        An operator whose memoised gate is the object judged last time has
        had no input mutation since, so its idle bit — part of that gate —
        and its interval are as they were: it is skipped.  Otherwise the bit
        is read off the gate; an operator with none (stale, or strict) is
        asked :meth:`Operator.idle_waiting`.
        """
        blocked_since, judged = self._blocked_since, self.judged
        for i, op in enumerate(self.tracked):
            gate = op._gate
            if gate is None:
                idle = op.idle_waiting()
                gate = op._gate
            elif gate is judged[i]:
                continue
            else:
                idle = gate[4]
            judged[i] = gate
            since = blocked_since[i]
            if idle:
                if since is None:
                    blocked_since[i] = now
            elif since is not None:
                self._total[i] += now - since
                blocked_since[i] = None
        if now > self.last_seen:
            self.last_seen = now

    def idle_time(self, op_name: str, now: float | None = None) -> float:
        """Total idle-waiting seconds accrued by ``op_name`` so far.

        Open intervals are counted up to ``now`` (default: the last refresh).
        """
        i = self._index[op_name]
        total = self._total[i]
        since = self._blocked_since[i]
        if since is not None:
            total += (now if now is not None else self.last_seen) - since
        return total

    def idle_fraction(self, op_name: str, now: float | None = None) -> float:
        """Idle-waiting time as a fraction of the observed duration."""
        end = now if now is not None else self.last_seen
        duration = end - self._start
        if duration <= 0:
            return 0.0
        return self.idle_time(op_name, end) / duration

    def snapshot(self, now: float | None = None) -> dict[str, float]:
        """Idle fractions for every tracked operator."""
        return {op.name: self.idle_fraction(op.name, now)
                for op in self.tracked}
