"""Event queue for the discrete-event simulation kernel.

Events are (time, seq, action) triples kept in a binary heap; ``seq`` breaks
ties deterministically in insertion order, which keeps simultaneous events
(common with coarse timestamps — paper Section 4.1) reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

__all__ = ["EventQueue"]

_INF = float("inf")


class EventQueue:
    """A deterministic time-ordered queue of zero-argument actions.

    Actions may return a value; the kernel uses this to learn which source
    an arrival touched (the engine's wake-up entry hint).

    :attr:`due` is the time of the earliest event at or below the run
    horizon (``inf`` when there is none), kept current by every push, pop
    and horizon change: the engine's pump compares the clock against it
    instead of asking the kernel whether anything fell due.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], Any]]] = []
        self._seq = itertools.count()
        self._horizon = _INF
        self.due = _INF

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def _refresh_due(self) -> None:
        heap = self._heap
        head = heap[0][0] if heap else _INF
        self.due = head if head <= self._horizon else _INF

    @property
    def horizon(self) -> float:
        """The kernel's run horizon: later events never count as due."""
        return self._horizon

    @horizon.setter
    def horizon(self, horizon: float) -> None:
        self._horizon = horizon
        self._refresh_due()

    def schedule(self, time: float, action: Callable[[], Any]) -> None:
        """Enqueue ``action`` to fire at simulated ``time``."""
        heapq.heappush(self._heap, (time, next(self._seq), action))
        if time < self.due and time <= self._horizon:
            self.due = time

    def next_time(self) -> float | None:
        """Time of the earliest pending event, or None when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop_due(self, now: float) -> tuple[float, Callable[[], Any]] | None:
        """Remove and return the earliest event with time ≤ ``now``."""
        if self._heap and self._heap[0][0] <= now:
            time, _, action = heapq.heappop(self._heap)
            self._refresh_due()
            return time, action
        return None

    def pop_next(self) -> tuple[float, Callable[[], Any]] | None:
        """Remove and return the earliest event regardless of time."""
        if not self._heap:
            return None
        time, _, action = heapq.heappop(self._heap)
        self._refresh_due()
        return time, action
