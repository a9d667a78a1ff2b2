"""Queue-occupancy metrics: the paper's memory measure (Figure 8).

Peak total queue size is maintained incrementally by
:class:`~repro.core.buffers.BufferRegistry`; this module adds an optional
time-series sampler for plots and a small summary wrapper used by the
experiment harness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.graph import QueryGraph
    from ..sim.clock import VirtualClock

__all__ = ["QueueSampler", "queue_summary"]


class QueueSampler:
    """Records (time, total-queued) points whenever occupancy changes.

    Attach with ``graph.registry.add_observer(sampler)``.  Sampling every
    change is exact but memory-hungry; ``min_interval`` thins the series for
    long runs (the peak is still exact via the registry).
    """

    def __init__(self, clock: "VirtualClock", min_interval: float = 0.0) -> None:
        self._clock = clock
        self.min_interval = min_interval
        self.samples: list[tuple[float, int]] = []
        self._last_t = -float("inf")

    def __call__(self, total: int) -> None:
        now = self._clock.now()
        if now - self._last_t >= self.min_interval:
            self.samples.append((now, total))
            self._last_t = now

    def max_total(self) -> int:
        """Largest sampled occupancy (≤ the registry's exact peak)."""
        if not self.samples:
            return 0
        return max(total for _, total in self.samples)


def queue_summary(graph: "QueryGraph") -> dict[str, object]:
    """Occupancy summary for a query graph: peak, current, per-buffer counts."""
    return {
        "peak_total": graph.registry.peak,
        "current_total": graph.registry.total,
        "per_buffer": {buf.name: len(buf) for buf in graph.buffers},
        "punctuation_enqueued": sum(buf.punctuation_count
                                    for buf in graph.buffers),
    }
