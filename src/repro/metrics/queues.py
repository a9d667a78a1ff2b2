"""Queue-occupancy metrics: the paper's memory measure (Figure 8).

Peak total queue size is maintained incrementally by
:class:`~repro.core.buffers.BufferRegistry`; this module adds the small
summary wrapper the metrics registry absorbs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.graph import QueryGraph

__all__ = ["queue_summary"]


def queue_summary(graph: "QueryGraph") -> dict[str, object]:
    """Occupancy summary for a query graph: peak, current, per-buffer counts."""
    return {
        "peak_total": graph.registry.peak,
        "current_total": graph.registry.total,
        "per_buffer": {buf.name: len(buf) for buf in graph.buffers},
        "punctuation_enqueued": sum(buf.punctuation_count
                                    for buf in graph.buffers),
    }
