"""Recovery metrics: liveness gaps at sinks, time-to-liveness after faults.

The chaos suite's headline claim is *bounded recovery*: after a source
outage stalls an idle-waiting operator, fallback degradation must get data
flowing to the sinks again within a configured delay.  A
:class:`RecoveryTracker` chains onto a sink's ``on_output`` callback and
records every delivery instant, from which both the largest silent gap and
the time-to-liveness after any chosen instant (e.g. the moment the stall
detector could first have fired) fall out.
"""

from __future__ import annotations

from ..core.operators.sink import SinkNode

__all__ = ["RecoveryTracker"]


class RecoveryTracker:
    """Records sink delivery instants to measure liveness gaps.

    Attach with :meth:`watch` (chains the sink's existing callback)::

        tracker = RecoveryTracker().watch(sink)
        sim.run(until=120.0)
        assert tracker.time_to_liveness(after=outage_start) <= bound
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self._max_gap = 0.0
        self._last: float | None = None

    def watch(self, sink: SinkNode) -> "RecoveryTracker":
        previous = sink.on_output

        def record(tup, latency) -> None:
            self.note(sink_time(tup, latency))
            if previous is not None:
                previous(tup, latency)

        def sink_time(tup, latency) -> float:
            # Delivery instant = arrival + latency when both are known;
            # falls back to the tuple timestamp (logical runs).
            t = tup.arrival_ts + latency
            return t if t == t else tup.ts  # NaN check

        sink.on_output = record
        return self

    def note(self, t: float) -> None:
        """Record one delivery at instant ``t``."""
        if self._last is not None and t - self._last > self._max_gap:
            self._max_gap = t - self._last
        self._last = t
        self.times.append(t)

    @property
    def deliveries(self) -> int:
        return len(self.times)

    @property
    def max_sink_gap(self) -> float:
        """Largest silent interval between consecutive deliveries (same
        name as ``ChaosReport.max_sink_gap``)."""
        return self._max_gap

    def first_delivery_after(self, t: float) -> float | None:
        """Instant of the first delivery at or after ``t`` (None if never)."""
        for when in self.times:
            if when >= t:
                return when
        return None

    def time_to_liveness(self, after: float) -> float | None:
        """Seconds from ``after`` until the sink delivered again."""
        first = self.first_delivery_after(after)
        if first is None:
            return None
        return first - after
