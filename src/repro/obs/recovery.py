"""Recovery metrics: liveness gaps at sinks, time-to-liveness after faults.

The chaos experiment's headline claim (X8) is *liveness through an
outage*: while a source is silent, on-demand ETS must keep data from the
other streams flowing to the sinks.  A :class:`RecoveryTracker` chains onto
a sink's ``on_output`` callback and records every delivery instant together
with the tuple's arrival instant, from which both the largest silent gap
and the time-to-liveness after any chosen instant (e.g. the start of an
outage) fall out.
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
        #: Arrival instant of each delivered tuple, parallel to ``times``.
        self.arrivals: list[float] = []
        self._max_gap = 0.0
        self._last: float | None = None

    def watch(self, sink: SinkNode) -> "RecoveryTracker":
        previous = sink.on_output

        def record(tup, latency) -> None:
            self.note(sink_time(tup, latency), tup.arrival_ts)
            if previous is not None:
                previous(tup, latency)

        def sink_time(tup, latency) -> float:
            # Delivery instant = arrival + latency when both are known;
            # falls back to the tuple timestamp (logical runs).
            t = tup.arrival_ts + latency
            return t if t == t else tup.ts  # NaN check

        sink.on_output = record
        return self

    def note(self, t: float, arrival: float = float("nan")) -> None:
        """Record one delivery at instant ``t`` of a tuple that arrived at
        ``arrival``."""
        if self._last is not None and t - self._last > self._max_gap:
            self._max_gap = t - self._last
        self._last = t
        self.times.append(t)
        self.arrivals.append(arrival)

    @property
    def deliveries(self) -> int:
        return len(self.times)

    @property
    def max_sink_gap(self) -> float:
        """Largest silent interval between consecutive deliveries (same
        name as ``ChaosReport.max_sink_gap``)."""
        return self._max_gap

    def time_to_liveness(self, after: float) -> float | None:
        """Seconds from ``after`` until the sink delivered a tuple that
        arrived at or after it (None if it never did).

        A backlog of older tuples flushed after ``after`` does not count:
        liveness means data arriving now reaches the sink.
        """
        first = min((t for t, a in zip(self.times, self.arrivals)
                     if a >= after), default=None)
        if first is None:
            return None
        return first - after
