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

__all__ = ["CheckpointTracker", "RecoveryTracker"]


class CheckpointTracker:
    """Wall-clock cost figures of checkpointing and crash recovery.

    A :class:`~repro.recovery.RecoveryManager` given a tracker reports every
    checkpoint it writes and every recovery it performs; the figures fold
    into the metrics registry alongside the liveness numbers of
    :class:`RecoveryTracker`.
    """

    def __init__(self) -> None:
        self.checkpoints = 0
        self.checkpoint_seconds = 0.0
        self.checkpoint_bytes = 0
        self.last_checkpoint_seconds = 0.0
        self.recoveries = 0
        self.recovery_seconds = 0.0
        self.last_recovery_seconds = 0.0
        self.last_replayed = 0

    def note_checkpoint(self, *, duration: float, bytes_written: int) -> None:
        """Record one durably written checkpoint."""
        self.checkpoints += 1
        self.checkpoint_seconds += duration
        self.checkpoint_bytes += bytes_written
        self.last_checkpoint_seconds = duration

    def note_recovery(self, *, duration: float, replayed: int) -> None:
        """Record one completed recovery (time-to-recover + replay size)."""
        self.recoveries += 1
        self.recovery_seconds += duration
        self.last_recovery_seconds = duration
        self.last_replayed = replayed

    def as_dict(self) -> dict[str, float]:
        """Figures under canonical ``snake_case`` names (registry shape)."""
        return {
            "checkpoints": float(self.checkpoints),
            "checkpoint_seconds": self.checkpoint_seconds,
            "checkpoint_bytes": float(self.checkpoint_bytes),
            "last_checkpoint_seconds": self.last_checkpoint_seconds,
            "recoveries": float(self.recoveries),
            "recovery_seconds": self.recovery_seconds,
            "last_recovery_seconds": self.last_recovery_seconds,
            "last_replayed": float(self.last_replayed),
        }


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
        """Largest silent interval between consecutive deliveries.

        Same name as ``ChaosReport.max_sink_gap`` and the
        ``repro_recovery{field=max_sink_gap}`` metric.
        """
        return self._max_gap

    def as_dict(self) -> dict[str, float]:
        """The liveness figures under their canonical ``snake_case`` names.

        One shape shared with ``EngineStats.as_dict()`` and
        ``ChaosReport.as_dict()``; this is what
        :meth:`repro.obs.MetricsRegistry.absorb_recovery` consumes.
        """
        return {
            "deliveries": float(self.deliveries),
            "max_sink_gap": self._max_gap,
            "first_delivery": self.times[0] if self.times else float("nan"),
            "last_delivery": self.times[-1] if self.times else float("nan"),
        }

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
