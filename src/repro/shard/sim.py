"""Workload driver for the sharded engine — the `Simulation` of shard land.

:class:`ShardedSimulation` mirrors the drive surface of
:class:`repro.sim.kernel.Simulation` (attach arrival schedules, optional
periodic heartbeats, ``run(until)``, ``summary()``) but pushes tuples
through a :class:`~repro.shard.engine.ShardedEngine` instead of a single
:class:`ExecutionEngine`: arrivals are routed by partition key, heartbeats
are broadcast to every shard, and the returned output is the
frontier-merged, globally timestamp-ordered record stream.

Fault plans from :mod:`repro.faults` compose unchanged — arrival-level
specs wrap each source's schedule *before* routing, so the same seeded
plan faults the same tuples whether the run is sharded or not (the chaos
suite's differential lever).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Mapping

from ..core.errors import WorkloadError
from ..sim.kernel import Arrival
from .elastic import Autoscaler, ElasticShardedEngine, ShardSupervisor
from .engine import ShardedEngine
from .frontier import MergedRecord

__all__ = ["ShardedSimulation"]


class ShardedSimulation:
    """Drive deterministic arrival schedules through a sharded engine.

    Args:
        build: Fresh-graph factory, forwarded to :class:`ShardedEngine`.
        shards / key / backend / ets_policy_factory / batch_size /
            state_dir / checkpoint_every / observers / op_timeout /
            disorder_bound / feedback / config: Forwarded to
            :class:`ShardedEngine`.
        heartbeats: Optional ``{source: rate}`` map of periodic punctuation
            (scenario-B style), broadcast to every shard.
        wake_every: Exchange flushes per drive — the engine wakes up after
            this many delivered events (chunked, like the oracle drive).
        reshard_at: Optional ``{time: target_shards}`` schedule of live
            topology changes, executed at the first wake-up whose drive
            time reaches each instant; implies the elastic engine.
        supervisor / autoscaler: Optional
            :class:`~repro.shard.elastic.ShardSupervisor` /
            :class:`~repro.shard.elastic.Autoscaler`; either one (or
            ``elastic=True``) selects the
            :class:`~repro.shard.elastic.ElasticShardedEngine`.
    """

    def __init__(self, build: Callable[[], Any], *, shards: int,
                 key: str | Callable[[Any], Any],
                 backend: str = "serial",
                 ets_policy_factory=None, batch_size: int = 1,
                 heartbeats: Mapping[str, float] | None = None,
                 wake_every: int = 8,
                 state_dir=None, checkpoint_every: int | None = None,
                 observers=None, op_timeout: float = 60.0,
                 disorder_bound: float = 0.0,
                 feedback=None,
                 reshard_at: Mapping[float, int] | None = None,
                 supervisor: ShardSupervisor | None = None,
                 autoscaler: Autoscaler | None = None,
                 elastic: bool = False,
                 config=None) -> None:
        shared = dict(
            shards=shards, key=key, backend=backend,
            ets_policy_factory=ets_policy_factory, batch_size=batch_size,
            state_dir=state_dir, checkpoint_every=checkpoint_every,
            observers=observers, op_timeout=op_timeout,
            disorder_bound=disorder_bound, feedback=feedback,
            config=config)
        if elastic or reshard_at or supervisor or autoscaler:
            self.engine: ShardedEngine = ElasticShardedEngine(
                build, supervisor=supervisor, autoscaler=autoscaler,
                **shared)
        else:
            self.engine = ShardedEngine(build, **shared)
        self._reshard_at = sorted((reshard_at or {}).items())
        self.heartbeats = dict(heartbeats or {})
        if wake_every <= 0:
            raise WorkloadError(f"wake_every must be positive, "
                                f"got {wake_every}")
        self.wake_every = wake_every
        self._arrivals: dict[str, Iterable[Arrival]] = {}
        self.arrivals_delivered = 0
        self.heartbeats_delivered = 0
        self.records: list[MergedRecord] = []

    def attach_arrivals(self, source: str, arrivals: Iterable[Arrival], *,
                        faults=None, skip: int = 0) -> "ShardedSimulation":
        """Bind a source's arrival schedule, optionally fault-wrapped.

        ``skip`` drops the schedule's first N arrivals — the resume path
        after recovery (the skipped prefix was already WAL-replayed by the
        shards it routed to).
        """
        if source in self._arrivals:
            raise WorkloadError(f"source {source!r} already has arrivals")
        stream = iter(arrivals)
        if faults is not None:
            stream = faults.wrap(source, stream)
        if skip:
            def skipped(inner=stream, n=skip):
                for index, arrival in enumerate(inner):
                    if index >= n:
                        yield arrival
            stream = skipped()
        self._arrivals[source] = stream
        return self

    def _events(self, until: float):
        """All drive events merged in time order.

        Yields ``(time, kind, source, arrival_or_None)`` with arrivals
        ordered before heartbeats at equal times (matching the kernel: a
        heartbeat stamped t covers everything up to and including t).
        """
        streams = []
        for order, (name, stream) in enumerate(sorted(self._arrivals.items())):
            streams.append((name, 0, order, iter(stream)))
        for order, (name, rate) in enumerate(sorted(self.heartbeats.items())):
            if rate <= 0:
                raise WorkloadError(
                    f"heartbeat rate for {name!r} must be positive")

            def ticks(r=rate, n=name):
                k = 1
                while True:
                    yield Arrival(time=k / r, payload=None, external_ts=None)
                    k += 1
            streams.append((name, 1, order, ticks()))

        heap = []
        for name, kind, order, stream in streams:
            first = next(stream, None)
            if first is not None and first.time <= until:
                heapq.heappush(heap, (first.time, kind, order, name,
                                      first, stream))
        while heap:
            time, kind, order, name, arrival, stream = heapq.heappop(heap)
            yield time, kind, name, arrival
            following = next(stream, None)
            if following is not None and following.time <= until:
                heapq.heappush(heap, (following.time, kind, order, name,
                                      following, stream))

    def run(self, until: float, *, eos: bool = True) -> list[MergedRecord]:
        """Deliver every event up to ``until``; returns the merged records.

        ``eos=True`` finishes with an end-of-stream punctuation on every
        source plus a final flush of the frontier merge, so the run drains
        completely (without it, NoEts legitimately strands gated tuples).
        The engine stays open for :meth:`summary`; call :meth:`close` when
        done.
        """
        engine = self.engine
        pending = 0
        last_time = 0.0
        for time, kind, name, arrival in self._events(until):
            last_time = time
            if kind == 0:
                engine.ingest(name, arrival.payload, time=time,
                              ts=arrival.external_ts)
                self.arrivals_delivered += 1
            else:
                engine.inject_punctuation(name, time,
                                          origin=f"heartbeat:{name}",
                                          periodic=True)
                self.heartbeats_delivered += 1
            pending += 1
            if pending >= self.wake_every:
                self.records.extend(engine.wakeup())
                pending = 0
                while self._reshard_at and time >= self._reshard_at[0][0]:
                    _, target = self._reshard_at.pop(0)
                    report = engine.reshard(target, reason="scheduled")
                    self.records.extend(report.released)
        if eos:
            final_ts = max(until, last_time) + 1.0
            for name in sorted(self._arrivals):
                engine.inject_punctuation(name, final_ts,
                                          origin=f"eos:{name}")
        if pending or eos:
            self.records.extend(engine.wakeup())
        if eos:
            self.records.extend(engine.merge.flush())
        return self.records

    def close(self, *, flush: bool = True) -> list[MergedRecord]:
        remaining = self.engine.close(flush=flush)
        self.records.extend(remaining)
        return remaining

    def summary(self) -> dict:
        out = self.engine.summary()
        out["arrivals_delivered"] = self.arrivals_delivered
        out["heartbeats_delivered"] = self.heartbeats_delivered
        return out
