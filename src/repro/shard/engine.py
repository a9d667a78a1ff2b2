"""The :class:`ShardedEngine` facade: P engines behind one ingest surface.

Data tuples are *shuffled* — routed by a stable hash of their partition key
to exactly one shard — while punctuation is *broadcast* to every shard:
each shard holds a full copy of the query graph, so its IWP operators gate
on all sources' progress, and a shard that never receives a key still
learns that time has passed.  (This is the paper's idle-waiting problem
reappearing one level up: without punctuation, an idle shard pins the
global frontier exactly as an idle input pins an IWP operator's τ — and
the same ETS machinery fixes both.)

Shard outputs flow into a :class:`~repro.shard.frontier.FrontierMerge`
gated on the min advertised frontier, so the merged stream is globally
timestamp-ordered while each shard runs at its own pace.

Correctness contract: the query must be **key-partitionable** — every
stateful binary operator (the window join) keyed on the partition key, so
that co-partitioned tuples meet on the same shard.  Unary operators
(select/map/union-of-partitioned-streams/reorder) compose freely.  The
``ShardedDifferentialOracle`` in ``tests/oracle.py`` is the executable
form of this contract: sharded output must equal single-engine output
after canonicalized ordering, for P ∈ {1, 2, 4}, across ETS modes, batch
sizes, and join layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Callable

from ..core.config import EngineConfig
from ..core.errors import ReproError
from ..obs.bus import EventBus
from .backends import (
    BACKENDS,
    EngineShard,
    ShardResult,
    ShardSummary,
    make_backend,
)
from .frontier import FrontierMerge, FrontierTracker, MergedRecord
from .partition import HashPartitioner

__all__ = ["ShardedEngine", "ShardedRecoveryReport"]


@dataclass(slots=True)
class ShardedRecoveryReport:
    """Per-shard recovery reports plus the composed global figures.

    ``ingests_by_shard`` maps ``shard -> {source -> replayed ingest
    count}`` — exactly the per-shard skip counts a driver needs to re-feed
    the global schedule without duplicating routed tuples (routing is
    deterministic, so the crashed run's prefix routes identically on
    replay).
    """

    reports: list = field(default_factory=list)
    ingests_by_shard: dict[int, dict[str, int]] = field(default_factory=dict)
    frontiers: list[float] = field(default_factory=list)

    @property
    def ingests_by_source(self) -> dict[str, int]:
        """Global replayed-ingest counts, summed across shards."""
        totals: dict[str, int] = {}
        for counts in self.ingests_by_shard.values():
            for source, count in counts.items():
                totals[source] = totals.get(source, 0) + count
        return totals

    @property
    def total_ingests(self) -> int:
        return sum(self.ingests_by_source.values())

    @property
    def any_fallback(self) -> bool:
        return any(r.fallback for r in self.reports)


class ShardedEngine:
    """P key-partitioned engine shards behind one ingest/wakeup surface.

    Args:
        build: Zero-argument factory returning a fresh
            :class:`~repro.core.graph.QueryGraph`; called once per shard
            (each shard runs a private copy).
        shards: Shard count P ≥ 1.
        key: Partition key — a payload field name or a callable
            ``payload -> key``.  Keys must be stable-hashable (see
            :func:`repro.shard.partition.stable_hash`).
        backend: ``"serial"`` (the default and the reference the oracles
            compare against), ``"thread"``, or ``"process"``.
        op_timeout: Per-shard operation timeout (seconds) enforced by the
            thread and process backends.
        disorder_bound: Frontier slack for out-of-order sources.
        retry_limit: Bounded re-poll attempts per operation for the
            process backend (see :class:`ProcessBackend`).
        config / **knobs: The shared knobs, declared and documented on
            :class:`~repro.core.config.EngineConfig`: ``config`` carries
            them, keywords are ``config.replace``.  The facade keeps
            ``observers`` (they hear ``on_shard`` events) and roots
            ``state_dir``; every other field reaches every shard engine,
            so ``ets_policy`` and ``feedback`` must be zero-argument
            factories here.
    """

    def __init__(self, build: Callable[[], Any], *, shards: int,
                 key: str | Callable[[Any], Any],
                 backend: str = "serial",
                 op_timeout: float = 60.0,
                 disorder_bound: float = 0.0,
                 retry_limit: int = 1,
                 config: EngineConfig | None = None, **knobs) -> None:
        config = (config or EngineConfig()).replace(**knobs)
        if backend not in BACKENDS:
            raise ReproError(f"unknown shard backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        shards, self.state_dir = self._open_state(int(shards),
                                                  config.state_dir)
        self.shard_count = shards
        self.backend_kind = backend
        self.partitioner = HashPartitioner(shards, key)
        self.tracker = FrontierTracker(shards)
        self.merge = FrontierMerge()
        self.bus = EventBus(config.observers) if config.observers else None
        self._drive_now = 0.0
        self._pending_ingests: list[list] = [[] for _ in range(shards)]
        self._pending_puncts: list = []
        self.ingested = 0
        self.wakeups = 0
        self._closed = False
        self.feedback_enabled = config.feedback is not None
        self.global_pressure = 0.0
        self.clamps_broadcast = 0
        #: What every shard engine is built from (plus its own
        #: ``state_dir``): per-shard engine events stay inside their shard,
        #: and each shard owns its recovery manager.
        self._shard_config = config.replace(observers=(), recovery=None)
        self._disorder_bound = disorder_bound
        self._build = build
        self._backend_opts = dict(op_timeout=op_timeout,
                                  retry_limit=retry_limit)
        self.backend = self._make_backend(shards, self.state_dir)

    def _open_state(self, shards: int, state_dir) -> tuple[int, Path | None]:
        """The shard count and the directory the shards' state lives under."""
        return shards, Path(state_dir) if state_dir is not None else None

    def _shard_kwargs(self, index: int, state_dir: Path | None) -> dict:
        """``EngineShard`` keywords for shard ``index`` under ``state_dir``."""
        shard_dir = (None if state_dir is None
                     else state_dir / f"shard-{index:02d}")
        return {"config": self._shard_config.replace(state_dir=shard_dir),
                "disorder_bound": self._disorder_bound}

    def _make_backend(self, shards: int, state_dir: Path | None):
        """A backend of ``shards`` fresh shard engines under ``state_dir``."""
        backend = make_backend(
            self.backend_kind, shards, build=self._build,
            shard_kwargs=lambda index: self._shard_kwargs(index, state_dir),
            **self._backend_opts)
        if hasattr(backend, "on_retry"):
            backend.on_retry = self._note_retry
        return backend

    def _note_retry(self, shard: int, op: str, attempt: int,
                    backoff: float) -> None:
        """Backend retry hook → ``on_shard(kind="retry")`` bus event."""
        if self.bus is not None:
            self.bus.shard(kind="retry", shard=shard, time=self._drive_now,
                           count=attempt, value=backoff,
                           detail=f"{op} re-polled with {backoff:g}s")

    # ------------------------------------------------------------------ #
    # Routing (the shuffle)

    def shard_for(self, payload: Any) -> int:
        """The shard a payload routes to (deterministic, process-stable)."""
        return self.partitioner.shard_for_payload(payload)

    def ingest(self, source: str, payload: Any, *, time: float,
               ts: float | None = None) -> int:
        """Route one tuple to its key's shard; applied at the next wakeup.

        Returns the destination shard index.
        """
        shard = self.shard_for(payload)
        self._pending_ingests[shard].append((source, payload, time, ts))
        if time > self._drive_now:
            self._drive_now = time
        self.ingested += 1
        return shard

    def inject_punctuation(self, source: str, ts: float, *,
                           origin: str = "", periodic: bool = False) -> None:
        """Broadcast a punctuation to every shard at the next wakeup."""
        self._pending_puncts.append((source, ts, origin, periodic))

    # ------------------------------------------------------------------ #
    # Driving

    def wakeup(self) -> list[MergedRecord]:
        """Flush the exchange, run every shard to quiescence, merge.

        Returns the records released by the frontier gate this round, as
        ``(ts, shard, seq, sink, payload)`` tuples in global timestamp
        order.

        With ``feedback`` set, the previous wake-up's aggregated
        pressure view rides along as a clamp (bounded staleness: one
        wake-up) and this wake-up's per-shard pressures are folded into
        the next view.
        """
        clamp = self.global_pressure if self.feedback_enabled else None
        commands = [(self._pending_ingests[i], self._pending_puncts,
                     self._drive_now, clamp)
                    for i in range(self.shard_count)]
        self._pending_ingests = [[] for _ in range(self.shard_count)]
        self._pending_puncts = []
        results: list[ShardResult] = self.backend.apply_all(commands)
        self.wakeups += 1
        if clamp is not None and clamp > 0.0:
            self.clamps_broadcast += 1
        if self.feedback_enabled:
            previous = self.global_pressure
            self.global_pressure = max(
                (r.pressure for r in results), default=0.0)
            if self.bus is not None and self.global_pressure != previous:
                self.bus.shard(
                    kind="clamp", shard=-1, time=self._drive_now,
                    frontier=self.global_pressure, count=self.shard_count,
                    detail=f"pressure={self.global_pressure:.3f}")
        for result in results:
            self.tracker.advertise(result.shard, result.frontier)
            # The shard ships runs; the merge takes rows (its contract).
            offered = self.merge.offer(result.shard, chain.from_iterable(
                zip(repeat(sink), ts, payloads)
                for sink, ts, payloads in result.outputs))
            if self.bus is not None:
                if result.ingested:
                    self.bus.shard(kind="ingest", shard=result.shard,
                                   time=self._drive_now,
                                   count=result.ingested)
                self.bus.shard(kind="wakeup", shard=result.shard,
                               time=self._drive_now,
                               frontier=result.frontier,
                               count=offered)
        released = self.merge.release(self.tracker.global_frontier())
        if self.bus is not None:
            self.bus.shard(kind="frontier", shard=-1, time=self._drive_now,
                           frontier=self.tracker.global_frontier(),
                           count=len(released))
        return released

    def close(self, *, flush: bool = True) -> list[MergedRecord]:
        """Shut down shards; optionally flush records still gated.

        In-flight merge state is volatile by design (the durable
        exactly-once boundary is each shard's sink — see DESIGN.md §4g);
        an orderly close flushes it so a complete run loses nothing.
        """
        if self._closed:
            return []
        self._closed = True
        remaining = self.merge.flush() if flush else []
        self.backend.close()
        return remaining

    # ------------------------------------------------------------------ #
    # Durability composition

    def checkpoint(self) -> list:
        """Force a checkpoint on every shard (requires ``state_dir``)."""
        return self.backend.checkpoint_all()

    def recover(self) -> ShardedRecoveryReport:
        """Recover every shard to its durable prefix; compose the reports.

        Per-shard prefixes are mutually consistent because shards share no
        channels after the shuffle: each shard's WAL replay restores *its*
        partition of the stream exactly-once, and deterministic routing
        lets the driver re-feed the global suffix using the returned
        per-shard skip counts.
        """
        reports = self.backend.recover_all()
        composed = ShardedRecoveryReport(reports=list(reports))
        summaries = self.backend.summaries()
        for index, (report, summary) in enumerate(zip(reports, summaries)):
            composed.ingests_by_shard[index] = dict(report.ingests_by_source)
            composed.frontiers.append(summary.frontier)
            self.tracker.advertise(index, summary.frontier)
            if self.bus is not None:
                self.bus.shard(kind="recovery", shard=index,
                               time=self._drive_now,
                               frontier=summary.frontier,
                               count=sum(report.ingests_by_source.values()))
        return composed

    def crash_shard(self, index: int) -> Any:
        """Simulate a single-shard failure (in-process backends only).

        The shard's in-memory state is discarded and rebuilt from its
        checkpoint + WAL while every other shard keeps running — the
        targeted-failure half of the crash matrix.  Returns the shard's
        :class:`RecoveryReport`.
        """
        shards = getattr(self.backend, "shards", None)
        if shards is None:
            raise ReproError("crash_shard needs an in-process backend "
                             "(serial or thread)")
        old = shards[index]
        old.close()
        replacement = EngineShard(
            index, self._build, **self._shard_kwargs(index, self.state_dir))
        shards[index] = replacement
        report = replacement.recover()
        self.tracker.advertise(index, replacement.frontier())
        if self.bus is not None:
            self.bus.shard(kind="recovery", shard=index,
                           time=self._drive_now,
                           frontier=replacement.frontier(),
                           count=sum(report.ingests_by_source.values()))
        return report

    # ------------------------------------------------------------------ #
    # Introspection

    def summaries(self) -> list[ShardSummary]:
        return self.backend.summaries()

    def summary(self) -> dict:
        """Global end-of-run figures plus one entry per shard."""
        per_shard = self.summaries()
        return {
            "shards": self.shard_count,
            "backend": self.backend_kind,
            "ingested": self.ingested,
            "wakeups": self.wakeups,
            "released": self.merge.released_count,
            "pending": self.merge.pending,
            "frontier": self.tracker.global_frontier(),
            "frontier_spread": self.tracker.spread(),
            "pressure": self.global_pressure,
            "clamps_broadcast": self.clamps_broadcast,
            "retries": getattr(self.backend, "retries", 0),
            "per_shard": [
                {"shard": s.shard, "ingested": s.ingested,
                 "delivered": s.delivered, "frontier": s.frontier}
                for s in per_shard
            ],
        }
