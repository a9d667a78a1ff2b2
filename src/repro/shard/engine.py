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

Durability: with a ``state_dir`` the facade's input journal is the run's
only input log (a frame per wake-up before dispatch, the shards' delivered
``marks`` before release), and the facade alone decides when the shards
checkpoint: at a logged mark, every ``checkpoint_every`` wake-ups
(DESIGN.md §4g).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Callable, Sequence

from ..core.config import EngineConfig
from ..core.errors import GraphError, ReproError
from ..obs.bus import EventBus
from ..recovery.manager import RecoveryReport
from ..recovery.wal import InputJournal
from .backends import (
    BACKENDS,
    EngineShard,
    ShardError,
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

    ``ingests_by_shard`` maps ``shard -> {source -> ingest count}``: the
    facade log's ingests, routed by the live partitioner — exactly the
    per-shard skip counts a driver needs to re-feed the global schedule
    without duplicating routed tuples (routing is deterministic, so the
    crashed run's prefix routes identically on re-feed).
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


def log_segments(records):
    """The logged wake-ups in order, each as ``(ingests, puncts, wakeup)``:
    the ingest and punctuation commands since the previous wake-up record,
    in ``apply``'s form, then that record (``marks`` records are skipped)."""
    ingests: list[tuple] = []
    puncts: list = []
    for rec in records:
        kind = rec["kind"]
        if kind == "ingest":
            ingests.append((rec["source"], rec["payload"], rec["time"],
                            rec["ts"]))
        elif kind == "punct":
            puncts.append((rec["source"], rec["ts"], rec["origin"],
                           rec["periodic"]))
        elif kind == "wakeup":
            yield ingests, puncts, rec
            ingests, puncts = [], []


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
            ``observers`` (they hear ``on_shard`` events), roots
            ``state_dir`` (its log in ``facade/``, shard *i*'s
            checkpoints in ``shard-0i/``) and counts ``checkpoint_every``
            in its own wake-ups; every other field reaches every shard
            engine, so ``ets_policy`` and ``feedback`` must be
            zero-argument factories here.
    """

    #: The topology generation a ``marks`` record is tagged with.
    _epoch = 0
    #: Whether the journal keeps the command history in memory.
    _history = False

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
        #: Wake-ups in the facade's history: the next one's log position
        #: is this plus one.
        self.wakeups = 0
        self._closed = False
        self.feedback_enabled = config.feedback is not None
        self.global_pressure = 0.0
        self.clamps_broadcast = 0
        #: What every shard engine is built from (plus its own
        #: ``state_dir``): per-shard engine events stay inside their shard,
        #: and no shard checkpoints on its own.
        self._shard_config = config.replace(observers=(), recovery=None,
                                            checkpoint_every=None)
        self._disorder_bound = disorder_bound
        self._build = build
        self._backend_opts = dict(op_timeout=op_timeout,
                                  retry_limit=retry_limit)
        self.backend = self._make_backend(shards, self.state_dir)
        #: Source name -> timestamp kind, as shard 0 reports them (no extra
        #: build): the names ``ingest`` and ``inject_punctuation`` accept.
        self._source_kinds = {
            name: horizon["kind"]
            for name, horizon in self.backend.summaries()[0].sources.items()}
        log = None
        if self.root_dir is not None:
            log = self.root_dir / "facade" / "wal.log"
            log.parent.mkdir(parents=True, exist_ok=True)
        #: The input journal; None when the facade neither logs nor keeps
        #: a history.
        self.journal = (InputJournal(log, history=self._history)
                        if log is not None or self._history else None)
        #: Facade wake-ups between shard checkpoints (durable runs only).
        self._checkpoint_every = (None if log is None
                                  else config.checkpoint_every)

    def _open_state(self, shards: int, state_dir) -> tuple[int, Path | None]:
        """The shard count and the directory the shards' state lives under;
        sets ``root_dir``, whose ``facade/`` holds the log."""
        self.root_dir = Path(state_dir) if state_dir is not None else None
        return shards, self.root_dir

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

    def _unknown(self, source: str) -> GraphError:
        return GraphError(f"unknown source {source!r} (graph has "
                          f"{sorted(self._source_kinds)})")

    def ingest(self, source: str, payload: Any, *, time: float,
               ts: float | None = None) -> int:
        """Route one tuple to its key's shard; applied at the next wakeup.

        Returns the destination shard index; an unknown ``source`` raises
        :class:`GraphError` before anything is staged.
        """
        if source not in self._source_kinds:
            raise self._unknown(source)
        shard = self.partitioner.shard_for_payload(payload)
        self._pending_ingests[shard].append((source, payload, time, ts))
        if self.journal is not None:
            self.journal.stage({"kind": "ingest", "source": source,
                                "payload": payload, "time": time, "ts": ts})
        if time > self._drive_now:
            self._drive_now = time
        self.ingested += 1
        return shard

    def inject_punctuation(self, source: str, ts: float, *,
                           origin: str = "", periodic: bool = False) -> None:
        """Broadcast a punctuation to every shard at the next wakeup."""
        if source not in self._source_kinds:
            raise self._unknown(source)
        self._pending_puncts.append((source, ts, origin, periodic))
        if self.journal is not None:
            self.journal.stage({"kind": "punct", "source": source, "ts": ts,
                                "origin": origin, "periodic": periodic})

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

        A durable wake-up runs frame → apply → marks → offer → checkpoint
        (every ``checkpoint_every`` wake-ups) → release (DESIGN.md §4g).
        """
        clamp = self.global_pressure if self.feedback_enabled else None
        position = self.wakeups + 1
        if self.journal is not None:
            self.journal.commit({"kind": "wakeup", "now": self._drive_now,
                                 "clamp": clamp})
        commands = [(self._pending_ingests[i], self._pending_puncts,
                     self._drive_now, clamp, position)
                    for i in range(self.shard_count)]
        self._pending_ingests = [[] for _ in range(self.shard_count)]
        self._pending_puncts = []
        results: list[ShardResult] = self.backend.apply_all(commands)
        self.wakeups = position
        if self.journal is not None:
            self.journal.mark([result.marks for result in results],
                              epoch=self._epoch)
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
        if self._checkpoint_every and position % self._checkpoint_every == 0:
            self.backend.checkpoint_all()
        released = self.merge.release(self.tracker.global_frontier())
        if self.bus is not None:
            self.bus.shard(kind="frontier", shard=-1, time=self._drive_now,
                           frontier=self.tracker.global_frontier(),
                           count=len(released))
        return released

    def close(self, *, flush: bool = True) -> list[MergedRecord]:
        """Shut down shards; optionally flush records still gated.

        In-flight merge state is volatile by design (the durable
        exactly-once boundary is the logged ``marks`` — see DESIGN.md
        §4g); an orderly close flushes it so a complete run loses nothing.
        """
        if self._closed:
            return []
        self._closed = True
        remaining = self.merge.flush() if flush else []
        self.backend.close()
        if self.journal is not None:
            self.journal.close()
        return remaining

    # ------------------------------------------------------------------ #
    # Durability composition

    def checkpoint(self) -> list:
        """Checkpoint every shard now, at the log's last ``marks``."""
        return self.backend.checkpoint_all()

    def _recovery_args(self, shards: Sequence[int]) -> tuple:
        """Read the intact log, cutting a torn tail off; returns its
        records and each of ``shards``' :meth:`EngineShard.recover`
        arguments: this epoch's last ``marks`` for the shard, one ``apply``
        command per logged wake-up — rows routed by the live partitioner,
        punctuation broadcast — and a report holding what the log says of
        the shard (the ingests routed to it, the log's length, a cut)."""
        if self.journal is None or self.journal.wal is None:
            raise ShardError("recovery needs a state_dir")
        records, clean = self.journal.read()
        marks = next((rec["marks"] for rec in reversed(records)
                      if rec["kind"] == "marks"
                      and rec["epoch"] == self._epoch),
                     [{}] * self.shard_count)
        commands: dict[int, list[tuple]] = {index: [] for index in shards}
        counts = {index: Counter() for index in shards}
        route = self.partitioner.shard_for_payload
        for position, (ingests, puncts, wakeup) in enumerate(
                log_segments(records), 1):
            for routed in commands.values():
                routed.append(([], puncts, wakeup["now"], wakeup["clamp"],
                               position))
            for row in ingests:
                shard = route(row[1])
                if shard in commands:
                    commands[shard][-1][0].append(row)
                    counts[shard][row[0]] += 1
        return records, [
            (marks[index], commands[index], RecoveryReport(
                wal_records=len(records), wal_clean=clean,
                ingests_by_source=dict(counts[index])))
            for index in shards]

    def recover(self) -> ShardedRecoveryReport:
        """Rebuild every shard from its checkpoint and the facade log.

        Each shard restores its newest checkpoint the intact log covers,
        withholds what the log's ``marks`` say it already offered, and
        re-applies the logged wake-ups past its checkpoint's position —
        one path for every shard, whatever its position.  Shards share no
        channels after the shuffle, so per-shard recovery composes.  The
        drive clock resumes at the last logged wake-up's.
        """
        records, args = self._recovery_args(range(self.shard_count))
        reports = self.backend.recover_all(args)
        self.wakeups = len(args[0][1])
        self._drive_now = max([self._drive_now] + [
            rec["now"] for rec in records if rec["kind"] == "wakeup"])
        composed = ShardedRecoveryReport(reports=list(reports))
        summaries = self.backend.summaries()
        for index, (report, summary) in enumerate(zip(reports, summaries)):
            composed.ingests_by_shard[index] = report.ingests_by_source
            composed.frontiers.append(summary.frontier)
            self._recovered(index, report, summary.frontier)
        return composed

    def _recovered(self, index: int, report, frontier: float) -> None:
        """Advertise a rebuilt shard's frontier; ``on_shard(kind=
        "recovery")`` counts the log rows routed to it."""
        self.tracker.advertise(index, frontier)
        if self.bus is not None:
            self.bus.shard(kind="recovery", shard=index, time=self._drive_now,
                           frontier=frontier,
                           count=sum(report.ingests_by_source.values()))

    def crash_shard(self, index: int) -> Any:
        """Simulate a single-shard failure (in-process backends only).

        The shard's in-memory state is discarded and rebuilt from its
        checkpoint and the facade log, by the same path as
        :meth:`recover`, while every other shard keeps running — the
        targeted-failure half of the crash matrix.  Returns the shard's
        :class:`RecoveryReport`.
        """
        shards = getattr(self.backend, "shards", None)
        if shards is None:
            raise ReproError("crash_shard needs an in-process backend "
                             "(serial or thread)")
        _, args = self._recovery_args([index])
        replacement = EngineShard(
            index, self._build, **self._shard_kwargs(index, self.state_dir))
        shards[index] = replacement
        report = replacement.recover(*args[0])
        self._recovered(index, report, replacement.frontier())
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
