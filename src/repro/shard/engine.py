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
checkpoint: at a logged mark, every ``checkpoint_every`` wake-ups.  That
wake-up only captures the images (each shard fixes its image's bytes);
the files are written one per following wake-up — shard *i* inside its
(*i* + 1)-th apply from there, then the facade's image of its own tallies
and the log point they cover — and once every shard image of the
checkpoint is on disk a ``cut`` record notes it in the next frame.
:meth:`ShardedEngine.checkpoint`, a reshard and an orderly ``close``
write at once.  Recovery reads the log once from the newest usable
facade image on (DESIGN.md §4f, §4g).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable

from ..core.config import EngineConfig
from ..core.errors import GraphError, ReproError, TimestampError
from ..core.tuples import LATENT_TS
from ..obs.bus import EventBus
from ..recovery.checkpoint import CheckpointStore
from ..recovery.manager import RecoveryReport
from ..recovery.wal import CommandHistory, InputJournal
from .backends import (
    BACKENDS,
    EngineShard,
    ShardError,
    ShardResult,
    ShardSummary,
    make_backend,
    shard_config,
)
from .frontier import FrontierMerge, FrontierTracker, MergedRecord
from .partition import HashPartitioner

__all__ = ["ShardedEngine", "ShardedRecoveryReport"]

#: An ingest command's source and payload (``apply``'s form).
_SOURCE, _PAYLOAD = itemgetter(0), itemgetter(1)


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
    #: Records the log read kept in memory for the shards' suffixes: the
    #: commands past the facade image it started from (all of them in a
    #: root without images).
    kept_records: int = 0
    #: Records the log read walked: from the image's point, or from the
    #: history's live suffix when that begins lower (the whole log in a
    #: root without images).
    read_records: int = 0

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


#: The version of a facade image document: 2 since the history image's
#: ``carried_at`` is ``(now, position)``; 1 is refused (read from the
#: log's start instead).
FACADE_IMAGE_FORMAT = 2
#: What a log read without a usable facade image starts from: the empty
#: log.
_GENESIS = {"position": 0, "offset": 0, "records": 0, "ingests": {},
            "highs": {}, "mark": None, "now": 0.0, "history": None}


def _refuse_image(wal, image, limit: float = float("inf")) -> str | None:
    """Why ``image`` is no rung of the facade's ladder (None: usable)."""
    if not (isinstance(image, dict)
            and image.get("format") == FACADE_IMAGE_FORMAT
            and image["position"] <= limit):
        return f"no format-{FACADE_IMAGE_FORMAT} image at or below {limit}"
    if not wal.frame_at(image["offset"]):
        return f"offset {image['offset']} is no frame boundary"
    return None


@dataclass(slots=True)
class _FacadeLog:
    """What recovery knows of the intact facade log: a facade image's
    tallies plus one pass over the frames past it.

    ``total`` counts every intact record and ``positions`` every logged
    wake-up; ``records`` keeps the commands past wake-up ``base`` (the
    image's position) only (``marks`` and ``cut`` records dropped),
    ``wakeups`` the index in ``records`` of each wake-up record past
    ``base`` (the unrouted segments end there, in position order), and
    ``read`` counts the records the pass walked.  ``ingests`` counts the
    ingests per ``(source, partition key)``, ``mark`` is the last
    ``marks`` record as ``(epoch, marks)``; from them ``marks`` is this
    epoch's last delivered count per shard and ``counts`` the ingests per
    shard and source routed by the live partitioner.  ``now`` is the
    drive clock of the last wake-up.
    """

    marks: list
    counts: list[Counter]
    ingests: Counter
    mark: tuple | None = None
    records: list = field(default_factory=list)
    wakeups: list[int] = field(default_factory=list)
    base: int = 0
    positions: int = 0
    total: int = 0
    read: int = 0
    clean: bool = True
    now: float = 0.0


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
            thread backend and on the process backend's worker shards.
        config / **knobs: The shared knobs, declared and documented on
            :class:`~repro.core.config.EngineConfig`: ``config`` carries
            them, keywords are ``config.replace``.  The facade keeps
            ``observers`` (they hear ``on_shard`` events), roots
            ``state_dir`` (its log in ``facade/``, shard *i*'s
            checkpoints in ``shard-0i/``) and counts ``checkpoint_every``
            in its own wake-ups; every other field reaches every shard
            engine, so ``ets_policy`` must be a zero-argument factory
            here, and ``feedback`` is refused with an
            :class:`~repro.core.errors.ExecutionError`.  An out-of-order
            source's disorder bound is declared on the source
            (``out_of_order=`` seconds), which every shard's frontier
            reads.
    """

    #: The topology generation a ``marks`` record is tagged with.
    _epoch = 0
    #: Whether the journal keeps a command history (its live suffix).
    _history = False

    def __init__(self, build: Callable[[], Any], *, shards: int,
                 key: str | Callable[[Any], Any],
                 backend: str = "serial",
                 op_timeout: float = 60.0,
                 config: EngineConfig | None = None, **knobs) -> None:
        config = shard_config((config or EngineConfig()).replace(**knobs))
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
        #: What every shard engine is built from (plus its own
        #: ``state_dir``): per-shard engine events stay inside their shard,
        #: and no shard checkpoints on its own.
        self._shard_config = config.replace(observers=(), recovery=None,
                                            checkpoint_every=None)
        self._build = build
        self._op_timeout = op_timeout
        self.backend = self._make_backend(shards, self.state_dir)
        sources = self.backend.summaries()[0].sources
        #: Source name -> timestamp kind, as shard 0 reports them (no extra
        #: build): the names ``ingest`` and ``inject_punctuation`` accept.
        self._source_kinds = {name: horizon["kind"]
                              for name, horizon in sources.items()}
        #: The largest stamp ingested so far per in-order external source:
        #: the single engine's regression check, made where every row of
        #: the source passes (whatever shard it routes to).
        self._ordered = {name: LATENT_TS
                         for name, horizon in sources.items()
                         if horizon["ordered"]}
        log = None
        if self.root_dir is not None:
            log = self.root_dir / "facade" / "wal.log"
            log.parent.mkdir(parents=True, exist_ok=True)
        #: The input journal; None when the facade neither logs nor keeps
        #: a history.
        history = CommandHistory() if self._history else None
        self.journal = (InputJournal(log, history=history)
                        if log is not None or self._history else None)
        #: Facade wake-ups between shard checkpoints (durable runs only).
        self._checkpoint_every = (None if log is None
                                  else config.checkpoint_every)
        #: The facade's own images, one per checkpoint, beside the log, and
        #: the tallies they hold beyond what the facade keeps anyway: the
        #: committed ingests per ``(source, partition key)`` (with a
        #: journal; a reshard reads the distinct keys from it too) and the
        #: last ``marks`` record as ``(epoch, marks)``.
        self._images = (None if log is None
                        else CheckpointStore(log.parent))
        self._tally: Counter | None = (None if self.journal is None
                                       else Counter())
        self._marked: tuple | None = None
        #: The in-order sources' data highs and the drive clock at the last
        #: checkpoint, whose image the next wake-up builds.
        self._due: tuple | None = None
        #: That image, built and not yet saved: it waits for its shard
        #: images.
        self._image_doc: dict | None = None
        #: The ``cut`` record of a spread checkpoint, staged once the
        #: wake-up at ``_cut_at`` has had every shard write its image.
        self._cut: dict | None = None
        self._cut_at = 0

    def _open_state(self, shards: int, state_dir) -> tuple[int, Path | None]:
        """The shard count and the directory the shards' state lives under;
        sets ``root_dir``, whose ``facade/`` holds the log."""
        self.root_dir = Path(state_dir) if state_dir is not None else None
        return shards, self.root_dir

    def _shard_kwargs(self, index: int, state_dir: Path | None) -> dict:
        """``EngineShard`` keywords for shard ``index`` under ``state_dir``."""
        shard_dir = (None if state_dir is None
                     else state_dir / f"shard-{index:02d}")
        return {"config": self._shard_config.replace(state_dir=shard_dir)}

    def _make_backend(self, shards: int, state_dir: Path | None):
        """A backend of ``shards`` fresh shard engines under ``state_dir``."""
        return make_backend(
            self.backend_kind, shards, build=self._build,
            shard_kwargs=lambda index: self._shard_kwargs(index, state_dir),
            op_timeout=self._op_timeout)

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

        Returns the destination shard index.  An unknown ``source`` raises
        :class:`GraphError`, and an in-order external source's stamp below
        the last one it was given raises :class:`TimestampError` (as the
        single engine's source does), both before anything is staged.
        """
        if source not in self._source_kinds:
            raise self._unknown(source)
        ordered = self._ordered
        if source in ordered and ts is not None:
            high = ordered[source]
            if ts < high:
                ts, high = float(ts), float(high)
                raise TimestampError(
                    f"source {source!r}: external timestamps must be "
                    f"non-decreasing ({ts} after {high})",
                    operator=source, port=0, offending_ts=ts,
                    last_seen_ts=high, kind="out-of-order")
            if ts > high:  # a NaN stamp (the shard refuses it) never is
                ordered[source] = ts
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

        A durable wake-up runs (the last checkpoint's facade image) →
        frame → apply (a shard may write its image of the last checkpoint)
        → marks → (the last checkpoint's ``cut``) → offer → checkpoint
        capture (every ``checkpoint_every`` wake-ups) → release (DESIGN.md
        §4f, §4g).
        """
        position = self.wakeups + 1
        if self.journal is not None:
            if self._image_doc is not None:
                self._save_image()
            if self._due is not None:
                self._image_doc = self._image()
                self._save_image()
            self.journal.commit({"kind": "wakeup", "now": self._drive_now})
            key_fn = self.partitioner.key_fn
            rows = list(chain.from_iterable(self._pending_ingests))
            payloads = map(_PAYLOAD, rows)
            self._tally.update(zip(map(_SOURCE, rows), payloads
                                   if key_fn is None
                                   else map(key_fn, payloads)))
        commands = [(self._pending_ingests[i], self._pending_puncts,
                     self._drive_now, position)
                    for i in range(self.shard_count)]
        self._pending_ingests = [[] for _ in range(self.shard_count)]
        self._pending_puncts = []
        results: list[ShardResult] = self.backend.apply_all(commands)
        self.wakeups = position
        if self.journal is not None:
            marks = [result.marks for result in results]
            if self.journal.mark(marks, epoch=self._epoch):
                self._marked = (self._epoch, marks)
            if self._cut is not None and position >= self._cut_at:
                self.journal.cut(**self._cut)  # every shard image written
                self._cut = None
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
            self._checkpoint(spread=True)
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
        Either way the shards write their pending images, and then the
        facade its built one; staged records are not written.
        """
        if self._closed:
            return []
        self._closed = True
        remaining = self.merge.flush() if flush else []
        try:
            self.backend.close()
            if self._image_doc is not None:
                self._images.save(self._image_doc)
                self._image_doc = None
        finally:
            if self.journal is not None:
                self.journal.close()
        return remaining

    # ------------------------------------------------------------------ #
    # Durability composition

    def checkpoint(self) -> float:
        """Checkpoint every shard now, at the log's last ``marks``: each
        shard writes its image before this returns, and a ``cut`` record
        at that position is staged, which trims the history.  A durable
        facade's image of this point (:meth:`_image`) is saved by the next
        wake-up, before its frame, so the checkpoint does not also pay for
        it; none is when commands are staged, since the log does not hold
        them yet.  Returns the shards' minimum state floor."""
        return self._checkpoint(spread=False)

    def _checkpoint(self, *, spread: bool) -> float:
        """:meth:`checkpoint`, or with ``spread`` the cadence's capture:
        shard *i* writes its image inside its (*i* + 1)-th apply from
        here, and the ``cut`` is staged after the wake-up in which the
        last shard wrote.  Either way each shard first writes the image
        still pending, so the pending ``cut`` is staged before this one."""
        floor = min(self.backend.checkpoint_all(spread))
        if self.journal is not None:
            if self._cut is not None:
                self.journal.cut(**self._cut)
            cut = {"position": self.wakeups, "floor": floor,
                   "epoch": self._epoch}
            if spread:
                self._cut, self._cut_at = cut, self.wakeups + self.shard_count
                if self.journal.history is not None:
                    self.journal.history.trim(floor, self.wakeups)
            else:
                self._cut = None
                self.journal.cut(**cut)
            if self._images is not None and not (
                    self._pending_puncts or any(self._pending_ingests)):
                self._due = (dict(self._ordered), self._drive_now)
        return floor

    def _save_image(self) -> None:
        """Save the built facade image once every shard image of its point
        is on disk: the ``cut`` waiting is a later checkpoint's, or none."""
        doc = self._image_doc
        if self._cut is None or doc["position"] < self._cut["position"]:
            self._images.save(doc)
            self._image_doc = None

    def _image(self) -> dict:
        """The facade's image of the last checkpoint: what the log up to
        the point where the next frame begins says — the wake-ups and
        records there, the ingests per ``(source, partition key)``, the
        in-order sources' data highs, the last ``marks`` record, the drive
        clock — and, with a history, the history's image
        (:meth:`CommandHistory.image`).  Nothing is logged between the
        checkpoint and this call, so only the highs and the clock, which
        staging moves, come from the checkpoint itself.  The image owns
        its values, so it may be saved wake-ups later."""
        (highs, now), self._due = self._due, None
        offset, records = self.journal.wal.tell()
        history = self.journal.history
        return {"format": FACADE_IMAGE_FORMAT, "position": self.wakeups,
                "offset": offset, "records": records,
                "ingests": Counter(self._tally), "highs": highs,
                "mark": self._marked, "now": now,
                "history": None if history is None else history.image()}

    def _read_log(self) -> _FacadeLog:
        """Take what recovery needs before any shard is restored (see
        :class:`_FacadeLog`): the newest usable facade image's tallies plus
        one walk of the intact log past it, cutting a torn tail off.  The
        walk starts at the image's offset, or lower where the history's
        live suffix begins; without an image, at the log's start.  The
        commands past the image are kept for the shards' suffixes."""
        if self.journal is None or self.journal.wal is None:
            raise ShardError("recovery needs a state_dir")
        wal = self.journal.wal
        image = self._images.load_latest(
            partial(_refuse_image, wal), required=False)[1] or _GENESIS
        tally = Counter(image["ingests"])
        log = _FacadeLog([{}] * self.shard_count, [], tally,
                         mark=image["mark"], base=image["position"],
                         total=image["records"], now=image["now"])
        records, wakeups = log.records, log.wakeups
        keep = records.append
        key_fn = self.partitioner.key_fn
        ordered = self._ordered
        for source, high in image["highs"].items():
            if source in ordered and high > ordered[source]:
                ordered[source] = high
        for frame in self.journal.stream(
                (image["offset"], image["records"]), image=image["history"],
                marks=None if log.mark is None else log.mark[1]):
            log.total += len(frame)
            for rec in frame:
                kind = rec["kind"]
                if kind == "ingest":
                    source, payload = rec["source"], rec["payload"]
                    tally[source, payload if key_fn is None
                          else key_fn(payload)] += 1
                    if source in ordered:
                        ts = rec["ts"]
                        if ts is not None and ts > ordered[source]:
                            ordered[source] = ts
                elif kind == "wakeup":
                    wakeups.append(len(records))
                    if rec["now"] > log.now:
                        log.now = rec["now"]
                elif kind == "marks":
                    log.mark = (rec["epoch"], rec["marks"])
                    continue
                elif kind == "cut":
                    continue
                keep(rec)
        log.read = wal.walked
        if log.mark is not None and log.mark[0] == self._epoch:
            log.marks = log.mark[1]
        log.counts = counts = [Counter() for _ in range(self.shard_count)]
        for (source, key), count in tally.items():
            counts[self.partitioner(key)][source] += count
        log.positions = log.base + len(wakeups)
        log.clean = wal.clean
        return log

    def _restore_args(self, log: _FacadeLog, index: int) -> tuple:
        """Shard ``index``'s :meth:`EngineShard.restore` arguments: its
        last logged ``marks``, the log's wake-up count, and a report
        holding what the log says of it (the ingests routed to it, the
        log's length, a cut)."""
        return (log.marks[index], log.positions, RecoveryReport(
            wal_records=log.total, wal_clean=log.clean,
            ingests_by_source=dict(log.counts[index])))

    def _suffixes(self, log: _FacadeLog,
                  positions: dict[int, int]) -> dict[int, list[tuple]]:
        """Each shard's :meth:`EngineShard.replay` commands: one ``apply``
        argument tuple per logged wake-up past the position the shard
        restored — rows routed by the live partitioner, punctuation
        broadcast.  Only the log past the lowest position is walked: in
        the records the read kept, or — when a shard restored below them,
        its newer images lost — in a second walk of the log file, from
        the newest facade image at or below that position (from the
        log's start when there is none)."""
        first = min(positions.values())
        if first >= log.base:
            start = log.wakeups[first - log.base - 1] + 1 \
                if first > log.base else 0
            segments = log_segments(log.records[start:])
        else:  # the slow path: walk the log again from an older image
            wal = self.journal.wal
            image = self._images.load_latest(
                partial(_refuse_image, wal, limit=first),
                required=False)[1] or _GENESIS
            segments = islice(log_segments(chain.from_iterable(wal.stream(
                image["offset"], image["records"]))),
                first - image["position"], None)
        suffixes: dict[int, list[tuple]] = {index: [] for index in positions}
        route = self.partitioner.shard_for_payload
        for position, (rows, puncts, wakeup) in enumerate(segments,
                                                          first + 1):
            routed = {index: [] for index, restored in positions.items()
                      if restored < position}
            for row in rows:
                shard = route(row[1])
                if shard in routed:
                    routed[shard].append(row)
            for index, ingests in routed.items():
                suffixes[index].append((ingests, puncts, wakeup["now"],
                                        position))
        return suffixes

    def recover(self) -> ShardedRecoveryReport:
        """Rebuild every shard from its checkpoint and the facade log.

        The log is read once.  Each shard restores its newest checkpoint
        the intact log covers and withholds what the log's ``marks`` say
        it already offered; then the facade routes each shard the logged
        wake-ups past the position it restored — a shard that fell back
        to an older checkpoint gets the longer suffix — and the shard
        re-applies them.  One path for every shard, whatever its
        position; shards share no channels after the shuffle, so
        per-shard recovery composes.  The drive clock resumes at the last
        logged wake-up's.
        """
        log = self._read_log()
        restored = self.backend.restore_all(
            [self._restore_args(log, index)
             for index in range(self.shard_count)])
        suffixes = self._suffixes(log, {
            index: position for index, (position, _) in enumerate(restored)})
        reports = self.backend.replay_all(
            [(suffixes[index], report)
             for index, (_, report) in enumerate(restored)])
        self.wakeups = log.positions
        self._drive_now = max(self._drive_now, log.now)
        self._tally, self._marked = log.ingests, log.mark
        composed = ShardedRecoveryReport(reports=list(reports),
                                         kept_records=len(log.records),
                                         read_records=log.read)
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

        The shard's in-memory state is discarded and rebuilt by the same
        path as :meth:`recover`: one read of the facade log, the newest
        checkpoint restored, then only the logged wake-ups past its
        position replayed — while every other shard keeps running, the
        targeted-failure half of the crash matrix.  Returns the shard's
        :class:`RecoveryReport`.
        """
        shards = getattr(self.backend, "shards", None)
        if shards is None:
            raise ReproError("crash_shard needs an in-process backend "
                             "(serial or thread)")
        log = self._read_log()
        replacement = EngineShard(
            index, self._build, **self._shard_kwargs(index, self.state_dir))
        shards[index] = replacement
        # The lost shard's pending image never reaches disk: its spread
        # checkpoint gets no cut, and no facade image speaks for it.
        cut, self._cut = self._cut, None
        if cut is not None:
            self._due = None
            if (self._image_doc is not None
                    and self._image_doc["position"] == cut["position"]):
                self._image_doc = None
        marks, limit, report = self._restore_args(log, index)
        position = replacement.restore(marks, limit, report)
        report = replacement.replay(
            self._suffixes(log, {index: position})[index], report)
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
            "held_peak": self.merge.held_peak,
            "frontier": self.tracker.global_frontier(),
            "frontier_spread": self.tracker.spread(),
            "per_shard": [
                {"shard": s.shard, "ingested": s.ingested,
                 "delivered": s.delivered, "frontier": s.frontier}
                for s in per_shard
            ],
        }
