"""Elastic shards: live resharding over durable epochs.

The fixed-P :class:`~repro.shard.engine.ShardedEngine` answers *how* to
split a timestamp-ordered computation; this module answers what happens
when P was wrong and the driver asks for a different topology mid-stream.
:class:`ReshardCoordinator` changes the shard count **live**:
quiesce-at-frontier, align every shard's source watermarks to the global
horizon, checkpoint, rebuild the new shard set from the facade's command
log (routed by the *new* partitioner), then atomically re-route.

Exactly-once across a reshard rests on two invariants:

1. **Alignment.**  Before the snapshot, the coordinator broadcasts one
   punctuation per source at the *global* horizon (the max over every
   shard's live watermark and the facade's own ingest/punctuation highs).
   Sources discard stale punctuation idempotently, so after the alignment
   wake-up every shard's per-source watermark equals the value a single
   unsharded engine would hold — the gates of the old shard set and of the
   replayed new shard set therefore agree exactly at the handoff point.
2. **Deterministic replay of the live suffix.**  The facade records every
   ``ingest``, ``inject_punctuation`` and ``wakeup`` it performs (mirrored
   to a durable facade WAL, one group frame per wake-up, when a root
   directory is configured).  The new shard set is built by re-dispatching
   that history wake-up by wake-up, with ingests routed by the **new**
   partitioner and punctuation broadcast.  History that is provably dead is
   not re-run: after alignment every old shard reports its *state floor*
   (:meth:`~repro.core.graph.QueryGraph.state_floor` — window horizons,
   parked rows, buffered heads, each lowered by the reach of the joins
   that feed it), and the longest prefix of
   wake-up segments whose every ingest is stamped below the minimum floor
   is skipped; only its punctuation is carried forward, in one wake-up.
   Each new shard ends up with the state that can still influence output —
   windows, watermarks, gates — that a full replay would have built.  All
   replay outputs are discarded; the old shard set already emitted them.

Epochs make the switch crash-atomic: each topology lives in its own
``epoch-NNNN`` state directory, and a ``CURRENT`` manifest (written with
an atomic rename) names the authoritative one — together with
``ingest_base``, the skipped ingests per (new shard, source), so recovery
still accounts for every acknowledged row.  A crash before the flip
recovers the old epoch (stale newer directories are purged); a crash
after it recovers the new epoch, whose shards were checkpointed before
the flip.  See DESIGN.md §4k for the full protocol and proof sketch.
"""

from __future__ import annotations

import json
import os
import shutil
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..core.errors import ReproError
from ..core.tuples import LATENT_TS, TimestampKind
from ..recovery.manager import wal_history
from ..recovery.wal import WAL_MAGIC, WriteAheadLog
from .engine import ShardedEngine, ShardedRecoveryReport
from .frontier import MergedRecord
from .partition import HashPartitioner

__all__ = ["ReshardReport", "ReshardCoordinator", "ElasticShardedEngine",
           "RESHARD_PHASES"]

#: The coordinator's phases, in execution order.  Fault hooks registered
#: on ``engine.reshard_hooks`` are invoked with each phase name as it
#: begins — the crash-matrix tests inject a simulated crash at every one.
RESHARD_PHASES = ("quiesce", "align", "snapshot", "restore",
                  "reroute", "resume")


@dataclass(slots=True)
class ReshardReport:
    """What one live topology change did.

    ``released`` holds the merge records the quiesce/align wake-ups let
    through — they belong to the *output stream*, and a driver must
    account for them exactly like ordinary wake-up returns.
    """

    old_shards: int = 0
    new_shards: int = 0
    epoch: int = 0
    #: Distinct keys seen so far whose route changed under the new
    #: partitioner, and the total distinct keys — the jump-hash movement
    #: bound says migrated/total ≈ 1/new_shards for a grow step.
    migrated_keys: int = 0
    total_keys: int = 0
    #: Global frontier at the handoff point (after alignment).
    frontier: float = float("-inf")
    released: list = field(default_factory=list)
    #: Ingests in the facade log at the handoff, and how many of them the
    #: new shard set re-ran: the rest sat in wake-up segments wholly below
    #: ``floor``, the old shard set's minimum state floor.
    logged_ingests: int = 0
    replayed_ingests: int = 0
    floor: float = float("-inf")
    #: The skipped ingests per (new shard, source) — what the ``CURRENT``
    #: manifest publishes so recovery still accounts for them.
    ingest_base: dict[int, dict[str, int]] = field(default_factory=dict)
    replayed_puncts: int = 0
    #: Outputs re-derived (and discarded) during replay — the duplication
    #: the old shard set already emitted, proof the discard mattered.
    discarded_outputs: int = 0
    #: Wall-clock seconds the facade was paused (no new wake-ups served).
    pause_seconds: float = 0.0
    reason: str = "manual"

    @property
    def direction(self) -> str:
        return f"{self.old_shards}->{self.new_shards}"

    def as_dict(self) -> dict:
        return {
            "direction": self.direction, "epoch": self.epoch,
            "migrated_keys": self.migrated_keys,
            "total_keys": self.total_keys, "frontier": self.frontier,
            "released": len(self.released),
            "logged_ingests": self.logged_ingests,
            "replayed_ingests": self.replayed_ingests,
            "floor": self.floor,
            "replayed_puncts": self.replayed_puncts,
            "discarded_outputs": self.discarded_outputs,
            "pause_seconds": self.pause_seconds, "reason": self.reason,
        }


class ReshardCoordinator:
    """Executes one live shard-count change on an elastic engine.

    The six phases (:data:`RESHARD_PHASES`):

    1. **quiesce** — flush any exchange backlog with a normal wake-up, so
       the handoff happens at a wake-up boundary.
    2. **align** — broadcast one punctuation per source at the global
       horizon and wake up again: every shard's watermarks now equal the
       single-engine values (stale punctuation is discarded, so this is
       idempotent per shard).
    3. **snapshot** — checkpoint every old shard (durable mode only);
       the old epoch stays recoverable until the flip.
    4. **restore** — build the new shard set in a fresh epoch directory
       and replay the live suffix of the facade command log into it,
       routed by the new partitioner, discarding all outputs; checkpoint
       the new epoch.
    5. **reroute** — atomically flip the ``CURRENT`` manifest, then swap
       the facade's backend/partitioner/tracker to the new topology.
    6. **resume** — normal wake-ups continue against the new shards.

    A failure in phases 1–4 leaves the old topology fully live (the
    half-built epoch is closed and will be purged on the next recovery);
    a failure after the flip leaves the new topology durable.
    """

    def __init__(self, engine: "ElasticShardedEngine") -> None:
        self.engine = engine

    def _hook(self, phase: str) -> None:
        for hook in self.engine.reshard_hooks:
            hook(phase)

    def run(self, new_shards: int, *, reason: str = "manual") -> ReshardReport:
        e = self.engine
        new_shards = int(new_shards)
        if new_shards < 1:
            raise ReproError(f"shard count must be positive, got {new_shards}")
        if e._resharding:
            raise ReproError("reshard already in progress")
        report = ReshardReport(old_shards=e.shard_count,
                               new_shards=new_shards, reason=reason)
        if new_shards == e.shard_count:
            report.epoch = e._epoch
            return report
        started = _time.perf_counter()
        e._resharding = True
        e.reshard_released = report.released
        try:
            self._hook("quiesce")
            if e._pending_puncts or any(e._pending_ingests):
                report.released.extend(e.wakeup())
            self._hook("align")
            for source, ts in sorted(e._alignment_targets().items()):
                e.inject_punctuation(source, ts, origin="reshard")
            if e._pending_puncts:
                report.released.extend(e.wakeup())
            report.frontier = e.tracker.global_frontier()
            self._hook("snapshot")
            if e.state_dir is not None:
                e.backend.checkpoint_all()
            self._hook("restore")
            report.epoch = e._epoch + 1
            backend, partitioner, epoch_dir = self._build_epoch(
                new_shards, report)
            try:
                self._hook("reroute")
                self._flip(backend, partitioner, epoch_dir, report)
            except BaseException:
                try:
                    backend.close()
                except Exception:  # noqa: BLE001 - best-effort teardown
                    pass
                raise
            self._hook("resume")
        finally:
            e._resharding = False
        report.pause_seconds = _time.perf_counter() - started
        e.reshards.append(report)
        if e.bus is not None:
            e.bus.shard(kind="reshard", shard=-1, time=e._drive_now,
                        frontier=report.frontier,
                        count=report.migrated_keys,
                        value=report.pause_seconds,
                        detail=report.direction)
        return report

    # ------------------------------------------------------------------ #
    # Phase bodies

    def _build_epoch(self, new_shards: int, report: ReshardReport):
        """Build + replay + checkpoint the new shard set; close on failure."""
        e = self.engine
        epoch_dir = None
        if e.root_dir is not None:
            epoch_dir = e.root_dir / f"epoch-{report.epoch:04d}"
            if epoch_dir.exists():
                shutil.rmtree(epoch_dir)
        partitioner = HashPartitioner(new_shards, e.partitioner.key_fn)
        backend = e._make_backend(new_shards, epoch_dir)
        try:
            self._replay(backend, partitioner, new_shards, report)
            if epoch_dir is not None:
                backend.checkpoint_all()
        except BaseException:
            try:
                backend.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            raise
        return backend, partitioner, epoch_dir

    def _replay(self, backend, partitioner: HashPartitioner,
                new_shards: int, report: ReshardReport) -> None:
        """Re-dispatch the live suffix of the facade history, new routing.

        The log is walked wake-up segment by wake-up segment.  While every
        ingest of a segment is provably stamped below ``report.floor`` —
        by its external ``ts``, else by the segment's wake-up ``now``,
        which bounds any internal or latent stamp — the segment is dead:
        its rows are only counted, per (new shard, source), into
        ``report.ingest_base``, and its punctuation is set aside.  The
        first live segment ends the prefix; the punctuation set aside goes
        out in one wake-up ahead of it (sources discard what is stale, so
        watermarks and the shards' punctuation records come out as a full
        replay leaves them), and everything after is replayed as it ran.
        """
        e = self.engine
        report.floor = floor = min(
            (summary.state_floor for summary in e.backend.summaries()),
            default=float("-inf"))
        key_fn = e.partitioner.key_fn
        routes: dict = {}  # key -> new shard
        base = report.ingest_base

        def dispatch(ingests, puncts, now, clamp) -> None:
            commands = [([(r["source"], r["payload"], r["time"], r["ts"])
                          for r in rows], puncts, now, clamp)
                        for rows in ingests]
            report.replayed_ingests += sum(len(rows) for rows in ingests)
            report.replayed_puncts += len(puncts)
            for result in backend.apply_all(commands):
                report.discarded_outputs += sum(
                    len(ts) for _, ts, _ in result.outputs)

        live = floor == float("-inf")
        carried: list = []
        carried_now = 0.0
        ingests: list[list] = [[] for _ in range(new_shards)]
        puncts: list = []
        for rec in e._log:
            kind = rec["kind"]
            if kind == "ingest":
                payload = rec["payload"]
                key = key_fn(payload) if key_fn is not None else payload
                shard = routes.get(key)
                if shard is None:
                    shard = routes[key] = partitioner(key)
                    if e.partitioner(key) != shard:
                        report.migrated_keys += 1
                ingests[shard].append(rec)
                report.logged_ingests += 1
                continue
            if kind == "punct":
                puncts.append((rec["source"], rec["ts"], rec["origin"],
                               rec["periodic"]))
                continue
            now = rec["now"]
            if not live and all(
                    (now if r["ts"] is None else r["ts"]) < floor
                    for rows in ingests for r in rows):
                for shard, rows in enumerate(ingests):
                    for r in rows:
                        counts = base.setdefault(shard, {})
                        counts[r["source"]] = counts.get(r["source"], 0) + 1
                carried += puncts
                carried_now = now
            else:
                if carried:
                    dispatch([[]] * new_shards, carried, carried_now, None)
                    carried = []
                live = True
                dispatch(ingests, puncts, now, rec["clamp"])
            ingests = [[] for _ in range(new_shards)]
            puncts = []
        if puncts or any(ingests):
            # pre-wakeup tail: impossible after quiesce, but be safe
            raise ReproError("reshard replay found commands with no wakeup "
                             "marker; quiesce did not flush the exchange")
        if carried:
            dispatch([[]] * new_shards, carried, carried_now, None)
        report.total_keys = len(routes)

    def _flip(self, backend, partitioner: HashPartitioner,
              epoch_dir: Path | None, report: ReshardReport) -> None:
        """Point the facade at the new topology; the commit point."""
        e = self.engine
        if e.root_dir is not None:
            _write_manifest(e.root_dir, report.epoch, report.new_shards,
                            report.ingest_base)
        e._ingest_base = report.ingest_base
        old_backend = e.backend
        e.backend = backend
        e.partitioner = partitioner
        e.shard_count = report.new_shards
        e.state_dir = epoch_dir
        e._epoch = report.epoch
        e._pending_ingests = [[] for _ in range(report.new_shards)]
        e.tracker.resize(report.new_shards, floor=report.frontier)
        try:
            old_backend.close()
        except Exception:  # noqa: BLE001 - the old epoch is already durable
            pass


def _write_manifest(root: Path, epoch: int, shards: int,
                    ingest_base: dict[int, dict[str, int]] | None = None
                    ) -> None:
    """Atomically point ``root/CURRENT`` at an epoch (the commit point).

    ``ingest_base`` — the ingests per (shard, source) the epoch's shards
    were *not* replayed, because they were dead at the handoff — commits
    with it: the shards' own WALs plus this base are the acknowledged
    history.
    """
    manifest: dict = {"epoch": epoch, "shards": shards}
    if ingest_base:
        manifest["ingest_base"] = {str(shard): counts
                                   for shard, counts in ingest_base.items()}
    tmp = root / "CURRENT.tmp"
    tmp.write_text(json.dumps(manifest))
    os.replace(tmp, root / "CURRENT")


def _read_manifest(root: Path) -> dict | None:
    current = root / "CURRENT"
    if not current.exists():
        return None
    return json.loads(current.read_text())


class ElasticShardedEngine(ShardedEngine):
    """A :class:`ShardedEngine` whose shard count can change while live.

    ``state_dir`` becomes the elastic **root**: each topology lives under
    ``root/epoch-NNNN`` with a ``CURRENT`` manifest naming the live one,
    and the facade's own command history is mirrored to ``root/facade``.
    A fresh facade pointed at an existing root adopts the manifest's
    topology (the manifest's shard count overrides the argument).
    """

    def __init__(self, build: Callable[[], Any], **kwargs) -> None:
        super().__init__(build, **kwargs)
        self._facade_wal: WriteAheadLog | None = None
        #: Facade records of the open wake-up segment, not yet on disk.
        self._pending_log: list[dict] = []
        if self.root_dir is not None:
            (self.root_dir / "facade").mkdir(parents=True, exist_ok=True)
            self._facade_wal = WriteAheadLog(
                self.root_dir / "facade" / "wal.log")
        #: The facade command log: every ingest / punctuation / wakeup in
        #: dispatch order — the reshard replay script.
        self._log: list[dict] = []
        self._data_high: dict[str, float] = {}
        self._punct_high: dict[str, float] = {}
        self._resharding = False
        #: Phase hooks ``f(phase_name)`` called as each reshard phase
        #: begins — the fault-injection seam (:class:`repro.faults.\
        #: ReshardCrash` appends here).
        self.reshard_hooks: list[Callable[[str], None]] = []
        #: Records released by the coordinator's internal wake-ups during
        #: the most recent (possibly crashed) reshard — a driver that
        #: catches a mid-reshard crash accounts these like wakeup returns.
        self.reshard_released: list[MergedRecord] = []
        self.reshards: list[ReshardReport] = []
        probe = build()
        self._source_kinds = {src.name: src.timestamp_kind
                              for src in probe.sources()}

    def _open_state(self, shards: int, state_dir) -> tuple[int, Path | None]:
        """Adopt (or start) the root's manifest; the live epoch's directory."""
        shards, root = super()._open_state(shards, state_dir)
        self.root_dir = root
        self._epoch = 0
        #: Ingests per (shard, source) the live epoch's shards never saw:
        #: the dead prefix its reshard skipped (see ``_write_manifest``).
        self._ingest_base: dict[int, dict[str, int]] = {}
        if root is None:
            return shards, None
        manifest = _read_manifest(root)
        if manifest is not None:
            self._epoch = int(manifest["epoch"])
            shards = int(manifest["shards"])
            self._ingest_base = {
                int(shard): dict(counts) for shard, counts
                in manifest.get("ingest_base", {}).items()}
        root.mkdir(parents=True, exist_ok=True)
        for stale in root.glob("epoch-*"):
            try:
                number = int(stale.name.split("-", 1)[1])
            except ValueError:
                continue
            if number > self._epoch:  # built but never committed: purge
                shutil.rmtree(stale, ignore_errors=True)
        if manifest is None:
            _write_manifest(root, self._epoch, shards)
        return shards, root / f"epoch-{self._epoch:04d}"

    # ------------------------------------------------------------------ #
    # Command logging

    def _log_record(self, record: dict) -> None:
        """Log one command, mirrored to the facade WAL when there is one."""
        self._log.append(record)
        if self._facade_wal is not None:
            self._mirror(record)

    def _mirror(self, record: dict) -> None:
        """Buffer ``record`` for the facade WAL; the wake-up marker commits
        its whole segment as one group frame, still before dispatch."""
        self._pending_log.append(record)
        if record["kind"] == "wakeup":
            pending, self._pending_log = self._pending_log, []
            self._facade_wal.append(pending)

    def ingest(self, source: str, payload: Any, *, time: float,
               ts: float | None = None) -> int:
        self._log_record({"kind": "ingest", "source": source,
                          "payload": payload, "time": time, "ts": ts})
        high = time if ts is None else ts
        if high > self._data_high.get(source, LATENT_TS):
            self._data_high[source] = high
        return super().ingest(source, payload, time=time, ts=ts)

    def inject_punctuation(self, source: str, ts: float, *,
                           origin: str = "", periodic: bool = False) -> None:
        self._log_record({"kind": "punct", "source": source, "ts": ts,
                          "origin": origin, "periodic": periodic})
        if ts > self._punct_high.get(source, LATENT_TS):
            self._punct_high[source] = ts
        super().inject_punctuation(source, ts, origin=origin,
                                   periodic=periodic)

    # ------------------------------------------------------------------ #
    # Driving

    def wakeup(self) -> list[MergedRecord]:
        """One wake-up, recorded in the command log before dispatch."""
        clamp = self.global_pressure if self.feedback_enabled else None
        self._log_record({"kind": "wakeup", "now": self._drive_now,
                          "clamp": clamp})
        return super().wakeup()

    # ------------------------------------------------------------------ #
    # Resharding

    def reshard(self, new_shards: int, *, reason: str = "manual"
                ) -> ReshardReport:
        """Change the live shard count to ``new_shards``; see
        :class:`ReshardCoordinator` for the protocol."""
        return ReshardCoordinator(self).run(new_shards, reason=reason)

    def _alignment_targets(self) -> dict[str, float]:
        """Per-source global horizon: the alignment punctuation values.

        For each non-latent source, the max over every shard's live
        watermark and the facade's own ingest/punctuation highs — exactly
        the watermark a single unsharded engine would hold, since that is
        the max over all data and punctuation timestamps ever admitted.
        """
        targets: dict[str, float] = {}
        for summary in self.backend.summaries():
            for name, horizon in summary.sources.items():
                high = max(horizon.get("watermark", LATENT_TS),
                           horizon.get("last_data_ts", LATENT_TS))
                if high > targets.get(name, LATENT_TS):
                    targets[name] = high
        for highs in (self._data_high, self._punct_high):
            for name, high in highs.items():
                if high > targets.get(name, LATENT_TS):
                    targets[name] = high
        return {name: ts for name, ts in targets.items()
                if ts > LATENT_TS
                and self._source_kinds.get(name) is not TimestampKind.LATENT}

    # ------------------------------------------------------------------ #
    # Durability

    def recover(self) -> ShardedRecoveryReport:
        """Recover the manifest-selected epoch, then rebuild the facade log.

        The facade WAL is written *before* dispatch, so after a crash it
        may run ahead of what any shard durably holds.  Each record is
        kept only within the recovered shards' budgets — ingests while the
        destination shard's per-source replay count lasts (prefix
        matching: dispatch order equals log order), punctuation up to its
        maximum per-shard occurrence count (shard WALs log punctuation
        even when the source discards it, so presence proves dispatch; the
        counts ride on each shard's recovery report) — and the log is
        truncated after the last surviving command.  The rebuilt history
        is atomically rewritten to disk, so a reshard after recovery
        replays exactly the durable prefix.

        A shard's WAL starts at the live suffix its epoch was built from;
        the manifest's ``ingest_base`` — the rows skipped below it — is
        added to ``ingests_by_shard`` first, so both the driver's skip
        counts and the budgets above cover the whole acknowledged history.
        """
        report = super().recover()
        for shard, counts in self._ingest_base.items():
            totals = report.ingests_by_shard.setdefault(shard, {})
            for source, count in counts.items():
                totals[source] = totals.get(source, 0) + count
        if self.root_dir is None:
            return report
        records = wal_history(self.root_dir / "facade")
        ingest_budget = {shard: dict(counts) for shard, counts
                         in report.ingests_by_shard.items()}
        punct_budget: dict[tuple, int] = {}
        for shard_report in report.reports:
            for key, count in shard_report.punctuations_by_key.items():
                punct_budget[key] = max(punct_budget.get(key, 0), count)
        kept: list[dict] = []
        last_command = -1
        for rec in records:
            rec = dict(rec)
            kind = rec["kind"]
            if kind == "ingest":
                shard = self.partitioner.shard_for_payload(rec["payload"])
                budget = ingest_budget.get(shard, {})
                if budget.get(rec["source"], 0) <= 0:
                    continue
                budget[rec["source"]] -= 1
                last_command = len(kept)
            elif kind == "punct":
                key = (rec["source"], rec["ts"], rec.get("origin", ""))
                if punct_budget.get(key, 0) <= 0:
                    continue
                punct_budget[key] -= 1
                last_command = len(kept)
            kept.append(rec)
        # Drop the tail the crash cut off: trailing wake-up markers (and
        # anything after the last surviving command) never reached a shard.
        del kept[last_command + 2:]
        self._data_high = {}
        self._punct_high = {}
        for rec in kept:
            if rec["kind"] == "ingest":
                high = rec["time"] if rec["ts"] is None else rec["ts"]
                if high > self._data_high.get(rec["source"], LATENT_TS):
                    self._data_high[rec["source"]] = high
                if rec["time"] > self._drive_now:
                    self._drive_now = rec["time"]
            elif rec["kind"] == "punct":
                if rec["ts"] > self._punct_high.get(rec["source"], LATENT_TS):
                    self._punct_high[rec["source"]] = rec["ts"]
            elif rec["now"] > self._drive_now:
                self._drive_now = rec["now"]
        if kept and kept[-1]["kind"] != "wakeup":
            # The final marker's frame was torn off the facade WAL; the
            # shards saw the dispatch (their budgets covered it), so
            # restore the boundary at the rebuilt horizon.
            kept.append({"kind": "wakeup", "now": self._drive_now,
                         "clamp": None})
        self._rewrite_facade_wal(kept)
        self._log = kept
        return report

    def _rewrite_facade_wal(self, kept: list[dict]) -> None:
        facade = self.root_dir / "facade"
        if self._facade_wal is not None:
            self._facade_wal.close()
        tmp = facade / "wal.tmp"
        if tmp.exists():
            tmp.unlink()
        self._pending_log = []
        if kept:  # ends with a wake-up marker, so nothing stays buffered
            self._facade_wal = WriteAheadLog(tmp, fsync=False)
            for rec in kept:
                self._mirror(rec)
            self._facade_wal.close()
        else:
            tmp.write_bytes(WAL_MAGIC)
        os.replace(tmp, facade / "wal.log")
        self._facade_wal = WriteAheadLog(facade / "wal.log")

    def close(self, *, flush: bool = True) -> list[MergedRecord]:
        remaining = super().close(flush=flush)
        if self._facade_wal is not None:
            self._facade_wal.close()
        return remaining

    # ------------------------------------------------------------------ #
    # Introspection

    def summary(self) -> dict:
        out = super().summary()
        for row in out["per_shard"]:  # rows the shard owns but never re-ran
            row["ingested"] += sum(
                self._ingest_base.get(row["shard"], {}).values())
        out["epoch"] = self._epoch
        out["reshards"] = [report.as_dict() for report in self.reshards]
        return out