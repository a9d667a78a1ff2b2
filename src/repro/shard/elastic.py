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
2. **Deterministic replay of the live suffix.**  The facade's input
   journal keeps every ``ingest``, ``inject_punctuation`` and ``wakeup``
   as an in-memory history and, with a root directory, in the facade log.
   The new shard set is built by re-dispatching that history wake-up by
   wake-up, with ingests routed by the **new** partitioner and punctuation
   broadcast.  History
   that is provably dead is not re-run: after alignment every old shard
   reports its *state floor*
   (:meth:`~repro.core.graph.QueryGraph.state_floor` — window horizons,
   parked rows, buffered heads, each lowered by the reach of the joins that
   feed it), and the longest prefix of wake-up segments whose every ingest
   is stamped below the minimum floor is skipped; only its punctuation is
   carried forward, in one wake-up.  Each new shard ends up with the state
   that can still influence output — windows, watermarks, gates — that a
   full replay would have built.  All replay outputs are discarded; the old
   shard set already emitted them.

Epochs make the switch crash-atomic: each topology keeps its shard
checkpoints in its own ``epoch-NNNN`` directory, and a ``CURRENT``
manifest (written with an atomic, fsynced rename) names the authoritative
one.  The facade log spans every epoch.  A crash before the flip recovers
the old epoch (stale newer directories are purged); a crash after it
recovers the new epoch, whose shards were checkpointed, at the handoff's
log position, before the flip.  See DESIGN.md §4k for the full protocol
and proof sketch.
"""

from __future__ import annotations

import json
import os
import shutil
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..core.errors import RecoveryError, ReproError
from ..core.tuples import LATENT_TS, TimestampKind
from ..recovery.checkpoint import fsync_dir
from .engine import ShardedEngine, log_segments
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

    The six phases (:data:`RESHARD_PHASES`): **quiesce** (a wake-up
    flushes the exchange), **align** (one punctuation per source at the
    global horizon, and a wake-up), **snapshot** (checkpoint the old
    shards), **restore** (build the new shard set in a fresh epoch
    directory, replay the facade log's live suffix into it by the new
    routing, discard its outputs, checkpoint it), **reroute** (flip
    ``CURRENT``, swap backend, partitioner and tracker) and **resume**.
    A failure before the flip leaves the old topology fully live (the
    half-built epoch is closed, and purged by the next construction); a
    failure after it leaves the new topology durable.
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
            epoch_dir = None
            if e.root_dir is not None:
                epoch_dir = e.root_dir / f"epoch-{report.epoch:04d}"
                if epoch_dir.exists():  # an un-flipped attempt's leftovers
                    shutil.rmtree(epoch_dir)
            partitioner = HashPartitioner(new_shards, e.partitioner.key_fn)
            backend = e._make_backend(new_shards, epoch_dir)
            try:  # a failure before the flip closes the half-built epoch
                self._replay(backend, partitioner, new_shards, report)
                if epoch_dir is not None:
                    backend.checkpoint_all()
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

    def _replay(self, backend, partitioner: HashPartitioner,
                new_shards: int, report: ReshardReport) -> None:
        """Re-dispatch the live suffix of the facade history, new routing.

        The log is walked wake-up segment by wake-up segment.  While every
        ingest of a segment is provably stamped below ``report.floor`` —
        by its external ``ts``, else by the segment's wake-up ``now``,
        which bounds any internal or latent stamp — the segment is dead:
        its rows are only counted, its punctuation set aside.  The first
        live segment ends the prefix; the punctuation set aside goes out in
        one wake-up ahead of it (sources discard what is stale), and the
        rest is replayed as it ran, each wake-up at its log position.
        """
        e = self.engine
        report.floor = floor = min(
            (summary.state_floor for summary in e.backend.summaries()),
            default=float("-inf"))
        key_fn = e.partitioner.key_fn
        routes: dict = {}  # key -> new shard

        def dispatch(ingests, puncts, now, clamp, position) -> None:
            report.replayed_ingests += sum(len(rows) for rows in ingests)
            report.replayed_puncts += len(puncts)
            commands = [(rows, puncts, now, clamp, position)
                        for rows in ingests]
            for result in backend.apply_all(commands):
                report.discarded_outputs += sum(
                    len(ts) for _, ts, _ in result.outputs)

        live = floor == float("-inf")
        carried: list = []
        carried_at: tuple = ()
        for position, (rows, puncts, wakeup) in enumerate(
                log_segments(e.journal.history), 1):
            ingests: list[list] = [[] for _ in range(new_shards)]
            for row in rows:
                payload = row[1]
                key = key_fn(payload) if key_fn is not None else payload
                shard = routes.get(key)
                if shard is None:
                    shard = routes[key] = partitioner(key)
                    if e.partitioner(key) != shard:
                        report.migrated_keys += 1
                ingests[shard].append(row)
            report.logged_ingests += len(rows)
            now = wakeup["now"]
            if not live and all((now if ts is None else ts) < floor
                                for *_, ts in rows):
                carried += puncts
                carried_at = (now, None, position)
                continue
            if carried:
                dispatch([[]] * new_shards, carried, *carried_at)
                carried = []
            live = True
            dispatch(ingests, puncts, now, wakeup["clamp"], position)
        if carried:
            dispatch([[]] * new_shards, carried, *carried_at)
        report.total_keys = len(routes)

    def _flip(self, backend, partitioner: HashPartitioner,
              epoch_dir: Path | None, report: ReshardReport) -> None:
        """Point the facade at the new topology; the commit point."""
        e = self.engine
        if e.root_dir is not None:
            _write_manifest(e.root_dir, report.epoch, report.new_shards)
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


def _write_manifest(root: Path, epoch: int, shards: int) -> None:
    """Durably point ``root/CURRENT`` at an epoch (the commit point): the
    temporary file is fsynced, renamed over ``CURRENT``, and the rename
    made durable by fsyncing ``root``."""
    tmp = root / "CURRENT.tmp"
    with open(tmp, "w") as fp:
        fp.write(json.dumps({"epoch": epoch, "shards": shards}))
        fp.flush()
        os.fsync(fp.fileno())
    os.replace(tmp, root / "CURRENT")
    fsync_dir(root)


def _read_manifest(root: Path) -> dict | None:
    """``root/CURRENT`` (None when absent); an empty, unparsable or
    incomplete manifest raises :class:`RecoveryError`."""
    current = root / "CURRENT"
    if not current.exists():
        return None
    try:
        manifest = json.loads(current.read_text())
        return {"epoch": int(manifest["epoch"]),
                "shards": int(manifest["shards"])}
    except (ValueError, TypeError, KeyError) as exc:
        raise RecoveryError(f"{current}: unreadable epoch manifest "
                            f"({type(exc).__name__}: {exc})",
                            path=str(current)) from None


class ElasticShardedEngine(ShardedEngine):
    """A :class:`ShardedEngine` whose shard count can change while live.

    ``state_dir`` becomes the elastic **root**: each topology keeps its
    shard checkpoints under ``root/epoch-NNNN`` with a ``CURRENT``
    manifest naming the live one, and the facade log is
    ``root/facade/wal.log``.  A fresh facade pointed at an existing root
    adopts the manifest's topology (the manifest's shard count overrides
    the argument).  Its journal keeps the command history a reshard
    replays, with or without a root.
    """

    _history = True

    def __init__(self, build: Callable[[], Any], **kwargs) -> None:
        super().__init__(build, **kwargs)
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

    def _open_state(self, shards: int, state_dir) -> tuple[int, Path | None]:
        """Adopt (or start) the root's manifest; the live epoch's directory."""
        shards, root = super()._open_state(shards, state_dir)
        if root is None:
            return shards, None
        manifest = _read_manifest(root)
        if manifest is not None:
            self._epoch, shards = manifest["epoch"], manifest["shards"]
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
    # Resharding

    def reshard(self, new_shards: int, *, reason: str = "manual"
                ) -> ReshardReport:
        """Change the live shard count to ``new_shards``; see
        :class:`ReshardCoordinator` for the protocol."""
        return ReshardCoordinator(self).run(new_shards, reason=reason)

    def _alignment_targets(self) -> dict[str, float]:
        """Per-source global horizon: the alignment punctuation values.

        For each non-latent source, the max over every shard's live
        watermark and every data and punctuation stamp in the journal's
        history — exactly the watermark a single unsharded engine would
        hold, since that is the max over all data and punctuation
        timestamps ever admitted.
        """
        targets: dict[str, float] = {}

        def offer(name: str, high: float) -> None:
            if high > targets.get(name, LATENT_TS):
                targets[name] = high

        for summary in self.backend.summaries():
            for name, horizon in summary.sources.items():
                offer(name, max(horizon["watermark"], horizon["last_data_ts"]))
        for rec in self.journal.history:
            if rec["kind"] == "ingest":
                offer(rec["source"],
                      rec["time"] if rec["ts"] is None else rec["ts"])
            elif rec["kind"] == "punct":
                offer(rec["source"], rec["ts"])
        return {name: ts for name, ts in targets.items()
                if ts > LATENT_TS
                and self._source_kinds.get(name) is not TimestampKind.LATENT}

    # ------------------------------------------------------------------ #
    # Introspection

    def summary(self) -> dict:
        out = super().summary()
        out["epoch"] = self._epoch
        out["reshards"] = [report.as_dict() for report in self.reshards]
        return out