"""The recovery manager: checkpoints, WAL logging, and crash-stop recovery.

One :class:`RecoveryManager` owns a state directory (checkpoint files plus
``wal.log``) and binds to one engine/graph/clock triple.  Binding interposes
on the three points where input enters or drives the engine:

* ``SourceNode.ingest`` — every admitted tuple gets a WAL record, buffered
  until the wake-up that first reads the row;
* ``SourceNode.inject_punctuation`` — harness-injected punctuation (kernel
  heartbeats, test drivers) is logged the same way;
  punctuation generated *inside* an engine wake-up (on-demand ETS) is NOT
  logged — replaying the wake-up regenerates it deterministically;
* ``ExecutionEngine.wakeup`` — each wake-up is logged so replay reproduces
  the exact drive schedule (chunked ingestion between wake-ups decides
  tie-breaking and batching; replaying ingests with a different wake-up
  schedule would be a different execution).  The wake-up record and
  everything buffered since the previous one go out as **one group frame,
  one flush/fsync, before the engine runs** (write-ahead at the wake-up:
  no output can exist before its inputs are on disk).  Rows the engine
  admits *inside* a wake-up (``deliver_due``) are appended at once.  After
  each wake-up the sinks' cumulative delivery counts are appended as a
  ``marks`` record — the durable high-water marks that make recovery
  exactly-once.

A crash between ``ingest`` and the next wake-up therefore loses exactly the
un-woken rows: no record of them exists, :attr:`RecoveryReport.\
ingests_by_source` does not count them, and the driver re-feeds them.
:meth:`checkpoint` and :meth:`close` write the buffer out first, so a
checkpoint's ``wal_index`` covers every record whose effect is in the image.

Checkpointing fires through the engine's ``checkpoint_hook`` (every
``checkpoint_every`` rounds) or explicitly via :meth:`checkpoint`; the
image stores every component's ``snapshot_state()`` plus the WAL position,
so recovery = restore newest valid checkpoint + replay the WAL suffix +
suppress the first ``hwm - restored_delivered`` outputs per sink.

Replay fidelity: records are applied at wake-up boundaries, exactly where
logical-time drives (the oracles, zero-cost runs) admit them, so recovered
output is byte-identical there.  Under a charging cost model, arrivals the
engine originally absorbed *mid*-round via ``deliver_due`` replay at the
next boundary — same data, possibly different timing.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..core.errors import RecoveryError
from ..core.execution import ExecutionEngine
from ..core.graph import QueryGraph
from ..core.operators.source import SourceNode
from ..core.tuples import ensure_seq_above
from .checkpoint import CheckpointInfo, CheckpointStore
from .wal import WalRecord, WriteAheadLog

__all__ = ["RecoveryManager", "RecoveryReport", "CHECKPOINT_FORMAT_VERSION",
           "wal_history"]

#: Version of the assembled checkpoint *document* (the per-component
#: snapshots carry their own versions on top).  Bump on any change to the
#: document layout; recovery refuses mismatched documents rather than
#: guessing (see DESIGN.md section 4f for the bump policy).
CHECKPOINT_FORMAT_VERSION = 1


@dataclass(slots=True)
class RecoveryReport:
    """Everything :meth:`RecoveryManager.recover` did, for asserting on.

    Attributes:
        checkpoint_number: The checkpoint restored (0 = none existed; the
            whole WAL was replayed from a fresh graph).
        skipped: ``(number, reason)`` per corrupted/unusable newer
            checkpoint that was fallen past.
        wal_records: Total intact records in the WAL.
        wal_clean: False when a torn tail was truncated first.
        replayed: Records of the suffix actually replayed.
        ingests_replayed / punctuations_replayed / wakeups_replayed:
            Breakdown of the suffix by kind.
        suppressed: Outputs swallowed per sink (the exactly-once half).
        ingests_by_source: Ingest records in the *whole* WAL per source —
            the ``skip=`` values for re-attaching arrival schedules.
        punctuations_by_key: Punctuation records in the *whole* WAL per
            ``(source, ts, origin)`` — what the elastic facade matches its
            own log against, without reading the file again.
        duration: Wall-clock seconds the recovery took.
    """

    checkpoint_number: int = 0
    skipped: list[tuple[int, str]] = field(default_factory=list)
    wal_records: int = 0
    wal_clean: bool = True
    replayed: int = 0
    ingests_replayed: int = 0
    punctuations_replayed: int = 0
    wakeups_replayed: int = 0
    suppressed: dict[str, int] = field(default_factory=dict)
    ingests_by_source: dict[str, int] = field(default_factory=dict)
    punctuations_by_key: dict[tuple, int] = field(default_factory=dict)
    duration: float = 0.0

    @property
    def fallback(self) -> bool:
        """True when one or more newer checkpoints had to be skipped."""
        return bool(self.skipped)

    @property
    def total_suppressed(self) -> int:
        return sum(self.suppressed.values())

    def as_dict(self) -> dict[str, Any]:
        return {
            "checkpoint_number": self.checkpoint_number,
            "skipped": list(self.skipped),
            "wal_records": self.wal_records,
            "wal_clean": self.wal_clean,
            "replayed": self.replayed,
            "ingests_replayed": self.ingests_replayed,
            "punctuations_replayed": self.punctuations_replayed,
            "wakeups_replayed": self.wakeups_replayed,
            "suppressed": dict(self.suppressed),
            "total_suppressed": self.total_suppressed,
            "ingests_by_source": dict(self.ingests_by_source),
            "fallback": self.fallback,
            "duration": self.duration,
        }


class RecoveryManager:
    """Durability and crash-stop recovery for one engine instance.

    Args:
        state_dir: Directory holding ``checkpoint-NNNNNN.ckpt`` files and
            ``wal.log``; created on first write.
        keep: Checkpoints retained (at least 2, so a corrupted latest
            always has a fallback).
        fsync: Fsync WAL appends (durable tail) — turn off for benchmarks
            that measure everything but the disk.
        bus: Optional event bus; checkpoint/recovery/fault events are
            published on it (a :class:`~repro.obs.MetricsRegistry` there
            counts their figures).  A bound engine's bus is used by default.
    """

    def __init__(self, state_dir: str | Path, *, keep: int = 4,
                 fsync: bool = True, bus=None) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.store = CheckpointStore(self.state_dir, keep=keep)
        self.wal = WriteAheadLog(self.state_dir / "wal.log", fsync=fsync)
        self._bus = bus
        self.graph: QueryGraph | None = None
        self.engine: ExecutionEngine | None = None
        self.clock = None
        self.sim = None
        self._replaying = False
        self._in_wakeup = False
        #: Records admitted since the last wake-up, not yet on disk.
        self._pending: list[dict] = []
        self._last_marks: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Binding

    def bind(self, graph: QueryGraph, engine: ExecutionEngine, clock,
             *, sim=None) -> "RecoveryManager":
        """Attach to one engine: interpose ingest/punctuation/wakeup.

        Call once per (graph, engine) pair — typically right after
        construction, before any input is applied.  ``sim`` lets a
        :class:`~repro.sim.kernel.Simulation` include its own counters in
        checkpoints (it passes itself).
        """
        if self.engine is not None:
            raise RecoveryError("RecoveryManager is already bound")
        self.graph = graph
        self.engine = engine
        self.clock = clock
        self.sim = sim
        if self._bus is None:
            self._bus = getattr(engine, "bus", None)
        engine.checkpoint_hook = self._round_checkpoint
        for source in graph.sources():
            self._wrap_source(source)
        self._wrap_wakeup(engine)
        return self

    def _wrap_source(self, source: SourceNode) -> None:
        inner_ingest = source.ingest
        inner_inject = source.inject_punctuation
        manager = self

        def ingest(payload, now, ts=None, arrival=None):
            if not manager._replaying:
                manager._log({
                    "kind": "ingest", "source": source.name,
                    "time": arrival if arrival is not None else now,
                    "now": now, "payload": payload, "external_ts": ts,
                })
            return inner_ingest(payload, now, ts=ts, arrival=arrival)

        def inject_punctuation(ts, *, origin="", periodic=False):
            # Engine-generated punctuation (on-demand ETS inside a wake-up)
            # is regenerated by replaying the wake-up; logging it too would
            # only bloat the WAL with stale no-op re-injections.
            if not manager._replaying and not manager._in_wakeup:
                manager._log({
                    "kind": "punct", "source": source.name, "ts": ts,
                    "origin": origin, "periodic": periodic,
                    "time": manager.clock.now(),
                })
            return inner_inject(ts, origin=origin, periodic=periodic)

        source.ingest = ingest  # type: ignore[method-assign]
        source.inject_punctuation = inject_punctuation  # type: ignore[method-assign]

    def _wrap_wakeup(self, engine: ExecutionEngine) -> None:
        inner = engine.wakeup
        manager = self

        def wakeup(entry=None):
            if not manager._replaying:
                manager._pending.append({
                    "kind": "wakeup",
                    "entry": getattr(entry, "name", None),
                    "time": manager.clock.now(),
                })
                manager._flush()
            manager._in_wakeup = True
            try:
                result = inner(entry)
            finally:
                manager._in_wakeup = False
            if not manager._replaying:
                manager._append_marks()
            return result

        engine.wakeup = wakeup  # type: ignore[method-assign]

    def _log(self, record: dict) -> None:
        """Buffer ``record`` for the next wake-up's group frame; inside a
        wake-up the engine is already reading, so it goes out at once."""
        if self._in_wakeup:
            self.wal.append(record)
        else:
            self._pending.append(record)

    def _flush(self) -> None:
        """Write the buffered records as one frame (the group commit)."""
        if self._pending:
            pending, self._pending = self._pending, []
            self.wal.append(pending)

    # ------------------------------------------------------------------ #
    # Checkpointing

    def _require_bound(self) -> None:
        if self.engine is None or self.graph is None:
            raise RecoveryError("RecoveryManager.bind() has not been called")

    def _sink_delivered(self) -> dict[str, int]:
        return {s.name: s.delivered for s in self.graph.sinks()}

    def _append_marks(self) -> None:
        marks = self._sink_delivered()
        if marks != self._last_marks:
            self.wal.append({"kind": "marks", "marks": marks})
            self._last_marks = marks

    def _round_checkpoint(self, round_id: int) -> None:
        """Engine hook target: checkpoint unless a replay is in progress."""
        if not self._replaying:
            self.checkpoint()

    def assemble_state(self) -> dict:
        """The full checkpoint document (every component's snapshot).

        Buffered records go to the WAL first: their rows already sit in the
        source buffers this image captures, so ``wal_index`` must cover
        them.
        """
        self._require_bound()
        self._flush()
        graph = self.graph
        operators = {op.name: op.snapshot_state()
                     for op in graph.operators
                     if hasattr(op, "snapshot_state")}
        state = {
            "format": CHECKPOINT_FORMAT_VERSION,
            "graph_name": graph.name,
            "clock_now": self.clock.now(),
            "engine": self.engine.snapshot_state(),
            "operators": operators,
            "buffer_names": [buf.name for buf in graph.buffers],
            "buffers": [buf.snapshot_state() for buf in graph.buffers],
            "ets_policy": self.engine.ets_policy.snapshot_state(),
            "sink_delivered": self._sink_delivered(),
            "wal_index": self.wal.records_written,
        }
        if self.sim is not None:
            state["sim"] = {
                "arrivals_delivered": self.sim.arrivals_delivered,
                "heartbeats_delivered": self.sim.heartbeats_delivered,
            }
        return state

    def checkpoint(self) -> CheckpointInfo:
        """Write one durable checkpoint; publishes ``on_checkpoint``."""
        info = self.store.save(self.assemble_state())
        if self._bus is not None:
            self._bus.checkpoint(
                number=info.number, time=self.clock.now(),
                duration=info.duration, bytes_written=info.bytes_written,
                wal_records=self.wal.records_written)
        return info

    # ------------------------------------------------------------------ #
    # Recovery

    def _restore_components(self, state: dict) -> None:
        graph = self.graph
        if state.get("format") != CHECKPOINT_FORMAT_VERSION:
            raise RecoveryError(
                f"checkpoint format {state.get('format')!r} != "
                f"{CHECKPOINT_FORMAT_VERSION} (see DESIGN.md §4f)")
        if state["graph_name"] != graph.name:
            raise RecoveryError(
                f"checkpoint is for graph {state['graph_name']!r}, "
                f"bound graph is {graph.name!r}")
        names = [buf.name for buf in graph.buffers]
        if names != state["buffer_names"]:
            raise RecoveryError(
                "checkpoint buffer layout does not match the graph "
                f"({state['buffer_names']} != {names})")
        self.clock.advance_to(state["clock_now"])
        self.engine.restore_state(state["engine"])
        self.engine.ets_policy.restore_state(state["ets_policy"])
        for name, op_state in state["operators"].items():
            if name not in graph:
                raise RecoveryError(
                    f"checkpoint names operator {name!r} missing from graph")
            graph[name].restore_state(op_state)
        for buf, buf_state in zip(graph.buffers, state["buffers"]):
            buf.restore_state(buf_state)
        if self.sim is not None and "sim" in state:
            self.sim.arrivals_delivered = state["sim"]["arrivals_delivered"]
            self.sim.heartbeats_delivered = state["sim"]["heartbeats_delivered"]
        ensure_seq_above(_max_seq(state))

    def _install_suppressor(self, sink, count: int) -> None:
        """Withhold the first ``count`` delivered rows from the sink's
        consumers: per row from ``on_output``, per run from the column hook
        (cutting a run where ``count`` falls inside it)."""
        inner, inner_capture = sink.on_output, sink._capture
        rows_left = runs_left = count

        def suppress(tup, latency):
            nonlocal rows_left
            if rows_left > 0:
                rows_left -= 1
                return
            inner(tup, latency)

        def suppress_run(ts, payloads):
            nonlocal runs_left
            if runs_left:
                skip, runs_left = runs_left, max(0, runs_left - len(ts))
                ts, payloads = ts[skip:], payloads[skip:]
                if not ts:
                    return
            inner_capture(ts, payloads)

        if inner is not None:
            sink.on_output = suppress
        if inner_capture is not None:
            sink._capture = suppress_run

    def _fault(self, kind: str, detail: str) -> None:
        if self._bus is not None:
            self._bus.fault(kind=kind, operator="recovery",
                            round_id=self.engine.round_id,
                            time=self.clock.now(), detail=detail)

    def recover(self) -> RecoveryReport:
        """Crash-stop recovery: restore + replay + suppress; exactly-once.

        Bind a *freshly built* graph/engine first — recovery restores into
        initial-state components.  Corrupted newer checkpoints are skipped
        with a loud ``fault(kind="checkpoint-corrupt")`` event; only an
        empty fallback chain raises :class:`RecoveryError`.
        """
        self._require_bound()
        started = _time.perf_counter()
        report = RecoveryReport()

        records, clean = self.wal.replay_with_status()
        if not clean:
            self.wal.truncate_to_valid()
            self._fault("wal-torn-tail",
                        f"truncated to {len(records)} records")
        report.wal_clean = clean
        report.wal_records = len(records)
        for rec in records:
            if rec.kind == "ingest":
                report.ingests_by_source[rec["source"]] = \
                    report.ingests_by_source.get(rec["source"], 0) + 1
            elif rec.kind == "punct":
                key = (rec["source"], rec["ts"], rec.get("origin", ""))
                report.punctuations_by_key[key] = \
                    report.punctuations_by_key.get(key, 0) + 1

        # Newest checkpoint that validates AND whose WAL position is still
        # covered by the intact records (a checkpoint past a mid-log
        # corruption has an unreplayable suffix — fall back past it too).
        state: dict | None = None
        for number in reversed(self.store.numbers()):
            try:
                candidate = self.store.load(number)
            except (RecoveryError, OSError) as exc:
                report.skipped.append((number, str(exc)))
                self._fault("checkpoint-corrupt",
                            f"checkpoint {number}: {exc}")
                continue
            if candidate.get("wal_index", 0) > len(records):
                reason = (f"wal_index {candidate.get('wal_index')} beyond "
                          f"intact WAL ({len(records)} records)")
                report.skipped.append((number, reason))
                self._fault("checkpoint-corrupt",
                            f"checkpoint {number}: {reason}")
                continue
            state = candidate
            report.checkpoint_number = number
            break
        if state is None and report.skipped:
            raise RecoveryError(
                f"no usable checkpoint in {self.state_dir} "
                f"({len(report.skipped)} skipped)", skipped=report.skipped)

        if state is not None:
            self._restore_components(state)
            wal_index = state["wal_index"]
            base_delivered = dict(state["sink_delivered"])
        else:
            # No checkpoint ever completed: replay the whole WAL from the
            # fresh graph (still exactly-once via the marks records).
            wal_index = 0
            base_delivered = {name: 0 for name in self._sink_delivered()}

        suffix = records[wal_index:]
        hwm = dict(base_delivered)
        for rec in suffix:
            if rec.kind == "marks":
                hwm.update(rec["marks"])
        sinks = {s.name: s for s in self.graph.sinks()}
        for name, sink in sinks.items():
            count = hwm.get(name, 0) - base_delivered.get(name, 0)
            if count > 0:
                report.suppressed[name] = count
                self._install_suppressor(sink, count)

        sources = {s.name: s for s in self.graph.sources()}
        self._replaying = True
        try:
            for rec in suffix:
                kind = rec.kind
                if kind == "ingest":
                    self.clock.advance_to(rec["now"])
                    sources[rec["source"]].ingest(
                        rec["payload"], now=self.clock.now(),
                        ts=rec["external_ts"], arrival=rec["time"])
                    report.ingests_replayed += 1
                elif kind == "punct":
                    self.clock.advance_to(rec["time"])
                    sources[rec["source"]].inject_punctuation(
                        rec["ts"], origin=rec["origin"],
                        periodic=rec["periodic"])
                    report.punctuations_replayed += 1
                elif kind == "wakeup":
                    self.clock.advance_to(rec["time"])
                    entry = rec["entry"]
                    self.engine.wakeup(
                        sources.get(entry) if entry is not None else None)
                    report.wakeups_replayed += 1
                # "marks" records only carry high-water marks: pre-scanned.
        finally:
            self._replaying = False
        report.replayed = len(suffix)
        self._last_marks = self._sink_delivered()

        report.duration = _time.perf_counter() - started
        if self._bus is not None:
            self._bus.recovery(
                checkpoint=report.checkpoint_number, time=self.clock.now(),
                replayed=report.replayed,
                suppressed=report.total_suppressed,
                duration=report.duration, fallback=report.fallback,
                detail="; ".join(f"ckpt {n}: {r}" for n, r in report.skipped))
        return report

    def close(self) -> None:
        """Write out buffered records, release the WAL handle (idempotent)."""
        self._flush()
        self.wal.close()


def wal_history(state_dir: str | Path) -> list[WalRecord]:
    """Read a state directory's intact WAL records, without binding.

    How the elastic facade reads its own command history back after a
    crash (group frames expanded, a torn tail dropped — what
    :meth:`RecoveryManager.recover` would replay after truncation).
    Returns ``[]`` when no WAL exists yet.
    """
    return WriteAheadLog(Path(state_dir) / "wal.log", fsync=False).replay()


def _max_seq(obj: Any, _best: int = -1) -> int:
    """Largest ``seq`` of any stream element inside a checkpoint document.

    A column dump (a window's ``ColumnarBlock``) carries its elements'
    ``seq``s as one list: its largest is ``max`` of that column.
    """
    if isinstance(obj, Mapping):
        for value in obj.values():
            _best = _max_seq(value, _best)
        return _best
    if isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            _best = _max_seq(value, _best)
        return _best
    seq = getattr(obj, "seq", None)
    if isinstance(seq, list):
        seq = max(seq, default=_best)
    if isinstance(seq, int) and seq > _best:
        return seq
    return _best
