"""Shard execution backends: one engine per shard, three ways to drive them.

An :class:`EngineShard` owns a full copy of the query graph — its own
:class:`~repro.core.execution.ExecutionEngine`, virtual clock, ETS policy
instance, sink captures, and (optionally) a
:class:`~repro.recovery.CheckpointStore` in a per-shard state directory;
the facade's log is the only input log (DESIGN.md §4g).  Backends only
differ in *where* ``EngineShard.apply`` runs:

* :class:`SerialBackend` — in the caller's thread, shard by shard.  The
  reference semantics; the other two backends must be observationally
  identical to it (shards share no state, so execution order between
  shards cannot matter).
* :class:`ThreadBackend` — a thread pool, one task per shard per wake-up.
  Under the GIL this does not parallelize pure-Python CPU; the sharding
  win it ships is *algorithmic* (per-shard window state shrinks by ~P, so
  total scan-join probe work drops by ~P); what it delivers in wall-clock
  terms is ``shard.engine.thread_p2_tuples_per_s`` on the ``sharded-join``
  workload of ``benchmarks/e2e``.
* :class:`ProcessBackend` — P−1 forked workers on pipes while the caller
  runs shard 0.  Every receive polls first while each process has a CPU
  (:data:`SPIN_S`) and carries a timeout, so a deadlocked or dead shard
  fails the caller fast (:class:`ShardTimeoutError`), not hangs the suite.

All backends run with ``cost_model=None``: virtual time is driven by the
feed schedule alone, which is what makes sharded output bit-comparable to
a single-engine run.
"""

from __future__ import annotations

import multiprocessing
import os
import time as _time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from ..core.config import EngineConfig
from ..core.errors import ExecutionError, ReproError
from ..core.execution import ExecutionEngine
from ..core.tuples import TimestampKind
from ..recovery.checkpoint import CheckpointStore
from ..recovery.manager import (RecoveryReport, engine_state, restore_newest,
                                withhold_delivered)
from ..sim.clock import VirtualClock
from .frontier import shard_frontier

__all__ = ["EngineShard", "ShardResult", "ShardError", "ShardTimeoutError",
           "SerialBackend", "ThreadBackend", "ProcessBackend",
           "make_backend", "BACKENDS"]

#: (source, payload, arrival_time, external_ts) — one routed ingest.
IngestCommand = tuple[str, Any, float, float | None]
#: (source, ts, origin, periodic) — one broadcast punctuation.
PunctuationCommand = tuple[str, float, str, bool]

#: Shard checkpoint document version: §4f's engine document with
#: ``position`` (facade wake-ups covered) for ``wal_index``; 1 is refused.
SHARD_CHECKPOINT_FORMAT = 2


#: Seconds a pipe wait polls before it sleeps (see :class:`ProcessBackend`).
SPIN_S = 0.002


class ShardError(ReproError):
    """A shard failed executing a command."""


class ShardTimeoutError(ShardError):
    """A shard did not answer within the backend's operation timeout."""


@dataclass(slots=True)
class ShardResult:
    """What one shard reports after applying a wake-up's commands.

    ``outputs`` holds ``(sink, ts, payloads)`` runs in delivery order, one
    per stretch of consecutive deliveries by one sink: two parallel
    columns, not one record per row, so its rows are
    ``sum(len(ts) for _, ts, _ in outputs)``.

    ``marks`` is a durable shard's cumulative delivered count per sink
    (None without a state directory), which the facade logs before release.
    """

    shard: int
    outputs: list[tuple[str, list[float], list[Any]]]
    frontier: float
    ingested: int = 0
    marks: dict[str, int] | None = None


@dataclass(slots=True)
class ShardSummary:
    """End-of-run figures for one shard.

    ``sources`` maps each source name to its timestamp ``kind``, whether
    it is ``ordered`` (refuses a regressing external stamp), and its live
    stream horizons (``watermark`` / ``last_data_ts``) — the reshard
    coordinator's alignment targets — and ``state_floor`` is the smallest
    timestamp that can still influence the shard's output, below which the
    coordinator need not replay history (see :mod:`repro.shard.elastic`).
    """

    shard: int
    ingested: int
    delivered: int
    frontier: float
    stats: dict = field(default_factory=dict)
    sources: dict = field(default_factory=dict)
    state_floor: float = float("-inf")


def shard_config(config: EngineConfig) -> EngineConfig:
    """``config``, refused when it carries a ``feedback`` controller: a
    shard's pressure view would steer the rows routed to it, not its
    streams, so a shard engine is built without one."""
    if config.feedback is not None:
        raise ExecutionError(f"sharded engines take no feedback controller; "
                             f"got feedback={config.feedback!r}")
    return config


class EngineShard:
    """One shard: a private graph + engine + clock (+ checkpoint store).

    Args:
        index: The shard's position in ``[0, P)``.
        build: Zero-argument factory returning a fresh
            :class:`~repro.core.graph.QueryGraph`; every shard gets its own
            copy, so the factory must not share operator state between
            calls.
        config / **knobs: The shared knobs, declared and documented on
            :class:`~repro.core.config.EngineConfig`, handed to the shard's
            engine as they are.  ``ets_policy`` must be a zero-argument
            factory (a policy holds state and cannot be shared across
            engines), and ``feedback`` is refused (see
            :func:`shard_config`); with ``state_dir`` set, :meth:`checkpoint`
            captures an image there, recording the facade-log
            :attr:`position` it covers.  The shard neither logs nor
            decides when to checkpoint: the facade calls it at its marks.
            A capture the facade spreads is written inside the shard's
            (``index`` + 1)-th :meth:`apply` from it, so the P shards of a
            checkpoint write on P successive wake-ups, none on the
            checkpoint's own (DESIGN.md §4g).
            Recovery is two calls on a fresh shard, :meth:`restore` then
            :meth:`replay`; between them the facade routes the shard only
            the logged wake-ups past the position :meth:`restore` returned.
    """

    def __init__(self, index: int, build: Callable[[], Any], *,
                 config: EngineConfig | None = None, **knobs) -> None:
        config = shard_config((config or EngineConfig()).replace(**knobs))
        self.index = index
        self.graph = build()
        self.clock = VirtualClock()
        self.engine = ExecutionEngine(
            self.graph, self.clock, cost_model=None, config=config.replace(
                ets_policy=config.per_engine("ets_policy", sharded=True)))
        self._outputs: list[tuple[str, list[float], list[Any]]] = []
        self.sinks = self.graph.sinks()
        for sink in self.sinks:
            self._capture_sink(sink)
        self.sources = {src.name: src for src in self.graph.sources()}
        self.ingested = 0
        self.delivered = 0
        #: Wake-ups of the facade log this shard's state covers: set by
        #: every positioned command, recorded by every checkpoint.
        self.position = 0
        self.store: CheckpointStore | None = None
        #: The captured image's bytes not yet written, and the applies
        #: left until they are.
        self._unwritten: bytes | None = None
        self._applies_left = 0
        if config.state_dir is not None:
            Path(config.state_dir).mkdir(parents=True, exist_ok=True)
            self.store = CheckpointStore(config.state_dir)

    def _capture_sink(self, sink) -> None:
        """Collect ``(sink, ts, payloads)`` runs straight off the sink's
        columns: no tuple is built for shard output, a result pickles as a
        few lists instead of a 3-tuple per row, and a user ``on_output``
        keeps its per-row calls.  A delivery extends the last run when the
        same sink made it (a one-element run delivers one row at a time).
        The columns are copied, since the hook may be handed the block's
        own arrays."""
        name = sink.name
        shard = self

        def capture(ts, payloads) -> None:
            outputs = shard._outputs
            if outputs and outputs[-1][0] is name:
                outputs[-1][1].extend(ts)
                outputs[-1][2].extend(payloads)
            else:
                outputs.append((name, list(ts), list(payloads)))
            shard.delivered += len(ts)

        sink._capture = capture

    # ------------------------------------------------------------------ #
    # Command execution (runs in the caller's thread or a worker process)

    def apply(self, ingests: Sequence[IngestCommand],
              punctuations: Sequence[PunctuationCommand],
              now: float, position: int | None = None) -> ShardResult:
        """Ingest routed tuples, broadcast punctuation, run to quiescence.

        An idle shard (no commands) only advances its clock — its frontier
        still moves for internally stamped sources, which is what keeps a
        key-skewed workload from pinning the global gate.  ``position``
        numbers the wake-up in the facade log; a checkpoint taken in it
        records it.
        """
        if self._unwritten is not None:
            self._applies_left -= 1
            if not self._applies_left:
                self.write_pending()
        if position is not None:
            self.position = position
        entry = None
        for source, payload, arrival, external_ts in ingests:
            self.clock.advance_to(arrival)
            src = self.sources[source]
            src.ingest(payload, now=self.clock.now(), ts=external_ts,
                       arrival=arrival)
            entry = src
            self.ingested += 1
        for source, ts, origin, periodic in punctuations:
            self.sources[source].inject_punctuation(
                ts, origin=origin, periodic=periodic)
        self.clock.advance_to(now)
        if ingests or punctuations:
            self.engine.wakeup(entry)
        drained, self._outputs = self._outputs, []
        return ShardResult(
            shard=self.index, outputs=drained, frontier=self.frontier(),
            ingested=len(ingests),
            marks=None if self.store is None else {
                sink.name: sink.delivered for sink in self.sinks})

    def frontier(self) -> float:
        return shard_frontier(self.graph, self.clock)

    def checkpoint(self, spread: bool = False) -> float:
        """Capture the shard's image with the log position it covers — its
        bytes, fixed here — after writing the one still pending.  The
        image is written now, or with ``spread`` inside the shard's
        (``index`` + 1)-th :meth:`apply` from here.  The reply is the
        shard's :meth:`state_floor`, which the facade's ``cut`` record
        carries and its history is trimmed by."""
        if self.store is None:
            raise ShardError(f"shard {self.index} has no state_dir")
        self.write_pending()
        self._unwritten = self.store.encode(engine_state(
            self.graph, self.engine, self.clock,
            version=SHARD_CHECKPOINT_FORMAT, position=self.position))
        self._applies_left = self.index + 1
        if not spread:
            self.write_pending()
        return self.state_floor()

    def write_pending(self) -> None:
        """Write the captured image still pending, if any."""
        if self._unwritten is not None:
            blob, self._unwritten = self._unwritten, None
            self.store.write(blob)

    def restore(self, marks: dict[str, int], limit: int,
                report: RecoveryReport) -> int:
        """Recovery's first phase, on a fresh shard: restore the newest
        checkpoint whose position the intact log's ``limit`` wake-ups
        cover and withhold ``marks`` (the log's last delivered count per
        sink for this shard) minus what that image had delivered.
        ``report`` holds what the facade read in the log and is filled
        in here.  Returns the position restored: the facade sends
        :meth:`replay` only the wake-ups past it."""
        if self.store is None:
            raise ShardError(f"shard {self.index} has no state_dir")
        started = _time.perf_counter()

        def refuse(image: dict) -> str | None:
            if image.get("position", 0) <= limit:
                return None
            return (f"position {image['position']} beyond the intact log "
                    f"({limit})")

        state = restore_newest(report, self.store, refuse, self.graph,
                               self.engine, self.clock,
                               version=SHARD_CHECKPOINT_FORMAT)
        withhold_delivered(report, self.graph, marks, state)
        if state is not None:
            self.position = state["position"]
        report.duration = _time.perf_counter() - started
        return self.position

    def replay(self, commands: Sequence[tuple],
               report: RecoveryReport) -> RecoveryReport:
        """Recovery's second phase: apply ``commands``, one ``apply``
        argument tuple per logged wake-up past the restored position, and
        hold what survives suppression for the next wake-up's result."""
        started = _time.perf_counter()
        outputs: list = []
        for command in commands:
            outputs += self.apply(*command).outputs
            report.ingests_replayed += len(command[0])
            report.wakeups_replayed += 1
        report.replayed = report.wakeups_replayed
        self._outputs = outputs
        self.ingested = sum(report.ingests_by_source.values())
        report.duration += _time.perf_counter() - started
        return report

    def state_floor(self) -> float:
        """The graph's floor, or ``-inf`` when the ETS policy decides from
        history the graph does not hold."""
        return min(self.graph.state_floor(),
                   self.engine.ets_policy.state_floor())

    def summary(self) -> ShardSummary:
        return ShardSummary(shard=self.index, ingested=self.ingested,
                            delivered=self.delivered,
                            frontier=self.frontier(),
                            state_floor=self.state_floor(),
                            stats=self.engine.stats.as_dict(),
                            sources={
                                name: {"kind": src.timestamp_kind,
                                       "ordered": _ordered(src),
                                       "watermark": src.watermark,
                                       "last_data_ts": src.last_data_ts}
                                for name, src in self.sources.items()})


def _ordered(source) -> bool:
    """Whether ``source`` refuses an external stamp below its last one
    (in order, with no throttle or quarantine policy between a row and
    that check): the facade refuses the same row before staging it."""
    return (source.timestamp_kind is TimestampKind.EXTERNAL
            and not source.out_of_order and source.throttle is None
            and source.quarantine is None)


class SerialBackend:
    """Run every shard inline, in index order — the reference backend."""

    kind = "serial"

    def __init__(self, shard_count: int, make_shard: Callable[[int],
                 EngineShard], *, op_timeout: float = 60.0) -> None:
        self.shards = [make_shard(i) for i in range(shard_count)]
        self.op_timeout = op_timeout

    def apply_all(self, commands: Sequence[tuple[Sequence[IngestCommand],
                  Sequence[PunctuationCommand], float]]
                  ) -> list[ShardResult]:
        return [shard.apply(*command)
                for shard, command in zip(self.shards, commands)]

    def checkpoint_all(self, spread: bool = False) -> list:
        return [shard.checkpoint(spread) for shard in self.shards]

    def restore_all(self, args: Sequence[tuple]) -> list[tuple]:
        """``(position, report)`` per shard, from :meth:`EngineShard.restore`
        on ``(marks, limit, report)``."""
        return [(shard.restore(*a), a[2])
                for shard, a in zip(self.shards, args)]

    def replay_all(self, args: Sequence[tuple]) -> list:
        return [shard.replay(*a) for shard, a in zip(self.shards, args)]

    def summaries(self) -> list[ShardSummary]:
        return [shard.summary() for shard in self.shards]

    def close(self) -> None:
        """Write every shard's pending image; a shard holds no open file."""
        for shard in self.shards:
            shard.write_pending()


class ThreadBackend(SerialBackend):
    """Thread-pool backend: one worker thread per shard wake-up task.

    Shards are mutated only by their own task, so no locking is needed;
    determinism follows from shard independence plus the facade's
    deterministic merge.  ``op_timeout`` bounds each shard's wake-up so a
    livelocked shard surfaces as :class:`ShardTimeoutError`.
    """

    kind = "thread"

    def __init__(self, shard_count: int, make_shard: Callable[[int],
                 EngineShard], *, op_timeout: float = 60.0) -> None:
        super().__init__(shard_count, make_shard, op_timeout=op_timeout)
        self._pool = ThreadPoolExecutor(
            max_workers=shard_count, thread_name_prefix="repro-shard")

    def apply_all(self, commands) -> list[ShardResult]:
        futures = [self._pool.submit(shard.apply, *command)
                   for shard, command in zip(self.shards, commands)]
        results = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result(timeout=self.op_timeout))
            except TimeoutError:
                raise ShardTimeoutError(
                    f"shard {index} did not finish a wake-up within "
                    f"{self.op_timeout}s") from None
        return results

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._pool.shutdown(wait=False, cancel_futures=True)


def _wait(conn, timeout: float | None, spin: float) -> bool:
    """``conn.poll(timeout)`` after polling for up to ``spin`` seconds."""
    deadline = _time.perf_counter() + spin
    while spin:  # at least one look, however late this process ran
        if conn.poll():
            return True
        if _time.perf_counter() >= deadline:
            break
    return conn.poll(timeout)


def _run_op(shard: EngineShard, message: tuple):
    """One protocol command on ``shard``, returning its reply: the one op
    table of the worker loop and of the process backend's caller shard."""
    op, args = message[0], message[1:]
    if op == "restore":  # the report goes back filled in
        return shard.restore(*args), args[2]
    if op == "close":
        return shard.write_pending()
    if op not in ("apply", "checkpoint", "replay", "summary"):
        raise ShardError(f"unknown shard op {op!r}")
    return getattr(shard, op)(*args)


def _shard_worker(conn, index: int, build, kwargs: dict, spin: float) -> None:
    """Worker-process command loop (fork start method: args not pickled)."""
    shard = EngineShard(index, build, **kwargs)
    while True:
        try:
            _wait(conn, None, spin)
            message = conn.recv()
        except EOFError:
            break
        try:
            conn.send(("ok", _run_op(shard, message)))
        except Exception:  # noqa: BLE001 - crossing a process boundary
            conn.send(("err", traceback.format_exc()))
        if message[0] == "close":
            break


class ProcessBackend:
    """Shard 0 in the caller, shards 1…P−1 in forked worker processes
    driven over pipes (at P = 1, one worker).

    Requires the ``fork`` start method (factories travel by inheritance,
    not pickling), so it is POSIX-only.  A call sends the workers their
    messages, runs shard 0's in the caller through the workers' op table,
    then reads every reply, each awaited once, for ``op_timeout``; a worker
    that misses it is terminated and raised as :class:`ShardTimeoutError`.
    The caller's shard is bounded as a serial shard is, by
    ``max_steps_per_round``; ``crash_shard`` still needs an in-process
    backend.

    ``spin`` is :data:`SPIN_S` while the processes (workers and caller) fit
    the usable CPUs, else 0: polling skips a sleeper's ~0.15–0.19 ms
    wake-up, but on a CPU it shares it steals a worker's time.
    """

    kind = "process"

    def __init__(self, shard_count: int, make_args: Callable[[int],
                 tuple[Callable[[], Any], dict]], *,
                 op_timeout: float = 60.0) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise ReproError(
                "the process backend needs the 'fork' start method; "
                "use backend='thread' on this platform") from None
        self.shard_count = shard_count
        self.op_timeout = op_timeout
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        self.spin = SPIN_S if max(shard_count, 2) <= cpus else 0.0
        self._conns, self._procs = {}, {}  # by shard index
        for index in range(1 if shard_count > 1 else 0, shard_count):
            parent, child = ctx.Pipe()
            build, kwargs = make_args(index)
            proc = ctx.Process(
                target=_shard_worker,
                args=(child, index, build, kwargs, self.spin),
                daemon=True, name=f"repro-shard-{index}")
            proc.start()
            child.close()
            self._conns[index] = parent
            self._procs[index] = proc
        build, kwargs = make_args(0)  # after the fork: no worker copies it
        self._local = (EngineShard(0, build, **kwargs)
                       if 0 not in self._conns else None)

    def _send(self, index: int, message: tuple) -> None:
        try:
            self._conns[index].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardError(
                f"shard {index} pipe is closed ({exc}); the worker is "
                f"gone") from None

    def _recv(self, index: int, op: str):
        conn = self._conns[index]
        if not _wait(conn, self.op_timeout, self.spin):
            self._procs[index].terminate()
            raise ShardTimeoutError(
                f"shard {index} did not answer {op!r} within "
                f"{self.op_timeout}s (terminated)")
        try:
            status, value = conn.recv()
        except EOFError:
            raise ShardError(f"shard {index} died executing {op!r}") from None
        if status != "ok":
            raise ShardError(f"shard {index} failed {op!r}:\n{value}")
        return value

    def _call_all(self, messages: Sequence[tuple]) -> list:
        """Send every worker its message, run shard 0's in the caller, then
        read *every* reply before raising the first failure — a reply left
        in a pipe would answer the next call and desynchronise that shard
        for good."""
        failure: ShardError | None = None
        sent = []
        for index in self._conns:
            try:
                self._send(index, messages[index])
                sent.append(index)
            except ShardError as exc:
                failure = failure or exc
        results = []
        if self._local is not None:
            try:
                results.append(_run_op(self._local, messages[0]))
            except Exception:  # noqa: BLE001 - reported as a worker's is
                failure = failure or ShardError(
                    f"shard 0 failed {messages[0][0]!r}:\n"
                    f"{traceback.format_exc()}")
        for index in sent:
            try:
                results.append(self._recv(index, messages[index][0]))
            except ShardError as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return results

    def apply_all(self, commands) -> list[ShardResult]:
        return self._call_all([("apply",) + tuple(command)
                               for command in commands])

    def checkpoint_all(self, spread: bool = False) -> list:
        return self._call_all([("checkpoint", spread)] * self.shard_count)

    def restore_all(self, args: Sequence[tuple]) -> list[tuple]:
        return self._call_all([("restore",) + tuple(a) for a in args])

    def replay_all(self, args: Sequence[tuple]) -> list:
        return self._call_all([("replay",) + tuple(a) for a in args])

    def summaries(self) -> list[ShardSummary]:
        return self._call_all([("summary",)] * self.shard_count)

    def close(self) -> None:
        """Every shard writes its pending image (a worker before it exits);
        the first shard that fails to raises once every worker is gone."""
        failure = None
        if self._local is not None:
            try:
                self._local.write_pending()
            except Exception:  # noqa: BLE001 - raised after the workers
                failure = ShardError(f"shard 0 failed 'close':\n"
                                     f"{traceback.format_exc()}")
        for index, conn in self._conns.items():
            try:
                conn.send(("close",))
                if conn.poll(self.op_timeout):
                    status, value = conn.recv()
                    if status != "ok" and failure is None:
                        failure = ShardError(
                            f"shard {index} failed 'close':\n{value}")
            except (BrokenPipeError, EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs.values():
            proc.join(timeout=self.op_timeout)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        if failure is not None:
            raise failure


BACKENDS = ("serial", "thread", "process")


def make_backend(kind: str, shard_count: int, *,
                 build: Callable[[], Any],
                 shard_kwargs: Callable[[int], dict],
                 op_timeout: float = 60.0):
    """Construct a backend by name (the facade's single switch point)."""
    if kind in ("serial", "thread"):
        cls = SerialBackend if kind == "serial" else ThreadBackend
        return cls(shard_count, lambda index: EngineShard(
            index, build, **shard_kwargs(index)), op_timeout=op_timeout)
    if kind == "process":
        return ProcessBackend(shard_count, lambda index: (
            build, shard_kwargs(index)), op_timeout=op_timeout)
    raise ReproError(f"unknown shard backend {kind!r}; "
                     f"expected one of {BACKENDS}")
