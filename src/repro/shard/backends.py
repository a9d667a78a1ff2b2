"""Shard execution backends: one engine per shard, three ways to drive them.

An :class:`EngineShard` owns a full copy of the query graph — its own
:class:`~repro.core.execution.ExecutionEngine`, virtual clock, ETS policy
instance, sink captures, and (optionally) a
:class:`~repro.recovery.RecoveryManager` rooted in a per-shard state
directory.  Backends only differ in *where* ``EngineShard.apply`` runs:

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
* :class:`ProcessBackend` — forked worker processes speaking a small
  command protocol over pipes.  Every receive carries a timeout so a
  deadlocked or dead shard fails the caller fast
  (:class:`ShardTimeoutError`) instead of hanging the suite.

All backends run with ``cost_model=None``: virtual time is driven by the
feed schedule alone, which is what makes sharded output bit-comparable to
a single-engine run.
"""

from __future__ import annotations

import multiprocessing
import random
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..core.config import EngineConfig
from ..core.errors import ReproError
from ..core.execution import ExecutionEngine
from ..sim.clock import VirtualClock
from .frontier import shard_frontier

__all__ = ["EngineShard", "ShardResult", "ShardError", "ShardTimeoutError",
           "SerialBackend", "ThreadBackend", "ProcessBackend",
           "make_backend", "BACKENDS"]

#: (source, payload, arrival_time, external_ts) — one routed ingest.
IngestCommand = tuple[str, Any, float, float | None]
#: (source, ts, origin, periodic) — one broadcast punctuation.
PunctuationCommand = tuple[str, float, str, bool]


#: Re-poll backoff of the process backend: attempt ``i`` waits
#: ``op_timeout * min(RETRY_CAP, RETRY_BASE**i)``, stretched by up to
#: ``RETRY_JITTER`` of jitter drawn from a generator seeded ``RETRY_SEED``.
RETRY_BASE = 2.0
RETRY_CAP = 4.0
RETRY_JITTER = 0.25
RETRY_SEED = 0
assert RETRY_BASE >= 1.0, "backoff must not shrink"
assert RETRY_JITTER >= 0.0, "jitter only ever lengthens a wait"


class ShardError(ReproError):
    """A shard failed executing a command."""


class ShardTimeoutError(ShardError):
    """A shard did not answer within the backend's operation timeout."""


@dataclass(slots=True)
class ShardResult:
    """What one shard reports after applying a wake-up's commands.

    ``pressure`` is the shard's feedback-controller view after the
    wake-up (0.0 when the shard runs without a controller); ``clamp``
    echoes the global pressure the facade broadcast with the command, so
    tests can bound clamp staleness across process boundaries.

    ``outputs`` holds ``(sink, ts, payloads)`` runs in delivery order, one
    per stretch of consecutive deliveries by one sink: two parallel
    columns, not one record per row, so its rows are
    ``sum(len(ts) for _, ts, _ in outputs)``.
    """

    shard: int
    outputs: list[tuple[str, list[float], list[Any]]]
    frontier: float
    ingested: int = 0
    punctuated: int = 0
    rounds: int = 0
    steps: int = 0
    pressure: float = 0.0
    clamp: float | None = None


@dataclass(slots=True)
class ShardSummary:
    """End-of-run figures for one shard.

    ``sources`` maps each source name to its live stream horizons
    (``watermark`` / ``last_data_ts``) — the reshard coordinator's
    alignment targets — and ``state_floor`` is the smallest timestamp that
    can still influence the shard's output, below which the coordinator
    need not replay history (see :mod:`repro.shard.elastic`).
    """

    shard: int
    ingested: int
    delivered: int
    frontier: float
    stats: dict = field(default_factory=dict)
    sources: dict = field(default_factory=dict)
    state_floor: float = float("-inf")


class EngineShard:
    """One shard: a private graph + engine + clock (+ recovery manager).

    Args:
        index: The shard's position in ``[0, P)``.
        build: Zero-argument factory returning a fresh
            :class:`~repro.core.graph.QueryGraph`; every shard gets its own
            copy, so the factory must not share operator state between
            calls.
        disorder_bound: Slack subtracted from out-of-order sources'
            horizons when computing the frontier.
        config / **knobs: The shared knobs, declared and documented on
            :class:`~repro.core.config.EngineConfig`, handed to the shard's
            engine as they are.  ``ets_policy`` and ``feedback`` must be
            zero-argument factories (both hold state and cannot be shared
            across engines); with ``state_dir`` set, a
            :class:`RecoveryManager` is bound there and every
            ingest/punctuation/wake-up is WAL-logged.
    """

    def __init__(self, index: int, build: Callable[[], Any], *,
                 disorder_bound: float = 0.0,
                 config: EngineConfig | None = None, **knobs) -> None:
        from ..recovery import RecoveryManager

        config = (config or EngineConfig()).replace(**knobs)
        self.index = index
        self.graph = build()
        self.clock = VirtualClock()
        self.disorder_bound = disorder_bound
        self.engine = ExecutionEngine(
            self.graph, self.clock, cost_model=None, config=config.replace(
                ets_policy=config.per_engine("ets_policy", sharded=True),
                feedback=config.per_engine("feedback", sharded=True)))
        self.feedback = self.engine.feedback
        self._outputs: list[tuple[str, list[float], list[Any]]] = []
        for sink in self.graph.sinks():
            self._capture_sink(sink)
        self.sources = {src.name: src for src in self.graph.sources()}
        self.ingested = 0
        self.delivered = 0
        self.manager = None
        if config.state_dir is not None:
            self.manager = RecoveryManager(config.state_dir).bind(
                self.graph, self.engine, self.clock)

    def _capture_sink(self, sink) -> None:
        """Collect ``(sink, ts, payloads)`` runs straight off the sink's
        columns: no tuple is built for shard output, a result pickles as a
        few lists instead of a 3-tuple per row, and a user ``on_output``
        keeps its per-row calls.  A delivery extends the last run when the
        same sink made it (the scalar path delivers one row at a time).
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
              now: float, clamp: float | None = None) -> ShardResult:
        """Ingest routed tuples, broadcast punctuation, run to quiescence.

        An idle shard (no commands) only advances its clock — its frontier
        still moves for internally stamped sources, which is what keeps a
        key-skewed workload from pinning the global gate, without paying a
        WAL wake-up record per idle shard.

        ``clamp``, when set and the shard has a feedback controller, is
        the facade's aggregated global pressure view; it is applied
        *before* this wake-up's ingests so source throttles and shed
        budgets see the fleet state first.
        """
        if clamp is not None and self.feedback is not None:
            self.feedback.clamp(clamp, self.clock.now(),
                                self.engine.round_id)
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
            ingested=len(ingests), punctuated=len(punctuations),
            rounds=self.engine.stats.rounds, steps=self.engine.stats.steps,
            pressure=(self.feedback.pressure
                      if self.feedback is not None else 0.0),
            clamp=clamp)

    def frontier(self) -> float:
        return shard_frontier(self.graph, self.clock,
                              disorder_bound=self.disorder_bound)

    def checkpoint(self):
        if self.manager is None:
            raise ShardError(f"shard {self.index} has no state_dir")
        return self.manager.checkpoint()

    def recover(self):
        if self.manager is None:
            raise ShardError(f"shard {self.index} has no state_dir")
        report = self.manager.recover()
        self.ingested = sum(report.ingests_by_source.values())
        return report

    def state_floor(self) -> float:
        """The graph's floor, or ``-inf`` when the ETS policy or a feedback
        controller decides from history the graph does not hold."""
        if self.feedback is not None:
            return float("-inf")
        return min(self.graph.state_floor(),
                   self.engine.ets_policy.state_floor())

    def summary(self) -> ShardSummary:
        return ShardSummary(shard=self.index, ingested=self.ingested,
                            delivered=self.delivered,
                            frontier=self.frontier(),
                            state_floor=self.state_floor(),
                            stats=self.engine.stats.as_dict(),
                            sources={
                                name: {"watermark": src.watermark,
                                       "last_data_ts": src.last_data_ts}
                                for name, src in self.sources.items()})

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close()


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

    def checkpoint_all(self) -> list:
        return [shard.checkpoint() for shard in self.shards]

    def recover_all(self) -> list:
        return [shard.recover() for shard in self.shards]

    def summaries(self) -> list[ShardSummary]:
        return [shard.summary() for shard in self.shards]

    def close(self) -> None:
        for shard in self.shards:
            shard.close()


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
        super().close()
        self._pool.shutdown(wait=False, cancel_futures=True)


def _shard_worker(conn, index: int, build, kwargs: dict) -> None:
    """Worker-process command loop (fork start method: args not pickled)."""
    shard = EngineShard(index, build, **kwargs)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        op = message[0]
        try:
            if op == "apply":
                conn.send(("ok", shard.apply(*message[1:])))
            elif op == "checkpoint":
                conn.send(("ok", shard.checkpoint()))
            elif op == "recover":
                conn.send(("ok", shard.recover()))
            elif op == "summary":
                conn.send(("ok", shard.summary()))
            elif op == "close":
                shard.close()
                conn.send(("ok", None))
                break
            else:
                conn.send(("err", f"unknown shard op {op!r}"))
        except Exception:  # noqa: BLE001 - crossing a process boundary
            conn.send(("err", traceback.format_exc()))


class ProcessBackend:
    """Forked worker processes, one per shard, driven over pipes.

    Requires the ``fork`` start method (the graph factory and ETS policy
    factory travel by inheritance, not pickling), so this backend is
    POSIX-only.  Every reply is awaited with ``op_timeout``; a shard that
    misses it is re-polled up to ``retry_limit`` times with exponential
    backoff — attempt ``i`` waits ``op_timeout * min(RETRY_CAP,
    RETRY_BASE**i)`` stretched by up to ``RETRY_JITTER`` of deterministic
    seeded jitter (so concurrent shard re-polls decorrelate without
    breaking replayability) — a transient stall (GC pause, scheduler
    hiccup, cold page-in) recovers without losing the worker, and only a
    shard that exhausts the retries is terminated and raised as
    :class:`ShardTimeoutError` / :class:`ShardError`.

    Attributes:
        retries: Total re-poll attempts across all shards and operations.
        on_retry: Optional ``(shard, op, attempt, backoff)`` callback
            invoked before each re-poll with the backoff actually slept
            (the facade wires it to the event bus, the
            ``repro_shard_retries_total`` counter, and the
            ``repro_shard_retry_backoff_seconds`` histogram).
    """

    kind = "process"

    def __init__(self, shard_count: int, make_args: Callable[[int],
                 tuple[Callable[[], Any], dict]], *,
                 op_timeout: float = 60.0, retry_limit: int = 1) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise ReproError(
                "the process backend needs the 'fork' start method; "
                "use backend='thread' on this platform") from None
        self.op_timeout = op_timeout
        self.retry_limit = max(0, int(retry_limit))
        self._retry_rng = random.Random(f"shard-retry:{RETRY_SEED}")
        self.retries = 0
        self.on_retry: Callable[[int, str, int, float], None] | None = None
        self._conns = []
        self._procs = []
        for index in range(shard_count):
            parent, child = ctx.Pipe()
            build, kwargs = make_args(index)
            proc = ctx.Process(
                target=_shard_worker, args=(child, index, build, kwargs),
                daemon=True, name=f"repro-shard-{index}")
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def _send(self, index: int, message: tuple) -> None:
        try:
            self._conns[index].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardError(
                f"shard {index} pipe is closed ({exc}); the worker is "
                f"gone") from None

    def _recv(self, index: int, op: str):
        conn = self._conns[index]
        answered = conn.poll(self.op_timeout)
        attempt = 0
        while not answered and attempt < self.retry_limit:
            attempt += 1
            backoff = self.op_timeout * min(RETRY_CAP, RETRY_BASE ** attempt)
            backoff *= 1.0 + RETRY_JITTER * self._retry_rng.random()
            self.retries += 1
            if self.on_retry is not None:
                self.on_retry(index, op, attempt, backoff)
            answered = conn.poll(backoff)
        if not answered:
            self._procs[index].terminate()
            raise ShardTimeoutError(
                f"shard {index} did not answer {op!r} within "
                f"{self.op_timeout}s + {attempt} backoff retries "
                f"(terminated)")
        try:
            status, value = conn.recv()
        except EOFError:
            raise ShardError(f"shard {index} died executing {op!r}") \
                from None
        if status != "ok":
            raise ShardError(f"shard {index} failed {op!r}:\n{value}")
        return value

    def _call_all(self, messages: Sequence[tuple]) -> list:
        """Send every shard its message, then read *every* reply before
        raising the first failure — a reply left in a pipe would answer
        the next call and desynchronise that shard for good."""
        failure: ShardError | None = None
        sent = []
        for index, message in enumerate(messages):
            try:
                self._send(index, message)
                sent.append(index)
            except ShardError as exc:
                failure = failure or exc
        results = []
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

    def checkpoint_all(self) -> list:
        return self._call_all([("checkpoint",)] * len(self._conns))

    def recover_all(self) -> list:
        return self._call_all([("recover",)] * len(self._conns))

    def summaries(self) -> list[ShardSummary]:
        return self._call_all([("summary",)] * len(self._conns))

    def close(self) -> None:
        for index, conn in enumerate(self._conns):
            try:
                conn.send(("close",))
                if conn.poll(self.op_timeout):
                    conn.recv()
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=self.op_timeout)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()


BACKENDS = ("serial", "thread", "process")


def make_backend(kind: str, shard_count: int, *,
                 build: Callable[[], Any],
                 shard_kwargs: Callable[[int], dict],
                 op_timeout: float = 60.0,
                 retry_limit: int = 1):
    """Construct a backend by name (the facade's single switch point)."""
    if kind in ("serial", "thread"):
        cls = SerialBackend if kind == "serial" else ThreadBackend

        def make_shard(index: int) -> EngineShard:
            return EngineShard(index, build, **shard_kwargs(index))

        return cls(shard_count, make_shard, op_timeout=op_timeout)
    if kind == "process":
        def make_args(index: int):
            return build, shard_kwargs(index)

        return ProcessBackend(shard_count, make_args, op_timeout=op_timeout,
                              retry_limit=retry_limit)
    raise ReproError(f"unknown shard backend {kind!r}; "
                     f"expected one of {BACKENDS}")
