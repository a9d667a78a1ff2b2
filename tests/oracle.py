"""Differential correctness oracle for the run (columnar) execution path.

The run path (``batch_size > 1``) is only worth having if it is
*observationally identical* to the scalar engine (``batch_size=1``): same
data tuples, same payloads, same timestamps, in the same order at every
sink.  Likewise, ETS policies may only change *timing* (latency, memory),
never the data a query delivers.  This module packages both claims as an
executable oracle:

* :class:`DifferentialOracle` replays one deterministic feed schedule
  through freshly built copies of the same query graph under different
  engine configurations (scalar vs run widths, NoEts vs OnDemandEts vs
  manual periodic punctuation) and compares the canonicalized sink
  sequences.
* The replay is *chunked*: several arrivals are ingested between engine
  wake-ups, so input buffers genuinely hold runs of tuples and the block
  drains are exercised for real (a pure event-per-tuple drive would only
  ever produce runs of length one).
* Every oracle here asserts ``stats.blocks > 0`` whenever it runs
  ``batch_size > 1`` (per shard where sharded), so the matrices provably
  exercise the transport ``Pipeline`` runs by default and cannot silently
  relapse onto another one.

All runs use a free CPU (``cost_model=None``) so virtual time is driven
exclusively by the feed schedule and outputs are bit-comparable across
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.core.ets import EtsPolicy, NoEts, OnDemandEts
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators.sink import SinkNode
from repro.core.operators.source import SourceNode
from repro.recovery import RecoveryManager
from repro.shard import ElasticShardedEngine, ShardedEngine
from repro.sim.clock import VirtualClock

__all__ = ["CrashRecoveryOracle", "Feed", "DifferentialOracle",
           "ShardedDifferentialOracle", "SinkRecord"]

#: Canonical record of one delivered tuple: (sink name, timestamp, payload).
SinkRecord = tuple[str, float, Any]


@dataclass(frozen=True, slots=True)
class Feed:
    """One scheduled arrival of the oracle's deterministic workload.

    Attributes:
        source: Name of the source node receiving the tuple.
        time: Virtual-clock instant of the arrival (non-decreasing across
            the schedule).
        payload: The record.
        external_ts: Application timestamp for externally timestamped
            sources; None otherwise.
    """

    source: str
    time: float
    payload: Any = None
    external_ts: float | None = None


def _chunks(seq: Sequence[Feed], size: int) -> Iterable[Sequence[Feed]]:
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def _assert_block_transport(stats: dict, batch_size: int, label: str) -> None:
    """A ``batch_size > 1`` run that did any work must have taken block
    steps.  ``stats`` is ``EngineStats.as_dict()`` (what a shard summary
    carries)."""
    if batch_size > 1 and stats["steps"]:
        assert stats["blocks"] > 0, (
            f"{label}: batch_size={batch_size} ran {stats['steps']} steps "
            f"and not one block step")


def _assert_shards_on_block_transport(engine, batch_size: int) -> None:
    """Per-shard form of :func:`_assert_block_transport`; call it before
    the sharded engine is closed."""
    for summary in engine.summaries():
        _assert_block_transport(summary.stats, batch_size,
                                f"shard {summary.shard}")


class DifferentialOracle:
    """Replay one workload through engine variants; assert identical output.

    Args:
        build: Zero-argument factory returning a *fresh* :class:`QueryGraph`
            per run (graphs hold operator state and cannot be reused).
        feeds: The deterministic, time-ordered arrival schedule.
        chunk: Arrivals ingested between engine wake-ups.  Held constant
            across compared variants — chunking decides what is buffered
            when, which legitimately affects tie-breaking among equal
            timestamps; the oracle isolates the engine variable instead.
        punctuate_every: When set, every punctuated source injects a
            punctuation stamped with the current clock after each
            ``punctuate_every`` chunks — a deterministic stand-in for
            scenario B's periodic heartbeats.
    """

    def __init__(self, build: Callable[[], QueryGraph], feeds: Sequence[Feed],
                 *, chunk: int = 32, punctuate_every: int | None = None) -> None:
        self.build = build
        self.feeds = list(feeds)
        self.chunk = chunk
        self.punctuate_every = punctuate_every

    # ------------------------------------------------------------------ #
    # Running one variant

    def run(self, *, batch_size: int = 1,
            ets_policy: EtsPolicy | None = None,
            punctuate: bool = False, eos: bool = True,
            observers=None) -> list[SinkRecord]:
        """Replay the schedule under one engine configuration.

        After the schedule, an end-of-stream punctuation is injected on
        every source (``eos=True``) so each variant drains completely —
        without it, NoEts legitimately strands enabled-but-ungated tuples
        at quiescence and delivery *sets* would differ across policies.

        ``observers`` attaches instrumentation (see :mod:`repro.obs`) —
        used to assert that observing a run never changes its output.

        Returns the canonical sink sequence: delivered data tuples as
        ``(sink_name, ts, payload)`` triples, in delivery order, sinks in
        name order.
        """
        graph = self.build()
        traces: dict[str, list[SinkRecord]] = {}
        for sink in sorted(graph.sinks(), key=lambda s: s.name):
            traces[sink.name] = self._capture(sink)
        clock = VirtualClock()
        engine = ExecutionEngine(
            graph, clock,
            cost_model=None,
            ets_policy=ets_policy if ets_policy is not None else NoEts(),
            batch_size=batch_size,
            observers=observers,
        )
        sources = {src.name: src for src in graph.sources()}
        for chunk_no, group in enumerate(_chunks(self.feeds, self.chunk), 1):
            entry: SourceNode | None = None
            for feed in group:
                clock.advance_to(feed.time)
                source = sources[feed.source]
                source.ingest(feed.payload, now=clock.now(),
                              ts=feed.external_ts, arrival=feed.time)
                entry = source
            if (punctuate and self.punctuate_every
                    and chunk_no % self.punctuate_every == 0):
                for source in sources.values():
                    source.inject_punctuation(
                        clock.now(), origin=f"oracle:{source.name}",
                        periodic=True)
            engine.wakeup(entry)
        if eos:
            final_ts = clock.now() + 1.0
            for name in sorted(sources):
                sources[name].inject_punctuation(
                    final_ts, origin=f"oracle-eos:{name}")
        engine.wakeup()
        _assert_block_transport(engine.stats.as_dict(), batch_size,
                                graph.name)
        out: list[SinkRecord] = []
        for name in sorted(traces):
            out.extend(traces[name])
        return out

    @staticmethod
    def _capture(sink: SinkNode) -> list[SinkRecord]:
        trace: list[SinkRecord] = []
        previous = sink.on_output

        def record(tup, latency) -> None:
            trace.append((sink.name, tup.ts, tup.payload))
            if previous is not None:
                previous(tup, latency)

        sink.on_output = record
        return trace

    # ------------------------------------------------------------------ #
    # Differential assertions

    def assert_run_equals_scalar(
            self, batch_sizes: Sequence[int] = (2, 3, 8, 64),
            ets_policy_factory: Callable[[], EtsPolicy] | None = None,
            *, canonical: bool = False) -> None:
        """The run path must reproduce the scalar sink sequence exactly, at
        every width: operators that support blocks take their columnar
        kernel, everything else exercises the lazy-explode scalar fallback.

        ``canonical=True`` compares up to permutation of equal-timestamp
        tuples instead.  Use it for workloads with cross-input timestamp
        ties: when two inputs hold equal timestamps, the scalar merge order
        depends on upstream one-tuple-at-a-time scheduling (a tuple not yet
        forwarded cannot be picked) while runs fill buffers wholesale —
        both interleavings are valid stream outputs.  Tie-free workloads
        should keep the default byte-exact comparison.
        """
        def policy() -> EtsPolicy:
            return ets_policy_factory() if ets_policy_factory else NoEts()

        norm = _canonical if canonical else (lambda records: records)
        reference = norm(self.run(batch_size=1, ets_policy=policy()))
        for size in batch_sizes:
            got = norm(self.run(batch_size=size, ets_policy=policy()))
            _assert_same(reference, got,
                         f"batch_size={size} diverged from scalar")

    def assert_ets_invariant(self, *, batch_size: int = 1,
                             external_delta: float = 0.0) -> None:
        """ETS must change timing only: NoEts, OnDemandEts, and periodic
        punctuation all deliver the same data, in timestamp order.

        Cross-policy comparison canonicalizes ties: two tuples sharing a
        timestamp may be enabled in either order depending on *when* a
        punctuation unblocked the merge — both interleavings are valid
        stream outputs, so equal-timestamp runs are sorted into a canonical
        order before comparing.  (Run-vs-scalar comparisons stay exact:
        same policy ⇒ same tie decisions.)
        """
        reference = _canonical(
            self.run(batch_size=batch_size, ets_policy=NoEts()))
        on_demand = _canonical(self.run(
            batch_size=batch_size,
            ets_policy=OnDemandEts(external_delta=external_delta)))
        _assert_same(reference, on_demand,
                     f"OnDemandEts changed sink data (batch_size={batch_size})")
        if self.punctuate_every:
            periodic = _canonical(
                self.run(batch_size=batch_size, ets_policy=NoEts(),
                         punctuate=True))
            _assert_same(reference, periodic,
                         f"periodic punctuation changed sink data "
                         f"(batch_size={batch_size})")

    def assert_all(self, batch_sizes: Sequence[int] = (2, 3, 8, 64),
                   *, external_delta: float = 0.0) -> None:
        """The full oracle: width invariance under NoEts and OnDemandEts,
        plus the ETS invariant at scalar and one run width."""
        self.assert_run_equals_scalar(batch_sizes)
        self.assert_run_equals_scalar(
            batch_sizes, ets_policy_factory=lambda: OnDemandEts(
                external_delta=external_delta))
        self.assert_ets_invariant(external_delta=external_delta)
        self.assert_ets_invariant(batch_size=max(batch_sizes),
                                  external_delta=external_delta)


class CrashRecoveryOracle:
    """Crash a run mid-feed, recover it, and assert exactly-once output.

    The durability claim of :mod:`repro.recovery` in executable form: for
    any crash point, the tuples delivered *before* the crash plus those
    delivered *after* recovery must be byte-identical to an uncrashed run —
    no loss, no duplicates, same order.  The oracle shares
    :class:`DifferentialOracle`'s drive (chunked feeds between wake-ups,
    free CPU, deterministic schedules) so the claim holds exactly.

    Args:
        build: Zero-argument factory returning a fresh graph per run.
        feeds: Deterministic, time-ordered arrival schedule.
        chunk: Arrivals ingested between engine wake-ups.
    """

    def __init__(self, build: Callable[[], QueryGraph], feeds: Sequence[Feed],
                 *, chunk: int = 32) -> None:
        self.build = build
        self.feeds = list(feeds)
        self.chunk = chunk

    def _engine(self, state_dir, *, batch_size: int,
                ets_policy: EtsPolicy | None, checkpoint_every: int | None):
        graph = self.build()
        traces: dict[str, list[SinkRecord]] = {}
        for sink in sorted(graph.sinks(), key=lambda s: s.name):
            traces[sink.name] = DifferentialOracle._capture(sink)
        clock = VirtualClock()
        engine = ExecutionEngine(
            graph, clock, cost_model=None,
            ets_policy=ets_policy if ets_policy is not None else NoEts(),
            batch_size=batch_size, checkpoint_every=checkpoint_every)
        manager = (RecoveryManager(state_dir).bind(graph, engine, clock)
                   if state_dir is not None else None)
        return graph, clock, engine, manager, traces

    def _drive(self, graph, clock, engine, *, start: int,
               stop: int | None = None, eos: bool = True) -> None:
        sources = {src.name: src for src in graph.sources()}
        entry: SourceNode | None = None
        for index, feed in enumerate(self.feeds):
            if index < start:
                continue
            if stop is not None and index >= stop:
                break
            clock.advance_to(feed.time)
            source = sources[feed.source]
            source.ingest(feed.payload, now=clock.now(),
                          ts=feed.external_ts, arrival=feed.time)
            entry = source
            if (index + 1) % self.chunk == 0:
                engine.wakeup(entry)
                entry = None
        if stop is None and eos:
            final_ts = clock.now() + 1.0
            for name in sorted(sources):
                sources[name].inject_punctuation(
                    final_ts, origin=f"oracle-eos:{name}")
            engine.wakeup()
        elif entry is not None and stop is None:
            engine.wakeup()

    @staticmethod
    def _flatten(traces: dict[str, list[SinkRecord]]) -> list[SinkRecord]:
        out: list[SinkRecord] = []
        for name in sorted(traces):
            out.extend(traces[name])
        return out

    def run_reference(self, *, batch_size: int = 1,
                      ets_policy: EtsPolicy | None = None) -> list[SinkRecord]:
        """The uncrashed run's canonical sink sequence."""
        graph, clock, engine, _, traces = self._engine(
            None, batch_size=batch_size, ets_policy=ets_policy,
            checkpoint_every=None)
        self._drive(graph, clock, engine, start=0)
        _assert_block_transport(engine.stats.as_dict(), batch_size,
                                "uncrashed run")
        return self._flatten(traces)

    def run_crashed(self, state_dir, *, crash_index: int,
                    batch_size: int = 1,
                    ets_policy: EtsPolicy | None = None,
                    checkpoint_every: int = 4,
                    corrupt_latest: bool = False,
                    hard: bool = False):
        """Crash at feed ``crash_index``, recover, resume; returns
        ``(combined_records, recovery_report)``.

        A soft crash closes the manager, which writes out the rows ingested
        since the last wake-up; a ``hard`` one drops the process image as
        it is, so those un-woken rows were never durable and are re-fed.
        """
        graph, clock, engine, manager, traces = self._engine(
            state_dir, batch_size=batch_size, ets_policy=ets_policy,
            checkpoint_every=checkpoint_every)
        self._drive(graph, clock, engine, start=0, stop=crash_index)
        _assert_block_transport(engine.stats.as_dict(), batch_size,
                                "pre-crash run")
        pre = self._flatten(traces)
        if hard:
            manager.wal.close()
            crash_index -= crash_index % self.chunk
        else:
            manager.close()

        if corrupt_latest:
            numbers = manager.store.numbers()
            assert numbers, "corrupt_latest needs at least one checkpoint"
            path = manager.store.path_for(numbers[-1])
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))

        graph, clock, engine, manager, traces = self._engine(
            state_dir, batch_size=batch_size, ets_policy=ets_policy,
            checkpoint_every=checkpoint_every)
        report = manager.recover()
        resumed = sum(report.ingests_by_source.values())
        assert resumed == crash_index, \
            f"WAL holds {resumed} ingests, crashed at {crash_index}"
        self._drive(graph, clock, engine, start=crash_index)
        _assert_block_transport(engine.stats.as_dict(), batch_size,
                                "recovered run")
        manager.close()
        return pre + self._flatten(traces), report

    def assert_exactly_once(self, state_dir, *, crash_index: int,
                            batch_size: int = 1,
                            ets_policy_factory: Callable[[], EtsPolicy]
                            | None = None,
                            checkpoint_every: int = 4,
                            corrupt_latest: bool = False,
                            hard: bool = False) -> None:
        """Recovered output must equal the uncrashed run's, byte for byte."""
        def policy() -> EtsPolicy:
            return ets_policy_factory() if ets_policy_factory else NoEts()

        reference = self.run_reference(batch_size=batch_size,
                                       ets_policy=policy())
        combined, report = self.run_crashed(
            state_dir, crash_index=crash_index, batch_size=batch_size,
            ets_policy=policy(), checkpoint_every=checkpoint_every,
            corrupt_latest=corrupt_latest, hard=hard)
        if corrupt_latest:
            assert report.fallback and report.skipped, \
                "corrupted latest checkpoint was not fallen past"
        _assert_same(reference, combined,
                     f"recovery at feed {crash_index} "
                     f"(batch_size={batch_size}, "
                     f"checkpoint_every={checkpoint_every}) is not "
                     f"exactly-once")


class ShardedDifferentialOracle:
    """Replay one workload sharded and unsharded; assert identical output.

    The sharding contract (:mod:`repro.shard`): for a key-partitionable
    query, routing data tuples to P shards by a stable key hash,
    broadcasting punctuation, and gating the merged output on the min
    advertised frontier must deliver exactly the tuples a single engine
    delivers.  Comparison is canonicalized — the merge releases records in
    global timestamp order, but ties at one timestamp may interleave
    differently across P values, and both orders are valid stream outputs
    (the same allowance :meth:`DifferentialOracle.assert_ets_invariant`
    makes across ETS policies).

    Args:
        build: Zero-argument factory returning a fresh graph; the sharded
            run calls it once per shard.
        feeds: Deterministic, time-ordered arrival schedule.
        key: Partition key (payload field name or callable) — must match
            the query's join key for the run to be key-partitionable.
        chunk: Arrivals ingested between wake-ups, sharded and not.
        punctuate_every: Periodic-punctuation cadence in chunks (see
            :class:`DifferentialOracle`).
    """

    def __init__(self, build: Callable[[], QueryGraph], feeds: Sequence[Feed],
                 *, key, chunk: int = 32,
                 punctuate_every: int | None = None) -> None:
        self.build = build
        self.feeds = list(feeds)
        self.key = key
        self.chunk = chunk
        self.punctuate_every = punctuate_every
        self.source_names = sorted(s.name for s in build().sources())

    # ------------------------------------------------------------------ #
    # Running

    def run_single(self, *, batch_size: int = 1,
                   ets_policy: EtsPolicy | None = None,
                   punctuate: bool = False) -> list[SinkRecord]:
        """The single-engine reference trace (delegates to
        :class:`DifferentialOracle` so both drives share one idiom)."""
        oracle = DifferentialOracle(self.build, self.feeds, chunk=self.chunk,
                                    punctuate_every=self.punctuate_every)
        return oracle.run(batch_size=batch_size, ets_policy=ets_policy,
                          punctuate=punctuate)

    def run_sharded(self, *, shards: int, backend: str = "serial",
                    batch_size: int = 1,
                    ets_policy_factory: Callable[[], EtsPolicy] | None = None,
                    punctuate: bool = False,
                    observers=None) -> list[SinkRecord]:
        """Replay the schedule through a P-shard engine; returns the merged
        trace as canonical ``(sink, ts, payload)`` records."""
        engine = ShardedEngine(self.build, shards=shards, key=self.key,
                               backend=backend,
                               ets_policy=ets_policy_factory,
                               batch_size=batch_size, observers=observers)
        released = []
        try:
            now = 0.0
            for chunk_no, group in enumerate(_chunks(self.feeds, self.chunk),
                                             1):
                for feed in group:
                    engine.ingest(feed.source, feed.payload, time=feed.time,
                                  ts=feed.external_ts)
                    now = feed.time
                if (punctuate and self.punctuate_every
                        and chunk_no % self.punctuate_every == 0):
                    for name in self.source_names:
                        engine.inject_punctuation(
                            name, now, origin=f"oracle:{name}", periodic=True)
                released.extend(engine.wakeup())
            final_ts = now + 1.0
            for name in self.source_names:
                engine.inject_punctuation(name, final_ts,
                                          origin=f"oracle-eos:{name}")
            released.extend(engine.wakeup())
            _assert_shards_on_block_transport(engine, batch_size)
        finally:
            released.extend(engine.close(flush=True))
        # MergedRecord is (ts, shard, seq, sink, payload).
        return [(sink, ts, payload) for ts, _, _, sink, payload in released]

    def run_elastic(self, *, shards: int,
                    reshard_at: dict[int, int] | None = None,
                    backend: str = "serial", batch_size: int = 1,
                    ets_policy_factory: Callable[[], EtsPolicy] | None = None,
                    punctuate: bool = False, state_dir=None,
                    checkpoint_every: int | None = None,
                    observers=None,
                    disorder_bound: float = 0.0) -> list[SinkRecord]:
        """Like :meth:`run_sharded`, but through the elastic engine with
        live reshards at the given ``{chunk_number: target_shards}``
        schedule (applied right after that chunk's wake-up)."""
        reshard_at = dict(reshard_at or {})
        engine = ElasticShardedEngine(
            self.build, shards=shards, key=self.key, backend=backend,
            ets_policy=ets_policy_factory, batch_size=batch_size,
            state_dir=state_dir, checkpoint_every=checkpoint_every,
            observers=observers, disorder_bound=disorder_bound)
        released = []
        try:
            now = 0.0
            for chunk_no, group in enumerate(_chunks(self.feeds, self.chunk),
                                             1):
                for feed in group:
                    engine.ingest(feed.source, feed.payload, time=feed.time,
                                  ts=feed.external_ts)
                    now = feed.time
                if (punctuate and self.punctuate_every
                        and chunk_no % self.punctuate_every == 0):
                    for name in self.source_names:
                        engine.inject_punctuation(
                            name, now, origin=f"oracle:{name}", periodic=True)
                released.extend(engine.wakeup())
                if chunk_no in reshard_at:
                    report = engine.reshard(reshard_at.pop(chunk_no))
                    released.extend(report.released)
            final_ts = now + 1.0
            for name in self.source_names:
                engine.inject_punctuation(name, final_ts,
                                          origin=f"oracle-eos:{name}")
            released.extend(engine.wakeup())
            _assert_shards_on_block_transport(engine, batch_size)
        finally:
            released.extend(engine.close(flush=True))
        return [(sink, ts, payload) for ts, _, _, sink, payload in released]

    def assert_elastic_equals_single(
            self, *, shards: int, reshard_at: dict[int, int],
            backend: str = "serial", batch_size: int = 1,
            ets_policy_factory: Callable[[], EtsPolicy] | None = None,
            punctuate: bool = False, state_dir=None,
            checkpoint_every: int | None = None,
            disorder_bound: float = 0.0) -> None:
        """Output across live reshards must equal the single engine's."""
        def policy() -> EtsPolicy | None:
            return ets_policy_factory() if ets_policy_factory else None

        reference = _canonical(self.run_single(
            batch_size=batch_size, ets_policy=policy(), punctuate=punctuate))
        assert reference, "empty single-engine trace proves nothing"
        got = _canonical(self.run_elastic(
            shards=shards, reshard_at=reshard_at, backend=backend,
            batch_size=batch_size, ets_policy_factory=ets_policy_factory,
            punctuate=punctuate, state_dir=state_dir,
            checkpoint_every=checkpoint_every,
            disorder_bound=disorder_bound))
        _assert_same(reference, got,
                     f"elastic (P={shards}, reshard_at={reshard_at}, "
                     f"backend={backend}) diverged from the single engine")

    # ------------------------------------------------------------------ #
    # Differential assertion

    def assert_sharded_equals_single(
            self, shard_counts: Sequence[int] = (1, 2, 4),
            *, backend: str = "serial", batch_size: int = 1,
            ets_policy_factory: Callable[[], EtsPolicy] | None = None,
            punctuate: bool = False) -> None:
        """Sharded output must equal the single engine's for every P,
        after canonicalizing equal-timestamp ties."""
        def policy() -> EtsPolicy | None:
            return ets_policy_factory() if ets_policy_factory else None

        reference = _canonical(self.run_single(
            batch_size=batch_size, ets_policy=policy(), punctuate=punctuate))
        assert reference, "empty single-engine trace proves nothing"
        for shards in shard_counts:
            got = _canonical(self.run_sharded(
                shards=shards, backend=backend, batch_size=batch_size,
                ets_policy_factory=ets_policy_factory, punctuate=punctuate))
            _assert_same(reference, got,
                         f"sharded (P={shards}, backend={backend}, "
                         f"batch_size={batch_size}) diverged from the "
                         f"single engine")


def _canonical(records: list[SinkRecord]) -> list[SinkRecord]:
    """Sort into (sink, ts, payload-repr) order — a total order that leaves
    already-timestamp-ordered traces intact except for tie permutations."""
    return sorted(records, key=lambda r: (r[0], r[1], repr(r[2])))


def _assert_same(reference: list[SinkRecord], got: list[SinkRecord],
                 label: str) -> None:
    if reference == got:
        return
    detail = [f"{label}: {len(reference)} reference vs {len(got)} actual tuples"]
    for i, (ref, act) in enumerate(zip(reference, got)):
        if ref != act:
            detail.append(f"first divergence at index {i}: {ref!r} != {act!r}")
            break
    else:
        longer = reference if len(reference) > len(got) else got
        idx = min(len(reference), len(got))
        detail.append(f"extra tuple at index {idx}: {longer[idx]!r}")
    raise AssertionError("\n".join(detail))
