"""Backend failure containment: deadlocks and crashes must fail fast.

A multiprocessing test suite that can hang is worse than one that fails:
CI kills it at the job timeout with no diagnostics.  Every cross-shard
receive in :mod:`repro.shard.backends` therefore carries ``op_timeout``;
these tests pin that a deadlocked (sleeping) or crashing shard surfaces as
:class:`ShardTimeoutError` / :class:`ShardError` within the timeout
instead of blocking the caller.
"""

from __future__ import annotations

import pickle
import random
import sys
import time
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.api import Pipeline
from repro.core.columnar import ColumnarBlock
from repro.core.config import EngineConfig
from repro.core.errors import ExecutionError, ReproError
from repro.core.ets import OnDemandEts
from repro.core.graph import QueryGraph
from repro.core.operators import Map, SinkNode, WindowJoin
from repro.core.tuples import DataTuple
from repro.core.windows import WindowSpec
from repro.feedback import FeedbackController
from repro.obs import Observer
from repro.shard import (
    ElasticShardedEngine,
    EngineShard,
    ProcessBackend,
    ShardError,
    ShardSummary,
    ShardTimeoutError,
    ShardedEngine,
)

from test_sharded_oracle import keyed_feeds


def build_sleepy(sleep_s: float):
    """A graph whose map stalls on payloads carrying ``"sleep"``."""
    def build() -> QueryGraph:
        graph = QueryGraph("sleepy")
        src = graph.add_source("src")

        def maybe_sleep(payload):
            if payload.get("sleep"):
                time.sleep(sleep_s)
            return payload

        op = graph.add(Map("nap", maybe_sleep))
        sink = graph.add_sink("sink")
        graph.connect(src, op)
        graph.connect(op, sink)
        return graph
    return build


def build_angry() -> QueryGraph:
    graph = QueryGraph("angry")
    src = graph.add_source("src")

    def explode(payload):
        raise ValueError("shard-side boom")

    op = graph.add(Map("boom", explode))
    sink = graph.add_sink("sink")
    graph.connect(src, op)
    graph.connect(op, sink)
    return graph


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_deadlocked_shard_times_out_fast(backend):
    engine = ShardedEngine(build_sleepy(8.0), shards=1, key="k",
                           backend=backend, op_timeout=0.4)
    try:
        engine.ingest("src", {"k": 1, "sleep": True}, time=0.1)
        start = time.monotonic()
        with pytest.raises(ShardTimeoutError, match="shard 0"):
            engine.wakeup()
        # Failed within ~the timeout, not the shard's 8 s stall.
        assert time.monotonic() - start < 4.0
    finally:
        engine.close(flush=False)


def test_process_shard_exception_propagates_as_shard_error():
    engine = ShardedEngine(build_angry, shards=1, key="k",
                           backend="process", op_timeout=30.0)
    try:
        engine.ingest("src", {"k": 1}, time=0.1)
        with pytest.raises(ShardError, match="boom"):
            engine.wakeup()
    finally:
        engine.close(flush=False)


def test_a_failed_call_leaves_no_reply_behind():
    """One shard failing used to raise before the others' replies were
    read; the next call then read those stale answers (and ``summaries()``
    a ``ShardResult``) — a desync that never healed."""
    backend = ProcessBackend(2, lambda index: (build_sleepy(0.0), {}),
                             op_timeout=30.0)
    try:
        with pytest.raises(ShardError, match="shard 0 failed 'apply'"):
            backend.apply_all([([("nowhere", {"k": 0}, 0.1, None)], [], 0.1),
                               ([("src", {"k": 1}, 0.1, None)], [], 0.1)])
        results = backend.apply_all([([("src", {"k": 2}, 0.2, None)], [], 0.2),
                                     ([], [], 0.2)])
        assert [(r.shard, r.ingested) for r in results] == [(0, 1), (1, 0)]
        summaries = backend.summaries()
        assert [type(s) for s in summaries] == [ShardSummary, ShardSummary]
        assert [s.ingested for s in summaries] == [1, 1]
    finally:
        backend.close()


def test_unknown_backend_rejected():
    with pytest.raises(ReproError, match="unknown shard backend"):
        ShardedEngine(build_angry, shards=2, key="k", backend="fiber")


def test_process_backend_survives_orderly_close():
    engine = ShardedEngine(build_sleepy(0.0), shards=2, key="k",
                           backend="process", op_timeout=30.0)
    for i in range(6):
        engine.ingest("src", {"k": i}, time=0.1 * (i + 1))
    released = engine.wakeup()
    engine.inject_punctuation("src", 2.0, origin="eos")
    released += engine.wakeup()
    released += engine.close(flush=True)
    assert len(released) == 6
    engine.close()  # idempotent


# --------------------------------------------------------------------- #
# The config travels: every field reaches every shard engine


class _Listener(Observer):
    pass


def test_config_reaches_every_shard_engine():
    """``max_steps_per_round`` used to stop at the facade, so the livelock
    valve did not exist on the sharded path."""
    listener = _Listener()
    engine = ShardedEngine(
        build_sleepy(0.0), shards=2, key="k",
        config=EngineConfig(max_steps_per_round=7, batch_size=8),
        observers=[listener])
    try:
        assert engine.backend_kind == "serial"  # the default backend
        assert [(shard.engine.max_steps_per_round, shard.engine.batch_size)
                for shard in engine.backend.shards] == [(7, 8), (7, 8)]
        # Observers hear on_shard events at the facade; per-shard engine
        # events stay inside their shard.
        assert engine.bus.observers == [listener]
        assert all(shard.engine.bus is None
                   for shard in engine.backend.shards)
    finally:
        engine.close(flush=False)


def test_process_backend_constructs_from_a_picklable_factory_config():
    config = EngineConfig(ets_policy=OnDemandEts, batch_size=8,
                          max_steps_per_round=10_000)
    assert pickle.loads(pickle.dumps(config)) == config
    engine = ShardedEngine(build_sleepy(0.0), shards=2, key="k",
                           backend="process", op_timeout=30.0, config=config)
    try:
        engine.ingest("src", {"k": 1}, time=0.1)
        assert len(engine.wakeup() + engine.close(flush=True)) == 1
    finally:
        engine.close(flush=False)


@pytest.mark.parametrize("knob", ["ets_policy", "feedback"])
def test_shards_reject_a_shared_instance(knob):
    instance = OnDemandEts() if knob == "ets_policy" else FeedbackController()
    with pytest.raises(ExecutionError, match=f"zero-argument {knob} factory"):
        ShardedEngine(build_sleepy(0.0), shards=2, key="k",
                      **{knob: instance})


# --------------------------------------------------------------------- #
# Shard sinks hand over columns, not tuples


def join_graph_with(on_output=None):
    """The keyed window join of the sharded oracle, ``on_output`` at its
    sink."""
    def build() -> QueryGraph:
        graph = QueryGraph("sharded-join")
        fast = graph.add_source("fast")
        slow = graph.add_source("slow")
        join = graph.add(WindowJoin("join", WindowSpec.time(4.0), key="k"))
        sink = graph.add_sink("sink", on_output)
        graph.connect(fast, join)
        graph.connect(slow, join)
        graph.connect(join, sink)
        return graph
    return build


def _drive_join(engine, feeds) -> list:
    released = []
    for index, feed in enumerate(feeds, 1):
        engine.ingest(feed.source, feed.payload, time=feed.time,
                      ts=feed.external_ts)
        if index % 16 == 0:
            released += engine.wakeup()
    for name in ("fast", "slow"):
        engine.inject_punctuation(name, feeds[-1].time + 1.0, origin="eos")
    return released + engine.wakeup() + engine.close(flush=True)


def test_shard_sinks_build_no_tuples_without_a_user_callback(monkeypatch):
    """The shard captures ``(sink, ts, payload)`` off the block its sink
    drains: with no ``on_output`` the sink materialises nothing.  The
    positive control shows the probe does see sink-side ``to_tuples``."""
    sink_calls = []
    inner = ColumnarBlock.to_tuples

    def to_tuples(block):
        if sys._getframe(1).f_code is SinkNode.execute_block.__code__:
            sink_calls.append(block.count)
        return inner(block)

    monkeypatch.setattr(ColumnarBlock, "to_tuples", to_tuples)
    engine = ShardedEngine(join_graph_with(), shards=2, key="k",
                           batch_size=8)
    released = _drive_join(engine, keyed_feeds())
    assert released and sink_calls == []

    seen = []
    engine = ShardedEngine(
        join_graph_with(lambda tup, latency: seen.append(tup)), shards=2,
        key="k", batch_size=8)
    assert len(_drive_join(engine, keyed_feeds())) == len(released)
    assert sum(sink_calls) == len(seen) == len(released)


def test_a_user_on_output_keeps_its_per_row_contract(monkeypatch):
    """Per shard, the user callback sees every delivered tuple, one call
    per row, in exactly the order the shard reports its output — which it
    reports as ``(sink, ts, payloads)`` runs of parallel lists."""
    traces: list[list] = []

    def build():
        trace: list = []
        traces.append(trace)
        return join_graph_with(
            lambda tup, latency: trace.append((tup, latency)))()

    engine = ShardedEngine(build, shards=2, key="k", batch_size=8)
    reported: dict[int, list] = {0: [], 1: []}
    apply = EngineShard.apply

    def spy(shard, *args):
        result = apply(shard, *args)
        for sink, ts, payloads in result.outputs:
            assert type(ts) is list and type(payloads) is list
            assert len(ts) == len(payloads) > 0
            reported[shard.index] += [(sink, t, p)
                                      for t, p in zip(ts, payloads)]
        return result

    monkeypatch.setattr(EngineShard, "apply", spy)
    _drive_join(engine, keyed_feeds())
    for index, trace in enumerate(traces):
        assert trace and all(isinstance(tup, DataTuple) and latency == latency
                             for tup, latency in trace)
        assert [("sink", tup.ts, tup.payload) for tup, _ in trace] == \
            reported[index]


class _WakeupCounts(Observer):
    def __init__(self) -> None:
        self.counts: list[int] = []

    def on_shard(self, *, kind, shard, time, frontier=None, count=0,
                 value=0.0, detail="") -> None:
        if kind == "wakeup":
            self.counts.append(count)


def _count_runs(monkeypatch, when=lambda: True) -> list[int]:
    """Spy on every shard result: the number of runs it carried."""
    runs: list[int] = []
    apply = EngineShard.apply

    def spy(shard, *args):
        result = apply(shard, *args)
        if when():
            runs.append(len(result.outputs))
        return result

    monkeypatch.setattr(EngineShard, "apply", spy)
    return runs


def test_the_wakeup_event_counts_rows_not_runs(monkeypatch):
    runs = _count_runs(monkeypatch)
    listener = _WakeupCounts()
    engine = ShardedEngine(join_graph_with(), shards=2, key="k",
                           batch_size=8, observers=[listener])
    released = _drive_join(engine, keyed_feeds())
    # Every row offered to the merge was released by the closing flush.
    assert sum(listener.counts) == engine.merge.released_count \
        == len(released)
    assert 0 < sum(runs) < len(released)  # so a count of runs would differ


def test_a_reshard_counts_the_rows_it_discards(monkeypatch):
    phases: list[str] = []
    runs = _count_runs(monkeypatch, lambda: phases[-1:] == ["restore"])
    engine = ElasticShardedEngine(join_graph_with(), shards=2, key="k",
                                  backend="serial", batch_size=8)
    engine.reshard_hooks.append(phases.append)
    try:
        for index, feed in enumerate(keyed_feeds()[:96], 1):
            engine.ingest(feed.source, feed.payload, time=feed.time,
                          ts=feed.external_ts)
            if index % 16 == 0:
                engine.wakeup()
        report = engine.reshard(3)
        # The new shards have run nothing but the replay: what their sinks
        # delivered is exactly what the reshard discarded.
        replayed_rows = sum(shard.graph["sink"].delivered
                            for shard in engine.backend.shards)
        assert report.discarded_outputs == replayed_rows
        assert 0 < sum(runs) < replayed_rows
    finally:
        engine.close(flush=False)


# --------------------------------------------------------------------- #
# The exchange guard: what one shard result costs on the pipe


def _exchange_join_graph() -> QueryGraph:
    p = Pipeline("keyed-join")
    fast = p.source("fast")
    slow = p.source("slow")
    fast.join(slow, WindowSpec.time(8.0), key="k", indexed=True,
              name="join").sink("sink")
    return p.compile()


def test_a_join_result_pickles_each_prefixed_name_once():
    """400 alternating ingests over 4 keys, all inside one 8 s window:
    9,924 joined rows in one result.  Each prefixed name (``l_value``, …)
    travels once, pickle's memo standing in for every later row, and the
    rows travel as a few runs of parallel lists."""
    rng = random.Random(166)
    ingests = [(name, {"seq": i, "k": rng.randrange(4),
                       "value": rng.random()}, when, None)
               for i in range(200)
               for name, when in (("fast", i * 0.01),
                                  ("slow", i * 0.01 + 0.005))]
    shard = EngineShard(0, _exchange_join_graph, config=Pipeline().config)
    result = shard.apply(ingests, [("fast", 3.0, "eos", False),
                                   ("slow", 3.0, "eos", False)], 3.0)
    rows = shard.delivered
    assert rows == sum(len(ts) for _, ts, _ in result.outputs) == 9_924
    assert len(result.outputs) < rows // 8
    wire = ForkingPickler.dumps(("ok", result))  # what Connection.send sends
    assert [bytes(wire).count(name) for name in
            (b"l_value", b"r_value", b"l_seq", b"r_seq")] == [1, 1, 1, 1]
    assert len(wire) / rows <= 60.0


def test_a_run_is_a_copy_of_the_block_columns():
    """The sink may hand the hook its block's own arrays; the run the
    shard keeps must not change when those arrays do.  A second delivery
    by the same sink extends the run."""
    shard = EngineShard(0, join_graph_with())
    capture = shard.graph["sink"]._capture
    ts, payloads = [1.0, 2.0], [{"k": 1}, {"k": 2}]
    capture(ts, payloads)
    ts.append(3.0)
    payloads.clear()
    capture((4.0,), ({"k": 4},))
    result = shard.apply([], [], 5.0)
    assert result.outputs == [("sink", [1.0, 2.0, 4.0],
                               [{"k": 1}, {"k": 2}, {"k": 4}])]
    assert shard.delivered == 3
