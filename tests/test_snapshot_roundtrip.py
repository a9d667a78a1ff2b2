"""Hypothesis round-trip properties for the checkpoint snapshot contract.

The recovery subsystem (DESIGN.md §4f) rests on one invariant per stateful
component: ``restore_state(snapshot_state())`` into a *fresh* instance
yields a component whose own snapshot is indistinguishable from the
original's — for any reachable state.  These properties drive each
component into a random state (random timestamps with ties, NaN and
duplicate join keys, punctuation interleavings, partial windows), round-trip
it, and compare snapshots byte-for-byte (pickled, so NaN payloads compare
structurally rather than by IEEE equality).
"""

from __future__ import annotations

import ast
import heapq
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ManualClock, OpHarness, columns, data, insert, probed,
                      punct)
from reference_ops import ReferenceBuffer

from repro.core.buffers import BufferRegistry, StreamBuffer, TSMRegister
from repro.core.columnar import ColumnarBlock
from repro.core.errors import ReproError
from repro.core.ets import (
    EtsPolicy,
    NoEts,
    OnDemandEts,
    PeriodicEtsSchedule,
)
from repro.core.execution import EngineStats, ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import (
    AggSpec,
    Count,
    Reorder,
    Shed,
    SinkNode,
    SourceNode,
    Sum,
    TumblingAggregate,
    Union,
    WindowJoin,
)
from repro.core.tuples import LATENT_TS, DataTuple, Punctuation
from repro.core.windows import CountWindow, TimeWindow, WindowSpec
from repro.experiments.baselines import AdaptiveHeartbeatSchedule
from repro.feedback.controller import FeedbackController
from repro.feedback.throttle import TokenBucketThrottle


def same(a: dict, b: dict) -> bool:
    """Structural snapshot equality that treats NaN == NaN."""
    return pickle.dumps(a) == pickle.dumps(b)


def roundtrip(original, fresh) -> None:
    snap = original.snapshot_state()
    fresh.restore_state(snap)
    assert same(fresh.snapshot_state(), snap)
    # The snapshot itself must be stable under re-snapshotting.
    assert same(original.snapshot_state(), snap)


# --------------------------------------------------------------------- #
# Strategies

#: Finite, non-negative, tie-prone timestamps (quantized to quarters).
timestamps = st.integers(min_value=0, max_value=400).map(lambda n: n / 4.0)

#: Join/bucket keys: small ints (forcing duplicates), NaN, and strings.
keys = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.just(float("nan")),
    st.sampled_from(["a", "b"]),
)


@st.composite
def tuple_batches(draw, max_size=30):
    """A time-ordered batch of DataTuples with keyed payloads."""
    times = sorted(draw(st.lists(timestamps, max_size=max_size)))
    return [
        DataTuple(ts=t, payload={"k": draw(keys), "value": draw(timestamps),
                                 "seq": i},
                  arrival_ts=t)
        for i, t in enumerate(times)
    ]


# --------------------------------------------------------------------- #
# Core state holders


@settings(max_examples=40)
@given(updates=st.lists(timestamps, max_size=20))
def test_tsm_register_roundtrip(updates):
    reg = TSMRegister()
    for ts in updates:
        reg.update(ts)
    roundtrip(reg, TSMRegister())


@settings(max_examples=40)
@given(batch=tuple_batches(), pops=st.integers(min_value=0, max_value=10),
       punct_offsets=st.lists(timestamps, max_size=3).map(sorted))
def test_stream_buffer_roundtrip(batch, pops, punct_offsets):
    buf = StreamBuffer("a", BufferRegistry())
    frontier = 0.0
    for tup in batch:
        buf.push(tup)
        frontier = tup.ts
    for offset in punct_offsets:
        buf.push(punct(frontier + offset))
    for _ in range(min(pops, len(buf))):
        buf.pop()
    roundtrip(buf, StreamBuffer("a", BufferRegistry()))


# --------------------------------------------------------------------- #
# Window layouts (key-less and hash-indexed, NaN and duplicate keys)


def by_k(payload):
    return payload["k"]


def probes(window, batch) -> dict:
    """What ``window`` answers for every key of ``batch`` (NaN included)."""
    return {"p": [[t.payload for t in probed(window, by_k(tup.payload))]
                  for tup in batch]}


def assert_layouts_interchange(keyed, keyless, fresh) -> None:
    """One snapshot shape per retention policy: a checkpoint written by
    either layout restores into the other (``fresh(key_fn)`` builds the
    target) with the same contents and, where keyed, the same buckets."""
    into_keyed, into_keyless = fresh(by_k), fresh(None)
    into_keyed.restore_state(keyless.snapshot_state())
    into_keyless.restore_state(keyed.snapshot_state())
    assert list(into_keyed) == list(into_keyless) == list(keyed)
    assert same(probes(into_keyed, keyed), probes(keyed, keyed))
    assert into_keyless.bucket_count == 0


@settings(max_examples=40)
@given(batch=tuple_batches(), expire_to=timestamps)
def test_time_window_roundtrip(batch, expire_to):
    win = TimeWindow(5.0)
    win.file(columns(batch))
    win.expire(expire_to)
    roundtrip(win, TimeWindow(5.0))


@settings(max_examples=40)
@given(batch=tuple_batches())
def test_count_window_roundtrip(batch):
    win = CountWindow(7)
    for tup in batch:
        insert(win, tup)
    roundtrip(win, CountWindow(7))


@settings(max_examples=40)
@given(batch=tuple_batches(), expire_to=timestamps)
def test_indexed_time_window_roundtrip(batch, expire_to):
    win, keyless = TimeWindow(5.0, by_k), TimeWindow(5.0)
    win.file(columns(batch))
    keyless.file(columns(batch))
    win.expire(expire_to)
    keyless.expire(expire_to)
    restored = TimeWindow(5.0, by_k)
    roundtrip(win, restored)
    # The rebuilt buckets must probe identically for every live key —
    # including NaN keys, which can never match and probe empty.
    assert same(probes(restored, batch), probes(win, batch))
    for tup in batch:
        key = by_k(tup.payload)
        if isinstance(key, float) and math.isnan(key):
            assert probed(restored, key) == []
    assert_layouts_interchange(win, keyless, lambda k: TimeWindow(5.0, k))


@settings(max_examples=40)
@given(batch=tuple_batches())
def test_indexed_count_window_roundtrip(batch):
    win, keyless = CountWindow(6, by_k), CountWindow(6)
    for tup in batch:
        insert(win, tup)
        insert(keyless, tup)
    restored = CountWindow(6, by_k)
    roundtrip(win, restored)
    assert same(probes(restored, batch), probes(win, batch))
    assert_layouts_interchange(win, keyless, lambda k: CountWindow(6, k))


# --------------------------------------------------------------------- #
# Operators (driven through the harness into a random mid-stream state)


def _drive(op, n_inputs, batch, punct_offsets):
    """Feed a random interleaving of data and punctuation, then step."""
    h = OpHarness(op, n_inputs=n_inputs)
    frontier = 0.0
    for i, tup in enumerate(batch):
        h.feed(i % n_inputs, tup.ts, tup.payload)
        frontier = tup.ts
        if i % 3 == 0:
            h.run()
    for i, offset in enumerate(punct_offsets):
        h.feed_punctuation(i % n_inputs, frontier + offset)
    h.run()
    return h


operator_feeds = st.tuples(tuple_batches(),
                           st.lists(timestamps, max_size=4).map(sorted))


@settings(max_examples=25, deadline=None)
@given(feed=operator_feeds)
def test_union_roundtrip(feed):
    batch, puncts = feed
    op = Union("u")
    _drive(op, 2, batch, puncts)
    roundtrip(op, Union("u"))


@settings(max_examples=25, deadline=None)
@given(feed=operator_feeds)
def test_scan_join_roundtrip(feed):
    batch, puncts = feed

    def build():
        return WindowJoin("j", WindowSpec.time(4.0),
                          predicate=lambda a, b: a["seq"] % 2 == b["seq"] % 2)

    op = build()
    _drive(op, 2, batch, puncts)
    roundtrip(op, build())


@settings(max_examples=25, deadline=None)
@given(feed=operator_feeds)
def test_indexed_join_roundtrip(feed):
    batch, puncts = feed

    def build():
        return WindowJoin("j", WindowSpec.time(4.0), key="k")

    op = build()
    assert op.indexed
    _drive(op, 2, batch, puncts)
    roundtrip(op, build())


def _emitted(h) -> dict:
    return {"out": [(e.is_punctuation, e.ts,
                     None if e.is_punctuation else (e.payload, e.kind))
                    for e in h.drain_output()],
            "windows": [[(t.ts, t.payload) for t in w] for w in h.op.windows]}


@settings(max_examples=25, deadline=None)
@given(feed=operator_feeds, tail=tuple_batches(max_size=12),
       written=st.sampled_from([False, None]))
def test_join_restores_across_probe_layouts(feed, tail, written):
    """A join checkpointed under one probe layout recovers under the other
    and, driven on, emits byte-for-byte what an uninterrupted join does."""
    batch, puncts = feed
    recovered_as = None if written is False else False

    def build(indexed):
        return WindowJoin("j", WindowSpec.time(4.0), key="k", indexed=indexed)

    reference = _drive(build(recovered_as), 2, batch, puncts)
    crashed = _drive(build(written), 2, batch, puncts)
    assert same(_emitted(crashed), _emitted(reference))
    recovered = OpHarness(build(recovered_as), n_inputs=2)
    assert recovered.op.indexed is not crashed.op.indexed
    recovered.op.restore_state(crashed.op.snapshot_state())
    for buf, old in zip(recovered.inputs, crashed.inputs):
        buf.restore_state(old.snapshot_state())
    base = max(buf.snapshot_state()["last_pushed_ts"]
               for buf in reference.inputs)
    base = max(base, 0.0)  # LATENT_TS when nothing was ever pushed
    for h in (reference, recovered):
        for i, tup in enumerate(tail):
            h.feed(i % 2, base + tup.ts, tup.payload)
            h.run()
        for i in (0, 1):
            h.feed_punctuation(i, base + 101.0)
        h.run()
    assert same(_emitted(recovered), _emitted(reference))
    assert (recovered.op.snapshot_state().keys()
            == reference.op.snapshot_state().keys())
    assert recovered.op.tuples_processed == reference.op.tuples_processed
    assert recovered.op.matches_emitted == reference.op.matches_emitted


def test_parent_format_snapshots_restore():
    """Literal state dicts in the shapes the four pre-merge window classes
    and their join wrote: key-less windows carried only ``items``, the
    indexed ones added ``horizon`` / ``inserted``, the join two probe
    counters.  Every shape restores into either layout of the merged
    classes."""
    items = [data(ts, {"k": k, "seq": i}) for i, (ts, k) in
             enumerate([(1.0, "a"), (2.0, "b"), (2.0, "a"), (3.5, "a")])]
    time_states = ({"version": 1, "items": items},
                   {"version": 1, "items": items, "horizon": 0.5})
    count_states = ({"version": 1, "items": items},
                    {"version": 1, "items": items, "inserted": 41})
    for states, make in ((time_states, lambda k: TimeWindow(5.0, k)),
                         (count_states, lambda k: CountWindow(6, k))):
        for state in states:
            keyless, keyed = make(None), make(by_k)
            keyless.restore_state(state)
            keyed.restore_state(state)
            assert list(keyless) == list(keyed) == items
            assert [t.ts for t in probed(keyed, "a")] == [1.0, 2.0, 3.5]
            # Restored buckets keep expiring with the log (time: against
            # the horizon; count: by relative insertion number).
            for i in range(4):
                keyed.expire(6.5 + i)
                insert(keyed, data(6.5 + i, {"k": "b", "seq": 4 + i}))
            assert [t.ts for t in probed(keyed, "a")] == [
                t.ts for t in keyed if t.payload["k"] == "a"]
            assert len(probed(keyed, "a")) < 3
    join_state = {
        "version": 1, "windows": [time_states[0], time_states[1]],
        "last_emitted_ts": 3.5, "matches_emitted": 3,
        "indexed_probes": 5, "scan_probes": 7,
        "punctuation_consumed": 1, "punctuation_forwarded": 1,
        "punctuation_suppressed": 0, "tuples_processed": 8,
    }
    for indexed in (False, None):
        op = WindowJoin("j", WindowSpec.time(5.0), key="k", indexed=indexed)
        op.restore_state(join_state)
        assert [list(w) for w in op.windows] == [items, items]
        assert (op.matches_emitted, op.tuples_processed) == (3, 8)
        assert "indexed_probes" not in op.snapshot_state()


@settings(max_examples=25, deadline=None)
@given(feed=operator_feeds)
def test_tumbling_aggregate_roundtrip(feed):
    batch, puncts = feed

    def build():
        return TumblingAggregate("agg", 2.0, {
            "n": AggSpec(Count), "total": AggSpec(Sum, field="value"),
        }, group_by="k")

    op = build()
    _drive(op, 1, batch, puncts)
    roundtrip(op, build())


@settings(max_examples=25, deadline=None)
@given(batch=tuple_batches(), shuffle_seed=st.integers(0, 2**16))
def test_reorder_roundtrip(batch, shuffle_seed):
    import random as _random
    disordered = list(batch)
    _random.Random(shuffle_seed).shuffle(disordered)
    op = Reorder("r", 2.0)
    h = OpHarness(op, n_inputs=1)
    h.inputs[0]._enforce_order = False
    for tup in disordered:
        h.feed(0, tup.ts, tup.payload)
    h.run()
    roundtrip(op, Reorder("r", 2.0))


@settings(max_examples=25, deadline=None)
@given(feed=operator_feeds, seed=st.integers(0, 2**16))
def test_shed_roundtrip(feed, seed):
    batch, puncts = feed
    op = Shed("s", 0.5, seed=seed)
    _drive(op, 1, batch, puncts)
    restored = Shed("s", 0.5, seed=seed + 1)
    roundtrip(op, restored)
    # The restored RNG must continue the original's draw sequence.
    assert restored._rng.random() == op._rng.random()


@settings(max_examples=25, deadline=None)
@given(feed=operator_feeds)
def test_sink_roundtrip(feed):
    batch, puncts = feed
    op = SinkNode("sink", keep_outputs=True)
    _drive(op, 1, batch, puncts)
    roundtrip(op, SinkNode("sink", keep_outputs=True))


@settings(max_examples=25)
@given(times=st.lists(timestamps, min_size=1, max_size=15).map(sorted))
def test_source_roundtrip(times):
    from repro.core.graph import QueryGraph

    graph = QueryGraph("g")
    src = graph.add_source("s")
    sink = graph.add_sink("sink")
    graph.connect(src, sink)
    graph.validate()
    for ts in times:
        src.ingest({"seq": ts}, now=ts)

    graph2 = QueryGraph("g")
    src2 = graph2.add_source("s")
    sink2 = graph2.add_sink("sink")
    graph2.connect(src2, sink2)
    graph2.validate()
    roundtrip(src, src2)


# --------------------------------------------------------------------- #
# ETS policies


@settings(max_examples=25)
@given(generated=st.integers(0, 100), declined=st.integers(0, 100))
def test_on_demand_ets_roundtrip(generated, declined):
    """The policy's state is its version: a version-1 snapshot that still
    carries the ``generated``/``declined`` counters the policy once kept
    restores, so no checkpoint format bump was needed to drop them."""
    policy = OnDemandEts(external_delta=0.25)
    policy.restore_state({"version": 1, "generated": generated,
                          "declined": declined})
    assert policy.snapshot_state() == {"version": 1}
    roundtrip(policy, OnDemandEts(external_delta=0.25))


def test_stateless_ets_policies_roundtrip():
    roundtrip(NoEts(), NoEts())
    roundtrip(PeriodicEtsSchedule({"a": 2.0}), PeriodicEtsSchedule({"a": 2.0}))
    sched = AdaptiveHeartbeatSchedule({"a": "b"})
    roundtrip(sched, AdaptiveHeartbeatSchedule({"a": "b"}))


def test_version1_reorder_heap_snapshot_restores_and_releases():
    """A version-1 ``Reorder`` snapshot written while the operator still
    parked rows in a min-heap — ``heap`` entries in heap order, not sorted
    — restores into the run-parked operator and releases the same rows, in
    ``(ts, seq)`` order, at the same thresholds."""
    heap = [(ts, seq, DataTuple(ts=ts, seq=seq, payload={"seq": seq},
                                arrival_ts=ts))
            for ts, seq in ((3.0, 40), (3.0, 42), (5.0, 41), (4.0, 43),
                            (6.0, 44))]
    assert heapq.nsmallest(5, heap) != heap  # a heap, but not sorted
    assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, 5))
    state = {"version": 1, "heap": heap, "max_seen": 6.0,
             "emitted_watermark": 2.0, "late_dropped": 1, "slack": 2.0}
    op = Reorder("r", 2.0)
    h = OpHarness(op, n_inputs=1)
    op.restore_state(state)
    assert op.pending == 5 and op.frontier_floor() == 3.0
    assert op.late_dropped == 1
    # A row at 7.0 lifts the slack threshold to 5.0: everything at or
    # below it leaves, in (ts, seq) order; the punctuation drains the rest.
    h.feed(0, 7.0, {"seq": "new"})
    h.run()
    released = [t.payload["seq"] for t in h.output_data()]
    assert released == [40, 42, 43, 41]
    h.feed_punctuation(0, 10.0)
    h.run()
    assert [t.payload["seq"] for t in h.output_data()] == [44, "new"]
    assert op.pending == 0


def test_parent_format_narrowed_reorder_and_budgeted_shed_restore():
    """Snapshots written while feedback could narrow a ``Reorder``'s slack
    and grant a ``Shed`` a drop budget restore; the narrowed ``slack`` and
    the ``drop_budget`` are ignored.  The Reorder then releases and admits
    at its configured slack (2.0): a narrowed one (1.0) would release 5.5
    early and late-drop the row at 5.2."""
    parked = [(ts, seq, DataTuple(ts=ts, seq=seq, payload={"seq": seq},
                                  arrival_ts=ts))
              for ts, seq in ((3.0, 40), (5.5, 41))]
    state = {"version": 1, "heap": parked, "max_seen": 5.5,
             "emitted_watermark": 2.0, "late_dropped": 0, "slack": 1.0}
    op = Reorder("r", 2.0)
    h = OpHarness(op, n_inputs=1)
    h.inputs[0]._enforce_order = False
    op.restore_state(state)
    assert op.slack == 2.0 and "slack" not in op.snapshot_state()
    h.feed(0, 7.0, {"seq": "a"})
    h.run()
    assert [t.payload["seq"] for t in h.output_data()] == [40]
    h.feed(0, 5.2, {"seq": "b"})
    h.feed_punctuation(0, 10.0)
    h.run()
    assert [t.payload["seq"] for t in h.output_data()] == ["b", 41, "a"]
    assert op.late_dropped == 0

    shed = Shed("s", 0.0)
    shed.restore_state({**Shed("s", 0.0).snapshot_state(),
                        "drop_budget": 0.6})
    h = OpHarness(shed, n_inputs=1)
    for i in range(20):
        h.feed(0, float(i), {"i": i})
    h.run()
    assert (shed.shed_count, shed.passed_count) == (0, 20)
    assert "drop_budget" not in shed.snapshot_state()


def test_parent_format_stream_buffer_snapshot_restores():
    """A version-1 ``StreamBuffer`` snapshot as buffers wrote it when they
    could hold scalar data tuples: rows interleaved with punctuation, a
    latent row among them.  Each run of rows restores as one block, and
    the buffer reads, drains and re-snapshots like the list model of the
    same state."""
    rows = [DataTuple(ts=ts, seq=40 + i, payload={"i": i}, arrival_ts=0.5)
            for i, ts in enumerate([1.0, 2.0, 3.0, LATENT_TS, 4.0, 7.0])]
    items = [rows[0], rows[1], punct(2.5), rows[2], rows[3], rows[4],
             punct(6.0), rows[5]]
    state = {"version": 1, "items": items,
             "register": {"version": 1, "value": 0.5},
             "last_pushed_ts": 7.0, "enqueued": 12, "dequeued": 4,
             "punctuation_enqueued": 3, "data_live": 6}
    registry = BufferRegistry()
    buf, model = StreamBuffer("a", registry), ReferenceBuffer("a")
    buf.restore_state(state)
    model.restore_state(state)
    assert [type(e) for e in buf._items] == [
        ColumnarBlock, Punctuation, ColumnarBlock, Punctuation, ColumnarBlock]
    assert len(buf) == len(items) == registry.total
    assert (buf.enqueued_count, buf.dequeued_count, buf.punctuation_count,
            buf.data_count, buf.last_pushed_ts, buf.register.value) == (
        12, 4, 3, 6, 7.0, 0.5)
    assert buf.head_run(64) == model.head_run(64) == ([1.0, 2.0], 2.5)
    assert same(buf.snapshot_state(), state)
    fresh = StreamBuffer("a")
    fresh.restore_state(buf.snapshot_state())
    assert same(fresh.snapshot_state(), state)
    drained = []
    while buf:
        if buf.head_is_punctuation():
            assert buf.pop() == model.pop()
        else:
            got = buf.drain_block(64).to_tuples()
            assert got == model.drain_block(len(got)).to_tuples()
            drained += got
        assert (len(buf), buf.register.value, buf.head_run(64)) == (
            len(model), model.register.value, model.head_run(64))
    assert drained == [row for row in items if not row.is_punctuation]
    assert buf.dequeued_count == 4 + len(items) and registry.total == 0


def _restorable_classes() -> set[str]:
    """Names of the classes under ``src/repro`` that define
    ``restore_state`` themselves."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    return {node.name for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef)
                    and item.name == "restore_state" for item in node.body)}


def _engine() -> ExecutionEngine:
    g = QueryGraph("g")
    g.connect(g.add_source("a"), g.add_sink("out"))
    return ExecutionEngine(g, ManualClock())


#: One fresh instance per class that defines ``restore_state``.
RESTORABLE = {
    "TSMRegister": TSMRegister,
    "StreamBuffer": lambda: StreamBuffer("b"),
    "EtsPolicy": EtsPolicy,
    "PeriodicEtsSchedule": lambda: PeriodicEtsSchedule({"a": 2.0}),
    "AdaptiveHeartbeatSchedule": lambda: AdaptiveHeartbeatSchedule(
        {"a": "b"}),
    "EngineStats": EngineStats,
    "ExecutionEngine": _engine,
    "TumblingAggregate": lambda: TumblingAggregate(
        "agg", 1.0, {"n": AggSpec(Count)}),
    "WindowJoin": lambda: WindowJoin("j", WindowSpec.time(1.0)),
    "Reorder": lambda: Reorder("r", 1.0),
    "Shed": lambda: Shed("s", 0.5),
    "SinkNode": lambda: SinkNode("k"),
    "SourceNode": lambda: SourceNode("s"),
    "Union": lambda: Union("u"),
    "_ColumnWindow": lambda: TimeWindow(1.0),
    "FeedbackController": FeedbackController,
    "TokenBucketThrottle": lambda: TokenBucketThrottle(10.0),
}


#: Classes a checkpoint restores through an inherited ``restore_state``.
INHERITED = {"OnDemandEts": OnDemandEts}


def test_every_restorable_class_is_listed():
    assert set(RESTORABLE) == _restorable_classes()


@pytest.mark.parametrize("name", sorted({**RESTORABLE, **INHERITED}))
def test_unknown_snapshot_version_is_a_repro_error(name):
    """An unknown version raises a :class:`ReproError` subclass — what the
    CLI reports as one ``error:`` line — never a bare built-in error."""
    with pytest.raises(ReproError, match="unsupported"):
        {**RESTORABLE, **INHERITED}[name]().restore_state({"version": 99})
