"""Bounded reshard replay: the live suffix rebuilds what full replay would.

DESIGN.md §4k, invariant 2.  A reshard replays only the wake-up segments at
or after the old shard set's *state floor*; everything below it is dead —
expired from every window, parked nowhere, buffered nowhere.  The claim
tested here is the strong one: on feeds several windows long, each new
shard's checkpointed state after the suffix replay (window contents and
horizons, join emission watermark, source watermarks, buffers, TSM
registers, the clock) equals its state after a **full** replay, for grow,
shrink and chained reshards on all three backends — plus the cases that
must *not* cut (count windows, aggregates), the ones where a row's own
fields understate its stamp (late internal rows, out-of-order external
streams, internal rows behind an external stream's arrivals), the join
cascade whose second window holds *derived* rows, and the accounting that
survives a crash (``ingest_base``).
"""

from __future__ import annotations

import json
import random

import pytest

from oracle import Feed, ShardedDifferentialOracle, _assert_same, _canonical

from repro.core.graph import QueryGraph
from repro.core.operators import (AggSpec, Count, Reorder, TumblingAggregate,
                                  WindowJoin)
from repro.core.tuples import TimestampKind
from repro.core.windows import WindowSpec
from repro.recovery import CheckpointStore
from repro.shard import ElasticShardedEngine
from repro.shard.backends import EngineShard

from test_join_index import keyed_stream, _merge
from test_sharded_oracle import join_graph

CHUNK = 16
BATCH = 8
SPAN = 4.0  # join_graph()'s window
NEG_INF = float("-inf")

SCHEDULES = [
    pytest.param({12: 4}, id="grow"),
    pytest.param({12: 2}, id="shrink"),
    pytest.param({8: 4, 14: 2, 20: 3}, id="chained"),
]


def long_feeds(cardinality: int = 16) -> list[Feed]:
    """~24 s of stream against a 4 s window: six windows of history."""
    return _merge(
        keyed_stream("fast", rate_period=0.05, count=480, seed=3,
                     cardinality=cardinality),
        keyed_stream("slow", rate_period=0.6, count=40, seed=5,
                     cardinality=cardinality, start=0.3),
    )


def _chunks(feeds):
    return [feeds[i:i + CHUNK] for i in range(0, len(feeds), CHUNK)]


def _shard_view(doc: dict) -> dict:
    """What a checkpoint document says can still influence output."""
    ops = doc["operators"]
    view = {
        "clock": doc["clock_now"],
        "buffers": [[(el.ts, getattr(el, "payload", None))
                     for el in buf["items"]] for buf in doc["buffers"]],
        "registers": [buf["register"] for buf in doc["buffers"]],
        "watermarks": {name: state["watermark"]
                       for name, state in ops.items()
                       if "watermark" in state},
    }
    for name, state in ops.items():
        if "windows" in state:  # a join
            view[name] = (state["last_emitted_ts"], [
                None if win is None else (
                    win.get("horizon"),
                    [(t.ts, t.arrival_ts, t.payload) for t in win["items"]])
                for win in state["windows"]])
        elif "heap" in state:  # a reorder
            view[name] = (state["emitted_watermark"],
                          sorted((ts, repr(t.payload))
                                 for ts, _, t in state["heap"]))
    return view


def reshard_states(root, build, feeds, schedule, *, backend="serial",
                   shards=3, punctuate_every=None):
    """Drive a durable elastic engine through ``schedule`` (``{chunk_no:
    target}``); returns ``[(report, [per-new-shard view])]`` read from the
    checkpoints each new epoch wrote right after its replay, and the run's
    canonical output."""
    engine = ElasticShardedEngine(build, shards=shards, key="k",
                                  backend=backend, state_dir=root,
                                  checkpoint_every=4, batch_size=BATCH)
    sources = sorted(src.name for src in build().sources())
    out = []
    released = []
    try:
        for chunk_no, group in enumerate(_chunks(feeds), 1):
            for feed in group:
                engine.ingest(feed.source, feed.payload, time=feed.time,
                              ts=feed.external_ts)
            if punctuate_every and chunk_no % punctuate_every == 0:
                for name in sources:
                    engine.inject_punctuation(
                        name, group[-1].time, origin=f"hb:{name}",
                        periodic=True)
            released.extend(engine.wakeup())
            if chunk_no in schedule:
                report = engine.reshard(schedule[chunk_no])
                released.extend(report.released)
                views = []
                for index in range(engine.shard_count):
                    store = CheckpointStore(
                        engine.state_dir / f"shard-{index:02d}")
                    views.append(_shard_view(store.load_latest()[1]))
                out.append((report, views))
        for name in sources:
            engine.inject_punctuation(name, feeds[-1].time + 1.0,
                                      origin=f"eos:{name}")
        released.extend(engine.wakeup())
    finally:
        released.extend(engine.close(flush=True))
    return out, _canonical([(sink, ts, payload)
                            for ts, _, _, sink, payload in released])


def full_replay(monkeypatch):
    """Make every shard report ``-inf``: the parent commit's full replay.
    (Process workers are forked after this, so they inherit it.)"""
    monkeypatch.setattr(EngineShard, "state_floor", lambda self: NEG_INF)


def assert_suffix_equals_full(tmp_path, monkeypatch, build, feeds, schedule,
                              **kwargs):
    suffix, output = reshard_states(tmp_path / "suffix", build, feeds,
                                    schedule, **kwargs)
    with monkeypatch.context() as patch:
        full_replay(patch)
        full, reference = reshard_states(tmp_path / "full", build, feeds,
                                         schedule, **kwargs)
    assert len(suffix) == len(full) == len(schedule)
    assert reference
    _assert_same(reference, output, "suffix replay changed the output")
    for (cut, cut_views), (whole, whole_views) in zip(suffix, full):
        assert whole.floor == NEG_INF
        assert whole.replayed_ingests == whole.logged_ingests
        assert cut.logged_ingests == whole.logged_ingests
        assert cut.replayed_puncts == whole.replayed_puncts
        assert (cut.migrated_keys, cut.total_keys) == (
            whole.migrated_keys, whole.total_keys)
        assert cut_views == whole_views, \
            f"reshard {cut.direction}: suffix replay built different state"
    return suffix


# --------------------------------------------------------------------- #
# Suffix replay == full replay, state for state


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_suffix_replay_rebuilds_full_replay_state(tmp_path, monkeypatch,
                                                  backend, schedule):
    feeds = long_feeds()
    suffix = assert_suffix_equals_full(tmp_path, monkeypatch, join_graph(),
                                       feeds, schedule, backend=backend)
    for report, _ in suffix:
        # The history is several windows long: most of it is dead, and what
        # was replayed is exactly the rows from the first live segment on.
        assert report.floor > 0.0
        segments = [(group[-1].time, len(group))
                    for group in _chunks(feeds)][:report.logged_ingests
                                                 // CHUNK]
        live_from = next(i for i, (now, _) in enumerate(segments)
                         if now >= report.floor)
        assert report.replayed_ingests == sum(
            n for _, n in segments[live_from:])
        assert report.replayed_ingests < report.logged_ingests


def test_suffix_replay_with_periodic_punctuation(tmp_path, monkeypatch):
    """Punctuation of the dead prefix is carried, not dropped: the same
    punctuation records reach every new shard, in one wake-up."""
    assert_suffix_equals_full(tmp_path, monkeypatch, join_graph(),
                              long_feeds(), {8: 4, 20: 2},
                              punctuate_every=3)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_long_history_output_equals_single_engine(backend):
    oracle = ShardedDifferentialOracle(join_graph(), long_feeds(), key="k",
                                       chunk=CHUNK, punctuate_every=4)
    oracle.assert_elastic_equals_single(
        shards=3, reshard_at={8: 4, 14: 2, 20: 3}, backend=backend,
        punctuate=True, batch_size=BATCH)


# --------------------------------------------------------------------- #
# Derived state: a join behind a join


def cascade_graph() -> QueryGraph:
    """``fast ⋈ slow ⋈ third``: ``join2``'s left window holds ``join``'s
    outputs.  One stamped ``t`` may carry a row stamped ``t - SPAN``, which
    is below ``join2``'s own horizon while the pair is above it."""
    graph = QueryGraph("cascade")
    fast = graph.add_source("fast")
    slow = graph.add_source("slow")
    third = graph.add_source("third")
    join = graph.add(WindowJoin("join", WindowSpec.time(SPAN), key="k"))
    join2 = graph.add(WindowJoin("join2", WindowSpec.time(SPAN), key="k"))
    sink = graph.add_sink("sink")
    graph.connect(fast, join)
    graph.connect(slow, join)
    graph.connect(join, join2)
    graph.connect(third, join2)
    graph.connect(join2, sink)
    return graph


def cascade_feeds() -> list[Feed]:
    return _merge(long_feeds(),
                  keyed_stream("third", rate_period=0.7, count=34, seed=9,
                               cardinality=16, start=0.2))


def test_cascade_floor_reaches_back_through_the_first_join(tmp_path,
                                                           monkeypatch):
    """The floor is the second join's horizon *minus the first join's
    span*: cutting at the horizon itself loses pairs whose older half lies
    below it (the new shard's ``join2`` window comes up short, and a later
    ``third`` row finds no match)."""
    suffix = assert_suffix_equals_full(tmp_path, monkeypatch, cascade_graph,
                                       cascade_feeds(), {20: 4, 30: 2})
    for report, views in suffix:
        horizon = min(view["join2"][1][0][0] for view in views)
        assert report.floor == pytest.approx(horizon - SPAN)
        assert 0 < report.replayed_ingests < report.logged_ingests
        assert any(view["join2"][1][0][1] for view in views)


def test_cascade_state_reach():
    graph = cascade_graph()
    assert graph["join"].state_reach() == SPAN
    assert graph["fast"].state_reach() == 0.0
    assert count_join_graph()["join"].state_reach() == float("inf")
    assert TumblingAggregate("agg", 2.0, {"n": AggSpec(Count)}
                             ).state_reach() == float("inf")


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_cascade_output_equals_single_engine(backend):
    oracle = ShardedDifferentialOracle(cascade_graph, cascade_feeds(),
                                       key="k", chunk=CHUNK,
                                       punctuate_every=4)
    oracle.assert_elastic_equals_single(
        shards=3, reshard_at={8: 4, 14: 2, 20: 3}, backend=backend,
        punctuate=True, batch_size=BATCH)


# --------------------------------------------------------------------- #
# Rows whose own fields understate their stamp


def late_internal_feeds() -> list[Feed]:
    """Every other chunk claims arrivals 10 s in the past.  An internal
    source stamps a row with the shard clock, not with its ``time``, so
    those rows sit in the windows at the *previous* chunk's instant: only
    the wake-up's ``now`` bounds their stamp."""
    return [feed if (i // CHUNK) % 2 == 0
            else Feed(feed.source, max(0.0, feed.time - 10.0), feed.payload)
            for i, feed in enumerate(long_feeds())]


def test_late_internal_rows_never_fall_before_the_cut(tmp_path, monkeypatch):
    suffix = assert_suffix_equals_full(
        tmp_path, monkeypatch, join_graph(), late_internal_feeds(),
        {12: 4, 20: 2})
    assert all(r.replayed_ingests < r.logged_ingests for r, _ in suffix)


def mixed_join_graph() -> QueryGraph:
    graph = QueryGraph("mixed-join")
    fast = graph.add_source("fast")
    slow = graph.add_source("slow", TimestampKind.EXTERNAL)
    join = graph.add(WindowJoin("join", WindowSpec.time(SPAN), key="k"))
    sink = graph.add_sink("sink")
    graph.connect(fast, join)
    graph.connect(slow, join)
    graph.connect(join, sink)
    return graph


def behind_the_clock_feeds() -> list[Feed]:
    """``slow`` is external and arrives 2.5 s after its stamps; ``fast`` is
    internal and claims arrivals 3 s in the past.  The drive clock follows
    ``slow``'s *arrivals*, so a ``fast`` row is stamped up to 3 s above its
    own ``time`` — and in the segments just below the cut every row's own
    fields (``time`` 3 s back, ``ts`` 2.5 s back) lie below the floor while
    the ``fast`` stamps do not.  Only the wake-up's ``now`` bounds them."""
    feeds = _merge(
        keyed_stream("fast", rate_period=0.05, count=480, seed=3,
                     cardinality=16),
        keyed_stream("slow", rate_period=1.7, count=14, seed=5,
                     cardinality=16, start=0.3))
    return [Feed(f.source, f.time, f.payload, external_ts=f.time - 2.5)
            if f.source == "slow"
            else Feed(f.source, max(0.0, f.time - 3.0), f.payload)
            for f in feeds]


def test_internal_rows_are_bounded_by_the_wakeup_now_not_their_time(
        tmp_path, monkeypatch):
    """The case that separates the dead-segment rule from "use the row's
    ``time``": with that rule planted this test goes red (the cut moves
    past segments whose ``fast`` rows are still in the window)."""
    feeds = behind_the_clock_feeds()
    suffix = assert_suffix_equals_full(tmp_path, monkeypatch,
                                       mixed_join_graph, feeds,
                                       {16: 4, 24: 2})
    for report, _ in suffix:
        skipped = report.logged_ingests - report.replayed_ingests
        assert 0 < skipped < report.logged_ingests
        by_own_fields = sum(
            len(group) for group in _chunks(feeds)
            if all((f.time if f.external_ts is None else f.external_ts)
                   < report.floor for f in group))
        assert skipped < by_own_fields


def reorder_join_graph() -> QueryGraph:
    graph = QueryGraph("reorder-join")
    fast = graph.add_source("fast", TimestampKind.EXTERNAL, out_of_order=True)
    slow = graph.add_source("slow", TimestampKind.EXTERNAL)
    order = graph.add(Reorder("order", 0.5))
    join = graph.add(WindowJoin("join", WindowSpec.time(SPAN), key="k"))
    sink = graph.add_sink("sink")
    graph.connect(fast, order, enforce_order=False)
    graph.connect(order, join)
    graph.connect(slow, join)
    graph.connect(join, sink)
    return graph


def disordered_feeds() -> list[Feed]:
    """``fast`` carries external stamps up to 0.4 s behind its arrival
    order (inside the 0.5 s reorder slack); ``slow`` is in order."""
    rng = random.Random(17)
    return [Feed(f.source, f.time, f.payload,
                 external_ts=(f.time - rng.uniform(0.0, 0.4)
                              if f.source == "fast" else f.time))
            for f in long_feeds()]


def test_out_of_order_external_rows_never_fall_before_the_cut(
        tmp_path, monkeypatch):
    feeds = disordered_feeds()
    suffix = assert_suffix_equals_full(
        tmp_path, monkeypatch, reorder_join_graph, feeds, {12: 4, 20: 2})
    for report, _ in suffix:
        skipped = report.logged_ingests - report.replayed_ingests
        assert 0 < skipped < report.logged_ingests
        assert all(feed.external_ts < report.floor
                   for feed in feeds[:skipped])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the align phase punctuates an out-of-order source at its largest "
    "stamp, so a row still inside the reorder slack is late-dropped after "
    "the reshard; lowering the target by disorder_bound is not enough "
    "while SourceNode.inject_punctuation discards punctuation below the "
    "source's data high (see ROADMAP, state migration)"))
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_out_of_order_output_equals_single_engine(schedule):
    oracle = ShardedDifferentialOracle(reorder_join_graph, disordered_feeds(),
                                       key="k", chunk=CHUNK)
    oracle.assert_elastic_equals_single(
        shards=3, reshard_at=schedule, batch_size=BATCH,
        disorder_bound=0.5)


# --------------------------------------------------------------------- #
# State that no timestamp bounds: replay everything


def count_join_graph() -> QueryGraph:
    graph = QueryGraph("count-join")
    fast = graph.add_source("fast")
    slow = graph.add_source("slow")
    join = graph.add(WindowJoin("join", WindowSpec.count(12), key="k"))
    sink = graph.add_sink("sink")
    graph.connect(fast, join)
    graph.connect(slow, join)
    graph.connect(join, sink)
    return graph


def aggregate_graph() -> QueryGraph:
    graph = QueryGraph("keyed-aggregate")
    fast = graph.add_source("fast")
    agg = graph.add(TumblingAggregate("agg", 2.0, {"n": AggSpec(Count)},
                                      group_by="k"))
    sink = graph.add_sink("sink")
    graph.connect(fast, agg)
    graph.connect(agg, sink)
    return graph


@pytest.mark.parametrize("build", [count_join_graph, aggregate_graph],
                         ids=["count-window", "aggregate"])
def test_unbounded_state_replays_everything(build):
    feeds = [f for f in long_feeds()
             if f.source in {s.name for s in build().sources()}]
    engine = ElasticShardedEngine(build, shards=2, key="k",
                                  batch_size=BATCH)
    for chunk_no, group in enumerate(_chunks(feeds), 1):
        for feed in group:
            engine.ingest(feed.source, feed.payload, time=feed.time)
        engine.wakeup()
        if chunk_no == 20:
            report = engine.reshard(3)
    engine.close()
    assert report.floor == NEG_INF
    assert report.replayed_ingests == report.logged_ingests == 20 * CHUNK
    if build is aggregate_graph:  # (a count window is not key-partitionable)
        oracle = ShardedDifferentialOracle(build, feeds, key="k",
                                           chunk=CHUNK)
        oracle.assert_elastic_equals_single(shards=2, reshard_at={20: 3},
                                            batch_size=BATCH)


# --------------------------------------------------------------------- #
# Accounting across a crash: the manifest's ingest_base


def test_reshard_crash_recover_reshard_keeps_acknowledged_count(tmp_path):
    """Reshard → crash → recover → reshard again, on a long history: the
    new shards' WALs hold only the live suffix, so ``total_ingests`` is
    right only with the manifest's base — and the second reshard, built
    from the recovered facade log, cuts again."""
    feeds = long_feeds()
    crash_index = CHUNK * 16

    def facade():
        return ElasticShardedEngine(join_graph(), shards=2, key="k",
                                    state_dir=tmp_path, checkpoint_every=4,
                                    batch_size=BATCH)

    def drive(engine, start, stop, reshards, skips=None):
        released = []
        fed = 0
        for index, feed in enumerate(feeds[:stop]):
            if index in reshards and index >= start:
                released.extend(engine.reshard(reshards[index]).released)
            if skips is not None:
                key = (engine.shard_for(feed.payload), feed.source)
                if skips.get(key, 0) > 0:
                    skips[key] -= 1
                    continue
            engine.ingest(feed.source, feed.payload, time=feed.time)
            fed += 1
            if fed % CHUNK == 0:
                released.extend(engine.wakeup())
        return released

    def finish(engine, released):
        for name in ("fast", "slow"):
            engine.inject_punctuation(name, feeds[-1].time + 1.0,
                                      origin=f"eos:{name}")
        released.extend(engine.wakeup())
        released.extend(engine.close(flush=True))
        return [(sink, ts, payload) for ts, _, _, sink, payload in released]

    hops = {CHUNK * 12: 3, CHUNK * 22: 4}
    reference_engine = ElasticShardedEngine(join_graph(), shards=2, key="k",
                                            batch_size=BATCH)
    reference = finish(reference_engine,
                       drive(reference_engine, 0, len(feeds), hops))

    engine = facade()
    released = drive(engine, 0, crash_index, hops)
    [first] = engine.reshards
    assert first.replayed_ingests < first.logged_ingests == CHUNK * 12
    pre = released + engine.merge.flush()
    engine.close(flush=False)

    manifest = json.loads((tmp_path / "CURRENT").read_text())
    base = sum(count for counts in manifest["ingest_base"].values()
               for count in counts.values())
    assert base == first.logged_ingests - first.replayed_ingests

    engine = facade()
    assert engine.shard_count == 3
    report = engine.recover()
    assert report.total_ingests == crash_index
    assert sum(1 for rec in engine._log
               if rec["kind"] == "ingest") == crash_index
    skips = {(shard, source): count
             for shard, counts in report.ingests_by_shard.items()
             for source, count in counts.items()}
    released = drive(engine, crash_index, len(feeds), hops, skips=skips)
    second = engine.reshards[-1]
    assert second.direction == "3->4"
    assert second.logged_ingests == CHUNK * 22
    assert second.replayed_ingests < second.logged_ingests / 2
    post = finish(engine, released)
    combined = [(s, ts, p) for ts, _, _, s, p in pre] + post
    _assert_same(_canonical(reference), _canonical(combined),
                 "reshard → crash → recover → reshard is not exactly-once")
