"""The facade's write-ahead log is a sharded run's only input log.

DESIGN.md §4g: a durable ``ShardedEngine`` (fixed P or elastic) writes one
group frame per wake-up before dispatch and one ``marks`` record before the
merge releases anything; its shards keep checkpoints only.  The durability
point is therefore the frame, not a shard: a crash after the frame is on
disk and before any shard applied it re-dispatches that wake-up, and a frame
torn mid-write drops its whole wake-up.  Both are held to exactly-once here,
on both facades, beside the layout (no shard WAL, at most two frames per
wake-up), the refusal of unknown source names and of a regressing stamp on
an in-order source, and the ``CURRENT`` manifest.
Shard checkpoints are cut by the facade at its logged marks, so a shard
failing inside a wake-up and a crash inside a checkpoint lose no row.
"""

from __future__ import annotations

import json
import os

import pytest

from oracle import _assert_same, _canonical

from repro.core.errors import GraphError, RecoveryError, TimestampError
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import WindowJoin
from repro.core.tuples import TimestampKind
from repro.core.windows import WindowSpec
from repro.faults import SimulatedCrash
from repro.recovery import CheckpointStore, WriteAheadLog
from repro.recovery.wal import InputJournal
from repro.shard import ElasticShardedEngine, ShardedEngine
from repro.shard.engine import FACADE_IMAGE_FORMAT
from repro.sim.clock import VirtualClock

from test_recovery import count_walks
from test_sharded_oracle import join_graph, keyed_feeds
from test_sharded_recovery import (CHUNK, SHARDS, facade_images, finish,
                                   reference_run, walk_start)

CRASH_WAKEUP = 7
#: A wake-up that ends in a facade checkpoint (``checkpoint_every=4``).
CHECKPOINT_WAKEUP = 8


def fixed(state_dir):
    return ShardedEngine(join_graph(), shards=SHARDS, key="k",
                         backend="serial", state_dir=state_dir,
                         checkpoint_every=4)


def elastic(state_dir):
    return ElasticShardedEngine(join_graph(), shards=SHARDS, key="k",
                                backend="serial", state_dir=state_dir,
                                checkpoint_every=4)


def elastic_process(state_dir):
    return ElasticShardedEngine(join_graph(), shards=SHARDS, key="k",
                                backend="process", state_dir=state_dir,
                                checkpoint_every=4)


FACADES = pytest.mark.parametrize("make", [fixed, elastic, elastic_process],
                                  ids=["fixed", "elastic", "process"])


def feed(engine, feeds, released, *, skips=None):
    """Chunked feed loop that keeps what it released in ``released`` even
    when a wake-up raises; ``skips`` are per-(shard, source) counts."""
    now = 0.0
    fed = 0
    for record in feeds:
        now = max(now, record.time)
        key = (engine.shard_for(record.payload), record.source)
        if skips and skips.get(key, 0) > 0:
            skips[key] -= 1
            continue
        engine.ingest(record.source, record.payload, time=record.time,
                      ts=record.external_ts)
        fed += 1
        if fed % CHUNK == 0:
            released.extend(engine.wakeup())
    return now


def crash_in(engine, feeds, owner, method, *, at, skips=None):
    """Drive until the ``at``-th call of ``owner.method`` from here, which
    raises instead of running.  Returns the records the crashed facade had
    released or still held in its merge."""
    calls = [0]
    inner = getattr(owner, method)

    def crashing(*args):
        calls[0] += 1
        if calls[0] == at:
            raise SimulatedCrash(f"crash in {method}", time=0.0,
                                 source="facade")
        return inner(*args)

    setattr(owner, method, crashing)
    released: list = []
    with pytest.raises(SimulatedCrash):
        feed(engine, feeds, released, skips=skips)
    released += engine.merge.flush()
    engine.close(flush=False)
    return [(sink, ts, payload) for ts, _, _, sink, payload in released]


def crash_in_apply(engine, feeds, *, at=CRASH_WAKEUP, skips=None):
    """Crash once the ``at``-th wake-up from here has written its frame,
    before any shard applies it."""
    return crash_in(engine, feeds, engine.backend, "apply_all", at=at,
                    skips=skips)


def skips_of(report):
    return {(shard, source): count
            for shard, counts in report.ingests_by_shard.items()
            for source, count in counts.items()}


def recover_and_refeed(make, state_dir, feeds, pre):
    engine = make(state_dir)
    report = engine.recover()
    released: list = []
    now = feed(engine, feeds, released, skips=skips_of(report))
    _assert_same(_canonical(reference_run(feeds)),
                 _canonical(pre + finish(engine, released, now)),
                 "recovery from the facade log is not exactly-once")
    return report


# --------------------------------------------------------------------- #
# The durability point is the frame


@FACADES
def test_a_logged_wakeup_no_shard_applied_is_redispatched(tmp_path, make):
    feeds = keyed_feeds()
    pre = crash_in_apply(make(tmp_path), feeds)
    report = recover_and_refeed(make, tmp_path, feeds, pre)
    # The crashed wake-up's rows are on disk, so they count.
    assert report.total_ingests == CHUNK * CRASH_WAKEUP
    assert all(r.wal_clean and r.wal_records for r in report.reports)


@FACADES
def test_a_frame_torn_mid_write_drops_its_whole_wakeup(tmp_path, make):
    feeds = keyed_feeds()
    pre = crash_in_apply(make(tmp_path), feeds)
    log = tmp_path / "facade" / "wal.log"
    data = log.read_bytes()
    ends = [end for end, _ in WriteAheadLog._frames(data)]
    assert ends[-1] == len(data)
    assert [r["kind"] for r in WriteAheadLog(log).replay()][-1] == "wakeup"
    log.write_bytes(data[:(ends[-2] + ends[-1]) // 2])
    intact = len(WriteAheadLog(log).replay())
    report = recover_and_refeed(make, tmp_path, feeds, pre)
    assert report.total_ingests == CHUNK * (CRASH_WAKEUP - 1)
    # The cut is reported on every shard, with the intact log's length.
    assert [(r.wal_clean, r.wal_records) for r in report.reports] == \
        [(False, intact)] * len(report.reports)


@FACADES
def test_a_second_crash_right_after_a_recovery_is_exactly_once(tmp_path,
                                                               make):
    """The first crash lands on a checkpoint wake-up before it is
    applied; the second comes before the next wake-up is applied.  A
    checkpoint taken while re-applying would cover rows the recovered
    shards only hold (no ``marks`` record covers them yet), and the second
    recovery would restore it and lose them."""
    feeds = keyed_feeds()
    pre = crash_in_apply(make(tmp_path), feeds, at=CHECKPOINT_WAKEUP)
    engine = make(tmp_path)
    pre += crash_in_apply(engine, feeds, at=1,
                          skips=skips_of(engine.recover()))
    recover_and_refeed(make, tmp_path, feeds, pre)


@FACADES
def test_a_torn_tail_after_a_resumed_recovery_is_exactly_once(
        tmp_path, monkeypatch, make):
    """Recover, resume past two more facade images, then crash with the
    next wake-up's frame torn mid-write — the frame that begins at the
    newest image's offset, so the second read falls back to the image
    before it.  The output is the uncrashed run's, and the handle the
    second recovery appended through counts every record on disk."""
    feeds = keyed_feeds()
    pre = crash_in_apply(make(tmp_path), feeds, at=3)
    engine = make(tmp_path)
    pre += crash_in_apply(engine, feeds, at=9 - 3,
                          skips=skips_of(engine.recover()))
    log = tmp_path / "facade" / "wal.log"
    data = log.read_bytes()
    ends = [end for end, _ in WriteAheadLog._frames(data)]
    images = facade_images(tmp_path)
    assert images[8]["offset"] == ends[-2]
    torn = (ends[-2] + ends[-1]) // 2
    log.write_bytes(data[:torn])
    walks = count_walks(monkeypatch)
    engine = make(tmp_path)
    report = engine.recover()
    monkeypatch.undo()
    assert walks == [torn - walk_start(images[4])]
    assert report.total_ingests == CHUNK * 8
    assert report.kept_records > 0
    released: list = []
    now = feed(engine, feeds, released, skips=skips_of(report))
    wal = engine.journal.wal
    _assert_same(_canonical(reference_run(feeds)),
                 _canonical(pre + finish(engine, released, now)),
                 "a torn tail after a resumed recovery is not exactly-once")
    assert wal.records_written == len(WriteAheadLog(log).replay())


# --------------------------------------------------------------------- #
# Shard checkpoints are cut at the facade's marks


@pytest.mark.parametrize("wakeup", [4, 8, 9, 12])
@pytest.mark.parametrize("shard", range(SHARDS))
@pytest.mark.parametrize("make", [fixed, elastic], ids=["fixed", "elastic"])
def test_a_shard_failing_inside_a_wakeup_loses_no_row(tmp_path, make, shard,
                                                      wakeup):
    """One shard raises inside ``apply_all`` after its peers (or some of
    them) applied the wake-up.  No shard checkpoints in the middle of a
    wake-up, so every image is cut at a logged ``marks`` record, and the
    logged wake-up is re-applied from there."""
    feeds = keyed_feeds()
    engine = make(tmp_path)
    pre = crash_in(engine, feeds, engine.backend.shards[shard], "apply",
                   at=wakeup)
    recover_and_refeed(make, tmp_path, feeds, pre)


@pytest.mark.parametrize("checkpoint", [1, 2])
@pytest.mark.parametrize("make", [fixed, elastic], ids=["fixed", "elastic"])
def test_a_crash_inside_a_facade_checkpoint_loses_no_row(tmp_path, make,
                                                         checkpoint):
    """The facade checkpoints after the wake-up's marks are durable and
    its rows offered, before the merge releases one."""
    feeds = keyed_feeds()
    engine = make(tmp_path)
    pre = crash_in(engine, feeds, engine.backend, "checkpoint_all",
                   at=checkpoint)
    recover_and_refeed(make, tmp_path, feeds, pre)


@FACADES
def test_recover_resumes_the_drive_clock_of_the_log(tmp_path, make):
    engine = make(tmp_path)
    feed(engine, keyed_feeds()[:CHUNK * 5 + 3], [])
    engine.close(flush=False)
    logged = [rec["now"] for rec in
              WriteAheadLog(tmp_path / "facade" / "wal.log").replay()
              if rec["kind"] == "wakeup"]
    engine = make(tmp_path)
    engine.recover()
    try:
        assert engine._drive_now == logged[-1] > 0.0
    finally:
        engine.close(flush=False)


@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
@pytest.mark.parametrize("make", [fixed, elastic], ids=["fixed", "elastic"])
def test_a_recovery_walks_the_log_once(tmp_path, monkeypatch, make, torn):
    """``recover()`` reads the log from the newest facade image's offset
    (or lower, where the history's live suffix begins), and the first
    wake-up after it appends from the absolute count and end offset that
    read found: one walk in all, of the bytes past that offset, a torn
    tail cut included."""
    feeds = keyed_feeds()
    engine = make(tmp_path)
    feed(engine, feeds[:CHUNK * 6], [])
    engine.close(flush=False)
    log = tmp_path / "facade" / "wal.log"
    if torn:
        log.write_bytes(log.read_bytes()[:-3])
    size = log.stat().st_size
    offset = walk_start(facade_images(tmp_path)[4])
    walks = count_walks(monkeypatch)
    engine = make(tmp_path)
    report = engine.recover()
    record = feeds[CHUNK * 6]
    engine.ingest(record.source, record.payload, time=record.time,
                  ts=record.external_ts)
    engine.wakeup()
    assert walks == [size - offset]
    assert all(r.wal_clean is not torn for r in report.reports)
    wal = engine.journal.wal
    engine.close(flush=False)
    assert wal.records_written == len(WriteAheadLog(log).replay())


@pytest.mark.parametrize("make", [fixed, elastic], ids=["fixed", "elastic"])
def test_a_facade_image_of_format_1_is_refused(tmp_path, monkeypatch, make):
    """An image of format 1 (its history's ``carried_at`` was ``(now,
    clamp, position)``) is no rung of the ladder: recovery reads the log
    from its start, and the run is still the uncrashed one."""
    feeds = keyed_feeds()
    pre = crash_in_apply(make(tmp_path), feeds, at=10)
    store = CheckpointStore(tmp_path / "facade")
    images = [store.load(number) for number in store.numbers()]
    assert FACADE_IMAGE_FORMAT == 2
    assert [(image["position"], image["format"]) for image in images] == [
        (4, 2), (8, 2)]
    for number in store.numbers():
        store.path_for(number).unlink()
    for image in images:  # hand-edited to the parent format
        store.save({**image, "format": 1})
    size = (tmp_path / "facade" / "wal.log").stat().st_size
    walks = count_walks(monkeypatch)
    engine = make(tmp_path)
    report = engine.recover()
    monkeypatch.undo()
    assert walks == [size]
    released: list = []
    now = feed(engine, feeds, released, skips=skips_of(report))
    _assert_same(_canonical(reference_run(feeds)),
                 _canonical(pre + finish(engine, released, now)),
                 "recovery past a format-1 facade image is not exactly-once")


@pytest.mark.parametrize("make", [fixed, elastic], ids=["fixed", "elastic"])
def test_a_log_whose_wakeups_carry_a_clamp_reads_as_before(tmp_path,
                                                           monkeypatch, make):
    """Wake-up records of the parent layout carry a ``"clamp"`` field
    (None: no logged run had feedback on); the log recovers and resumes
    as any other, the resumed wake-ups written without it."""
    commit = InputJournal.commit
    monkeypatch.setattr(InputJournal, "commit", lambda journal, wakeup:
                        commit(journal, {**wakeup, "clamp": None}))
    feeds = keyed_feeds()
    pre = crash_in_apply(make(tmp_path), feeds)
    monkeypatch.undo()
    wakeups = [rec for rec in
               WriteAheadLog(tmp_path / "facade" / "wal.log").replay()
               if rec["kind"] == "wakeup"]
    assert len(wakeups) == CRASH_WAKEUP
    assert all(rec["clamp"] is None for rec in wakeups)
    report = recover_and_refeed(make, tmp_path, feeds, pre)
    assert report.total_ingests == CHUNK * CRASH_WAKEUP


def test_a_checkpoint_of_the_per_shard_wal_layout_is_refused(tmp_path):
    """A shard checkpoint document of version 1 (``wal_index``, written
    beside a per-shard WAL) is refused, never restored at position 0."""
    engine = fixed(tmp_path)
    feed(engine, keyed_feeds()[:CHUNK * 6], [])
    engine.close()
    store = CheckpointStore(tmp_path / "shard-00")
    _, state, _ = store.load_latest()
    state["format"] = 1
    state["wal_index"] = state.pop("position")
    store.save(state)
    with pytest.raises(RecoveryError, match="checkpoint format 1"):
        fixed(tmp_path).recover()


# --------------------------------------------------------------------- #
# One log: no shard WAL, at most two frames per wake-up


def assert_one_log(root, engine):
    assert not list(root.rglob("shard-*/wal.log"))
    assert list(root.rglob("shard-*/checkpoint-*.ckpt"))
    data = (root / "facade" / "wal.log").read_bytes()
    frames = sum(1 for _ in WriteAheadLog._frames(data))
    assert engine.wakeups < frames <= 2 * engine.wakeups


def test_a_durable_fixed_run_writes_one_log(tmp_path):
    engine = fixed(tmp_path)
    feed(engine, keyed_feeds(), [])
    engine.close()
    assert_one_log(tmp_path, engine)


def test_a_durable_elastic_run_with_a_reshard_writes_one_log(tmp_path):
    feeds = keyed_feeds()
    engine = elastic(tmp_path)
    feed(engine, feeds[:CHUNK * 4], [])
    engine.reshard(SHARDS + 1)
    feed(engine, feeds[CHUNK * 4:], [])
    engine.close()
    assert engine.state_dir == tmp_path / "epoch-0001"
    assert_one_log(tmp_path, engine)


# --------------------------------------------------------------------- #
# Unknown source names are refused before anything is staged or logged


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_an_unknown_source_is_refused_at_the_facade(backend):
    engine = ShardedEngine(join_graph(), shards=2, key="k", backend=backend)
    try:
        with pytest.raises(GraphError, match="'nope'"):
            engine.ingest("nope", {"k": 1}, time=0.1)
        with pytest.raises(GraphError, match="'nope2'"):
            engine.inject_punctuation("nope2", 1.0)
        assert engine.ingested == 0
        engine.ingest("fast", {"k": 1, "value": 0}, time=0.2)
        engine.wakeup()  # nothing refused was staged
    finally:
        engine.close(flush=False)


def test_a_refused_call_leaves_the_facade_log_unchanged(tmp_path):
    engine = elastic(tmp_path)
    feed(engine, keyed_feeds()[:CHUNK * 2], [])
    log = tmp_path / "facade" / "wal.log"
    before = log.read_bytes()
    history = engine.journal.history
    logged, retained = history.ingests, list(history.records)
    with pytest.raises(GraphError):
        engine.ingest("nope", {"k": 1}, time=9.0)
    with pytest.raises(GraphError):
        engine.inject_punctuation("nope", 9.0)
    assert history.ingests == logged and history.records == retained
    engine.wakeup()
    after = WriteAheadLog(log).replay()
    assert log.read_bytes().startswith(before)
    assert all(rec.get("source") != "nope" for rec in after)
    engine.close(flush=False)
    assert elastic(tmp_path).recover().total_ingests == CHUNK * 2


def ordered_graph() -> QueryGraph:
    """Two in-order external sources into a keyed window join."""
    graph = QueryGraph("ordered-join")
    fast = graph.add_source("fast", TimestampKind.EXTERNAL)
    slow = graph.add_source("slow", TimestampKind.EXTERNAL)
    join = graph.add(WindowJoin("join", WindowSpec.time(4.0), key="k"))
    sink = graph.add_sink("sink")
    graph.connect(fast, join)
    graph.connect(slow, join)
    graph.connect(join, sink)
    return graph


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_a_cross_shard_regression_is_refused_at_the_facade(tmp_path,
                                                           backend):
    """ts 3 after ts 5 on an in-order external source is refused as the
    single engine refuses it, with its fields, although the two rows route
    to different shards; nothing of the refused row is logged or kept."""
    engine = ElasticShardedEngine(ordered_graph, shards=2, key="k",
                                  backend=backend, state_dir=tmp_path,
                                  checkpoint_every=4)
    try:
        first, second = (next(k for k in range(64)
                              if engine.shard_for({"k": k}) == shard)
                         for shard in (0, 1))
        engine.ingest("fast", {"k": first, "value": 0}, time=0.5, ts=5.0)
        engine.ingest("slow", {"k": second, "value": 0}, time=0.5, ts=1.0)
        engine.wakeup()
        engine.ingest("fast", {"k": first, "value": 1}, time=0.6, ts=5.0)
        log = tmp_path / "facade" / "wal.log"
        before = log.read_bytes()
        with pytest.raises(TimestampError) as refused:
            engine.ingest("fast", {"k": second, "value": 2}, time=0.7,
                          ts=3.0)
        assert engine.ingested == 3 and engine.journal.history.ingests == 3
        engine.wakeup()
        after = WriteAheadLog(log).replay()
        assert log.read_bytes().startswith(before)
        assert all(rec.get("ts") != 3.0 for rec in after)
    finally:
        engine.close(flush=False)

    graph = ordered_graph()
    ExecutionEngine(graph, VirtualClock(), cost_model=None)
    graph["fast"].ingest({"k": first, "value": 0}, now=0.5, ts=5.0)
    with pytest.raises(TimestampError) as expected:
        graph["fast"].ingest({"k": second, "value": 2}, now=0.7, ts=3.0)
    assert refused.value.fields == expected.value.fields
    assert str(refused.value) == str(expected.value)


# --------------------------------------------------------------------- #
# The CURRENT manifest: durable, and refused when bad


@pytest.mark.parametrize("text", ["", '{"shards": 2}', "[1, 2]"],
                         ids=["empty", "no-epoch", "not-an-object"])
def test_a_bad_manifest_is_refused(tmp_path, text):
    (tmp_path / "CURRENT").write_text(text)
    with pytest.raises(RecoveryError) as caught:
        elastic(tmp_path)
    assert caught.value.fields["path"] == str(tmp_path / "CURRENT")


def test_a_reshard_fsyncs_the_manifest_and_its_directory(tmp_path,
                                                         monkeypatch):
    engine = elastic(tmp_path)
    feed(engine, keyed_feeds()[:CHUNK * 4], [])
    synced = set()
    real_fsync = os.fsync

    def fsync(fd):
        stat = os.fstat(fd)
        synced.add((stat.st_dev, stat.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    engine.reshard(SHARDS + 1)
    monkeypatch.undo()
    engine.close()
    for path in (tmp_path / "CURRENT", tmp_path):  # CURRENT was CURRENT.tmp
        stat = path.stat()
        assert (stat.st_dev, stat.st_ino) in synced, path
    assert json.loads((tmp_path / "CURRENT").read_text()) == {
        "epoch": 1, "shards": SHARDS + 1}
