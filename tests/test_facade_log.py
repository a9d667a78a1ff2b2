"""The facade's write-ahead log is a sharded run's only input log.

DESIGN.md §4g: a durable ``ShardedEngine`` (fixed P or elastic) writes one
group frame per wake-up before dispatch and one ``marks`` record before the
merge releases anything; its shards keep checkpoints only.  The durability
point is therefore the frame, not a shard: a crash after the frame is on
disk and before any shard applied it re-dispatches that wake-up, and a frame
torn mid-write drops its whole wake-up.  Both are held to exactly-once here,
on both facades, beside the layout (no shard WAL, at most two frames per
wake-up), the refusal of unknown source names, and the ``CURRENT`` manifest.
Shard checkpoints are cut by the facade at its logged marks, so a shard
failing inside a wake-up and a crash inside a checkpoint lose no row.
"""

from __future__ import annotations

import json
import os

import pytest

from oracle import _assert_same, _canonical

from repro.core.errors import GraphError, RecoveryError
from repro.faults import SimulatedCrash
from repro.recovery import CheckpointStore, WriteAheadLog
from repro.shard import ElasticShardedEngine, ShardedEngine

from test_sharded_oracle import join_graph, keyed_feeds
from test_sharded_recovery import CHUNK, SHARDS, finish, reference_run

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
    history = list(engine.journal.history)
    with pytest.raises(GraphError):
        engine.ingest("nope", {"k": 1}, time=9.0)
    with pytest.raises(GraphError):
        engine.inject_punctuation("nope", 9.0)
    assert engine.journal.history == history
    engine.wakeup()
    after = WriteAheadLog(log).replay()
    assert log.read_bytes().startswith(before)
    assert all(rec.get("source") != "nope" for rec in after)
    engine.close(flush=False)
    assert elastic(tmp_path).recover().total_ingests == CHUNK * 2


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
