"""Sharded durability keeps only the live suffix (DESIGN.md §4g, §4k).

The elastic facade's command history is trimmed to the live suffix of the
shards' state floor at every checkpoint cut, reshard and recovery, and a
recovery read walks the log only from the facade's newest image (or from
where the history's live suffix begins, when lower) and keeps only the
records past that image.  Held here:

* the history, the records the read kept and the records it walked stay
  flat as the same plan runs four times as long;
* a log written before ``cut`` records existed recovers and reshards as
  it always did, keeping every record, and so does a root on every rung
  of the facade image ladder;
* a shard whose checkpoint images are all gone recovers from a second
  walk of the log;
* a floor that later falls below an earlier trim still rebuilds the state
  a full replay builds;
* ``summary()`` shows what the facade holds.
"""

from __future__ import annotations

import pytest

from oracle import _assert_same, _canonical

from repro.recovery import WriteAheadLog
from repro.recovery.wal import CommandHistory
from repro.shard import ElasticShardedEngine, ShardedEngine
from repro.shard.backends import EngineShard
from repro.shard.elastic import ReshardCoordinator

from test_bounded_replay import (BATCH, SPAN, _chunks, disordered_feeds,
                                 full_replay, long_feeds, reorder_join_graph,
                                 reshard_states)
from test_join_index import _merge, keyed_stream
from test_recovery import count_walks
from test_sharded_oracle import join_graph, keyed_feeds
from test_sharded_recovery import (CHUNK, SHARDS, corrupt_newest,
                                   facade_images, feed_range, finish,
                                   ladder, reference_run, sharded_engine,
                                   walk_start)


def durable_elastic(root, build=None, backend="serial"):
    return ElasticShardedEngine(build or join_graph(), shards=2, key="k",
                                state_dir=root, checkpoint_every=4,
                                batch_size=BATCH, backend=backend)


def drive(engine, feeds, *, reshards=None, skips=None, heartbeat=False):
    """Chunked feed loop with reshards at chunk numbers and, with
    ``heartbeat``, a punctuation per source at each chunk's last arrival;
    returns what was released and the last fed time."""
    released = []
    now = 0.0
    for chunk_no, group in enumerate(_chunks(feeds), 1):
        for feed in group:
            now = max(now, feed.time)
            key = (engine.shard_for(feed.payload), feed.source)
            if skips and skips.get(key, 0) > 0:
                skips[key] -= 1
                continue
            engine.ingest(feed.source, feed.payload, time=feed.time,
                          ts=feed.external_ts)
        if heartbeat:
            for name in ("fast", "slow"):
                engine.inject_punctuation(name, group[-1].time,
                                          origin=f"hb:{name}", periodic=True)
        released.extend(engine.wakeup())
        if reshards and chunk_no in reshards:
            released.extend(engine.reshard(reshards[chunk_no]).released)
    return released, now


def skips_of(report) -> dict:
    return {(shard, source): count
            for shard, counts in report.ingests_by_shard.items()
            for source, count in counts.items()}


# --------------------------------------------------------------------- #
# Uptime: what the facade holds does not grow with the history


def uptime_feeds(scale: int):
    """The same plan and window, ``scale`` times as long: a whole number
    of checkpoint intervals, so both drives end in the same phase.  The
    drive punctuates every chunk, so every shard's windows expire with
    the stream: a shard whose keys see no ``slow`` row for a while would
    otherwise hold its floor back by seconds, and the retained suffix
    would vary with the key draw rather than with the history."""
    feeds = _merge(
        keyed_stream("fast", rate_period=0.05, count=480 * scale, seed=3,
                     cardinality=16),
        keyed_stream("slow", rate_period=0.6, count=40 * scale, seed=5,
                     cardinality=16, start=0.3))
    whole = len(feeds) // (CHUNK * 4) * CHUNK * 4
    return feeds[:whole]


def held(root, scale: int) -> dict:
    feeds = uptime_feeds(scale)
    engine = durable_elastic(root)
    drive(engine, feeds, reshards={len(feeds) // CHUNK // 2: 3},
          heartbeat=True)
    summary = engine.summary()
    engine.close(flush=False)
    logged = len(WriteAheadLog(root / "facade" / "wal.log").replay())
    engine = durable_elastic(root)
    report = engine.recover()
    recovered = engine.summary()
    engine.close(flush=False)
    assert summary["logged_ingests"] == len(feeds)
    assert report.total_ingests == len(feeds)
    assert recovered["history_records"] == summary["history_records"]
    return {"history": summary["history_records"],
            "kept": report.kept_records, "read": report.read_records,
            "logged": logged}


def test_retained_history_and_recovery_read_are_flat_in_uptime(tmp_path):
    short, long = held(tmp_path / "x1", 1), held(tmp_path / "x4", 4)
    assert long["logged"] > 3.5 * short["logged"]
    for count in ("history", "kept", "read"):
        assert 0 < short[count] < short["logged"] / 2
        assert abs(long[count] - short[count]) <= 0.1 * short[count], \
            (count, short, long)


# --------------------------------------------------------------------- #
# A log without cut records: recovered and resharded as before


def strip_cuts(log) -> int:
    """Rewrite ``log`` as the facade wrote it before ``cut`` records:
    the same frames without them, and no facade image beside them (those
    came later still).  Returns the records removed."""
    frames = [members for _, members in
              WriteAheadLog._frames(log.read_bytes())]
    for image in log.parent.glob("*.ckpt"):
        image.unlink()
    log.unlink()
    wal = WriteAheadLog(log)
    removed = 0
    for members in frames:
        kept = [dict(rec) for rec in members if rec["kind"] != "cut"]
        removed += len(members) - len(kept)
        if len(members) == 1 and members[0]["kind"] == "marks":
            wal.append(kept[0])  # a plain frame
        elif kept:
            wal.append(kept)
    wal.close()
    return removed


def crash_recover_reshard(root, feeds, *, crash_chunk, reshards, rung,
                          backend="serial", monkeypatch=None):
    """Drive to ``crash_chunk`` and crash-stop, leave the root on ``rung``
    of the facade image ladder, recover and drive on to the end with a
    reshard.  ``rung`` is one of ``old-log`` (no ``cut`` record and no
    image), ``no-images`` (cut records, no image: the parent format),
    ``images``, ``corrupt-image`` (the newest facade image),
    ``shard-image`` (shard 0's newest image, whose suffix then takes a
    second walk from the older facade image's offset) and
    ``crash-before-image`` (a crash right after a checkpoint wake-up:
    the shard images are on disk, the facade image the next wake-up
    would have saved is not)."""
    engine = durable_elastic(root, backend=backend)
    released, _ = drive(engine, feeds[:crash_chunk * CHUNK])
    pre = released + engine.merge.flush()
    engine.close(flush=False)
    log = root / "facade" / "wal.log"
    images = facade_images(root)
    # A checkpoint's image is saved by the wake-up after it.
    assert max(images) == (crash_chunk - 1) // 4 * 4
    if rung == "old-log":
        assert strip_cuts(log) > 0
    elif rung == "no-images":
        for image in log.parent.glob("*.ckpt"):
            image.unlink()
    elif rung == "corrupt-image":
        corrupt_newest(log.parent)
    elif rung == "shard-image":
        corrupt_newest(root / "epoch-0000" / "shard-00")
    records = [rec for rec in WriteAheadLog(log).replay()
               if rec["kind"] not in ("marks", "cut")]
    size = log.stat().st_size
    walks = count_walks(monkeypatch) if monkeypatch is not None else None
    engine = durable_elastic(root, backend=backend)
    report = engine.recover()
    if walks is not None:
        monkeypatch.undo()
        last = max(images) - 4 * (rung == "corrupt-image")
        start = walk_start(images[last])
        if rung == "no-images":
            assert walks == [size]
        elif rung == "shard-image":  # the read, then shard 0's suffix
            assert walks == [size - start, size - images[last - 4]["offset"]]
        else:
            assert walks == [size - start]
    history = engine.journal.history
    retained = (report.kept_records, len(history.records), history.base)
    skips = skips_of(report)
    released, now = drive(engine, feeds, reshards=reshards, skips=skips)
    post = finish(engine, released, now)
    combined = [(s, ts, p) for ts, _, _, s, p in pre] + post
    [reshard] = engine.reshards
    figures = reshard.as_dict()
    del figures["pause_seconds"]
    return _canonical(combined), figures, retained, len(records)


@ladder(["serial", "process"], ["images", "corrupt-image", "shard-image",
                                "crash-before-image", "no-images"])
def test_a_log_without_cut_records_recovers_and_reshards_as_before(
        tmp_path, monkeypatch, rung, backend):
    """A log of the format before ``cut`` records (no image either)
    recovers and reshards as it always did, keeping every record; a root
    on any rung of the facade image ladder — images intact, the newest
    facade image corrupt, one shard's newest image corrupt, a crash
    between the shard images and the facade's, or no facade image at all
    — recovers and reshards the same, from the log point that rung
    allows."""
    feeds = long_feeds()
    reshards = {20: 3}
    # Past the frame holding the last checkpoint's cut (wake-up 12's,
    # staged once both shards wrote their images, on wake-ups 13 and 14).
    crash_chunk = 16 if rung == "crash-before-image" else 15
    reference = ElasticShardedEngine(join_graph(), shards=2, key="k",
                                     batch_size=BATCH)
    released, now = drive(reference, feeds, reshards=reshards)
    expected = _canonical(finish(reference, released, now))
    old, old_figures, old_held, records = crash_recover_reshard(
        tmp_path / "old", feeds, crash_chunk=crash_chunk, reshards=reshards,
        rung="old-log", backend=backend)
    new, new_figures, new_held, _ = crash_recover_reshard(
        tmp_path / "new", feeds, crash_chunk=crash_chunk, reshards=reshards,
        rung=rung, backend=backend, monkeypatch=monkeypatch)
    _assert_same(expected, old, "a parent-format log recovered differently")
    _assert_same(expected, new, f"a root on rung {rung} recovered "
                 "differently")
    assert old_figures == new_figures
    assert old_figures["replayed_ingests"] < old_figures["logged_ingests"]
    # Without cuts nothing is dropped; with them, the history is bounded,
    # and with an image the read keeps only what lies past it.
    assert old_held == (records, records, 0)
    assert new_held[1] < records and new_held[2] > 0
    if rung == "no-images":
        assert new_held[0] == records
    else:
        assert new_held[0] < records


# --------------------------------------------------------------------- #
# Every checkpoint image of a shard gone: the slow path


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_a_shard_without_checkpoints_recovers_through_a_second_walk(
        tmp_path, monkeypatch, backend):
    feeds = keyed_feeds()
    crash_index = CHUNK * 10
    engine = sharded_engine(tmp_path, backend=backend)
    released, _ = feed_range(engine, feeds, 0, crash_index)
    victim = next(s.shard for s in engine.summaries() if s.ingested > 0)
    pre = released + engine.merge.flush()
    engine.close(flush=False)
    images = sorted((tmp_path / f"shard-{victim:02d}").glob("*.ckpt"))
    assert len(images) == 2
    for image in images:
        image.unlink()

    walks = count_walks(monkeypatch)
    engine = sharded_engine(tmp_path, backend=backend)
    report = engine.recover()
    assert len(walks) == 2  # the read, then the victim's whole log
    assert report.reports[victim].checkpoint_number == 0
    assert report.reports[victim].wakeups_replayed == crash_index // CHUNK
    assert report.kept_records < sum(
        1 for rec in WriteAheadLog(tmp_path / "facade" / "wal.log").replay()
        if rec["kind"] not in ("marks", "cut"))
    released, now = feed_range(engine, feeds, 0, len(feeds),
                               skips=skips_of(report))
    post = finish(engine, released, now)
    combined = [(s, ts, p) for ts, _, _, s, p in pre] + post
    _assert_same(_canonical(reference_run(feeds)), _canonical(combined),
                 "a shard with no checkpoint left is not exactly-once")


# --------------------------------------------------------------------- #
# A floor below an earlier trim


def test_a_floor_below_an_earlier_trim_still_rebuilds_full_replay_state(
        tmp_path, monkeypatch):
    """Checkpoint cuts trim the history by the true floors of an
    out-of-order plan; then the reshard's snapshot reports a floor two
    window spans lower — still a sound floor, now below those trims.  The
    new shards' state must equal a full replay's (``_shard_view``), and so
    must the output."""
    feeds = disordered_feeds()
    schedule = {20: 4}
    trims: list[float] = []
    lowered: list[bool] = []
    true_floor = EngineShard.state_floor

    def state_floor(self) -> float:
        floor = true_floor(self)
        if lowered:
            return floor - 2 * SPAN
        trims.append(floor)
        return floor

    def hook(self, phase: str) -> None:
        if phase == "snapshot":
            lowered.append(True)
        elif phase == "restore":
            lowered.clear()
        real_hook(self, phase)

    real_hook = ReshardCoordinator._hook
    with monkeypatch.context() as patch:
        patch.setattr(EngineShard, "state_floor", state_floor)
        patch.setattr(ReshardCoordinator, "_hook", hook)
        suffix, output = reshard_states(tmp_path / "suffix",
                                        reorder_join_graph, feeds, schedule)
    with monkeypatch.context() as patch:
        full_replay(patch)
        full, reference = reshard_states(tmp_path / "full",
                                         reorder_join_graph, feeds, schedule)
    [(cut, cut_views)] = suffix
    [(whole, whole_views)] = full
    assert cut.floor < max(trims)
    assert cut.replayed_ingests < whole.replayed_ingests
    assert (cut.logged_ingests, cut.migrated_keys, cut.total_keys) == (
        whole.logged_ingests, whole.migrated_keys, whole.total_keys)
    assert cut_views == whole_views
    _assert_same(reference, output, "a lowered floor changed the output")


# --------------------------------------------------------------------- #
# summary(): what the facade holds


def test_a_floor_prunes_only_the_segments_committed_before_it():
    """A state floor speaks for the state the committed segments built: a
    ``+inf`` floor (every window empty, nothing buffered) drops them all,
    but not a segment committed after it, whose rows that state never
    saw."""
    history = CommandHistory()

    def segment(ts: float) -> None:
        history.records.append({"kind": "ingest", "source": "L", "ts": ts})
        history.commit({"kind": "wakeup", "now": ts})

    segment(1.0)
    segment(2.0)
    history.trim(float("inf"))
    segment(3.0)
    segment(4.0)
    history.prune()
    assert history.base == 2 and history.dropped == 2
    assert [top for _, _, top, *_ in history.segments] == [3.0, 4.0]


def test_summary_shows_held_rows_and_retained_history(tmp_path):
    feeds = long_feeds()
    engine = durable_elastic(tmp_path)
    drive(engine, feeds)
    summary = engine.summary()
    engine.close(flush=False)
    assert summary["held_peak"] >= summary["pending"] > 0
    assert summary["logged_ingests"] == len(feeds)
    logged = sum(1 for rec in WriteAheadLog(
        tmp_path / "facade" / "wal.log").replay()
        if rec["kind"] not in ("marks", "cut"))
    assert 0 < summary["history_records"] < logged / 2

    fixed = ShardedEngine(join_graph(), shards=SHARDS, key="k")
    released, _ = feed_range(fixed, keyed_feeds(), 0, CHUNK * 4)
    summary = fixed.summary()
    fixed.close()
    assert summary["held_peak"] >= summary["pending"]
    assert summary["held_peak"] > 0
    assert "history_records" not in summary
