"""A sharded checkpoint is captured on its wake-up and written after it.

DESIGN.md §4g: on the ``checkpoint_every`` cadence every shard captures
its image's bytes at the checkpoint wake-up and writes no file there;
shard *i* writes its image inside its (*i* + 1)-th apply from it, the
facade saves its own image on the wake-up after the last shard write, and
the ``cut`` record of the checkpoint is staged only once every shard
image of it is on disk.  Held here:

* the spread itself: no file on the checkpoint wake-up, at most one on
  any other, every image of a checkpoint at position *p* on disk by
  wake-up *p* + P + 1, the ``cut`` in a frame after the last of them;
* a crash inside that write window — a raise after the capture and
  before the last write, or a write raising inside a later apply — is
  exactly-once, each shard replays only the suffix past the image it
  has, and recovery reads at most ``checkpoint_every`` + P + 1 wake-ups
  past the newest complete checkpoint;
* an orderly ``close`` writes the pending images, so a recovery after it
  replays what it would had the images been written at the capture;
* the facade's image owns its values: what later wake-ups, checkpoints
  and a reshard do leaves its bytes as they were when it was built.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from pathlib import Path

import pytest

from oracle import _assert_same, _canonical

from repro.faults import SimulatedCrash
from repro.recovery import CheckpointStore, WriteAheadLog
from repro.shard import ElasticShardedEngine, ShardedEngine
from repro.shard.backends import ShardError

from test_join_index import _merge, keyed_stream
from test_sharded_oracle import join_graph, keyed_feeds
from test_sharded_recovery import (CHUNK, facade_images, reference_run,
                                   watch_recovery)

#: Shards and cadence of the crash cases: the write window of the
#: checkpoint at wake-up 8 is wake-ups 9-11 (shards 0-2) and 12 (the
#: facade image), before the next checkpoint.
SHARDS = 3
EVERY = 4
WINDOW = 8


def feed(engine, feeds, released, *, skips=None, after=None):
    """Chunked feed loop keeping what it released in ``released`` even
    when a wake-up raises; ``after(position)`` runs after each wake-up."""
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
            if after is not None:
                after(engine.wakeups)
    return now


def finish(engine, released, now):
    for name in ("fast", "slow"):
        engine.inject_punctuation(name, now + 1.0, origin=f"eos:{name}")
    released.extend(engine.wakeup())
    released.extend(engine.close(flush=True))
    return rows(released)


def rows(released):
    return [(sink, ts, payload) for ts, _, _, sink, payload in released]


def skips_of(report):
    return {(shard, source): count
            for shard, counts in report.ingests_by_shard.items()
            for source, count in counts.items()}


def shard_dirs(root: Path) -> list[Path]:
    """Each shard's checkpoint directory, by index (either facade)."""
    base = root / "epoch-0000" if (root / "epoch-0000").is_dir() else root
    return [base / f"shard-{index:02d}" for index in range(SHARDS)]


def image_positions(directory: Path) -> set[int]:
    store = CheckpointStore(directory)
    return {store.load(number)["position"] for number in store.numbers()}


def logged_wakeups(root: Path) -> int:
    return sum(rec["kind"] == "wakeup" for rec in
               WriteAheadLog(root / "facade" / "wal.log").replay())


# --------------------------------------------------------------------- #
# The spread


def test_a_checkpoint_wakeup_writes_no_file_and_every_other_at_most_one(
        tmp_path, monkeypatch):
    """P = 3, a checkpoint every 8 wake-ups: the checkpoint wake-up renames
    no ``*.ckpt`` file into place and no wake-up renames more than one;
    shard *i*'s image of *p* lands on wake-up *p* + *i* + 1, the facade's
    on *p* + P + 1, and the ``cut`` for *p* sits in a frame written after
    every one of them."""
    shards, every = 3, 8
    engine = ShardedEngine(join_graph(), shards=shards, key="k",
                           backend="serial", state_dir=tmp_path,
                           checkpoint_every=every)
    wal = engine.journal.wal
    renamed: list[tuple[int, Path, int]] = []  # (wake-up, file, log end)
    replace = os.replace

    def counted(src, dst):
        replace(src, dst)
        if str(dst).endswith(".ckpt"):
            renamed.append((engine.wakeups + 1, Path(dst), wal.tell()[0]))

    monkeypatch.setattr(os, "replace", counted)
    feeds = _merge(
        keyed_stream("fast", rate_period=0.05, count=480, seed=3,
                     cardinality=16),
        keyed_stream("slow", rate_period=0.6, count=40, seed=5,
                     cardinality=16, start=0.3))
    feed(engine, feeds, [])
    last = engine.wakeups
    drive = list(renamed)  # not the close's
    engine.close(flush=False)
    monkeypatch.undo()
    assert last >= 3 * every

    per_wakeup = {}
    for wakeup, _, _ in drive:
        per_wakeup[wakeup] = per_wakeup.get(wakeup, 0) + 1
    assert max(per_wakeup.values()) == 1
    assert not [w for w in per_wakeup if w % every == 0]

    # Where each image of each checkpoint landed.
    landed: dict[int, dict[str, tuple[int, int]]] = {}
    for wakeup, path, end in drive:
        position = CheckpointStore(path.parent).load(
            int(path.stem.split("-")[1]))["position"]
        landed.setdefault(position, {})[path.parent.name] = (wakeup, end)
    cuts = {}
    start = 0
    for end, members in WriteAheadLog._frames(
            (tmp_path / "facade" / "wal.log").read_bytes()):
        for rec in members:
            if rec["kind"] == "cut":
                cuts[rec["position"]] = start
        start = end
    done = [p for p in range(every, last + 1, every)
            if p + shards + 1 <= last]
    assert len(done) >= 2
    for p in done:
        assert landed[p] == {
            **{f"shard-{i:02d}": (p + i + 1, landed[p][f"shard-{i:02d}"][1])
               for i in range(shards)},
            "facade": (p + shards + 1, landed[p]["facade"][1])}
        assert cuts[p] >= max(end for _, end in landed[p].values())


# --------------------------------------------------------------------- #
# A crash inside the write window


def fixed(root, backend):
    return ShardedEngine(join_graph(), shards=SHARDS, key="k",
                         backend=backend, state_dir=root,
                         checkpoint_every=EVERY)


def elastic(root, backend):
    return ElasticShardedEngine(join_graph(), shards=SHARDS, key="k",
                                backend=backend, state_dir=root,
                                checkpoint_every=EVERY)


def guard_writes(monkeypatch, root: Path) -> None:
    """Once ``root/crashed`` exists no checkpoint write reaches the disk,
    in this process or a forked shard worker: the process image is gone.
    While ``root/armed`` exists, shard 2's next write is the one that
    crashes."""
    write = CheckpointStore.write

    def guarded(self, blob):
        crashed = root / "crashed"
        if not crashed.exists() and (root / "armed").exists() \
                and self.directory.name == f"shard-{SHARDS - 1:02d}":
            crashed.touch()
        if crashed.exists():
            raise SimulatedCrash("no write after the crash", time=0.0,
                                 source="checkpoint")
        return write(self, blob)

    monkeypatch.setattr(CheckpointStore, "write", guarded)


def crash_in_window(make, root, backend, case):
    """Drive until the crash inside the window of the checkpoint at
    wake-up 8, then stop the facade as a crashed process would (no pending
    image reaches the disk).  ``before-last-write``: wake-up 10's frame is
    logged and the crash comes before any shard applies it (shard 0 has
    written its image of 8; shards 1 and 2 have not).
    ``write-raises``: shard 2's write of its image of 8 raises inside its
    apply of wake-up 11 (shards 0 and 1 have written theirs).  Returns
    the records the crashed facade released or held."""
    engine = make(root, backend)
    if case == "before-last-write":
        apply_all = engine.backend.apply_all

        def crashing(commands):
            if engine.wakeups + 1 == WINDOW + 2:
                (root / "crashed").touch()
                raise SimulatedCrash("crash before the apply", time=0.0,
                                     source="facade")
            return apply_all(commands)

        engine.backend.apply_all = crashing
        after = None
    else:
        def after(position):
            if position == WINDOW:  # the capture is done: arm the write
                (root / "armed").touch()
    released: list = []
    with pytest.raises((SimulatedCrash, ShardError)):
        feed(engine, keyed_feeds(), released, after=after)
    released += engine.merge.flush()
    with contextlib.suppress(SimulatedCrash, ShardError):
        engine.close(flush=False)
    for marker in ("crashed", "armed"):
        (root / marker).unlink(missing_ok=True)
    return rows(released)


@pytest.mark.parametrize("case", ["before-last-write", "write-raises"])
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("make", [fixed, elastic], ids=["fixed", "elastic"])
def test_a_crash_inside_the_write_window_is_exactly_once(
        tmp_path, monkeypatch, make, backend, case):
    guard_writes(monkeypatch, tmp_path)
    pre = crash_in_window(make, tmp_path, backend, case)
    wrote = {"before-last-write": 1, "write-raises": 2}[case]
    dirs = shard_dirs(tmp_path)
    assert [WINDOW in image_positions(d) for d in dirs] == \
        [i < wrote for i in range(SHARDS)]
    # The newest complete checkpoint: the facade's newest image, every
    # shard holding an image of its point; the window's has no cut.
    complete = max(facade_images(tmp_path))
    assert complete == WINDOW - EVERY
    assert all(complete in image_positions(d) for d in dirs)
    cuts = [rec["position"] for rec in
            WriteAheadLog(tmp_path / "facade" / "wal.log").replay()
            if rec["kind"] == "cut"]
    assert WINDOW not in cuts
    logged = logged_wakeups(tmp_path)
    assert logged - complete <= EVERY + SHARDS + 1

    engine = make(tmp_path, backend)
    restored, sent = watch_recovery(engine)
    report = engine.recover()
    # Each shard restored the newest image it has and is sent only the
    # logged wake-ups past it.
    assert restored == {i: WINDOW if i < wrote else complete
                        for i in range(SHARDS)}
    for shard, commands in sent.items():
        assert [position for *_, position in commands] == \
            list(range(restored[shard] + 1, logged + 1))
    assert [r.wakeups_replayed for r in report.reports] == \
        [logged - restored[i] for i in range(SHARDS)]
    released: list = []
    now = feed(engine, keyed_feeds(), released, skips=skips_of(report))
    _assert_same(_canonical(reference_run(keyed_feeds())),
                 _canonical(pre + finish(engine, released, now)),
                 f"a crash inside the write window ({case}) is not "
                 f"exactly-once")


# --------------------------------------------------------------------- #
# An orderly close writes what is pending


#: ``(read_records, wakeups_replayed per shard)`` of a recovery after
#: ``close(flush=False)`` on the wake-up of the key, as they were when
#: every shard image was written on its checkpoint's own wake-up.
WRITTEN_AT_CAPTURE = {
    "fixed": {8: (73, [0, 0, 0]), 9: (19, [1, 1, 1]), 10: (37, [2, 2, 2]),
              11: (55, [3, 3, 3])},
    "elastic": {8: (145, [0, 0, 0]), 9: (146, [1, 1, 1]),
                10: (164, [2, 2, 2]), 11: (182, [3, 3, 3])},
}


@pytest.mark.parametrize("stop", [8, 9, 10, 11])
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("make", [fixed, elastic], ids=["fixed", "elastic"])
def test_an_orderly_close_writes_the_pending_images(tmp_path, make, backend,
                                                    stop):
    engine = make(tmp_path, backend)
    feed(engine, keyed_feeds()[:CHUNK * stop], [])
    engine.close(flush=False)
    assert all(WINDOW in image_positions(d) for d in shard_dirs(tmp_path))
    assert max(facade_images(tmp_path)) == (WINDOW if stop > WINDOW
                                            else WINDOW - EVERY)
    engine = make(tmp_path, backend)
    try:
        report = engine.recover()
    finally:
        engine.close(flush=False)
    read, replayed = WRITTEN_AT_CAPTURE[make.__name__][stop]
    # Past wake-up 8 the log lacks one record it held then: the cut of the
    # checkpoint at 8, staged after the last shard write (wake-up 11) and
    # never written, since a close writes no staged record.
    assert report.read_records == read - (stop > WINDOW)
    assert [r.wakeups_replayed for r in report.reports] == replayed
    assert not report.any_fallback


# --------------------------------------------------------------------- #
# The facade image owns its values


def test_the_facade_image_owns_its_values(tmp_path):
    """The image built on the wake-up after a checkpoint waits there for
    the shard writes; later ingests, a checkpoint and a reshard change the
    facade's tally and its history's carried punctuation, not the image."""
    engine = ElasticShardedEngine(join_graph(), shards=2, key="k",
                                  backend="serial", state_dir=tmp_path,
                                  checkpoint_every=EVERY)
    feeds = keyed_feeds()
    images = []

    def punctuate_and_take(position):
        for name in ("fast", "slow"):
            engine.inject_punctuation(name, engine._drive_now,
                                      origin=f"hb:{name}", periodic=True)
        if position == WINDOW + 1:
            images.append(engine._image_doc)

    feed(engine, feeds[:CHUNK * (WINDOW + 1)], [], after=punctuate_and_take)
    [image] = images
    assert image is not None and image["position"] == WINDOW
    taken = pickle.dumps(image)
    tally = dict(image["ingests"])
    carried = list(image["history"]["carried"])
    feed(engine, feeds[CHUNK * (WINDOW + 1):], [], after=punctuate_and_take)
    engine.checkpoint()
    engine.reshard(3)
    history = engine.journal.history
    assert dict(engine._tally) != tally
    assert history.carried != carried
    assert pickle.dumps(image) == taken
    engine.close(flush=False)
