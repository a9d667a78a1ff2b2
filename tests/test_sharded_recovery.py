"""The sharded crash + chaos matrix.

Composes the PR-2 fault plans and the PR-5 crash-recovery machinery with
the sharded engine:

* **chaos differential** — a seeded fault plan mutilates the feed schedule
  identically whether the consumer is sharded or not, so faulted sharded
  output must still equal faulted single-engine output;
* **full crash** — kill the whole facade mid-run, recover every shard from
  its checkpoint + WAL, re-feed the global schedule using the recovery
  report's per-(shard, source) skip counts, and demand exactly-once
  delivery;
* **crash during shuffle** — tuples routed into the facade's exchange but
  not yet applied by any shard are *not* WAL-logged; deterministic routing
  re-routes them identically on re-feed, so they are delivered exactly
  once anyway;
* **single-shard crash** — one shard loses its in-memory state while the
  others keep running (``crash_shard``);
* **corrupted per-shard checkpoint** — recovery falls back past a
  corrupted latest checkpoint using the longer WAL suffix, whichever rung
  of the facade image ladder the log read stands on;
* **suffix only** — on every backend, each shard is sent only the logged
  wake-ups past the position it restored.

Delivered records are compared canonicalized: the merged stream is
timestamp-ordered, but equal-timestamp ties are sequenced by merge
insertion order, which legitimately differs between a crashed-and-resumed
run and an uninterrupted one.
"""

from __future__ import annotations

import pytest

from oracle import Feed, ShardedDifferentialOracle, _assert_same, _canonical

from repro.faults import DropTuples, DuplicateTuples, FaultPlan, SourceOutage
from repro.recovery import CheckpointStore
from repro.shard import ShardedEngine

from test_recovery import count_walks
from test_sharded_oracle import join_graph, keyed_feeds

CHUNK = 16
SHARDS = 4


# --------------------------------------------------------------------- #
# Chaos: fault plans x sharding


PLANS = {
    "outage": lambda: FaultPlan(
        [SourceOutage("fast", start=2.0, duration=3.0)], seed=3),
    "drop": lambda: FaultPlan([DropTuples("slow", 0.3)], seed=3),
    "duplicate": lambda: FaultPlan([DuplicateTuples("fast", 0.2)], seed=3),
    "composed": lambda: FaultPlan([
        SourceOutage("fast", start=2.0, duration=2.0),
        DropTuples("slow", 0.2),
        DuplicateTuples("fast", 0.2),
    ], seed=3),
}


@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_sharded_survives_fault_plans(plan_name):
    """The same seeded plan faults the same tuples whether the schedule
    feeds one engine or P — and the outputs must still agree."""
    plan = PLANS[plan_name]()
    faulted = plan.wrap_feeds(keyed_feeds())
    assert faulted and faulted != keyed_feeds()
    oracle = ShardedDifferentialOracle(join_graph(), faulted, key="k",
                                       chunk=CHUNK, punctuate_every=4)
    oracle.assert_sharded_equals_single((1, 2, 4), punctuate=True)


# --------------------------------------------------------------------- #
# Crash harness


def sharded_engine(state_dir, *, checkpoint_every=4, batch_size=1,
                   backend="serial"):
    return ShardedEngine(join_graph(), shards=SHARDS, key="k",
                         backend=backend, state_dir=state_dir,
                         checkpoint_every=checkpoint_every,
                         batch_size=batch_size)


BACKENDS = pytest.mark.parametrize("backend", ["serial", "thread", "process"])


def watch_recovery(engine):
    """Record, in the parent process, the position each shard restored
    and the replay commands each shard was handed: what ``replay_all``
    receives, on every backend (the process backend's caller runs shard
    0 itself, so its commands never cross a pipe)."""
    backend = engine.backend
    restored: dict[int, int] = {}
    sent: dict[int, list] = {}
    restore_all = backend.restore_all
    replay_all = backend.replay_all

    def restoring(args):
        result = restore_all(args)
        restored.update(enumerate(position for position, _ in result))
        return result

    def replaying(args):
        sent.update(enumerate(commands for commands, _ in args))
        return replay_all(args)

    backend.restore_all = restoring
    backend.replay_all = replaying
    return restored, sent


def assert_only_suffixes(restored, sent, *, at_most=None):
    """Every command a shard was sent lies past the position it restored,
    one per logged wake-up from there on."""
    assert sorted(sent) == sorted(restored) == list(range(SHARDS))
    for shard, commands in sent.items():
        positions = [position for *_, position in commands]
        start = restored[shard] + 1
        assert positions == list(range(start, start + len(positions)))
        if at_most is not None:
            assert len(positions) <= at_most


def feed_range(engine, feeds, lo, hi, *, skips=None):
    """Ingest ``feeds[lo:hi]`` chunked; honor per-(shard, source) skips.

    A skip entry says the shard's WAL already replayed that many ingests
    for that source: routing is deterministic, so decrementing the counter
    as the schedule re-routes drops exactly the already-applied prefix.
    Returns ``(released_records, last_fed_time)``.
    """
    released = []
    now = 0.0
    fed = 0
    for feed in feeds[lo:hi]:
        shard = engine.shard_for(feed.payload)
        if skips:
            key = (shard, feed.source)
            if skips.get(key, 0) > 0:
                skips[key] -= 1
                now = max(now, feed.time)
                continue
        engine.ingest(feed.source, feed.payload, time=feed.time,
                      ts=feed.external_ts)
        now = max(now, feed.time)
        fed += 1
        if fed % CHUNK == 0:
            released.extend(engine.wakeup())
    return released, now


def finish(engine, released, now, source_names=("fast", "slow")):
    """EOS + final wakeup + orderly close; records as (sink, ts, payload)."""
    for name in sorted(source_names):
        engine.inject_punctuation(name, now + 1.0, origin=f"eos:{name}")
    released.extend(engine.wakeup())
    released.extend(engine.close(flush=True))
    return [(sink, ts, payload) for ts, _, _, sink, payload in released]


def reference_run(feeds):
    """The uncrashed sharded run every crash scenario must reproduce."""
    engine = ShardedEngine(join_graph(), shards=SHARDS, key="k",
                           backend="serial")
    released, now = feed_range(engine, feeds, 0, len(feeds))
    return finish(engine, released, now)


def crash_and_recover(state_dir, feeds, crash_index, *,
                      corrupt_shard: int | None = None, batch_size: int = 1):
    """Drive to ``crash_index``, crash-stop, recover a fresh facade, and
    re-feed the whole schedule with the report's skip counts.

    Returns ``(combined_records, report)``.  Pre-crash records include the
    merge's still-gated buffer: merge state is volatile by design (DESIGN
    §4g) — the facade's downstream owns records the moment the per-shard
    sinks durably delivered them, and replay suppression never re-emits
    them, so the crash harness accounts them to the crashed run.
    """
    engine = sharded_engine(state_dir, batch_size=batch_size)
    released, _ = feed_range(engine, feeds, 0, crash_index)
    pre = released + engine.merge.flush()
    engine.close(flush=False)  # crash-stop: no EOS, nothing else flushed

    if corrupt_shard is not None:
        shard_dir = state_dir / f"shard-{corrupt_shard:02d}"
        checkpoints = sorted(shard_dir.glob("checkpoint-*.ckpt"))
        assert checkpoints, "corrupt_shard needs at least one checkpoint"
        blob = bytearray(checkpoints[-1].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        checkpoints[-1].write_bytes(bytes(blob))

    engine = sharded_engine(state_dir, batch_size=batch_size)
    report = engine.recover()
    skips = {(shard, source): count
             for shard, counts in report.ingests_by_shard.items()
             for source, count in counts.items()}
    released, now = feed_range(engine, feeds, 0, len(feeds), skips=skips)
    post = finish(engine, released, now)
    pre_records = [(sink, ts, payload)
                   for ts, _, _, sink, payload in pre]
    return pre_records + post, report


def assert_exactly_once(tmp_path, feeds, crash_index, **kwargs):
    reference = _canonical(reference_run(feeds))
    combined, report = crash_and_recover(tmp_path, feeds, crash_index,
                                         **kwargs)
    _assert_same(reference, _canonical(combined),
                 f"sharded recovery at feed {crash_index} is not "
                 f"exactly-once")
    assert reference
    return report


# --------------------------------------------------------------------- #
# The crash matrix


def test_full_crash_at_chunk_boundary_exactly_once(tmp_path):
    report = assert_exactly_once(tmp_path, keyed_feeds(), CHUNK * 7)
    # Everything fed before the crash had been applied and WAL-logged.
    assert report.total_ingests == CHUNK * 7
    assert len(report.reports) == SHARDS


def test_crash_during_shuffle_exactly_once(tmp_path):
    """Crash mid-chunk: the trailing feeds sat in the facade's exchange,
    unapplied and un-logged.  The WAL knows only the applied prefix, so
    the skip counts re-feed exactly the lost suffix."""
    crash_index = CHUNK * 7 + 9  # 9 tuples stranded in the shuffle
    report = assert_exactly_once(tmp_path, keyed_feeds(), crash_index)
    assert report.total_ingests == CHUNK * 7
    assert report.total_ingests < crash_index


def test_block_capture_crash_is_exactly_once_off_the_block_grid(tmp_path):
    """At ``batch_size=8`` shard sinks hand their output over a block at a
    time; the recovered shards here suppress 15, 3 and 18 outputs — none a
    multiple of the block size — and the run stays exactly-once."""
    report = assert_exactly_once(tmp_path, keyed_feeds(), CHUNK * 7,
                                 batch_size=8)
    counts = [n for r in report.reports for n in r.suppressed.values()]
    assert sorted(counts) == [3, 15, 18]


def test_early_crash_before_first_checkpoint(tmp_path):
    assert_exactly_once(tmp_path, keyed_feeds(), 3)


def facade_images(root) -> dict[int, dict]:
    """The facade images under ``root``, by the wake-up position they
    cover."""
    store = CheckpointStore(root / "facade")
    return {image["position"]: image
            for image in map(store.load, store.numbers())}


def walk_start(image) -> int:
    """Where a recovery read from ``image`` starts walking the log: its
    offset, or lower where the history's live suffix begins."""
    history = image["history"]
    if history is None or history["at"] is None:
        return image["offset"]
    return min(image["offset"], history["at"][0])


def corrupt_newest(directory) -> None:
    """Flip a byte in the middle of the newest checkpoint in ``directory``."""
    checkpoints = sorted(directory.glob("checkpoint-*.ckpt"))
    assert checkpoints
    blob = bytearray(checkpoints[-1].read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    checkpoints[-1].write_bytes(bytes(blob))


def ladder(backends, rungs):
    """``(backend, rung)`` parameters over the facade image ladder: the
    first rung keeps the bare backend id."""
    return pytest.mark.parametrize("backend,rung", [
        pytest.param(backend, rung,
                     id=backend if rung == rungs[0] else f"{rung}-{backend}")
        for rung in rungs for backend in backends])


@ladder(["serial", "thread", "process"],
        ["images", "corrupt-image", "crash-before-image", "no-images"])
def test_corrupted_shard_checkpoint_falls_back(tmp_path, monkeypatch,
                                               backend, rung):
    """One shard's latest checkpoint is corrupted on disk: that shard must
    fall back to an older checkpoint plus a longer replay of the log, and
    the combined run stays exactly-once.  The crash comes two wake-ups
    past the last checkpoint, so the victim is sent six wake-ups and
    every other shard two.

    The facade's own images set where the log is walked from: with them
    intact the read starts at the newest one's offset (8 wake-ups), and
    the victim's suffix takes a second walk, from the older image's
    offset (4); with the newest image corrupt, or never written because
    the run crashed between the shard images and it (right after
    wake-up 8, whose image the next wake-up would have saved; the victim
    is then sent four wake-ups and every other shard none), the read
    starts at the older image and the victim's suffix is among the
    records it kept; with no image at all (a root of the parent format)
    the read walks the whole log."""
    feeds = keyed_feeds()
    # Find a shard that actually checkpointed during the crashed prefix.
    probe = sharded_engine(tmp_path / "probe")
    feed_range(probe, feeds, 0, CHUNK * 8)
    probe.checkpoint()
    victim = next(s.shard for s in probe.summaries() if s.ingested > 0)
    probe.close(flush=False)

    state = tmp_path / "run"
    engine = sharded_engine(state, backend=backend)
    crash = CHUNK * (8 if rung == "crash-before-image" else 10)
    released, _ = feed_range(engine, feeds, 0, crash)
    pre = released + engine.merge.flush()
    engine.close(flush=False)

    corrupt_newest(state / f"shard-{victim:02d}")
    offsets = {position: image["offset"]
               for position, image in facade_images(state).items()}
    assert sorted(offsets) == ([4] if rung == "crash-before-image"
                               else [4, 8])
    if rung == "corrupt-image":
        corrupt_newest(state / "facade")
    elif rung == "no-images":
        for image in (state / "facade").glob("*.ckpt"):
            image.unlink()
    size = (state / "facade" / "wal.log").stat().st_size

    walks = count_walks(monkeypatch)
    engine = sharded_engine(state, backend=backend)
    restored, sent = watch_recovery(engine)
    report = engine.recover()
    assert report.any_fallback
    assert report.reports[victim].fallback
    assert_only_suffixes(restored, sent)
    if rung == "images":  # the read, then the victim's second walk
        assert walks == [size - offsets[8], size - offsets[4]]
    elif rung == "no-images":
        assert walks == [size]
    else:
        assert walks == [size - offsets[4]]
    victim_sent, others_sent = (4, 0) if rung == "crash-before-image" \
        else (6, 2)
    assert {shard: len(commands) for shard, commands in sent.items()} == {
        shard: victim_sent if shard == victim else others_sent
        for shard in range(SHARDS)}
    skips = {(shard, source): count
             for shard, counts in report.ingests_by_shard.items()
             for source, count in counts.items()}
    released, now = feed_range(engine, feeds, 0, len(feeds), skips=skips)
    post = finish(engine, released, now)
    combined = [(sink, ts, payload) for ts, _, _, sink, payload in pre] + post
    _assert_same(_canonical(reference_run(feeds)), _canonical(combined),
                 "corrupted-checkpoint fallback is not exactly-once")


@BACKENDS
def test_recovery_sends_each_shard_only_its_suffix(tmp_path, backend):
    """Without a fallback every shard restores the last facade
    checkpoint, so none is sent more than ``checkpoint_every`` wake-ups,
    and the report still counts the whole log's ingests per shard."""
    feeds = keyed_feeds()
    engine = sharded_engine(tmp_path, backend=backend)
    feed_range(engine, feeds, 0, CHUNK * 7)
    ingested = [s.ingested for s in engine.summaries()]
    engine.close(flush=False)

    engine = sharded_engine(tmp_path, backend=backend)
    restored, sent = watch_recovery(engine)
    try:
        report = engine.recover()
        summaries = engine.summaries()
    finally:
        engine.close(flush=False)
    assert not report.any_fallback
    assert_only_suffixes(restored, sent, at_most=4)
    assert set(restored.values()) == {4}
    assert [s.ingested for s in summaries] == ingested
    assert [sum(counts.values()) for _, counts in
            sorted(report.ingests_by_shard.items())] == ingested
    assert [r.wakeups_replayed for r in report.reports] == [3] * SHARDS


def test_single_shard_crash_mid_run(tmp_path):
    """One shard dies and is rebuilt from its durable state while the
    other shards and the facade keep their in-memory state."""
    feeds = keyed_feeds()
    engine = sharded_engine(tmp_path)
    released, _ = feed_range(engine, feeds, 0, CHUNK * 6)

    victim = next(s.shard for s in engine.summaries() if s.ingested > 0)
    before = engine.summaries()[victim].ingested
    report = engine.crash_shard(victim)
    assert sum(report.ingests_by_source.values()) == before

    more, now = feed_range(engine, feeds, CHUNK * 6, len(feeds))
    combined = finish(engine, released + more, now)
    _assert_same(_canonical(reference_run(feeds)), _canonical(combined),
                 "single-shard crash lost or duplicated records")


def test_chaos_plus_crash(tmp_path):
    """The composed scenario: a faulted schedule *and* a full crash."""
    plan = PLANS["composed"]()
    faulted = plan.wrap_feeds(keyed_feeds())
    assert_exactly_once(tmp_path, faulted, CHUNK * 5 + 3)
