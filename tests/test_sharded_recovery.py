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
  corrupted latest checkpoint using the longer WAL suffix.

Delivered records are compared canonicalized: the merged stream is
timestamp-ordered, but equal-timestamp ties are sequenced by merge
insertion order, which legitimately differs between a crashed-and-resumed
run and an uninterrupted one.
"""

from __future__ import annotations

import pytest

from oracle import Feed, ShardedDifferentialOracle, _assert_same, _canonical

from repro.faults import DropTuples, DuplicateTuples, FaultPlan, SourceOutage
from repro.shard import ShardedEngine

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


def sharded_engine(state_dir, *, checkpoint_every=4, batch_size=1):
    return ShardedEngine(join_graph(), shards=SHARDS, key="k",
                         backend="serial", state_dir=state_dir,
                         checkpoint_every=checkpoint_every,
                         batch_size=batch_size)


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


def test_corrupted_shard_checkpoint_falls_back(tmp_path):
    """One shard's latest checkpoint is corrupted on disk: that shard must
    fall back to an older checkpoint plus a longer WAL replay, and the
    combined run stays exactly-once."""
    feeds = keyed_feeds()
    # Find a shard that actually checkpointed during the crashed prefix.
    probe = sharded_engine(tmp_path / "probe")
    feed_range(probe, feeds, 0, CHUNK * 8)
    probe.checkpoint()
    victim = next(s.shard for s in probe.summaries() if s.ingested > 0)
    probe.close(flush=False)

    state = tmp_path / "run"
    engine = sharded_engine(state)
    released, _ = feed_range(engine, feeds, 0, CHUNK * 8)
    engine.checkpoint()  # ensure a latest checkpoint exists to corrupt
    pre = released + engine.merge.flush()
    engine.close(flush=False)

    shard_dir = state / f"shard-{victim:02d}"
    checkpoints = sorted(shard_dir.glob("checkpoint-*.ckpt"))
    assert checkpoints
    blob = bytearray(checkpoints[-1].read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    checkpoints[-1].write_bytes(bytes(blob))

    engine = sharded_engine(state)
    report = engine.recover()
    assert report.any_fallback
    assert report.reports[victim].fallback
    skips = {(shard, source): count
             for shard, counts in report.ingests_by_shard.items()
             for source, count in counts.items()}
    released, now = feed_range(engine, feeds, 0, len(feeds), skips=skips)
    post = finish(engine, released, now)
    combined = [(sink, ts, payload) for ts, _, _, sink, payload in pre] + post
    _assert_same(_canonical(reference_run(feeds)), _canonical(combined),
                 "corrupted-checkpoint fallback is not exactly-once")


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
