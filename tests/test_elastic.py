"""The elastic-shard suite: live resharding over durable epochs.

Two pillars, each an executable claim from DESIGN.md §4k:

* **reshard parity** — output across live P→P′ topology changes (grow,
  shrink, chained) equals the single-engine reference, canonicalized;
* **crash matrix** — a simulated facade death at *every* coordinator
  phase recovers to exactly-once output from the epoch manifest, with the
  global frontier monotone throughout.
"""

from __future__ import annotations

import json

import pytest

from oracle import ShardedDifferentialOracle, _assert_same, _canonical, \
    _assert_shards_on_block_transport

from repro.core.config import EngineConfig
from repro.faults import FaultPlan, ReshardCrash, SimulatedCrash
from repro.faults.plan import _RESHARD_PHASES
from repro.obs import MetricsRegistry
from repro.recovery import WriteAheadLog
from repro.shard import RESHARD_PHASES, ElasticShardedEngine, \
    ReshardCoordinator

from test_sharded_oracle import join_graph, keyed_feeds

CHUNK = 16
SHARDS = 4
BATCH = 8  # > 1: every shard engine runs the block transport Pipeline uses
RESHARD_INDEX = CHUNK * 4  # chunk boundary where the topology changes


def elastic_engine(state_dir, *, shards=SHARDS, backend="serial", **kw):
    return ElasticShardedEngine(join_graph(), shards=shards, key="k",
                                backend=backend, state_dir=state_dir,
                                checkpoint_every=4, batch_size=BATCH, **kw)


def drive(engine, feeds, *, skips=None, reshard_index=None, target=None,
          reshards=None, stop=None, frontiers=None):
    """Chunked feed loop with optional mid-schedule reshards.

    ``skips`` carries per-(shard, source) already-replayed counts, keyed
    under the engine's *current* partitioner; ``reshards`` maps absolute
    feed indices to target shard counts (``reshard_index``/``target`` is
    the single-hop shorthand).  Returns ``(released, last_fed_time)``.
    """
    schedule = dict(reshards or {})
    if reshard_index is not None:
        schedule[reshard_index] = target
    released = []
    now = 0.0
    fed = 0
    stop = len(feeds) if stop is None else stop
    for index, feed in enumerate(feeds[:stop]):
        if index in schedule:
            report = engine.reshard(schedule.pop(index))
            released.extend(report.released)
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
            if frontiers is not None:
                frontiers.append(engine.tracker.global_frontier())
    return released, now


def finish(engine, released, now, source_names=("fast", "slow")):
    for name in sorted(source_names):
        engine.inject_punctuation(name, now + 1.0, origin=f"eos:{name}")
    released.extend(engine.wakeup())
    _assert_shards_on_block_transport(engine, BATCH)
    released.extend(engine.close(flush=True))
    return [(sink, ts, payload) for ts, _, _, sink, payload in released]


def reference_run(feeds, *, reshard_index=None, target=None):
    """The uncrashed elastic run every crash scenario must reproduce."""
    engine = ElasticShardedEngine(join_graph(), shards=SHARDS, key="k",
                                  backend="serial", batch_size=BATCH)
    released, now = drive(engine, feeds, reshard_index=reshard_index,
                          target=target)
    return finish(engine, released, now)


# --------------------------------------------------------------------- #
# Reshard parity against the single engine


@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("schedule", [
    {4: 5},          # grow P -> P+1
    {4: 3},          # shrink P -> P-1
    {3: 6, 7: 2},    # chained grow then hard shrink
], ids=["grow", "shrink", "chained"])
def test_elastic_output_equals_single_engine(backend, schedule):
    oracle = ShardedDifferentialOracle(join_graph(), keyed_feeds(),
                                       key="k", chunk=CHUNK,
                                       punctuate_every=4)
    oracle.assert_elastic_equals_single(shards=SHARDS, reshard_at=schedule,
                                        backend=backend, punctuate=True,
                                        batch_size=BATCH)


def test_elastic_parity_durable(tmp_path, monkeypatch):
    """Same parity with durability on: every epoch checkpoints, one log."""
    reports = []
    run = ReshardCoordinator.run
    monkeypatch.setattr(ReshardCoordinator, "run", lambda self, *a, **kw:
                        reports.append(run(self, *a, **kw)) or reports[-1])
    oracle = ShardedDifferentialOracle(join_graph(), keyed_feeds(),
                                       key="k", chunk=CHUNK,
                                       punctuate_every=4)
    oracle.assert_elastic_equals_single(
        shards=SHARDS, reshard_at={4: 5, 8: 4}, punctuate=True,
        state_dir=tmp_path, checkpoint_every=4, batch_size=BATCH)
    manifest = json.loads((tmp_path / "CURRENT").read_text())
    assert (manifest["epoch"], manifest["shards"]) == (2, 4)
    # The second hop cut two dead wake-up segments (32 rows below the
    # window horizon).
    second = reports[-1]
    assert second.logged_ingests - second.replayed_ingests == 2 * CHUNK


def test_elastic_parity_process_backend():
    oracle = ShardedDifferentialOracle(join_graph(), keyed_feeds(8),
                                       key="k", chunk=CHUNK,
                                       punctuate_every=4)
    oracle.assert_elastic_equals_single(shards=2, reshard_at={4: 3},
                                        backend="process", punctuate=True,
                                        batch_size=BATCH)


def test_reshard_report_figures():
    feeds = keyed_feeds()
    engine = ElasticShardedEngine(join_graph(), shards=2, key="k",
                                  backend="serial", batch_size=BATCH)
    released, now = drive(engine, feeds, reshard_index=RESHARD_INDEX,
                          target=3)
    finish(engine, released, now)
    [report] = engine.reshards
    assert report.direction == "2->3" and report.epoch == 1
    assert report.replayed_ingests == RESHARD_INDEX
    assert 0 < report.migrated_keys <= report.total_keys
    # Jump-consistent hashing only moves keys *to* the new shard: nothing
    # routed to shard 0 or 1 before may swap between them.
    jump = sum(1 for record in engine.journal.history
               if record["kind"] == "ingest")
    assert report.migrated_keys < report.total_keys
    assert report.discarded_outputs >= 0 and jump == len(feeds)

    # A grow P -> P+1 moves roughly 1/(P+1) of the keys seen; the hard
    # shrink 4 -> 2 moves about half, strictly more than either grow.
    fractions = {"2->3": report.migrated_keys / report.total_keys}
    for shards, target in ((4, 5), (4, 2)):
        engine = ElasticShardedEngine(join_graph(), shards=shards, key="k",
                                      backend="serial", batch_size=BATCH)
        released, now = drive(engine, feeds, reshard_index=RESHARD_INDEX,
                              target=target)
        finish(engine, released, now)
        [report] = engine.reshards
        fractions[report.direction] = (report.migrated_keys
                                       / report.total_keys)
    assert fractions["2->3"] < 0.6
    assert 0.0 < fractions["4->5"] < 0.5
    assert fractions["4->2"] > fractions["4->5"]

    # The long-history case: past one window span (4 s) the replay stops
    # growing with the log.  Only the wake-up segments that end at or after
    # the floor are re-run; key movement is still counted over everything.
    late = CHUNK * 9
    engine = ElasticShardedEngine(join_graph(), shards=2, key="k",
                                  backend="serial", batch_size=BATCH)
    released, now = drive(engine, feeds, reshard_index=late, target=3)
    finish(engine, released, now)
    [report] = engine.reshards
    assert report.logged_ingests == late
    assert 0.0 < report.floor < feeds[late - 1].time
    segment_ends = [feeds[i + CHUNK - 1].time for i in range(0, late, CHUNK)]
    live = sum(CHUNK for end in segment_ends if end >= report.floor)
    assert report.replayed_ingests == live < report.logged_ingests
    assert report.total_keys == len({f.payload["k"] for f in feeds[:late]})
    assert report.as_dict()["logged_ingests"] == late


def test_reshard_to_same_count_is_a_noop():
    engine = ElasticShardedEngine(join_graph(), shards=2, key="k",
                                  backend="serial", batch_size=BATCH)
    report = engine.reshard(2)
    assert report.direction == "2->2" and not engine.reshards
    engine.close()


# --------------------------------------------------------------------- #
# Crash matrix: kill the facade at every coordinator phase


def crash_and_recover_reshard(state_dir, feeds, phase, *, target=5):
    engine = elastic_engine(state_dir)
    FaultPlan([ReshardCrash(phase)], seed=1).install_sharded(engine)
    frontiers: list[float] = []
    released, _ = drive(engine, feeds, stop=RESHARD_INDEX,
                        frontiers=frontiers)
    with pytest.raises(SimulatedCrash):
        engine.reshard(target)
    pre = released + engine.reshard_released + engine.merge.flush()
    engine.close(flush=False)  # crash-stop: nothing else flushed

    engine = elastic_engine(state_dir)
    if phase == "resume":  # crash after the flip: the new epoch is live
        assert engine.shard_count == target and engine._epoch == 1
    else:                  # crash before the flip: the old epoch is live
        assert engine.shard_count == SHARDS and engine._epoch == 0
    report = engine.recover()
    skips = {(shard, source): count
             for shard, counts in report.ingests_by_shard.items()
             for source, count in counts.items()}
    released, now = drive(engine, feeds, skips=skips,
                          reshard_index=RESHARD_INDEX, target=target,
                          frontiers=frontiers)
    post = finish(engine, released, now)
    assert frontiers == sorted(frontiers), \
        f"global frontier regressed across the {phase!r} crash"
    pre_records = [(sink, ts, payload) for ts, _, _, sink, payload in pre]
    return pre_records + post, report


@pytest.mark.parametrize("phase", RESHARD_PHASES)
def test_reshard_crash_matrix_exactly_once(tmp_path, phase):
    feeds = keyed_feeds()
    reference = _canonical(reference_run(
        feeds, reshard_index=RESHARD_INDEX, target=5))
    assert reference
    combined, _ = crash_and_recover_reshard(tmp_path, feeds, phase)
    _assert_same(reference, _canonical(combined),
                 f"reshard crash at phase {phase!r} is not exactly-once")


def test_reshard_crash_matrix_shrink(tmp_path):
    """The shrink direction crosses the same cliff: migrated keys must
    land exactly once on the surviving shards."""
    feeds = keyed_feeds()
    reference = _canonical(reference_run(
        feeds, reshard_index=RESHARD_INDEX, target=2))
    combined, _ = crash_and_recover_reshard(tmp_path, feeds, "restore",
                                            target=2)
    _assert_same(reference, _canonical(combined),
                 "reshard-shrink crash is not exactly-once")


def test_plain_crash_after_reshard_exactly_once(tmp_path):
    """An ordinary full crash *after* a completed reshard recovers from
    the new epoch — WALs, checkpoints, and the rebuilt facade history all
    live under the manifest's directory."""
    feeds = keyed_feeds()
    crash_index = CHUNK * 7
    reference = _canonical(reference_run(
        feeds, reshard_index=RESHARD_INDEX, target=5))

    engine = elastic_engine(tmp_path)
    released, _ = drive(engine, feeds, stop=crash_index,
                        reshard_index=RESHARD_INDEX, target=5)
    pre = released + engine.merge.flush()
    engine.close(flush=False)

    engine = elastic_engine(tmp_path)
    assert engine.shard_count == 5 and engine._epoch == 1
    report = engine.recover()
    assert report.total_ingests == crash_index
    skips = {(shard, source): count
             for shard, counts in report.ingests_by_shard.items()
             for source, count in counts.items()}
    released, now = drive(engine, feeds, skips=skips,
                          reshard_index=RESHARD_INDEX, target=5)
    post = finish(engine, released, now)
    combined = [(s, ts, p) for ts, _, _, s, p in pre] + post
    _assert_same(reference, _canonical(combined),
                 "crash after a completed reshard is not exactly-once")


def test_crash_between_ingest_and_wakeup_loses_only_unwoken_rows(tmp_path):
    """The facade's durability point is the wake-up marker: seven rows
    ingested after the last wake-up are in no log, no shard and no report,
    and re-feeding them is exactly-once."""
    feeds = keyed_feeds()
    woken = CHUNK * 7
    reference = _canonical(reference_run(
        feeds, reshard_index=RESHARD_INDEX, target=5))

    engine = elastic_engine(tmp_path)
    released, _ = drive(engine, feeds, stop=woken + 7,
                        reshard_index=RESHARD_INDEX, target=5)
    assert sum(1 for r in engine.journal.history
               if r["kind"] == "ingest") == woken + 7
    pre = released + engine.merge.flush()
    engine.close(flush=False)
    on_disk = [rec for rec in WriteAheadLog(
        tmp_path / "facade" / "wal.log").replay() if rec.kind != "marks"]
    assert sum(1 for r in on_disk if r["kind"] == "ingest") == woken
    assert on_disk[-1]["kind"] == "wakeup"

    engine = elastic_engine(tmp_path)
    report = engine.recover()
    assert report.total_ingests == woken
    assert sum(1 for r in engine.journal.history
               if r["kind"] == "ingest") == woken
    skips = {(shard, source): count
             for shard, counts in report.ingests_by_shard.items()
             for source, count in counts.items()}
    released, now = drive(engine, feeds, skips=skips)
    post = finish(engine, released, now)
    combined = [(s, ts, p) for ts, _, _, s, p in pre] + post
    _assert_same(reference, _canonical(combined),
                 "crash between ingest and wakeup is not exactly-once")


def test_config_only_root_is_durable_across_a_reshard(tmp_path):
    """The root may arrive on the config alone: same manifest, epoch
    directories and facade WAL as the keyword spelling, still durable
    after the reshard, and a fresh facade recovers to the uninterrupted
    run's output."""
    feeds = keyed_feeds()
    crash_index = CHUNK * 7
    reference = _canonical(reference_run(
        feeds, reshard_index=RESHARD_INDEX, target=3))
    config = EngineConfig(state_dir=tmp_path, checkpoint_every=2,
                          batch_size=BATCH)

    def facade():
        return ElasticShardedEngine(join_graph(), shards=2, key="k",
                                    config=config)

    engine = facade()
    assert engine.root_dir == tmp_path
    assert json.loads((tmp_path / "CURRENT").read_text()) == {
        "epoch": 0, "shards": 2}
    assert sorted(d.name for d in (tmp_path / "epoch-0000").iterdir()) == [
        "shard-00", "shard-01"]
    assert (tmp_path / "facade").is_dir()  # wal.log: on the first append
    assert not list(tmp_path.glob("shard-*"))
    released, _ = drive(engine, feeds, stop=crash_index,
                        reshard_index=RESHARD_INDEX, target=3)
    assert (tmp_path / "facade" / "wal.log").stat().st_size > 0
    assert engine.state_dir == tmp_path / "epoch-0001"
    pre = released + engine.merge.flush()
    engine.close(flush=False)

    engine = facade()
    assert engine.shard_count == 3 and engine._epoch == 1
    report = engine.recover()
    assert report.total_ingests == crash_index
    skips = {(shard, source): count
             for shard, counts in report.ingests_by_shard.items()
             for source, count in counts.items()}
    released, now = drive(engine, feeds, skips=skips)
    post = finish(engine, released, now)
    combined = [(s, ts, p) for ts, _, _, s, p in pre] + post
    _assert_same(reference, _canonical(combined),
                 "config-only durable reshard is not exactly-once")


def test_recovered_engine_can_reshard_again(tmp_path):
    """Reshard → crash → recover → reshard again: the rebuilt facade
    history must replay cleanly into yet another epoch."""
    feeds = keyed_feeds()
    reference = _canonical(reference_run(
        feeds, reshard_index=RESHARD_INDEX, target=5))

    engine = elastic_engine(tmp_path)
    released, _ = drive(engine, feeds, stop=CHUNK * 6,
                        reshard_index=RESHARD_INDEX, target=3)
    pre = released + engine.merge.flush()
    engine.close(flush=False)

    engine = elastic_engine(tmp_path)
    report = engine.recover()
    skips = {(shard, source): count
             for shard, counts in report.ingests_by_shard.items()
             for source, count in counts.items()}
    released, now = drive(engine, feeds, skips=skips,
                          reshard_index=CHUNK * 8, target=5)
    post = finish(engine, released, now)
    combined = [(s, ts, p) for ts, _, _, s, p in pre] + post
    reference = _canonical(reference_run_two_step(feeds))
    _assert_same(reference, _canonical(combined),
                 "reshard after recovery is not exactly-once")
    assert engine._epoch == 2 and engine.shard_count == 5


def reference_run_two_step(feeds):
    """Uncrashed 4→3 then 3→5, at the hops the crashed run takes them."""
    engine = ElasticShardedEngine(join_graph(), shards=SHARDS, key="k",
                                  backend="serial", batch_size=BATCH)
    released, now = drive(engine, feeds,
                          reshards={RESHARD_INDEX: 3, CHUNK * 8: 5})
    return finish(engine, released, now)


def test_phase_literal_matches_fault_layer():
    assert _RESHARD_PHASES == RESHARD_PHASES


# --------------------------------------------------------------------- #
# Observability


def test_retry_backoff_histogram_dispatch():
    """`kind="retry"` bus events land in the backoff histogram."""
    registry = MetricsRegistry()
    registry.on_shard(kind="retry", shard=0, time=1.0, count=2, value=0.3)
    text = registry.render_prometheus()
    assert "repro_shard_retry_backoff_seconds" in text
    assert 'repro_shard_retries_total{shard="0"} 1' in text


def test_reshard_emits_bus_event_and_metrics():
    registry = MetricsRegistry()
    engine = ElasticShardedEngine(join_graph(), shards=2, key="k",
                                  backend="serial", observers=[registry],
                                  batch_size=BATCH)
    feeds = keyed_feeds()
    released, now = drive(engine, feeds, reshard_index=RESHARD_INDEX,
                          target=3)
    finish(engine, released, now)
    text = registry.render_prometheus()
    assert 'repro_shard_reshards_total{direction="2->3"} 1' in text
    assert "repro_shard_migrated_keys_total" in text
