"""Crash-stop recovery: the exactly-once claim, exhaustively.

Every test crashes a run mid-feed with :class:`oracle.CrashRecoveryOracle`,
recovers from the checkpoint directory, resumes, and asserts that the
combined sink output is byte-identical to a run that never crashed.  The
matrix spans the recovery design's risk axes: ETS modes (on-demand
punctuation is regenerated during replay, not logged), batch sizes (replay
must reproduce the exact wake-up chunking), and join state layouts (the
hash-indexed bucket path restores from the same snapshot as the scan
path).  The kernel-level tests exercise the same claim through
:class:`~repro.sim.kernel.Simulation` with a :class:`ProcessCrash` fault
and :func:`~repro.experiments.crash.run_crash_experiment`, the harness
behind claims R1 and R2.
"""

from __future__ import annotations

import os

import pytest

from oracle import CrashRecoveryOracle
from test_oracle import (
    fig7_feeds,
    join_graph,
    pipeline_graph,
    tie_feeds,
    union_graph,
)

from repro.core.ets import NoEts, OnDemandEts
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import Map, WindowJoin
from repro.core.windows import TimeWindow, WindowSpec
from repro.experiments import CrashConfig, run_crash_experiment
from repro.recovery import CheckpointStore, RecoveryManager
from repro.sim.clock import VirtualClock

# --------------------------------------------------------------------- #
# Graph factories beyond test_oracle's (the indexed-join layout)


def indexed_join_graph() -> QueryGraph:
    """Keyed symmetric join — auto-selects the hash-bucket window layout,
    so recovery must rebuild per-key buckets from the snapshot's item log."""
    graph = QueryGraph("oracle-join-indexed")
    fast = graph.add_source("fast")
    slow = graph.add_source("slow")
    kf = graph.add(Map("key_fast", lambda p: {**p, "k": int(p["value"] * 4)}))
    ks = graph.add(Map("key_slow", lambda p: {**p, "k": int(p["value"] * 4)}))
    join = graph.add(WindowJoin("join", WindowSpec.time(5.0), key="k"))
    sink = graph.add_sink("sink")
    graph.connect(fast, kf)
    graph.connect(slow, ks)
    graph.connect(kf, join)
    graph.connect(ks, join)
    graph.connect(join, sink)
    assert join.indexed, "keyed symmetric join should take the indexed path"
    return graph


GRAPHS = [
    pytest.param(union_graph, id="union"),
    pytest.param(join_graph, id="scan-join"),
    pytest.param(indexed_join_graph, id="indexed-join"),
]

ETS_MODES = [
    pytest.param(None, id="no-ets"),
    pytest.param(lambda: OnDemandEts(), id="on-demand"),
]


def _feeds():
    return fig7_feeds(fast=150, slow=4)


# --------------------------------------------------------------------- #
# The acceptance matrix: ETS modes x batch sizes x join layouts


@pytest.mark.parametrize("build", GRAPHS)
@pytest.mark.parametrize("ets_factory", ETS_MODES)
@pytest.mark.parametrize("batch_size", [1, 4])
def test_exactly_once_matrix(tmp_path, build, ets_factory, batch_size):
    oracle = CrashRecoveryOracle(build, _feeds())
    oracle.assert_exactly_once(
        tmp_path, crash_index=77, batch_size=batch_size,
        ets_policy_factory=ets_factory)


@pytest.mark.parametrize("crash_index", [1, 40, 120, 153])
def test_exactly_once_across_crash_points(tmp_path, crash_index):
    """Any crash point — right after the first feed, mid-run, or on the
    penultimate arrival — recovers byte-identically."""
    oracle = CrashRecoveryOracle(union_graph, _feeds())
    oracle.assert_exactly_once(tmp_path, crash_index=crash_index)


def test_exactly_once_stateful_pipeline(tmp_path):
    """Shed RNG state and tumbling-aggregate accumulators survive recovery
    (a lost RNG draw or partial pane would break byte-identity)."""
    oracle = CrashRecoveryOracle(pipeline_graph, fig7_feeds(fast=200, slow=0))
    oracle.assert_exactly_once(
        tmp_path, crash_index=101, batch_size=4,
        ets_policy_factory=lambda: OnDemandEts())


def test_exactly_once_on_timestamp_ties(tmp_path):
    """Tie-heavy merges: replay must reproduce the union's tie-breaking."""
    oracle = CrashRecoveryOracle(union_graph, tie_feeds(rounds=80))
    oracle.assert_exactly_once(tmp_path, crash_index=91, batch_size=4)


# --------------------------------------------------------------------- #
# The durability point: the wake-up that first reads a row, not ingest()


@pytest.mark.parametrize("build", GRAPHS)
@pytest.mark.parametrize("batch_size", [1, 4])
def test_hard_crash_between_ingest_and_wakeup(tmp_path, build, batch_size):
    """77 = two 32-row wake-ups + 13 rows no wake-up has read.  A hard crash
    (no close) loses exactly those 13: the WAL never held them, the report
    does not count them, and re-feeding them is byte-identical."""
    oracle = CrashRecoveryOracle(build, _feeds())
    combined, report = oracle.run_crashed(
        tmp_path, crash_index=77, batch_size=batch_size,
        ets_policy=OnDemandEts(), hard=True)
    assert sum(report.ingests_by_source.values()) == 64
    assert report.wal_clean
    assert combined == oracle.run_reference(batch_size=batch_size,
                                            ets_policy=OnDemandEts())


def test_soft_crash_keeps_unwoken_rows(tmp_path):
    """The same crash point through ``close()``: the buffer is written out
    first, so all 77 rows are acknowledged (the pre-group contract)."""
    oracle = CrashRecoveryOracle(union_graph, _feeds())
    _, report = oracle.run_crashed(tmp_path, crash_index=77)
    assert sum(report.ingests_by_source.values()) == 77


def test_simulation_hard_crash_loses_only_the_unwoken_arrival(
        tmp_path, monkeypatch):
    """``ProcessCrash`` fires after an arrival was ingested and before the
    wake-up that reads it.  With a crash that cannot write its buffer the
    arrival is re-fed instead of replayed — same output either way."""
    from repro.recovery import RecoveryManager

    soft = run_crash_experiment(_small_config(tmp_path / "soft"))
    monkeypatch.setattr(RecoveryManager, "close",
                        lambda self: self.wal.close())
    hard = run_crash_experiment(_small_config(tmp_path / "hard"))
    assert soft.identical and hard.identical
    soft_counts = soft.recovery["ingests_by_source"]
    hard_counts = hard.recovery["ingests_by_source"]
    assert sum(soft_counts.values()) - sum(hard_counts.values()) == 1
    assert hard.recovery["wal_clean"]


# --------------------------------------------------------------------- #
# Corruption fallback and degenerate checkpoint schedules


def test_corrupt_latest_falls_back_to_previous(tmp_path):
    """Flipping a byte in the newest checkpoint forces recovery onto the
    previous one; the longer WAL suffix replay still lands byte-identical,
    and the report records the loud skip."""
    oracle = CrashRecoveryOracle(union_graph, _feeds(), chunk=8)
    oracle.assert_exactly_once(
        tmp_path, crash_index=100, checkpoint_every=3, corrupt_latest=True)


def test_recovery_without_any_checkpoint(tmp_path):
    """checkpoint_every beyond the crash point means no checkpoint was ever
    written — recovery replays the whole WAL from a fresh graph."""
    oracle = CrashRecoveryOracle(union_graph, _feeds())
    combined, report = oracle.run_crashed(
        tmp_path, crash_index=60, checkpoint_every=10_000)
    reference = oracle.run_reference()
    assert combined == reference
    assert report.checkpoint_number == 0
    assert report.ingests_replayed == 60


def test_report_accounting(tmp_path):
    """The recovery report's counters reconcile with the WAL contents, and
    a tighter checkpoint interval replays fewer WAL records."""
    oracle = CrashRecoveryOracle(union_graph, _feeds(), chunk=8)
    _, whole = oracle.run_crashed(tmp_path / "whole", crash_index=90,
                                  checkpoint_every=10_000)
    _, report = oracle.run_crashed(tmp_path / "tight", crash_index=90,
                                   checkpoint_every=4)
    assert whole.checkpoint_number == 0 and whole.ingests_replayed == 90
    assert report.replayed < whole.replayed
    assert report.checkpoint_number > 0
    assert not report.fallback
    assert report.wal_clean
    assert sum(report.ingests_by_source.values()) == 90
    assert report.ingests_replayed <= 90
    assert report.replayed >= report.ingests_replayed
    d = report.as_dict()
    assert d["checkpoint_number"] == report.checkpoint_number
    assert d["total_suppressed"] == report.total_suppressed


# --------------------------------------------------------------------- #
# Kernel-level: Simulation + ProcessCrash + resume-with-skip


def _small_config(tmp_path, **overrides) -> CrashConfig:
    defaults = dict(
        duration=20.0, rate_fast=20.0, rate_slow=0.5, seed=7,
        crash_at=10.0, checkpoint_every=25,
        state_dir=str(tmp_path / "state"))
    defaults.update(overrides)
    return CrashConfig(**defaults)


def test_crash_experiment_exactly_once(tmp_path):
    report = run_crash_experiment(_small_config(tmp_path))
    assert report.identical
    assert report.pre_crash_delivered > 0
    assert report.post_recovery_delivered > 0
    assert (report.pre_crash_delivered + report.post_recovery_delivered
            == report.reference_delivered)
    assert report.checkpoints_written > 0
    assert report.recovery["replayed"] > 0


def test_crash_experiment_corrupt_latest(tmp_path):
    report = run_crash_experiment(
        _small_config(tmp_path, corrupt_latest=True, checkpoint_every=20))
    assert report.identical
    assert report.recovery["fallback"]
    assert report.recovery["skipped"]


def test_crash_experiment_no_ets_batched(tmp_path):
    report = run_crash_experiment(
        _small_config(tmp_path, base_ets="none", batch_size=4))
    assert report.identical


def test_crash_experiment_rejects_bad_crash_point(tmp_path):
    from repro.core.errors import WorkloadError
    with pytest.raises(WorkloadError):
        _small_config(tmp_path, crash_at=25.0)


# --------------------------------------------------------------------- #
# Checkpoints written before windows became column dumps


def _version1_snapshot(window) -> dict:
    """What a ``TimeWindow`` snapshot was before version 2: its live rows
    as a list of data tuples, beside the horizon."""
    return {"version": 1, "items": list(window), "horizon": window._horizon}


@pytest.mark.parametrize("build", [
    pytest.param(join_graph, id="scan-join"),
    pytest.param(indexed_join_graph, id="indexed-join"),
])
def test_recovery_from_version1_window_checkpoint(tmp_path, monkeypatch,
                                                  build):
    """A crash whose checkpoints hold version-1 window snapshots recovers
    through the column windows' restore, and the combined sink output is
    byte-identical to an uncrashed run's."""
    oracle = CrashRecoveryOracle(build, _feeds(), chunk=8)
    reference = oracle.run_reference(batch_size=4, ets_policy=OnDemandEts())
    monkeypatch.setattr(TimeWindow, "snapshot_state", _version1_snapshot)
    combined, report = oracle.run_crashed(
        tmp_path, crash_index=77, batch_size=4, ets_policy=OnDemandEts())
    assert report.checkpoint_number > 0
    store = CheckpointStore(tmp_path)  # every one written under the patch
    windows = store.load(store.numbers()[-1])["operators"]["join"]["windows"]
    assert all(win["version"] == 1 and isinstance(win["items"], list)
               for win in windows)
    assert any(win["items"] for win in windows)
    assert combined == reference


# --------------------------------------------------------------------- #
# Checkpoints written while OnDemandEts still kept counters


def test_recovery_from_checkpoint_with_ets_counters(tmp_path, monkeypatch):
    """A crash whose checkpoints hold the version-1 ``OnDemandEts``
    snapshot that also carried ``generated``/``declined`` recovers under
    the same checkpoint format, byte-identical to an uncrashed run."""
    oracle = CrashRecoveryOracle(union_graph, _feeds(), chunk=8)
    reference = oracle.run_reference(batch_size=4, ets_policy=OnDemandEts())
    monkeypatch.setattr(OnDemandEts, "snapshot_state", lambda self: {
        "version": 1, "generated": 11, "declined": 5})
    combined, report = oracle.run_crashed(
        tmp_path, crash_index=77, batch_size=4, ets_policy=OnDemandEts())
    assert report.checkpoint_number > 0
    store = CheckpointStore(tmp_path)
    assert store.load(store.numbers()[-1])["ets_policy"] == {
        "version": 1, "generated": 11, "declined": 5}
    assert combined == reference


# --------------------------------------------------------------------- #
# A torn marks record: the exactly-once claim's open hole


def _durable_union(state_dir, seen: list):
    """The union graph under a recovery manager, checkpointing every 3
    wake-ups; its consumer appends each delivered row's ``seq`` to
    ``seen``."""
    graph = union_graph()
    graph["sink"].on_output = lambda tup, latency: seen.append(
        tup.payload["seq"])
    clock = VirtualClock()
    engine = ExecutionEngine(graph, clock, cost_model=None,
                             ets_policy=OnDemandEts(), checkpoint_every=3)
    manager = RecoveryManager(state_dir).bind(graph, engine, clock)
    return graph, clock, engine, manager


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "RecoveryManager._wrap_wakeup appends a wake-up's marks record after "
    "its rows reached the consumer, so recovery replays a wake-up whose "
    "marks record was torn with too small a suppression count"))
def test_a_torn_marks_record_re_emits_no_row(tmp_path):
    seen: list[int] = []
    graph, clock, engine, manager = _durable_union(tmp_path, seen)
    frames: list[tuple] = []  # (offset, record) of every frame written
    append = manager.wal.append

    def appending(record):
        frames.append((manager.wal.tell()[0], record))
        append(record)

    manager.wal.append = appending
    fast = graph["fast"]
    for seq in range(10):  # ten one-row wake-ups
        clock.advance_to(float(seq + 1))
        fast.ingest({"seq": seq, "value": 0.5}, now=clock.now(),
                    arrival=clock.now())
        engine.wakeup(fast)
    assert seen == list(range(10))
    manager.wal.close()  # crash-stop
    start, last = frames[-1]
    assert last["kind"] == "marks"  # the 10th wake-up's
    log = tmp_path / "wal.log"
    os.truncate(log, start + (log.stat().st_size - start) // 2)

    _, _, _, manager = _durable_union(tmp_path, seen)
    manager.recover()
    assert seen == list(range(10)), "a row reached the consumer twice"
