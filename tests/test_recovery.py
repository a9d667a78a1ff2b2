"""Unit tests for the recovery subsystem's parts (see DESIGN.md §4f).

The crash-recovery *claim* is tested end-to-end in
``test_crash_recovery.py``; this module pins the mechanisms it rests on:
WAL framing and truncation tolerance, checkpoint numbering / pruning /
CRC-checked fallback, the checkpoint document's contents, and the
observability wiring (bus events, metrics registry counters).
"""

from __future__ import annotations

import collections
import itertools
import pickle
import struct
import zlib

import pytest

from test_oracle import union_graph

from repro.core import tuples as _tuples
from repro.core.errors import RecoveryError, TimestampError
from repro.core.ets import NoEts, OnDemandEts
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import WindowJoin
from repro.core.tuples import TimestampKind
from repro.core.windows import WindowSpec
from repro.faults import QuarantinePolicy
from repro.feedback.throttle import TokenBucketThrottle
from repro.obs import EventBus, MetricsRegistry, Observer
from repro.recovery import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointStore,
    RecoveryManager,
    WAL_MAGIC,
    WriteAheadLog,
)
from repro.recovery.manager import _max_seq
from repro.sim.clock import VirtualClock


# --------------------------------------------------------------------- #
# Write-ahead log


class TestWriteAheadLog:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        records = [
            {"kind": "ingest", "source": "fast", "time": 0.5,
             "payload": {"seq": 0}},
            {"kind": "punct", "source": "fast", "ts": 1.0},
            {"kind": "marks", "marks": {"sink": 3}},
        ]
        for rec in records:
            wal.append(rec)
        wal.close()
        log = WriteAheadLog(tmp_path / "wal.log")
        replayed, clean = log.replay(), log.clean
        assert clean
        assert [dict(r) for r in replayed] == records
        assert [r.kind for r in replayed] == ["ingest", "punct", "marks"]

    def test_missing_or_empty_log_replays_clean(self, tmp_path):
        absent = WriteAheadLog(tmp_path / "absent.log")
        assert (absent.replay(), absent.clean) == ([], True)
        (tmp_path / "empty.log").write_bytes(b"")
        empty = WriteAheadLog(tmp_path / "empty.log")
        assert (empty.replay(), empty.clean) == ([], True)

    def test_append_requires_kind(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(RecoveryError):
            wal.append({"source": "fast"})

    def test_torn_tail_stops_replay_cleanly(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for i in range(5):
            wal.append({"kind": "ingest", "source": "s", "seq": i})
        wal.close()
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])  # crash mid-append: torn final frame
        log = WriteAheadLog(path)
        records, clean = log.replay(), log.clean
        assert not clean
        assert [r["seq"] for r in records] == [0, 1, 2, 3]

    def test_corrupt_mid_frame_truncates_there(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for i in range(4):
            wal.append({"kind": "ingest", "source": "s", "seq": i})
        wal.close()
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # corruption before the tail
        path.write_bytes(bytes(blob))
        log = WriteAheadLog(path)
        records, clean = log.replay(), log.clean
        assert not clean
        assert len(records) < 4

    def test_truncate_to_valid_cuts_the_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for i in range(5):
            wal.append({"kind": "ingest", "source": "s", "seq": i})
        wal.close()
        path.write_bytes(path.read_bytes()[:-2])
        fresh = WriteAheadLog(path)
        assert fresh.truncate_to_valid() == 4
        assert fresh.records_written == 4
        # The log is clean again and appendable past the cut.
        fresh.append({"kind": "ingest", "source": "s", "seq": 99})
        fresh.close()
        log = WriteAheadLog(path)
        records, clean = log.replay(), log.clean
        assert clean
        assert [r["seq"] for r in records] == [0, 1, 2, 3, 99]

    def test_truncate_to_valid_noop_on_clean_log(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"kind": "marks", "marks": {}})
        wal.close()
        before = path.read_bytes()
        assert WriteAheadLog(path).truncate_to_valid() == 1
        assert path.read_bytes() == before

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 16)
        with pytest.raises(RecoveryError):
            WriteAheadLog(path).replay()
        with pytest.raises(RecoveryError):
            WriteAheadLog(path).truncate_to_valid()

    def test_reopen_continues_numbering(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"kind": "marks", "marks": {}})
        wal.close()
        again = WriteAheadLog(path)
        again.append({"kind": "marks", "marks": {"sink": 1}})
        assert again.records_written == 2
        again.close()
        assert path.read_bytes().startswith(WAL_MAGIC)


    @staticmethod
    def _payloads(path) -> list[bytes]:
        """The pickled payload of each intact frame."""
        data = path.read_bytes()
        payloads, start = [], len(WAL_MAGIC)
        for end, _ in WriteAheadLog._frames(data):
            payloads.append(data[start + 8:end])
            start = end
        return payloads

    def test_group_frame_expands_to_its_members(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        records = [{"kind": "ingest", "source": "s", "seq": i}
                   for i in range(5)]
        wal.append(records[0])
        wal.append(records[1:4])
        wal.append(records[4:])  # a list is a group frame, even of one
        assert wal.records_written == 5
        wal.close()
        frames = list(WriteAheadLog._frames(path.read_bytes()))
        assert [len(members) for _, members in frames] == [1, 3, 1]
        assert [pickle.loads(payload)["kind"]
                for payload in self._payloads(path)] == [
                    "ingest", "group", "group"]
        fresh = WriteAheadLog(path)
        assert fresh.replay() == records
        assert all(r.kind == "ingest" for r in fresh.replay())
        fresh.append({"kind": "marks", "marks": {}})
        assert fresh.records_written == 6
        fresh.close()

    def test_parent_format_log_still_replays(self, tmp_path):
        """One plain frame per record, written byte by byte the way the
        pre-group ``append`` did."""
        path = tmp_path / "wal.log"
        records = [{"kind": "ingest", "source": "s", "seq": i}
                   for i in range(4)]
        blob = WAL_MAGIC
        for record in records:
            payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            blob += struct.pack("<II", len(payload), zlib.crc32(payload))
            blob += payload
        path.write_bytes(blob)
        log = WriteAheadLog(path)
        assert (log.replay(), log.clean) == (records, True)
        wal = WriteAheadLog(path)
        wal.append([{"kind": "wakeup"}, {"kind": "marks"}])
        assert wal.records_written == 6
        wal.close()

    @pytest.mark.parametrize("grouped", [False, True],
                             ids=["plain", "group"])
    @pytest.mark.parametrize("damage", ["clean", "torn-header",
                                        "torn-payload", "bad-crc"])
    def test_replay_and_truncate_agree(self, tmp_path, grouped, damage):
        """Both readers walk the same frames: same survivors, record for
        record, whatever the tail looks like; a damaged group goes whole."""
        path = tmp_path / "wal.log"
        records = [{"kind": "ingest", "source": "s", "seq": i}
                   for i in range(6)]
        frames = ([records[:2], records[2:6]] if grouped
                  else [[record] for record in records])
        wal = WriteAheadLog(path)
        for frame in frames:
            wal.append(frame if grouped else frame[0])
        wal.close()
        data = path.read_bytes()
        last = len(self._payloads(path)[-1])
        if damage == "torn-header":
            path.write_bytes(data[:len(data) - last - 3])
        elif damage == "torn-payload":
            path.write_bytes(data[:-3])
        elif damage == "bad-crc":
            blob = bytearray(data)
            blob[-last // 2] ^= 0xFF
            path.write_bytes(bytes(blob))
        survivors = (records if damage == "clean"
                     else records[:-len(frames[-1])])

        log = WriteAheadLog(path)
        replayed, clean = log.replay(), log.clean
        assert replayed == survivors
        assert clean == (damage == "clean")
        truncating = WriteAheadLog(path)
        assert truncating.truncate_to_valid() == len(survivors)
        assert truncating.records_written == len(survivors)
        log = WriteAheadLog(path)
        assert (log.replay(), log.clean) == (survivors, True)
        truncating.append({"kind": "marks", "marks": {}})
        truncating.close()
        assert len(WriteAheadLog(path).replay()) == len(survivors) + 1


# --------------------------------------------------------------------- #
# Checkpoint store


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        doc = {"format": 1, "payload": list(range(10))}
        info = store.save(doc)
        assert info.number == 1
        assert info.bytes_written > 0
        assert store.load(1) == doc
        assert store.load_latest() == (1, doc, [])

    def test_a_save_lists_the_directory_once(self, tmp_path, monkeypatch):
        """A store lists its directory at its first save only, and numbers
        and prunes from what it wrote itself from then on."""
        listings = []
        iterdir = type(tmp_path).iterdir

        def counted(path):
            listings.append(path)
            return iterdir(path)

        monkeypatch.setattr(type(tmp_path), "iterdir", counted)
        store = CheckpointStore(tmp_path, keep=2)
        for i in range(4):
            store.save({"i": i})
        monkeypatch.undo()
        assert listings == [tmp_path]
        assert store.numbers() == [3, 4]
        assert [store.load(n)["i"] for n in (3, 4)] == [2, 3]

    def test_a_save_survives_an_image_deleted_by_someone_else(self,
                                                              tmp_path):
        """Images unlinked behind the store's back break no later save,
        and the numbers go on rising from the store's own count."""
        store = CheckpointStore(tmp_path, keep=2)
        for i in range(3):
            store.save({"i": i})
        store.path_for(3).unlink()
        store.path_for(2).unlink()
        assert store.save({"i": 3}).number == 4
        assert store.save({"i": 4}).number == 5
        assert store.numbers() == [4, 5]
        assert store.load_latest()[:2] == (5, {"i": 4})
        assert CheckpointStore(tmp_path).save({"i": 5}).number == 6

    def test_monotonic_numbering_and_pruning(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for i in range(5):
            store.save({"i": i})
        assert store.numbers() == [4, 5]
        assert store.load_latest()[0] == 5

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"i": 1})
        store.save({"i": 2})
        path = store.path_for(2)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        number, doc, skipped = store.load_latest()
        assert (number, doc) == (1, {"i": 1})
        assert [n for n, _ in skipped] == [2]

    def test_truncated_checkpoint_is_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"i": 1})
        path = store.path_for(1)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(RecoveryError):
            store.load(1)

    def test_bad_magic_is_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"i": 1})
        path = store.path_for(1)
        path.write_bytes(b"X" * path.stat().st_size)
        with pytest.raises(RecoveryError):
            store.load(1)

    def test_all_corrupt_raises_with_skip_list(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(3):
            store.save({"i": i})
        for number in store.numbers():
            store.path_for(number).write_bytes(b"garbage")
        with pytest.raises(RecoveryError) as exc:
            store.load_latest()
        assert len(exc.value.fields["skipped"]) == 3

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            CheckpointStore(tmp_path).load_latest()


# --------------------------------------------------------------------- #
# RecoveryManager wiring


def count_walks(monkeypatch) -> list:
    """Record the length of every buffer a log's frames are walked over
    from here on."""
    walks = []
    walk = WriteAheadLog._frames

    def counted(data, *start):
        walks.append(len(data))
        return walk(data, *start)

    monkeypatch.setattr(WriteAheadLog, "_frames", staticmethod(counted))
    return walks


def _bound_manager(tmp_path, batch_size=1, **manager_kwargs):
    graph = union_graph()
    clock = VirtualClock()
    engine = ExecutionEngine(graph, clock, cost_model=None,
                             ets_policy=OnDemandEts(), batch_size=batch_size)
    manager = RecoveryManager(tmp_path / "state", **manager_kwargs)
    manager.bind(graph, engine, clock)
    return graph, clock, engine, manager


def _feed(graph, clock, engine, count=8):
    fast = next(s for s in graph.sources() if s.name == "fast")
    for i in range(count):
        clock.advance_to(float(i))
        fast.ingest({"seq": i, "value": 0.5}, now=clock.now())
    engine.wakeup(fast)


class TestRecoveryManager:
    def test_assemble_state_contents(self, tmp_path):
        graph, clock, engine, manager = _bound_manager(tmp_path)
        _feed(graph, clock, engine)
        state = manager.assemble_state()
        assert state["format"] == CHECKPOINT_FORMAT_VERSION
        assert state["graph_name"] == graph.name
        assert state["clock_now"] == clock.now()
        assert set(state["operators"]) == {
            op.name for op in graph.operators
            if hasattr(op, "snapshot_state")}
        assert "union" in state["operators"]
        assert "sink" in state["operators"]
        assert len(state["buffers"]) == len(graph.buffers)
        assert state["sink_delivered"] == {"sink": 8}
        assert state["wal_index"] == manager.wal.records_written
        manager.close()

    def test_wal_logs_ingests_and_marks(self, tmp_path):
        graph, clock, engine, manager = _bound_manager(tmp_path)
        _feed(graph, clock, engine, count=5)
        manager.close()
        records = WriteAheadLog(tmp_path / "state" / "wal.log").replay()
        kinds = [r.kind for r in records]
        assert kinds.count("ingest") == 5
        assert kinds[-1] == "marks"
        assert records[-1]["marks"] == {"sink": 5}

    def test_recover_unbound_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            RecoveryManager(tmp_path / "state").recover()
        with pytest.raises(RecoveryError):
            RecoveryManager(tmp_path / "state").assemble_state()

    def test_double_bind_raises(self, tmp_path):
        graph, clock, engine, manager = _bound_manager(tmp_path)
        with pytest.raises(RecoveryError):
            manager.bind(graph, engine, clock)
        manager.close()

    def test_recover_without_checkpoint_replays_whole_wal(self, tmp_path):
        graph, clock, engine, manager = _bound_manager(tmp_path)
        _feed(graph, clock, engine, count=6)
        delivered = graph["sink"].delivered
        manager.close()

        graph2, clock2, engine2, manager2 = _bound_manager(tmp_path)
        report = manager2.recover()
        assert report.checkpoint_number == 0
        assert report.ingests_replayed == 6
        assert report.wakeups_replayed == 1
        assert graph2["sink"].delivered == delivered
        # High-water-mark suppression: nothing new reached the sink hook.
        assert report.suppressed == {"sink": delivered}
        manager2.close()

    def test_bus_events_and_registry_figures(self, tmp_path):
        class Recorder(Observer):
            def __init__(self):
                self.checkpoints = []
                self.recoveries = []
                self.faults = []

            def on_checkpoint(self, **kw):
                self.checkpoints.append(kw)

            def on_recovery(self, **kw):
                self.recoveries.append(kw)

            def on_fault(self, **kw):
                self.faults.append(kw)

        recorder, registry = Recorder(), MetricsRegistry()
        bus = EventBus([recorder, registry])
        graph, clock, engine, manager = _bound_manager(tmp_path, bus=bus)
        _feed(graph, clock, engine)
        first = manager.checkpoint()
        info = manager.checkpoint()
        assert recorder.checkpoints[-1]["number"] == info.number
        assert recorder.checkpoints[-1]["bytes_written"] == info.bytes_written
        assert registry.checkpoints.total == 2
        assert registry.checkpoint_duration.total == pytest.approx(
            first.duration + info.duration)
        manager.close()

        # Corrupt the checkpoint: recovery falls back loudly and the
        # recovery event + registry figures still land.
        path = manager.store.path_for(info.number)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        graph2, clock2, engine2, manager2 = _bound_manager(tmp_path, bus=bus)
        report = manager2.recover()
        assert report.fallback
        assert any(f["kind"] == "checkpoint-corrupt"
                   for f in recorder.faults)
        assert recorder.recoveries[0]["fallback"] is True
        assert registry.recoveries.value(outcome="fallback") == 1
        assert registry.recovery_last.value(field="replayed") \
            == report.replayed
        manager2.close()

    def test_an_observer_attached_later_hears_checkpoints(self, tmp_path):
        """Without a ``bus=`` the manager publishes on the engine's bus as
        it is at each event: an observer attached after ``bind`` (the
        engine had none, so no bus) hears the checkpoints and the
        recovery."""
        class Heard(Observer):
            def __init__(self):
                self.events = []

            def on_checkpoint(self, **kw):
                self.events.append("checkpoint")

            def on_recovery(self, **kw):
                self.events.append("recovery")

        graph, clock, engine, manager = _bound_manager(tmp_path)
        assert engine.bus is None
        heard = Heard()
        engine.attach_observer(heard)
        _feed(graph, clock, engine)
        manager.checkpoint()
        manager.close()
        graph2, clock2, engine2, manager2 = _bound_manager(tmp_path)
        engine2.attach_observer(heard)
        manager2.recover()
        manager2.close()
        assert heard.events == ["checkpoint", "recovery"]

    def test_metrics_registry_counters(self, tmp_path):
        registry = MetricsRegistry()
        bus = EventBus().attach(registry)
        graph, clock, engine, manager = _bound_manager(tmp_path, bus=bus)
        _feed(graph, clock, engine)
        manager.checkpoint()
        manager.checkpoint()
        assert registry.checkpoints.value() == 2
        assert registry.checkpoint_bytes.value() > 0
        assert registry.checkpoint_last.value(field="number") == 2
        manager.close()

        graph2, clock2, engine2, manager2 = _bound_manager(tmp_path, bus=bus)
        report = manager2.recover()
        assert registry.recoveries.total == 1
        assert registry.recovery_last.value(field="replayed") \
            == report.replayed
        manager2.close()

    @pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
    def test_a_recovery_walks_the_log_once(self, tmp_path, monkeypatch,
                                           torn):
        """``recover()`` reads the WAL once; cutting a torn tail and the
        first append after it reuse what that read found."""
        graph, clock, engine, manager = _bound_manager(tmp_path)
        _feed(graph, clock, engine)
        manager.close()
        wal_path = tmp_path / "state" / "wal.log"
        if torn:
            wal_path.write_bytes(wal_path.read_bytes()[:-3])
        size = wal_path.stat().st_size
        walks = count_walks(monkeypatch)

        graph2, clock2, engine2, manager2 = _bound_manager(tmp_path)
        report = manager2.recover()
        fast = next(s for s in graph2.sources() if s.name == "fast")
        clock2.advance_to(9.0)
        fast.ingest({"seq": 9, "value": 0.5}, now=clock2.now())
        engine2.wakeup(fast)
        assert walks == [size]
        assert report.wal_clean is not torn
        manager2.close()
        assert manager2.wal.records_written == \
            len(WriteAheadLog(wal_path).replay())

    def test_torn_wal_tail_is_truncated_on_recover(self, tmp_path):
        graph, clock, engine, manager = _bound_manager(tmp_path)
        _feed(graph, clock, engine, count=4)
        manager.close()
        wal_path = tmp_path / "state" / "wal.log"
        wal_path.write_bytes(wal_path.read_bytes()[:-3])

        graph2, clock2, engine2, manager2 = _bound_manager(tmp_path)
        report = manager2.recover()
        assert not report.wal_clean
        # Post-truncation the log replays cleanly.
        manager2.close()
        log = WriteAheadLog(wal_path)
        log.replay()
        assert log.clean

    def test_one_frame_per_wakeup_and_marks_after(self, tmp_path):
        """Ingests ride in their wake-up's group frame; nothing is on disk
        before it, and the marks record follows the engine run."""
        graph, clock, engine, manager = _bound_manager(tmp_path)
        fast = next(s for s in graph.sources() if s.name == "fast")
        wal_path = tmp_path / "state" / "wal.log"
        for i in range(5):
            clock.advance_to(float(i))
            fast.ingest({"seq": i, "value": 0.5}, now=clock.now())
        assert not wal_path.exists()
        assert manager.wal.records_written == 0
        engine.wakeup(fast)
        assert manager.wal.records_written == 7  # 5 ingests, wakeup, marks
        manager.close()
        frames = list(WriteAheadLog._frames(wal_path.read_bytes()))
        assert [[r.kind for r in members] for _, members in frames] == [
            ["ingest"] * 5 + ["wakeup"], ["marks"]]

    def test_torn_group_frame_drops_the_whole_group_only(self, tmp_path):
        """A crash mid-write of a wake-up's frame loses that wake-up's rows
        — all of them, and nothing before them."""
        graph, clock, engine, manager = _bound_manager(tmp_path)
        fast = next(s for s in graph.sources() if s.name == "fast")
        for base in (0, 4):
            for i in range(base, base + 4):
                clock.advance_to(float(i))
                fast.ingest({"seq": i, "value": 0.5}, now=clock.now())
            engine.wakeup(fast)
        manager.close()
        wal_path = tmp_path / "state" / "wal.log"
        data = wal_path.read_bytes()
        ends = [end for end, _ in WriteAheadLog._frames(data)]
        assert len(ends) == 4  # group, marks, group, marks
        wal_path.write_bytes(data[:ends[2] - 5])

        graph2, clock2, engine2, manager2 = _bound_manager(tmp_path)
        report = manager2.recover()
        assert not report.wal_clean
        assert report.ingests_by_source == {"fast": 4}
        assert report.wakeups_replayed == 1
        assert graph2["sink"].delivered == 4
        manager2.close()

    def test_checkpoint_with_buffered_records_is_replayable(self, tmp_path):
        """A checkpoint between ingest and wake-up writes the buffer out
        first: its ``wal_index`` covers the rows its image holds, so the
        replayed suffix neither repeats nor skips one."""
        graph, clock, engine, manager = _bound_manager(tmp_path)
        fast = next(s for s in graph.sources() if s.name == "fast")
        for i in range(5):
            clock.advance_to(float(i))
            fast.ingest({"seq": i, "value": 0.5}, now=clock.now())
        manager.checkpoint()
        assert manager.store.load(1)["wal_index"] == 5
        for i in range(5, 8):
            clock.advance_to(float(i))
            fast.ingest({"seq": i, "value": 0.5}, now=clock.now())
        engine.wakeup(fast)
        assert graph["sink"].delivered == 8
        manager.wal.close()  # hard crash: nothing else is written

        graph2, clock2, engine2, manager2 = _bound_manager(tmp_path)
        seen = []
        graph2["sink"].on_output = lambda tup, latency: seen.append(tup)
        report = manager2.recover()
        assert report.checkpoint_number == 1
        assert report.ingests_replayed == 3
        assert report.ingests_by_source == {"fast": 8}
        assert graph2["sink"].delivered == 8
        assert not seen  # all eight were delivered before the crash
        manager2.close()

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_suppression_cuts_a_run_where_the_count_falls(self, tmp_path,
                                                          batch_size):
        """Recovery withholds the first k rows from both consumers of a
        sink — per row from ``on_output``, per run from the column hook a
        shard captures through — even when k falls inside a block."""
        graph, clock, engine, manager = _bound_manager(
            tmp_path, batch_size=batch_size)
        sink = graph["sink"]
        rows, runs, offered = [], [], []
        sink.on_output = lambda tup, latency: rows.append(tup.payload["seq"])
        sink._capture = lambda ts, payloads: runs.append(
            [p["seq"] for p in payloads])
        manager._install_suppressor(sink, 3)
        suppress_run = sink._capture
        sink._capture = lambda ts, payloads: (
            offered.append(len(ts)), suppress_run(ts, payloads))
        _feed(graph, clock, engine, count=8)
        assert sink.delivered == 8
        assert rows == [3, 4, 5, 6, 7]
        assert [seq for run in runs for seq in run] == [3, 4, 5, 6, 7]
        if batch_size > 1:
            assert offered[0] > 3  # the count fell inside the first run
        manager.close()

    def test_checkpoint_hook_fires_on_schedule(self, tmp_path):
        graph = union_graph()
        clock = VirtualClock()
        engine = ExecutionEngine(graph, clock, cost_model=None,
                                 checkpoint_every=2)
        manager = RecoveryManager(tmp_path / "state")
        manager.bind(graph, engine, clock)
        fast = next(s for s in graph.sources() if s.name == "fast")
        for i in range(6):
            clock.advance_to(float(i))
            fast.ingest({"seq": i, "value": 0.5}, now=clock.now())
            engine.wakeup(fast)
        assert manager.store.numbers() == [1, 2, 3]
        assert [manager.store.load(n)["engine"]["round_id"]
                for n in manager.store.numbers()] == [2, 4, 6]
        manager.close()


# --------------------------------------------------------------------- #
# A call the source refused is not logged


def _external_pipe(tmp_path):
    """An externally stamped source straight into a sink, bound."""
    graph = QueryGraph("refused")
    graph.connect(graph.add_source("ext", TimestampKind.EXTERNAL),
                  graph.add_sink("sink"))
    clock = VirtualClock()
    engine = ExecutionEngine(graph, clock, cost_model=None,
                             ets_policy=NoEts())
    manager = RecoveryManager(tmp_path / "state").bind(graph, engine, clock)
    return graph, engine, manager


def _recover_external_pipe(tmp_path, graph, engine, manager):
    """Close the run, recover a fresh one; it must end where the run did."""
    engine.wakeup(graph["ext"])
    manager.close()
    graph2, _, manager2 = _external_pipe(tmp_path)
    report = manager2.recover()
    manager2.close()
    assert graph2["sink"].delivered == graph["sink"].delivered == 1
    assert graph2["ext"].watermark == graph["ext"].watermark
    return report


def test_a_refused_ingest_is_not_logged(tmp_path):
    """An out-of-order external stamp raises and admits nothing; were it
    logged, every replay would raise it again and the state directory
    could never be recovered."""
    graph, engine, manager = _external_pipe(tmp_path)
    graph["ext"].ingest({"v": 1}, now=0.0, ts=5.0)
    with pytest.raises(TimestampError, match="non-decreasing"):
        graph["ext"].ingest({"v": 2}, now=0.0, ts=3.0)
    report = _recover_external_pipe(tmp_path, graph, engine, manager)
    assert report.ingests_by_source == {"ext": 1}


def test_a_refused_punctuation_is_not_logged(tmp_path):
    graph, engine, manager = _external_pipe(tmp_path)
    graph["ext"].ingest({"v": 1}, now=0.0, ts=5.0)
    with pytest.raises(TimestampError, match="not a timestamp"):
        graph["ext"].inject_punctuation(float("nan"))
    graph["ext"].inject_punctuation(6.0)
    report = _recover_external_pipe(tmp_path, graph, engine, manager)
    assert report.punctuations_replayed == 1


# --------------------------------------------------------------------- #
# The sequence floor after a restore


def _never_matching_join(tmp_path):
    """A keyed join whose inputs never share a key: every row it consumes
    stays in a window, and nothing else in the graph holds a data tuple."""
    graph = QueryGraph("seq-floor")
    left, right = graph.add_source("left"), graph.add_source("right")
    join = graph.add(WindowJoin("join", WindowSpec.time(100.0), key="k"))
    sink = graph.add_sink("sink")
    graph.connect(left, join)
    graph.connect(right, join)
    graph.connect(join, sink)
    clock = VirtualClock()
    engine = ExecutionEngine(graph, clock, cost_model=None,
                             ets_policy=NoEts(), batch_size=4)
    manager = RecoveryManager(tmp_path / "state").bind(graph, engine, clock)
    return graph, clock, engine, manager


def test_restore_draws_seqs_above_the_window_columns(tmp_path):
    """A window snapshot carries its rows' ``seq``s as one column of plain
    ints.  The restore's floor must see that column: a fresh process whose
    counter starts low must draw above the largest restored ``seq``."""
    graph, clock, engine, manager = _never_matching_join(tmp_path)
    sources = {src.name: src for src in graph.sources()}
    for i in range(12):
        clock.advance_to(float(i))
        sources["left"].ingest({"k": 0, "i": i}, now=clock.now())
        sources["right"].ingest({"k": 1, "i": i}, now=clock.now())
    for name, source in sources.items():
        source.inject_punctuation(20.0, origin=f"eos:{name}")
    engine.wakeup()
    state = manager.assemble_state()
    windows = state["operators"]["join"]["windows"]
    top = max(max(win["items"].seq) for win in windows)
    assert sum(len(win["items"]) for win in windows) == 24
    without_windows = {**state, "operators": {
        name: op for name, op in state["operators"].items() if name != "join"}}
    assert _max_seq(without_windows) < top == _max_seq(state)
    manager.checkpoint()
    manager.close()

    saved = next(_tuples._SEQ)
    try:
        _tuples._SEQ = itertools.count(0)  # a fresh process's counter
        _, _, _, manager2 = _never_matching_join(tmp_path)
        assert manager2.recover().checkpoint_number == 1
        assert next(_tuples._SEQ) > top
        manager2.close()
    finally:
        _tuples.ensure_seq_above(saved)


# --------------------------------------------------------------------- #
# The single engine reads the log from its checkpoint's log point


def _tally_pipes(state_dir):
    """Two sources straight into their sinks, checkpointed every ten
    wake-ups: ``fast`` behind a throttle that refuses every other call,
    ``ext`` behind a quarantine that drops each regressed stamp — calls
    the log holds and no source snapshot counts."""
    graph = QueryGraph("tally")
    fast = graph.add_source("fast")
    ext = graph.add_source("ext", TimestampKind.EXTERNAL)
    graph.connect(fast, graph.add_sink("fast_out"))
    graph.connect(ext, graph.add_sink("ext_out"))
    fast.throttle = TokenBucketThrottle(0.5, capacity=1.0)
    ext.quarantine = QuarantinePolicy("drop")
    clock = VirtualClock()
    engine = ExecutionEngine(graph, clock, cost_model=None,
                             ets_policy=NoEts(), checkpoint_every=10)
    manager = RecoveryManager(state_dir).bind(graph, engine, clock)
    return graph, clock, engine, manager


def _drive_pipes(graph, clock, engine, wakeups, start=0):
    for i in range(start, start + wakeups):
        clock.advance_to(float(i))
        graph["fast"].ingest({"i": i}, now=clock.now())
        # every third stamp regresses below the last one: dropped
        graph["ext"].ingest({"i": i}, now=clock.now(),
                            ts=float(i - 5 if i % 3 == 2 else i))
        engine.wakeup()


def _full_read(state_dir) -> tuple[int, dict[str, int]]:
    """Records and ingests per source of the whole log, from byte 0."""
    records = WriteAheadLog(state_dir / "wal.log").replay()
    return len(records), dict(collections.Counter(
        rec["source"] for rec in records if rec.kind == "ingest"))


def _recover_pipes(state_dir):
    graph, clock, engine, manager = _tally_pipes(state_dir)
    return graph, clock, engine, manager, manager.recover()


def test_the_recovery_read_is_flat_in_uptime(tmp_path):
    """At 1x and 4x uptime, with the same checkpoint cadence, recovery
    walks the same records: only those past the newest checkpoint's log
    point.  The log's length and per-source ingest counts still come out
    as a full read finds them — throttled and quarantine-dropped calls
    included — and a second crash after the recovery counts on from
    there."""
    walked, logged = {}, {}
    for scale in (1, 4):
        state_dir = tmp_path / f"x{scale}"
        graph, clock, engine, manager = _tally_pipes(state_dir)
        _drive_pipes(graph, clock, engine, 120 * scale + 5)
        assert graph["fast"].throttled_count > 0
        assert graph["ext"].quarantine.dropped > 0
        manager.close()
        logged[scale] = manager.wal.records_written

        graph, clock, engine, manager, report = _recover_pipes(state_dir)
        walked[scale] = manager.wal.walked
        assert report.checkpoint_number > 0
        assert (report.wal_records, report.ingests_by_source) \
            == _full_read(state_dir)
        assert report.ingests_by_source == {"fast": 120 * scale + 5,
                                            "ext": 120 * scale + 5}
        _drive_pipes(graph, clock, engine, 17, start=120 * scale + 5)
        manager.close()

        *_, manager, again = _recover_pipes(state_dir)
        manager.close()
        assert (again.wal_records, again.ingests_by_source) \
            == _full_read(state_dir)
        assert again.ingests_by_source["fast"] == 120 * scale + 22
    assert logged[4] > 3.5 * logged[1]
    assert 0 < walked[1] and abs(walked[4] - walked[1]) <= 0.1 * walked[1]


def _checkpointed_pipes(state_dir, wakeups=45):
    graph, clock, engine, manager = _tally_pipes(state_dir)
    _drive_pipes(graph, clock, engine, wakeups)
    manager.close()
    return manager.store


def test_a_corrupt_newest_checkpoint_reads_from_the_older_point(
        tmp_path, monkeypatch):
    state_dir = tmp_path / "state"
    store = _checkpointed_pipes(state_dir)
    older, newest = store.numbers()[-2:]
    path = store.path_for(newest)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    image = store.load(older)
    size = (state_dir / "wal.log").stat().st_size
    walks = count_walks(monkeypatch)

    *_, manager, report = _recover_pipes(state_dir)
    manager.close()
    assert report.checkpoint_number == older
    assert [number for number, _ in report.skipped] == [newest]
    assert walks == [size - image["wal_offset"]]
    assert manager.wal.walked == report.wal_records - image["wal_index"]
    assert report.replayed == manager.wal.walked
    assert (report.wal_records, report.ingests_by_source) \
        == _full_read(state_dir)


def test_a_checkpoint_past_a_truncated_log_is_skipped(tmp_path):
    """A log cut below the newest checkpoint's point — at the older one's
    — leaves the newest no frame boundary to start from: it is skipped
    with that reason, and the older one is restored."""
    state_dir = tmp_path / "state"
    store = _checkpointed_pipes(state_dir)
    older, newest = store.numbers()[-2:]
    log = state_dir / "wal.log"
    log.write_bytes(log.read_bytes()[:store.load(older)["wal_offset"]])

    *_, manager, report = _recover_pipes(state_dir)
    manager.close()
    assert report.checkpoint_number == older
    assert report.wal_clean
    [(number, reason)] = report.skipped
    assert number == newest and "no frame boundary" in reason
    assert report.replayed == manager.wal.walked == 0
    assert (report.wal_records, report.ingests_by_source) \
        == _full_read(state_dir)


def test_a_torn_frame_at_the_newest_point_keeps_that_checkpoint(tmp_path):
    """A crash tearing the ``marks`` frame that follows a checkpointing
    wake-up leaves a torn tail at the checkpoint's log point.  That is
    still where the intact frames end: the checkpoint is restored and
    nothing replayed, where an older one would replay that wake-up and
    re-emit the rows the lost ``marks`` record counted."""
    state_dir = tmp_path / "state"
    store = _checkpointed_pipes(state_dir, wakeups=40)
    log = state_dir / "wal.log"
    data = log.read_bytes()
    *_, (start, _), (end, [marks]) = [
        (end, frame) for end, frame in WriteAheadLog._frames(data)]
    assert marks.kind == "marks"
    assert start == store.load(store.numbers()[-1])["wal_offset"]
    log.write_bytes(data[:(start + end) // 2])

    graph, *_, manager, report = _recover_pipes(state_dir)
    manager.close()
    assert report.checkpoint_number == store.numbers()[-1]
    assert not report.skipped and not report.wal_clean
    assert report.replayed == 0 and report.suppressed == {}
    assert graph["ext_out"].delivered == 27  # every third ``ext`` dropped


def test_every_checkpoint_corrupt_still_raises(tmp_path):
    state_dir = tmp_path / "state"
    store = _checkpointed_pipes(state_dir)
    for number in store.numbers():
        store.path_for(number).write_bytes(b"garbage")
    graph, clock, engine, manager = _tally_pipes(state_dir)
    with pytest.raises(RecoveryError, match="no usable checkpoint") as exc:
        manager.recover()
    manager.close()
    assert len(exc.value.fields["skipped"]) == len(store.numbers())


def test_a_format1_checkpoint_is_refused(tmp_path):
    """A document of the parent format (no log offset, no ingest tally)
    is refused loudly, never restored or passed over."""
    state_dir = tmp_path / "state"
    store = _checkpointed_pipes(state_dir)
    state = store.load(store.numbers()[-1])
    assert state["format"] == CHECKPOINT_FORMAT_VERSION == 2
    del state["wal_offset"], state["ingests"]
    store.save({**state, "format": 1})
    graph, clock, engine, manager = _tally_pipes(state_dir)
    with pytest.raises(RecoveryError, match="checkpoint format 1 != 2"):
        manager.recover()
    manager.close()
