"""Exporter tests: golden files, truncation, and document structure.

The golden files under ``tests/golden/`` pin the exporters' byte output for
one fully deterministic run (manual ingests, zero cost model, on-demand
ETS — no randomness anywhere).  They are the serialization contract: a
diff here means the event vocabulary or an export format changed, which is
an API change and must be deliberate.  Regenerate with::

    PYTHONPATH=src python tests/test_obs_exporters.py --regen
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.core.ets import OnDemandEts
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union
from repro.obs import (
    ChromeTraceExporter,
    JsonlExporter,
    MetricsRegistry,
)
from repro.sim.clock import VirtualClock

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_run() -> tuple[JsonlExporter, ChromeTraceExporter, MetricsRegistry]:
    """One deterministic run of the paper's Fig.-4 union under on-demand
    ETS: two fast tuples (the second triggers backtrack → ETS at the
    stalled slow source), then a slow tuple, then quiescence."""
    g = QueryGraph("golden")
    fast = g.add_source("fast")
    slow = g.add_source("slow")
    keep = g.add(Select("keep", lambda p: p["v"] >= 0))
    union = g.add(Union("union"))
    sink = g.add_sink("sink")
    g.connect(fast, keep)
    g.connect(keep, union)
    g.connect(slow, union)
    g.connect(union, sink)

    events = JsonlExporter()
    trace = ChromeTraceExporter()
    registry = MetricsRegistry()
    clock = VirtualClock()
    engine = ExecutionEngine(g, clock, ets_policy=OnDemandEts(),
                             observers=[events, trace, registry])
    clock.advance_to(1.0)
    fast.ingest({"v": 1}, now=1.0)
    fast.ingest({"v": 2}, now=1.0)
    engine.wakeup(entry=fast)
    clock.advance_to(2.5)
    slow.ingest({"v": 3}, now=2.5)
    engine.wakeup(entry=slow)
    engine.wakeup()  # empty round: wakeup + quiesce only
    return events, trace, registry


def _read(name: str) -> str:
    return (GOLDEN / name).read_text()


def test_jsonl_matches_golden():
    events, _, _ = golden_run()
    assert "\n".join(events.lines()) + "\n" == _read("events.jsonl")


def test_chrome_trace_matches_golden():
    _, trace, _ = golden_run()
    assert trace.to_json(indent=2) + "\n" == _read("trace.json")


def test_prometheus_matches_golden():
    _, _, registry = golden_run()
    assert registry.render_prometheus() == _read("metrics.prom")


def test_chrome_document_structure():
    _, trace, _ = golden_run()
    doc = json.loads(trace.to_json())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    phases = [e["ph"] for e in events]
    # metadata first, then balanced B/E round frames
    assert phases.count("M") == 4
    begins = [e for e in events if e["ph"] == "B"]
    ends = [e for e in events if e["ph"] == "E"]
    assert len(begins) == len(ends) == 3  # three wake-up rounds
    assert [b["name"] for b in begins] == [e["name"] for e in ends]
    # every step slice is a complete event with non-negative duration
    for e in events:
        if e["ph"] == "X":
            assert e["dur"] >= 0
        assert e["pid"] == 1


def test_jsonl_capacity_truncates_loudly():
    events = JsonlExporter(capacity=3)
    for i in range(7):
        events.on_step(operator="op", round_id=1, time=float(i), kind="data")
    assert len(events.records) == 4  # 3 kept + the truncated marker
    assert events.records[-1] == {"event": "truncated"}
    assert events.dropped == 4
    assert json.loads(events.lines()[-1]) == {"event": "truncated"}


def test_jsonl_lines_are_sorted_key_json():
    events, _, _ = golden_run()
    for line in events.lines():
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True)


def test_exporters_write_files(tmp_path):
    events, trace, _ = golden_run()
    ev_path, tr_path = tmp_path / "e.jsonl", tmp_path / "t.json"
    events.write(str(ev_path))
    trace.write(str(tr_path))
    assert len(ev_path.read_text().splitlines()) == len(events.records)
    json.loads(tr_path.read_text())


def _regen() -> None:
    GOLDEN.mkdir(exist_ok=True)
    events, trace, registry = golden_run()
    (GOLDEN / "events.jsonl").write_text("\n".join(events.lines()) + "\n")
    (GOLDEN / "trace.json").write_text(trace.to_json(indent=2) + "\n")
    (GOLDEN / "metrics.prom").write_text(registry.render_prometheus())
    print(f"regenerated golden files in {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)


def test_jsonl_close_is_idempotent(tmp_path):
    path = tmp_path / "events.jsonl"
    events = JsonlExporter(path=str(path))
    events.on_wakeup(round_id=1, time=0.0)
    events.close()
    first = path.read_text()
    events.on_wakeup(round_id=2, time=1.0)  # after close: retained only
    events.close()  # no-op: must not rewrite or duplicate
    assert path.read_text() == first
    assert len(first.splitlines()) == 1


def test_jsonl_close_without_path_is_safe():
    events = JsonlExporter()
    events.on_wakeup(round_id=1, time=0.0)
    events.close()
    events.close()
    assert events.closed


def test_jsonl_write_flushes_and_fsyncs(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd), real_fsync(fd))[1])
    events = JsonlExporter(path=str(tmp_path / "events.jsonl"))
    events.on_wakeup(round_id=1, time=0.0)
    events.close()
    assert synced, "close() must fsync the trace to disk"
