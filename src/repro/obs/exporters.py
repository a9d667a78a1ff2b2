"""Exporters: the event stream in standard external formats.

Two consumers, two formats:

* :class:`JsonlExporter` — every bus event as one JSON object per line;
  greppable, replayable, and the golden-file format of the exporter tests.
* :class:`ChromeTraceExporter` — the Chrome ``trace_event`` JSON format
  (load in ``chrome://tracing`` or Perfetto): wake-up rounds become nested
  duration slices, execution steps become complete events with their
  simulated CPU cost as duration, and NOS / ETS / punctuation / fault
  decisions become instant events — a flame-graph view of the
  Execute/Encore/Backtrack walks.

All exporters buffer in memory and write on demand: the simulation is
virtual-time, so there is no need (and no way) to stream in real time.
"""

from __future__ import annotations

import json
import os
from typing import IO

from .bus import Observer

__all__ = ["JsonlExporter", "ChromeTraceExporter"]


class JsonlExporter(Observer):
    """Records every bus event as a JSON-serializable dict, one per line.

    Args:
        capacity: Optional cap on retained events; when reached, recording
            stops and :attr:`dropped` counts the overflow (a terminal
            ``{"event": "truncated"}`` record marks the cut).
        path: Optional destination; when set, :meth:`close` persists the
            records there (with flush + fsync, so the trace survives a
            crash that follows the close).
    """

    def __init__(self, capacity: int | None = None,
                 path: str | None = None) -> None:
        self.records: list[dict] = []
        self.capacity = capacity
        self.dropped = 0
        self.path = path
        self.closed = False

    def _record(self, event: str, kw: dict) -> None:
        if self.capacity is not None and len(self.records) >= self.capacity:
            if not self.dropped:
                self.records.append({"event": "truncated"})
            self.dropped += 1
            return
        rec = {"event": event}
        rec.update(kw)
        self.records.append(rec)

    def on_wakeup(self, **kw) -> None:
        self._record("wakeup", kw)

    def on_step(self, **kw) -> None:
        self._record("step", kw)

    def on_nos_decision(self, **kw) -> None:
        self._record("nos_decision", kw)

    def on_ets(self, **kw) -> None:
        self._record("ets", kw)

    def on_punctuation(self, **kw) -> None:
        self._record("punctuation", kw)

    def on_arrival(self, **kw) -> None:
        self._record("arrival", kw)

    def on_buffer_change(self, **kw) -> None:
        self._record("buffer_change", kw)

    def on_fault(self, **kw) -> None:
        self._record("fault", kw)

    def on_quiesce(self, **kw) -> None:
        self._record("quiesce", kw)

    def on_checkpoint(self, **kw) -> None:
        self._record("checkpoint", kw)

    def on_recovery(self, **kw) -> None:
        self._record("recovery", kw)

    def lines(self) -> list[str]:
        """The events as JSON-lines strings (sorted keys: byte-stable)."""
        return [json.dumps(rec, sort_keys=True, default=str)
                for rec in self.records]

    def dump(self, fp: IO[str]) -> None:
        for line in self.lines():
            fp.write(line + "\n")

    def write(self, path: str) -> None:
        """Write the records to ``path``, flushed and fsynced to disk.

        The fsync matters in this codebase: traces of a crashing run are
        evidence, and evidence sitting in OS page cache dies with the
        machine.
        """
        with open(path, "w") as fp:
            self.dump(fp)
            fp.flush()
            os.fsync(fp.fileno())

    def close(self) -> None:
        """Persist to :attr:`path` (when set) durably; idempotent.

        The first call writes + fsyncs; subsequent calls are no-ops, so
        crash handlers and ``finally`` blocks may both close safely.
        """
        if self.closed:
            return
        self.closed = True
        if self.path is not None:
            self.write(self.path)


#: Microseconds per simulated second in Chrome trace timestamps.
_US = 1_000_000.0


class ChromeTraceExporter(Observer):
    """Builds a Chrome ``trace_event`` JSON document from the bus stream.

    Mapping:

    * each wake-up round is a ``B``/``E`` duration pair named
      ``round <id>`` — the outer frame of the flame graph;
    * each execution step is a complete ``X`` event named after the
      operator, with the charged simulated CPU cost as its duration;
    * NOS decisions, ETS consultations, punctuation injections, and fault
      actions are instant ``i`` events on their own threads, so the
      decision stream reads as annotation lanes under the step flames.
    """

    PID = 1
    TID_ENGINE = 1
    TID_DECISIONS = 2
    TID_FAULTS = 3

    def __init__(self) -> None:
        self.events: list[dict] = []

    def _instant(self, name: str, time: float, tid: int, args: dict) -> None:
        self.events.append({
            "name": name, "ph": "i", "s": "t",
            "ts": time * _US, "pid": self.PID, "tid": tid, "args": args,
        })

    def on_wakeup(self, *, round_id, time, entry=None) -> None:
        self.events.append({
            "name": f"round {round_id}", "cat": "round", "ph": "B",
            "ts": time * _US, "pid": self.PID, "tid": self.TID_ENGINE,
            "args": {"entry": entry} if entry else {},
        })

    def on_quiesce(self, *, round_id, time) -> None:
        self.events.append({
            "name": f"round {round_id}", "cat": "round", "ph": "E",
            "ts": time * _US, "pid": self.PID, "tid": self.TID_ENGINE,
        })

    def on_step(self, *, operator, round_id, time, kind, steps=1, probes=0,
                probes_emitted=0, emitted_data=0, emitted_punctuation=0,
                duration=0.0) -> None:
        self.events.append({
            "name": operator, "cat": f"step:{kind}", "ph": "X",
            "ts": (time - duration) * _US, "dur": duration * _US,
            "pid": self.PID, "tid": self.TID_ENGINE,
            "args": {"round": round_id, "steps": steps, "probes": probes,
                     "probes_emitted": probes_emitted,
                     "emitted_data": emitted_data,
                     "emitted_punctuation": emitted_punctuation},
        })

    def on_nos_decision(self, *, decision, operator, round_id, time,
                        detail="") -> None:
        self._instant(f"{decision}:{operator}", time, self.TID_DECISIONS,
                      {"round": round_id, "detail": detail})

    def on_ets(self, *, operator, round_id, time, injected,
               offered=True) -> None:
        outcome = "injected" if injected else "declined"
        self._instant(f"ets:{operator}:{outcome}", time, self.TID_DECISIONS,
                      {"round": round_id})

    def on_punctuation(self, *, operator, round_id, time, origin,
                       ts=None) -> None:
        self._instant(f"punctuation:{operator}", time, self.TID_DECISIONS,
                      {"round": round_id, "origin": origin, "ts": ts})

    def on_arrival(self, *, operator, time, external_ts=None) -> None:
        self._instant(f"arrival:{operator}", time, self.TID_DECISIONS,
                      {"external_ts": external_ts})

    def on_fault(self, *, kind, operator, round_id, time, detail="") -> None:
        self._instant(f"{kind}:{operator}", time, self.TID_FAULTS,
                      {"round": round_id, "detail": detail})

    def on_checkpoint(self, *, number, time, duration=0.0, bytes_written=0,
                      wal_records=0) -> None:
        self._instant(f"checkpoint:{number}", time, self.TID_FAULTS,
                      {"duration": duration, "bytes": bytes_written,
                       "wal_records": wal_records})

    def on_recovery(self, *, checkpoint, time, replayed=0, suppressed=0,
                    duration=0.0, fallback=False, detail="") -> None:
        self._instant(f"recovery:from-{checkpoint}", time, self.TID_FAULTS,
                      {"replayed": replayed, "suppressed": suppressed,
                       "duration": duration, "fallback": fallback,
                       "detail": detail})

    def to_document(self) -> dict:
        """The full ``trace_event`` JSON document (metadata included)."""
        metadata = [
            {"name": "process_name", "ph": "M", "pid": self.PID,
             "args": {"name": "repro engine"}},
            {"name": "thread_name", "ph": "M", "pid": self.PID,
             "tid": self.TID_ENGINE, "args": {"name": "engine walk"}},
            {"name": "thread_name", "ph": "M", "pid": self.PID,
             "tid": self.TID_DECISIONS, "args": {"name": "NOS decisions"}},
            {"name": "thread_name", "ph": "M", "pid": self.PID,
             "tid": self.TID_FAULTS, "args": {"name": "fault path"}},
        ]
        return {"traceEvents": metadata + self.events,
                "displayTimeUnit": "ms"}

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_document(), indent=indent, sort_keys=True,
                          default=str)

    def write(self, path: str) -> None:
        with open(path, "w") as fp:
            fp.write(self.to_json())
