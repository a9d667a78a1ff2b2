"""Write-ahead log for ingested tuples (the between-checkpoints half).

A checkpoint is a consistent image of the whole engine, but writing one per
tuple would be absurd; the WAL fills the gap.  Every input event — a tuple
ingested at a source, a punctuation injected by the harness — is appended
*before* it is applied (classical write-ahead discipline), so after a crash
the suffix of inputs since the last checkpoint can be replayed
deterministically.  Interleaved ``marks`` records persist each sink's
cumulative delivery count after every engine wake-up; the last marks record
that made it to disk is the sink high-water mark recovery uses to suppress
already-emitted output during replay (the exactly-once half of the story).

On-disk format (binary, little-endian):

* file header: the 8-byte magic ``RPWAL001``;
* one frame per append: ``u32 length`` + ``u32 crc32(payload)`` + payload,
  where the payload is the pickled record dict.

**Group commit.**  :meth:`WriteAheadLog.append` takes one record or a list
of them.  A list travels as one *group* frame — the payload
``{"kind": "group", "records": [...]}``, one write, one flush/fsync —
which every reader expands back into its member records.  Record indices,
:attr:`WriteAheadLog.records_written` and the replayed list therefore count
*records*, never frames, and a log of plain frames only (the pre-group
format) reads exactly as before.  No caller builds those lists itself:
every log is written through an :class:`InputJournal`, which stages what
is admitted between two wake-ups and commits it with the wake-up record as
one list (DESIGN.md §4f has the durability point this moves).

Appends are flushed and fsynced by default.  Replay is truncation-tolerant:
a torn final frame (short header, short payload, or CRC mismatch) ends the
replay cleanly instead of raising — exactly what a crash mid-append leaves
behind; a torn *group* frame drops the whole group, never part of it.
Corruption *before* the tail is indistinguishable from truncation and
likewise ends the replay; the replayed prefix is always consistent.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from ..core.errors import RecoveryError

__all__ = ["InputJournal", "WalRecord", "WriteAheadLog", "WAL_MAGIC"]

WAL_MAGIC = b"RPWAL001"
_FRAME = struct.Struct("<II")  # length, crc32


class WalRecord(dict):
    """One WAL record: a dict with a mandatory ``kind`` key.

    Kinds written by an :class:`InputJournal` (DESIGN.md §4f): ``ingest``
    and ``punct`` (one input command each), ``wakeup`` (the drive
    schedule) and ``marks`` (delivered counts: ``{sink: count}``, or one
    per shard after an ``epoch`` tag on a facade).

    A ``group`` frame never surfaces as a record: readers yield its members.
    """

    @property
    def kind(self) -> str:
        return self["kind"]


class WriteAheadLog:
    """Append-only, CRC-framed, fsynced log of input events.

    Args:
        path: Log file location; created (with header) on first append.
        fsync: Fsync after every append (default).  Turning it off trades
            durability of the tail for speed — the replay still stops
            cleanly at whatever made it to disk.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._fp: BinaryIO | None = None
        #: Records appended through this handle plus those already on disk
        #: when the log was opened (i.e. the current WAL position).
        self.records_written = 0

    # ------------------------------------------------------------------ #
    # Writing

    def _open(self) -> BinaryIO:
        if self._fp is None:
            existing = self.path.exists() and self.path.stat().st_size > 0
            if existing:
                # Continue an existing log (post-recovery): trust only the
                # replayable prefix and count from it.
                self.records_written = len(self.replay())
            self._fp = open(self.path, "ab")
            if not existing:
                self._fp.write(WAL_MAGIC)
                self._fp.flush()
                if self.fsync:
                    os.fsync(self._fp.fileno())
        return self._fp

    def append(self, record: dict | Sequence[dict]) -> None:
        """Durably append one frame (write-ahead: call *before* applying).

        The only writer.  ``record`` is a single record (a plain frame) or
        a list of records committed together (a group frame, whatever its
        length); either way it is one write, one flush and one fsync, and
        ``records_written`` advances by the records it holds.
        """
        if isinstance(record, dict):
            members, frame = [record], record
        else:
            members = list(record)
            frame = {"kind": "group", "records": members}
        for member in members:
            if "kind" not in member:
                raise RecoveryError(f"WAL record needs a 'kind': {member!r}")
        payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        fp = self._open()
        fp.write(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
        fp.flush()
        if self.fsync:
            os.fsync(fp.fileno())
        self.records_written += len(members)

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if self._fp is not None:
            self._fp.close()
            self._fp = None

    def truncate_to_valid(self) -> int:
        """Cut a torn/corrupt tail off the log; returns surviving records.

        Called by recovery before appending past a crash: new appends after
        a torn frame would be unreachable (replay stops at the first bad
        frame), so the bad tail must go first.  A log that is already clean
        is left untouched.
        """
        self.close()
        data = self._read()
        count = 0
        valid = len(WAL_MAGIC)
        for valid, members in self._frames(data):
            count += len(members)
        if data and valid < len(data):
            with open(self.path, "r+b") as fp:
                fp.truncate(valid)
                fp.flush()
                os.fsync(fp.fileno())
        self.records_written = count
        return count

    # ------------------------------------------------------------------ #
    # Reading

    def _read(self) -> bytes:
        """The file's bytes (empty when absent), magic checked."""
        if not self.path.exists():
            return b""
        data = self.path.read_bytes()
        if data and not data.startswith(WAL_MAGIC):
            raise RecoveryError(
                f"{self.path}: not a WAL file (bad magic)",
                path=str(self.path))
        return data

    @staticmethod
    def _frames(data: bytes) -> Iterator[tuple[int, list[WalRecord]]]:
        """Walk the intact frames of ``data``: ``(end offset, records)``.

        The one frame walk: stops without raising at the first torn header,
        torn payload, CRC mismatch or unpicklable payload, so the last
        offset yielded is where the valid prefix ends.  A group frame yields
        its members; a plain frame yields a one-record list.
        """
        offset = len(WAL_MAGIC)
        end = len(data)
        while offset + _FRAME.size <= end:
            length, crc = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            offset = start + length
            if offset > end:
                return  # torn payload
            payload = data[start:offset]
            if zlib.crc32(payload) != crc:
                return  # corrupt frame: stop here
            try:
                record = pickle.loads(payload)
                members = (record["records"] if record["kind"] == "group"
                           else (record,))
            except Exception:
                return
            yield offset, [WalRecord(member) for member in members]

    def replay(self) -> list[WalRecord]:
        """Every intact record, in append order (see module docstring)."""
        return self.replay_with_status()[0]

    def replay_with_status(self) -> tuple[list[WalRecord], bool]:
        """Intact records plus whether the log ended cleanly.

        Returns ``(records, clean)`` where ``clean`` is False when a torn or
        corrupt tail frame cut the replay short.
        """
        data = self._read()
        records: list[WalRecord] = []
        valid = len(WAL_MAGIC)
        for valid, members in self._frames(data):
            records.extend(members)
        return records, not data or valid == len(data)


class InputJournal:
    """The one staging protocol over a :class:`WriteAheadLog`.

    Commands admitted between wake-ups are staged; :meth:`commit` writes
    them with the wake-up's own record as one group frame, before the
    wake-up runs.  :meth:`append` writes a record at once (a row admitted
    inside a wake-up); :meth:`mark` appends a ``marks`` record when the
    delivered counts changed; :meth:`read` takes the intact log back.
    Without a ``path`` nothing is written; with ``history`` every staged
    record is also kept, in call order (a reshard's script).
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 history: bool = False) -> None:
        self.wal = WriteAheadLog(path) if path is not None else None
        self.history: list[dict] | None = [] if history else None
        #: The counts of the last ``marks`` record (None before the first).
        self.marks = None
        self._staged: list[dict] = []

    def stage(self, record: dict) -> None:
        self._staged.append(record)
        if self.history is not None:
            self.history.append(record)

    def commit(self, wakeup: dict) -> None:
        self.stage(wakeup)
        self.flush()

    def flush(self) -> None:
        """Write what is staged as one group frame."""
        if self._staged:
            staged, self._staged = self._staged, []
            if self.wal is not None:
                self.wal.append(staged)

    def append(self, record: dict) -> None:
        """Write ``record`` at once, as a plain frame."""
        self.wal.append(record)

    def mark(self, marks, **tags) -> None:
        """Append ``{"kind": "marks", **tags, "marks": marks}`` unless
        ``marks`` equal the last record's."""
        if self.wal is not None and marks != self.marks:
            self.wal.append({"kind": "marks", **tags, "marks": marks})
            self.marks = marks

    def read(self) -> tuple[list[WalRecord], bool]:
        """The intact records and whether the log ended cleanly, a torn
        tail cut off first; :attr:`marks` and the history (plus what is
        still staged) are taken from them."""
        records, clean = self.wal.replay_with_status()
        if not clean:
            self.wal.truncate_to_valid()
        self.marks = next((rec["marks"] for rec in reversed(records)
                           if rec.kind == "marks"), None)
        if self.history is not None:
            self.history = [rec for rec in records
                            if rec.kind != "marks"] + self._staged
        return records, clean

    def close(self) -> None:
        """Release the file handle; staged records are not written."""
        if self.wal is not None:
            self.wal.close()
