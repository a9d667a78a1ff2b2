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

**Reading from a point.**  A reader that already holds what the log says
up to some frame boundary — a checkpoint, or a sharded facade's image of
its own tallies (DESIGN.md §4f) — passes that boundary's *log point*,
``(offset, records)``, to :meth:`WriteAheadLog.stream` and walks only the
frames past it; the bytes below are not read, let alone re-validated.
:meth:`WriteAheadLog.tell` gives the point where the next frame will
begin, and :meth:`WriteAheadLog.frame_at` says whether an offset is still
such a boundary of the file.
"""

from __future__ import annotations

import os
import pickle
from functools import partial
from operator import is_not, itemgetter
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from ..core.errors import RecoveryError
from ..core.tuples import LATENT_TS

__all__ = ["CommandHistory", "InputJournal", "WalRecord", "WriteAheadLog",
           "WAL_MAGIC"]

WAL_MAGIC = b"RPWAL001"
_FRAME = struct.Struct("<II")  # length, crc32
_KIND, _TS = itemgetter("kind"), itemgetter("ts")
_EXTERNAL = partial(is_not, None)  # a command's ``ts`` is set


class WalRecord(dict):
    """One WAL record: a dict with a mandatory ``kind`` key.

    Kinds written by an :class:`InputJournal` (DESIGN.md §4f): ``ingest``
    and ``punct`` (one input command each), ``wakeup`` (the drive
    schedule), ``marks`` (delivered counts: ``{sink: count}``, or one
    per shard after an ``epoch`` tag on a facade) and, on a facade,
    ``cut`` (every shard of ``epoch`` checkpointed at log ``position``
    with state ``floor``; DESIGN.md §4g).

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
        #: Where the next frame begins (valid while the file is open).
        self.end = 0
        #: ``(size, mtime_ns, records, end)`` as the last read found the
        #: file: its stamp, then the intact prefix's records and end offset
        #: (absolute, wherever the read started).
        self._seen: tuple[int, int | None, int, int] | None = None
        #: Whether the last full :meth:`stream` found no torn tail.
        self.clean = True
        #: The log point ``(offset, records)`` where the frame
        #: :meth:`stream` yielded last begins, and the records the last
        #: full :meth:`stream` walked.
        self.point: tuple[int, int] | None = None
        self.walked = 0

    # ------------------------------------------------------------------ #
    # Writing

    def _open(self) -> BinaryIO:
        if self._fp is None:
            existing = self._stamp()[0] > 0
            if existing:
                # Continue an existing log (post-recovery): trust only the
                # replayable prefix and count from it, as the read that
                # recovery made found it.
                _, self.records_written, self.end = self._intact()
            self._fp = open(self.path, "ab")
            if not existing:
                self.end = len(WAL_MAGIC)
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
        self.end += _FRAME.size + len(payload)

    def tell(self) -> tuple[int, int]:
        """The log point where the next frame will begin: ``(offset,
        records)``, records counting every record before it."""
        self._open()
        return self.end, self.records_written

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
        is left untouched.  The cut is where the last read of this file
        found the intact prefix ending; only a file read by no one, or
        changed since, is walked again.
        """
        self.close()
        size, count, end = self._intact()
        if end < size:
            with open(self.path, "r+b") as fp:
                fp.truncate(end)
                fp.flush()
                os.fsync(fp.fileno())
            self._seen = (*self._stamp(), count, end)
        self.records_written = count
        return count

    def _stamp(self) -> tuple[int, int | None]:
        """The file's ``(size, mtime_ns)``; ``(0, None)`` when absent."""
        try:
            stat = self.path.stat()
        except FileNotFoundError:
            return 0, None
        return stat.st_size, stat.st_mtime_ns

    def _intact(self) -> tuple[int, int, int]:
        """``(size, records, end)``: the file's size, and the record count
        and end offset of its intact prefix.  Taken from the last read
        while the file is the one it read (same size and mtime), so a
        recovery's read is the only walk of the log; else read again."""
        if self._seen is None or self._seen[:2] != self._stamp():
            for _ in self.stream():
                pass
        size, _, records, end = self._seen
        return size, records, end

    # ------------------------------------------------------------------ #
    # Reading

    def _read(self, start: int) -> tuple[bool, bytes]:
        """Whether the file holds anything, and its bytes from ``start`` on
        (the whole file at 0; magic checked; an absent file holds
        nothing)."""
        try:
            fp = open(self.path, "rb")
        except FileNotFoundError:
            return False, b""
        with fp:
            head = fp.read(len(WAL_MAGIC))
            if head and head != WAL_MAGIC:
                raise RecoveryError(
                    f"{self.path}: not a WAL file (bad magic)",
                    path=str(self.path))
            size = os.fstat(fp.fileno()).st_size
            if head and start > size:
                raise RecoveryError(
                    f"{self.path}: offset {start} lies past the end "
                    f"({size})", path=str(self.path))
            fp.seek(start)
            return bool(head), fp.read()

    def frame_at(self, offset: int, *, torn: bool = False) -> bool:
        """Whether the intact frames can continue at ``offset``: it is the
        file's end, or a whole frame whose CRC matches starts there — or,
        if ``torn``, one torn mid-append that the read cuts off there."""
        size = self._stamp()[0]
        if not len(WAL_MAGIC) <= offset <= size:
            return False
        if offset == size:
            return True
        with open(self.path, "rb") as fp:
            fp.seek(offset)
            header = fp.read(_FRAME.size)
            if len(header) < _FRAME.size:
                return torn
            length, crc = _FRAME.unpack(header)
            payload = fp.read(length)
        if len(payload) < length:
            return torn
        return zlib.crc32(payload) == crc

    @staticmethod
    def _frames(data: bytes, start: int = len(WAL_MAGIC)
                ) -> Iterator[tuple[int, list[WalRecord]]]:
        """Walk the intact frames of ``data`` from ``start`` (a frame
        boundary; by default the first frame of a whole file):
        ``(end offset, records)``.

        The one frame walk: stops without raising at the first torn header,
        torn payload, CRC mismatch or unpicklable payload, so the last
        offset yielded is where the valid prefix ends.  A group frame yields
        its members; a plain frame yields a one-record list.
        """
        offset = start
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
        """Every intact record, in append order; :attr:`clean` is then set."""
        return [rec for frame in self.stream() for rec in frame]

    def stream(self, offset: int = 0, records: int = 0
               ) -> Iterator[list[WalRecord]]:
        """The records of every intact frame past the log point ``(offset,
        records)`` — by default the start — in append order, one frame at a
        time: a reader keeps only what it needs, and :attr:`point` says
        where each frame begins.  ``offset`` must be a frame boundary
        (:meth:`frame_at`), ``records`` the count of records before it;
        nothing below it is read.  Once exhausted, :attr:`clean` says
        whether the log ended cleanly, and the handle keeps the intact
        prefix's absolute record count and end offset, which the next
        :meth:`truncate_to_valid` and the first append reuse."""
        stamp = self._stamp()
        if offset < len(WAL_MAGIC):
            offset = 0
        exists, data = self._read(offset)
        first = 0 if offset else len(WAL_MAGIC)  # the whole file at 0
        at, count = offset + first, records
        for end, members in self._frames(data, first):
            self.point = (at, count)
            count += len(members)
            at = offset + end
            yield members
        end = at if exists else 0
        self._seen = (*stamp, count, end)
        self.clean = not exists or at == offset + len(data)
        self.walked = count - records


class CommandHistory:
    """The commands a facade staged, bounded by what a replay can use.

    :attr:`records` holds the live suffix of the log's ``ingest``,
    ``punct`` and ``wakeup`` records — whole wake-up segments, the first
    at log position :attr:`base` + 1 — and then what is staged.  Each
    wake-up is summarised when it commits: its record count, the largest
    stamp bound of its ingests (the external ``ts``, else the wake-up's
    ``now``, which bounds any internal or latent stamp), its punctuation
    commands in ``apply``'s form, its ``now``, and the log point where its
    frame begins.  :meth:`prune` drops the longest prefix of segments whose
    bound lies below the last state floor :meth:`trim` learned, in
    O(segments), and folds it into :attr:`carried` (its punctuation) and
    :attr:`carried_at` (the ``(now, position)`` of its last segment).
    What a replay needs of the whole history is kept as a running value
    from the first command on: the ingest count.  (The distinct partition
    keys are the facade's: it counts the ingests per key.)

    :meth:`image` holds those running values, the last floor learned and
    the log point where the live suffix begins; a history built from an
    ``image`` has no segment until it is rebuilt from that point on
    (:meth:`InputJournal.stream`).
    """

    def __init__(self, image: dict | None = None) -> None:
        self.records: list[dict] = []
        #: ``(size, ingests, top, puncts, now, at)`` per committed segment
        #: in records.
        self.segments: list[tuple] = []
        self.base = 0
        self.carried: list[tuple] = []
        self.carried_at: tuple | None = None
        #: Ingests in the dropped prefix.
        self.dropped = 0
        self._floor = LATENT_TS  # the last state floor learned
        self._floor_at = 0  # the segments it speaks for: those below this
        if image is not None:
            self.base, self.carried_at = image["base"], image["carried_at"]
            self.carried = list(image["carried"])
            self.dropped = image["dropped"]
        self._committed = self.dropped  # ingests in committed segments
        self._open = 0  # where the staged records start

    def image(self) -> dict:
        """After a :meth:`prune`, the running values (copied: the image
        owns them), the last floor learned and the log point where the
        live suffix's first frame begins (None when no segment is live)."""
        self.prune()
        return {"base": self.base, "carried": list(self.carried),
                "carried_at": self.carried_at, "dropped": self.dropped,
                "floor": self._floor,
                "at": self.segments[0][-1] if self.segments else None}

    @property
    def staged(self) -> list[dict]:
        """The commands staged since the last wake-up."""
        return self.records[self._open:]

    @property
    def ingests(self) -> int:
        """Every ingest staged so far, the dropped prefix included."""
        return self._committed + sum(
            1 for rec in self.staged if rec["kind"] == "ingest")

    def commit(self, wakeup: dict, at: tuple[int, int] | None = None
               ) -> None:
        """Close the staged commands with ``wakeup`` and summarise them,
        after a :meth:`prune` at the last floor learned; ``at`` is the log
        point where their frame begins (None without a log)."""
        self.prune()
        records = self.records
        records.append(wakeup)
        now = wakeup["now"]
        ingests = records[self._open:-1]
        puncts = []
        if "punct" in map(_KIND, ingests):
            puncts = [(rec["source"], rec["ts"], rec["origin"],
                       rec["periodic"])
                      for rec in ingests if rec["kind"] == "punct"]
            ingests = [rec for rec in ingests if rec["kind"] == "ingest"]
        stamps = list(map(_TS, ingests))
        # An internal or latent row has no ``ts``; ``now`` bounds its stamp.
        internal = stamps.count(None)
        top = now if internal else LATENT_TS
        if internal < len(stamps):
            top = max(top, max(filter(_EXTERNAL, stamps) if internal
                               else stamps))
        self._committed += len(ingests)
        self.segments.append((len(records) - self._open, len(ingests), top,
                              puncts, now, at))
        self._open = len(records)

    def trim(self, floor: float, position: int | None = None) -> None:
        """Learn a state floor; the next :meth:`commit` (or :meth:`prune`)
        cuts the history at it, so the checkpoint that learned it does not
        also pay for freeing what the cut drops.  A floor speaks for the
        state the segments up to log ``position`` built (by default, those
        committed so far), not for later ones (a state holding no row
        answers ``+inf``); one learned at a lower position than the last
        is passed over."""
        if position is None:
            position = self.base + len(self.segments)
        if position >= self._floor_at:
            self._floor, self._floor_at = floor, position

    def prune(self) -> None:
        """Drop the longest prefix of segments, among those the last floor
        learned speaks for, every ingest of which is stamped below that
        floor, folding it into the running values."""
        floor, cover = self._floor, self._floor_at - self.base
        dropped = size = 0
        for length, ingests, top, puncts, now, _ in self.segments:
            if dropped == cover or not top < floor:
                break
            dropped += 1
            size += length
            self.dropped += ingests
            self.carried += puncts
            self.carried_at = (now, self.base + dropped)
        if dropped:
            del self.records[:size]
            del self.segments[:dropped]
            self.base += dropped
            self._open -= size


class InputJournal:
    """The one staging protocol over a :class:`WriteAheadLog`.

    Commands admitted between wake-ups are staged; :meth:`commit` writes
    them with the wake-up's own record as one group frame, before the
    wake-up runs.  :meth:`append` writes a record at once (a row admitted
    inside a wake-up); :meth:`mark` appends a ``marks`` record when the
    delivered counts changed; :meth:`cut` stages a ``cut`` record after a
    checkpoint; :meth:`stream` takes the intact log back from a point.
    Without a ``path`` nothing is written.  With a ``history``, every
    staged command also goes there, and each cut trims it to the live
    suffix of the cut's floor (see :class:`CommandHistory`).
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 history: CommandHistory | None = None) -> None:
        self.wal = WriteAheadLog(path) if path is not None else None
        self.history = history
        #: The counts of the last ``marks`` record (None before the first).
        self.marks = None
        self._staged: list[dict] = []

    def stage(self, record: dict) -> None:
        self._staged.append(record)
        if self.history is not None:
            self.history.records.append(record)

    def commit(self, wakeup: dict) -> None:
        self._staged.append(wakeup)
        if self.history is not None:
            self.history.commit(wakeup, None if self.wal is None
                                else self.wal.tell())
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

    def mark(self, marks, **tags) -> bool:
        """Append ``{"kind": "marks", **tags, "marks": marks}`` unless
        ``marks`` equal the last record's; returns whether it did."""
        if self.wal is None or marks == self.marks:
            return False
        self.wal.append({"kind": "marks", **tags, "marks": marks})
        self.marks = marks
        return True

    def cut(self, *, position: int, floor: float, epoch: int) -> None:
        """Record that every shard image of log ``position``, with state
        floor ``floor``, is on disk: a ``cut`` record staged for the next
        frame (the history never holds it), and the floor taught to the
        history at ``position`` (:meth:`CommandHistory.trim`)."""
        if self.wal is not None:
            self._staged.append({"kind": "cut", "position": position,
                                 "floor": floor, "epoch": epoch})
        if self.history is not None:
            self.history.trim(floor, position)

    def stream(self, start: tuple[int, int] = (0, 0), *,
               image: dict | None = None, marks=None
               ) -> Iterator[list[WalRecord]]:
        """The intact records past the log point ``start``, one frame at a
        time; ``marks`` are the counts of the last ``marks`` record before
        it.  As they pass, the history is rebuilt as the run built it —
        every command staged, every wake-up committed, every ``cut``
        trimming — and once the stream is exhausted a torn tail is cut
        off, :attr:`marks` holds the last ``marks`` record and the history
        ends with what is still staged.

        Past a ``start`` the history is rebuilt from its ``image`` (see
        :meth:`CommandHistory.image`, taken at ``start``): the frames from
        the image's point up to ``start`` are walked for the history alone
        — their commands staged and wake-ups committed, their ``cut``
        records passed over, since the run pruned none of these segments
        away — and the image's floor is learned at ``start``."""
        history = self.history
        walk = start
        if history is not None:
            staged = history.staged
            history = self.history = CommandHistory(image)
            stage = history.records.append
            if image is not None and image["at"] is not None:
                walk = min(start, image["at"])
        wal = self.wal
        below = walk < start  # walking the history's frames below start
        opened = None  # where the segment being rebuilt begins
        for frame in wal.stream(*walk):
            if below and wal.point >= start:
                below = False
                history.trim(image["floor"])
            for rec in frame:
                kind = rec["kind"]
                if kind == "marks":
                    if not below:
                        marks = rec["marks"]
                elif history is None:
                    pass
                elif kind == "wakeup":
                    history.commit(rec, opened or wal.point)
                    opened = None
                elif kind == "cut":
                    if not below:
                        history.trim(rec["floor"], rec["position"])
                else:
                    stage(rec)
                    opened = opened or wal.point
            if not below:
                yield frame
        if below:
            history.trim(image["floor"])
        if not wal.clean:
            wal.truncate_to_valid()
        self.marks = marks
        if history is not None:
            history.records += staged

    def close(self) -> None:
        """Release the file handle; staged records are not written."""
        if self.wal is not None:
            self.wal.close()
