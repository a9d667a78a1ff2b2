"""Window machinery for joins and aggregates.

The paper adopts the symmetric window-join semantics of Kang, Naughton and
Viglas (ICDE 2003): each join input maintains a window buffer ``W(X)`` of
recently consumed tuples; an arriving tuple on the other input probes the
window, then the probing tuple is inserted into its own window and expired
tuples are removed.

One class per retention policy:

* :class:`TimeWindow` — keep tuples whose timestamp is within ``span`` of the
  reference timestamp (time-based sliding window);
* :class:`CountWindow` — keep the last ``size`` tuples (tuple-based window).

Column layout
-------------

A window holds no tuple objects: its rows are five parallel columns (``ts``,
``seq``, ``kind``, ``arrival``, ``payloads`` — a
:class:`~repro.core.columnar.ColumnarBlock`'s layout).  A row's absolute
**row number** is ``base`` + its index and ``head`` indexes the first live
row: **a row is live iff its number is >= base + head**.  Retention only
moves ``head``; the dead prefix is cut off once it is at least 64 rows and
half the columns (amortized compaction shifts ``base``, never a number).
``insert_run`` appends a slice of five columns; ``matches`` and ``probe``
answer row numbers, the candidate's fields sitting at ``number - base``.

With a ``key_fn`` a window also files each number in the bucket of its key
(extracted once, at insert), so ``probe(key)`` examines one bucket instead of
the whole window; without one it keeps no buckets and ``probe`` raises.
Expiry stays O(dropped): the columns are trimmed eagerly (``len``, iteration
and the Fig.-8 memory metric stay exact), a bucket pops its dead head run
lazily when probed, and a **backstop sweep** purges every bucket once enough
rows have died (time: ``max(64, live rows)`` expirations since the last
sweep; count: every ``max(64, size)`` insertions), so a key that stops
arriving cannot retain dead numbers indefinitely.

A snapshot (version 2) is a column dump: ``items`` is a ``ColumnarBlock``
of the live rows.  A version-1 snapshot (a list of data tuples) restores.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from operator import le
from typing import (Any, Callable, Iterable, Iterator, Protocol, Sequence,
                    runtime_checkable)

from .columnar import ColumnarBlock
from .errors import ReproError
from .tuples import DataTuple

__all__ = [
    "WindowSpec",
    "WindowProtocol",
    "TimeWindow",
    "CountWindow",
]

#: Extracts the partition key from a tuple's payload (computed once, at
#: insert).  Must return a hashable value.
KeyFn = Callable[[Any], Any]

#: Five parallel columns: ts, seq, kind, arrival, payloads.
Rows = Sequence[Sequence[Any]]


@runtime_checkable
class WindowProtocol(Protocol):
    """The full window contract the join operators program against.  Every
    window — the join module's empty-side stub included — implements all of
    it, so a join treats both sides uniformly.  ``matches`` and ``probe``
    answer row numbers: row ``n`` sits at index ``n - base`` of a column."""

    base: int
    arrival: Sequence[float]
    payloads: Sequence[Any]

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[DataTuple]: ...

    def insert(self, tup: DataTuple) -> None: ...

    def insert_run(self, rows: Rows, start: int = 0,
                   stop: int | None = None) -> None: ...

    def expire(self, now: float) -> int: ...

    def matches(self, probe_ts: float) -> Iterable[int]: ...

    def probe(self, key: Any) -> Iterable[int]: ...

    def state_floor(self) -> float: ...

    def state_reach(self) -> float: ...


class WindowSpec:
    """Declarative description of a window, used by the query builder.

    Attributes:
        mode: ``"time"`` or ``"count"``.
        extent: Window span in stream-time seconds (time mode) or number of
            tuples (count mode).
    """

    __slots__ = ("mode", "extent")

    def __init__(self, mode: str, extent: float) -> None:
        if mode not in ("time", "count"):
            raise ReproError(f"unknown window mode {mode!r}")
        if extent <= 0:
            raise ReproError(f"window extent must be positive, got {extent}")
        if mode == "count" and int(extent) != extent:
            raise ReproError("count windows need an integer extent")
        self.mode = mode
        self.extent = extent

    @classmethod
    def time(cls, seconds: float) -> "WindowSpec":
        return cls("time", seconds)

    @classmethod
    def count(cls, size: int) -> "WindowSpec":
        return cls("count", size)

    def build(self, key_fn: KeyFn | None = None) -> "TimeWindow | CountWindow":
        """Instantiate the window buffer this spec describes, key-indexed
        when a ``key_fn`` is given."""
        if self.mode == "time":
            return TimeWindow(self.extent, key_fn)
        return CountWindow(int(self.extent), key_fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WindowSpec({self.mode!r}, {self.extent!r})"


def _unhashable(key: Any, window: str) -> ReproError:
    """The actionable error for a key a bucket dict rejected."""
    return ReproError(
        f"{window}: join key {key!r} is unhashable — equality fast "
        "paths need hashable key values; use predicate=... (scan path) "
        "for unhashable keys")


def _one_row(tup: DataTuple) -> tuple:
    return ((tup.ts,), (tup.seq,), (tup.kind,), (tup.arrival_ts,),
            (tup.payload,))


class _ColumnWindow:
    """The columns, row numbers and buckets both retention policies share
    (the module docstring has the layout and the expiry scheme)."""

    __slots__ = ("key_fn", "ts", "seq", "kind", "arrival", "payloads",
                 "base", "head", "_buckets")

    def __init__(self, key_fn: KeyFn | None) -> None:
        self.key_fn = key_fn
        self._reset()

    def _reset(self) -> None:
        self.ts: list[float] = []
        self.seq: list[int] = []
        self.kind: list[Any] = []
        self.arrival: list[float] = []
        self.payloads: list[Any] = []
        self.base = 0  # row number of index 0
        self.head = 0  # index of the first live row
        self._buckets: dict[Any, deque[int]] = defaultdict(deque)

    def __len__(self) -> int:
        return len(self.ts) - self.head

    def __iter__(self) -> Iterator[DataTuple]:
        """The live rows, oldest first, materialized (a read-only view)."""
        return iter(self._live())

    def _live(self) -> ColumnarBlock:
        return ColumnarBlock(*[col[self.head:] for col in self._columns()])

    def _columns(self) -> tuple:
        return self.ts, self.seq, self.kind, self.arrival, self.payloads

    @property
    def bucket_count(self) -> int:
        """Live buckets (unpurged empties included) — introspection only."""
        return len(self._buckets)

    def _append(self, rows: Rows, start: int, stop: int) -> int:
        """Append ``rows[start:stop]`` unfiled; returns its first number."""
        number = self.base + len(self.ts)
        ts, seq, kind, arrival, payloads = rows
        if stop - start == 1:  # the join's typical one-row stretch
            self.ts.append(ts[start])
            self.seq.append(seq[start])
            self.kind.append(kind[start])
            self.arrival.append(arrival[start])
            self.payloads.append(payloads[start])
        else:
            for col, src in zip(self._columns(), rows):
                col += src[start:stop]
        return number

    def _put(self, rows: Rows) -> None:
        """Append and file all of ``rows``, with no retention."""
        number = self._append(rows, 0, len(rows[0]))
        if self.key_fn is not None:
            self._file(rows[4], 0, len(rows[0]), number)

    def _file(self, payloads: Sequence[Any], start: int, stop: int,
              number: int) -> None:
        """File ``payloads[start:stop]`` as row numbers from ``number``."""
        key_fn, buckets = self.key_fn, self._buckets
        for i in range(start, stop):
            key = key_fn(payloads[i])
            if key == key:  # NaN keys never match anything (scan parity)
                try:
                    buckets[key].append(number)
                except TypeError:
                    raise _unhashable(key, type(self).__name__) from None
            number += 1

    def _compact(self) -> None:
        """Cut the dead prefix off once it is large (amortized O(1))."""
        head = self.head
        if head >= 64 and 2 * head >= len(self.ts):
            for col in self._columns():
                del col[:head]
            self.base += head
            self.head = 0

    def _sweep(self) -> None:
        """Purge every bucket of dead numbers (the backstop sweep)."""
        floor = self.base + self.head
        buckets = self._buckets
        for key in list(buckets):
            bucket = buckets[key]
            while bucket and bucket[0] < floor:
                bucket.popleft()
            if not bucket:
                del buckets[key]

    def matches(self, probe_ts: float) -> range:
        """Every live row's number (all in range after the eager expiry)."""
        return range(self.base + self.head, self.base + len(self.ts))

    def probe(self, key: Any) -> Iterable[int]:
        """Row numbers an equality join at ``key`` can match, oldest first
        (the bucket's dead head run popped; an emptied bucket dropped)."""
        if self.key_fn is None:
            raise ReproError(
                f"{type(self).__name__} is not key-indexed; build it with a "
                "key_fn to probe by key")
        if key != key:  # NaN: != everything, including itself, under scan
            return ()
        try:
            bucket = self._buckets.get(key)
        except TypeError:
            raise _unhashable(key, type(self).__name__) from None
        if bucket is None:
            return ()
        floor = self.base + self.head
        while bucket and bucket[0] < floor:
            bucket.popleft()
        if not bucket:
            del self._buckets[key]
            return ()
        return bucket

    def snapshot_state(self) -> dict:
        """Versioned column dump of the live rows (buckets are derived
        state: restore rebuilds them, shedding unpurged dead numbers)."""
        return {"version": 2, "items": self._live()}

    def restore_state(self, state: dict) -> None:
        """Restore a column dump, or a version-1 snapshot's tuple list."""
        version = state.get("version")
        if version not in (1, 2):
            raise ReproError(
                f"unsupported {type(self).__name__} state: {state!r}")
        rows = state["items"]
        if version == 1:
            rows = ColumnarBlock.from_tuples(rows)
        self._reset()
        self._load(state, (rows.ts, rows.seq, rows.kind, rows.arrival,
                           rows.payloads))


class TimeWindow(_ColumnWindow):
    """A time-based sliding window buffer ``W(X)``: rows in timestamp
    order, ``expire(now)`` dropping those older than ``now - span``.  Equal
    timestamps are all retained (simultaneous tuples are first-class)."""

    __slots__ = ("span", "_horizon", "_stale")

    def __init__(self, span: float, key_fn: KeyFn | None = None) -> None:
        if span <= 0:
            raise ReproError(f"time window span must be positive, got {span}")
        self.span = span
        self._horizon = float("-inf")
        self._stale = 0  # drops since the last backstop sweep
        super().__init__(key_fn)

    def insert(self, tup: DataTuple) -> None:
        """Append ``tup`` (no expiry); rows must arrive in timestamp order."""
        col = self.ts
        if len(col) > self.head and tup.ts < col[-1]:
            raise ReproError(
                f"window insert out of order: {tup.ts} after {col[-1]}")
        self._put(_one_row(tup))

    def insert_run(self, rows: Rows, start: int = 0,
                   stop: int | None = None) -> None:
        """Bulk insert of ``rows[start:stop]``: ``expire(t); insert`` per
        row.  A keyed window advances ``head`` row by row, so the backstop
        sweeps land where per-row insertion puts them; a key-less one (whose
        sweeps touch nothing) bisects once to the final horizon."""
        ts = rows[0]
        if stop is None:
            stop = len(ts)
        if start >= stop:
            return
        col, head, span = self.ts, self.head, self.span
        end = len(col)
        prev = col[-1] if end > head else ts[start]
        if ts[start] < prev or stop - start > 1 and not all(
                map(le, ts[start:stop - 1], ts[start + 1:stop])):
            for i in range(start, stop):
                if ts[i] < prev:
                    raise ReproError(
                        f"window insert out of order: {ts[i]} after {prev}")
                prev = ts[i]
        prev = ts[stop - 1]
        if prev - span > self._horizon:
            self._horizon = prev - span
        number = self._append(rows, start, stop) - start
        key_fn = self.key_fn
        if key_fn is None:
            if col[head] < prev - span:
                head = bisect_left(col, prev - span, head)
        else:
            payloads, buckets, stale = rows[4], self._buckets, self._stale
            for i in range(start, stop):
                horizon = ts[i] - span
                if col[head] < horizon:  # row i itself never is
                    dropped = head
                    while col[head] < horizon:
                        head += 1
                    stale += head - dropped
                    live = end + i - start - head
                    if stale >= (live if live > 64 else 64):
                        self.head, stale = head, 0
                        self._sweep()
                key = key_fn(payloads[i])
                if key == key:  # NaN keys never match anything
                    try:
                        buckets[key].append(number + i)
                    except TypeError:
                        raise _unhashable(key, "TimeWindow") from None
            self._stale = stale
        self.head = head
        if head >= 64:
            self._compact()

    def expire(self, now: float) -> int:
        """Drop rows with ``ts < now - span``; return how many dropped."""
        horizon = now - self.span
        if horizon > self._horizon:
            self._horizon = horizon
        col, start = self.ts, self.head
        if start == len(col) or col[start] >= horizon:
            return 0
        self.head = head = bisect_left(col, horizon, start)
        self._stale += head - start
        if self._stale >= max(64, len(col) - head):
            self._stale = 0
            self._sweep()
        self._compact()
        return head - start

    def state_floor(self) -> float:
        """The expiry horizon: no live row is stamped below it."""
        return self._horizon

    def state_reach(self) -> float:
        """A probe matches nothing more than one span older than itself."""
        return self.span

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["horizon"] = self._horizon
        return state

    def _load(self, state: dict, rows: tuple) -> None:
        """Snapshots written before the horizon travelled restore it as
        -inf: every restored row is live, so no purge depends on it."""
        self._horizon = state.get("horizon", float("-inf"))
        self._stale = 0
        self._put(rows)


class CountWindow(_ColumnWindow):
    """A tuple-count sliding window buffer holding the last ``size`` rows.
    Row numbers double as insertion numbers: after ``c`` insertions since
    construction (or restore) the live rows are numbered ``c - size`` up."""

    __slots__ = ("size", "_swept_at")

    def __init__(self, size: int, key_fn: KeyFn | None = None) -> None:
        if size <= 0:
            raise ReproError(f"count window size must be positive, got {size}")
        self.size = int(size)
        self._swept_at = 0  # insertion count at the last backstop sweep
        super().__init__(key_fn)

    def insert(self, tup: DataTuple) -> None:
        """Append ``tup``, evicting the globally oldest row when full."""
        self.insert_run(_one_row(tup))

    def insert_run(self, rows: Rows, start: int = 0,
                   stop: int | None = None) -> None:
        """Bulk insert of ``rows[start:stop]``, evicting as per-row
        insertion would.  A keyed window files numbers up to each backstop
        sweep (every ``max(64, size)`` insertions), sweeps, and goes on."""
        if stop is None:
            stop = len(rows[0])
        first = self._append(rows, start, stop) - start  # number of index 0
        total = self.base + len(self.ts)
        size = self.size
        if self.key_fn is not None:
            every, filed = max(64, size), start
            while self._swept_at + every <= total:
                at = self._swept_at = self._swept_at + every
                self._file(rows[4], filed, at - first, first + filed)
                filed = at - first
                self.head = max(self.head, at - size - self.base)
                self._sweep()
            self._file(rows[4], filed, stop, first + filed)
        self.head = max(self.head, total - size - self.base)
        self._compact()

    def expire(self, now: float) -> int:
        """Count windows expire by insertion, so this is a no-op."""
        return 0

    def state_floor(self) -> float:
        """Eviction is by count, not by timestamp: no floor."""
        return float("-inf")

    def state_reach(self) -> float:
        """A probe may match a row of any age."""
        return float("inf")

    def _load(self, state: dict, rows: tuple) -> None:
        """Insertion numbers restart at zero (buckets only compare them
        with each other; an old snapshot's ``inserted`` is not needed)."""
        self._swept_at = 0
        self.insert_run(rows)
