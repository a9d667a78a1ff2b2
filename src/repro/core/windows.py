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

Rows enter through one door, :meth:`~_ColumnWindow.file`: it appends a
slice of five columns and files each number in its key's bucket, with no
retention, and answers the first number.  ``retain(now)`` then applies the
policy once (time: ``expire`` to the given stamp; count: keep the last
``size`` rows).  Between the two a join walks a whole merge
round, so ``matches`` and ``probe`` take a **bound**: they answer the row
numbers below it (and, for a count window, at or above ``bound - size``),
the candidate's fields sitting at ``number - base``.

With a ``key_fn`` a window also keeps buckets of numbers per key (the keys
given to ``file``, else ``key_fn`` per row), so ``probe(key, bound)``
examines one bucket instead of the whole window; without one it keeps no
buckets and ``probe`` raises.  Expiry stays O(dropped): the columns are
trimmed eagerly (``len``, iteration and the Fig.-8 memory metric stay exact
after ``retain``), a bucket pops its dead head run lazily when probed, and
a **backstop sweep** purges every bucket once enough rows have died (time:
``max(64, live rows)`` expirations since the last sweep; count: at the
``retain`` that ends ``max(64, size)`` filings since the last), so a key
that stops arriving cannot retain dead numbers indefinitely.

A snapshot (version 2) is a column dump: ``items`` is a ``ColumnarBlock``
of the live rows.  A version-1 snapshot (a list of data tuples) restores.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from itertools import islice
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
#: filing, unless the caller hands the keys in).  Must return a hashable value.
KeyFn = Callable[[Any], Any]

#: Five parallel columns: ts, seq, kind, arrival, payloads.
Rows = Sequence[Sequence[Any]]


@runtime_checkable
class WindowProtocol(Protocol):
    """The full window contract the join operators program against.  Every
    window — the join module's empty-side stub included — implements all of
    it, so a join treats both sides uniformly.  ``file`` answers the first
    filed row's number; ``matches`` and ``probe`` answer row numbers below
    their bound: row ``n`` sits at index ``n - base`` of a column."""

    base: int
    arrival: Sequence[float]
    payloads: Sequence[Any]

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[DataTuple]: ...

    def file(self, rows: Rows, keys: Sequence[Any] | None = None,
             start: int = 0, stop: int | None = None) -> int: ...

    def retain(self, now: float) -> None: ...

    def expire(self, now: float) -> int: ...

    def matches(self, probe_ts: float, bound: int) -> Iterable[int]: ...

    def probe(self, key: Any, bound: int) -> Iterable[int]: ...

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




class _ColumnWindow:
    """The columns, row numbers and buckets both retention policies share
    (the module docstring has the layout and the expiry scheme)."""

    __slots__ = ("key_fn", "ts", "seq", "kind", "arrival", "payloads",
                 "base", "head", "_kept", "_buckets")

    def __init__(self, key_fn: KeyFn | None, kept: float) -> None:
        self.key_fn = key_fn
        self._kept = kept  # the most rows a probe sees (count: ``size``)
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

    def file(self, rows: Rows, keys: Sequence[Any] | None = None,
             start: int = 0, stop: int | None = None) -> int:
        """The one row entrance: append ``rows[start:stop]`` of five columns
        and file each row's number under its key (``keys[i]``, else
        ``key_fn`` of its payload), with no retention.  Answers the first
        row's number (the next one's, when the slice is empty)."""
        ts = rows[0]
        if stop is None:
            stop = len(ts)
        number = self.base + len(self.ts)
        if start >= stop:
            return number
        self._admit(ts, start, stop)
        if stop - start == 1:  # a one-row round
            self.ts.append(ts[start])
            self.seq.append(rows[1][start])
            self.kind.append(rows[2][start])
            self.arrival.append(rows[3][start])
            self.payloads.append(rows[4][start])
        else:
            for col, src in zip(self._columns(), rows):
                col += src[start:stop]
        key_fn = self.key_fn
        if key_fn is not None:
            buckets, filed = self._buckets, number
            for key in (map(key_fn, rows[4][start:stop]) if keys is None
                        else islice(keys, start, stop)):
                if key == key:  # NaN keys never match anything (scan parity)
                    try:
                        buckets[key].append(filed)
                    except TypeError:
                        raise _unhashable(key, type(self).__name__) from None
                filed += 1
        return number

    def _admit(self, ts: Sequence[float], start: int, stop: int) -> None:
        """The policy's order rule for a slice about to be filed."""

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

    def matches(self, probe_ts: float, bound: int) -> range:
        """Every live row's number below ``bound`` (the scan; a count window
        answers the last ``size`` of them)."""
        floor, low = self.base + self.head, bound - self._kept
        return range(low if low > floor else floor, bound)

    def probe(self, key: Any, bound: int) -> Iterable[int]:
        """Row numbers below ``bound`` an equality join at ``key`` can match,
        oldest first (the bucket's dead head run popped; an emptied bucket
        dropped).  A count window's numbers below ``bound - size`` are dead
        to this probe and every later one, so they are popped too."""
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
        floor, low = self.base + self.head, bound - self._kept
        if low > floor:
            floor = low
        while bucket and bucket[0] < floor:
            bucket.popleft()
        if not bucket:
            del self._buckets[key]
            return ()
        if bucket[-1] < bound:
            return bucket
        stop = len(bucket) - 1  # rows filed this round and not yet walked
        while stop and bucket[stop - 1] >= bound:
            stop -= 1
        return list(islice(bucket, stop))

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
        super().__init__(key_fn, float("inf"))

    def _admit(self, ts: Sequence[float], start: int, stop: int) -> None:
        """Rows must be filed in timestamp order: a slice that regresses
        (within itself or below the last live row) is refused whole."""
        col = self.ts
        prev = col[-1] if len(col) > self.head else ts[start]
        if ts[start] < prev or stop - start > 1 and not all(
                map(le, ts[start:stop - 1], ts[start + 1:stop])):
            for i in range(start, stop):
                if ts[i] < prev:
                    raise ReproError(
                        f"window insert out of order: {ts[i]} after {prev}")
                prev = ts[i]

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

    #: The time policy's retention: :meth:`expire` to ``now``.
    retain = expire

    def state_floor(self) -> float:
        """The expiry horizon: no live row is stamped below it.  With no
        live row the window holds no history at all, so ``+inf`` (as a
        source answers)."""
        return self._horizon if len(self.ts) > self.head else float("inf")

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
        self.file(rows)


class CountWindow(_ColumnWindow):
    """A tuple-count sliding window buffer holding the last ``size`` rows.
    Row numbers double as filing numbers: after ``c`` rows filed since
    construction (or restore) the live rows are numbered ``c - size`` up.
    Stamps may regress (a stamped latent row can sit below its side's
    earlier rows): eviction is by count, so order does not matter."""

    __slots__ = ("size", "_swept_at")

    def __init__(self, size: int, key_fn: KeyFn | None = None) -> None:
        if size <= 0:
            raise ReproError(f"count window size must be positive, got {size}")
        self.size = int(size)
        self._swept_at = 0  # filing count at the last backstop sweep
        super().__init__(key_fn, self.size)

    def retain(self, now: float) -> None:
        """The count policy: keep the last ``size`` filed rows (``now`` is
        unused); a keyed window sweeps its buckets once ``max(64, size)``
        rows were filed since its last sweep."""
        size, total = self.size, self.base + len(self.ts)
        if total - size - self.base > self.head:
            self.head = total - size - self.base
        if self.key_fn is not None and total - self._swept_at >= max(64, size):
            self._swept_at = total
            self._sweep()
        self._compact()

    def expire(self, now: float) -> int:
        """Count windows expire by filing (:meth:`retain`): a no-op."""
        return 0

    def state_floor(self) -> float:
        """Eviction is by count, not by timestamp: no floor."""
        return float("-inf")

    def state_reach(self) -> float:
        """A probe may match a row of any age."""
        return float("inf")

    def _load(self, state: dict, rows: tuple) -> None:
        """Filing numbers restart at zero (buckets only compare them with
        each other; an old snapshot's ``inserted`` is not needed)."""
        self._swept_at = 0
        self.file(rows)
        self.retain(float("nan"))
