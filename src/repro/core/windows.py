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

Both expose the same small interface (`insert`, `insert_run`, `expire`,
`matches`, iteration), so the join and aggregate operators are
policy-agnostic.  Built with a ``key_fn``, a window additionally
hash-partitions its contents into per-key buckets and answers
``probe(key)``, so an equality join examines one bucket instead of the
whole window; without one it keeps no buckets and ``probe`` raises.

Amortized expiry of the buckets
-------------------------------

Keeping every bucket eagerly trimmed would make ``expire(now)`` scan all
buckets — O(distinct keys) per probe even when nothing expires.  Instead the
work is split:

* a **global** tuple log (insertion order == timestamp order) is trimmed
  eagerly, so ``expire(now)`` stays O(dropped) and ``len``/iteration/the
  Fig.-8 memory metric remain exact;
* each **bucket** records shared-structure references and is purged
  **lazily** against the global horizon the moment it is probed.  A tuple is
  popped from its bucket exactly once, after it expired, so the lazy purges
  are O(dropped) amortized across a run, and an unprobed bucket costs no
  CPU at all;
* a **backstop sweep** purges every bucket once enough expirations have
  accumulated (at least ``max(64, live tuples)`` since the last sweep), so
  buckets that are *never* probed again — a key that stops arriving on the
  other input — cannot retain expired tuples indefinitely.  The sweep's
  cost is amortized against the expirations that triggered it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Callable, Iterable, Iterator, Protocol, runtime_checkable

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


@runtime_checkable
class WindowProtocol(Protocol):
    """The full window contract the join operators program against.

    Every window — including the :class:`~repro.core.operators.join` module's
    empty-side stub — implements all of these, so a join may treat both of
    its sides uniformly.
    """

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[DataTuple]: ...

    def insert(self, tup: DataTuple) -> None: ...

    def insert_run(self, tuples: Iterable[DataTuple]) -> None: ...

    def expire(self, now: float) -> int: ...

    def matches(self, probe_ts: float) -> Iterator[DataTuple]: ...

    def probe(self, key: Any) -> Iterable[DataTuple]: ...

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


def _hash_key(key: Any, window: str) -> Any:
    """Validate hashability once, with an actionable error on failure."""
    try:
        hash(key)
    except TypeError:
        raise ReproError(
            f"{window}: join key {key!r} is unhashable — equality fast "
            "paths need hashable key values; use predicate=... (scan path) "
            "for unhashable keys"
        ) from None
    return key


class TimeWindow:
    """A time-based sliding window buffer ``W(X)``.

    Holds data tuples in timestamp order.  ``expire(now)`` drops every tuple
    whose timestamp is older than ``now - span``.  Tuples carrying equal
    timestamps are all retained (simultaneous tuples are first-class citizens
    in this paper).

    With a ``key_fn`` every tuple is also appended to the bucket of its key
    (extracted once, at insert), so ``probe(key)`` touches only the tuples an
    equality join can match; the module docstring has the expiry scheme.
    """

    __slots__ = ("span", "key_fn", "_items", "_buckets", "_horizon", "_stale")

    def __init__(self, span: float, key_fn: KeyFn | None = None) -> None:
        if span <= 0:
            raise ReproError(f"time window span must be positive, got {span}")
        self.span = span
        self.key_fn = key_fn
        self._items: deque[DataTuple] = deque()
        self._buckets: dict[Any, deque[DataTuple]] = defaultdict(deque)
        self._horizon = float("-inf")
        self._stale = 0  # drops since the last backstop sweep

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[DataTuple]:
        return iter(self._items)

    @property
    def bucket_count(self) -> int:
        """Live buckets (unpurged empties included) — introspection only."""
        return len(self._buckets)

    def insert(self, tup: DataTuple) -> None:
        """Append ``tup``; tuples must arrive in timestamp order."""
        items = self._items
        if items and tup.ts < items[-1].ts:
            raise ReproError(
                f"window insert out of order: {tup.ts} after {items[-1].ts}"
            )
        items.append(tup)
        key_fn = self.key_fn
        if key_fn is not None:
            key = _hash_key(key_fn(tup.payload), "TimeWindow")
            if key == key:  # NaN keys never match anything (scan parity)
                self._buckets[key].append(tup)

    def insert_run(self, tuples: Iterable[DataTuple]) -> None:
        """Bulk insert: equivalent to ``expire(t.ts); insert(t)`` per tuple.

        Fast path (keyed windows, whose per-row bucket work it amortizes):
        when even the run's final horizon cannot drop the oldest live tuple,
        no expiry can occur anywhere in the run — the horizon is advanced
        once and the rows are appended straight into the log and their
        buckets (``_stale`` untouched, so backstop-sweep timing is identical
        by construction).  Otherwise the per-tuple interleaving is replayed
        exactly: a run longer than the span must expire its own early
        tuples, and sweep thresholds depend on per-step drop counts.
        """
        if not isinstance(tuples, list):
            tuples = list(tuples)
        if not tuples:
            return
        items = self._items
        key_fn = self.key_fn
        horizon = tuples[-1].ts - self.span
        head_ts = items[0].ts if items else tuples[0].ts
        if key_fn is None or head_ts < horizon:
            expire, insert = self.expire, self.insert
            for tup in tuples:
                expire(tup.ts)
                insert(tup)
            return
        if horizon > self._horizon:
            self._horizon = horizon
        prev = items[-1].ts if items else tuples[0].ts
        buckets = self._buckets
        for tup in tuples:
            if tup.ts < prev:
                raise ReproError(
                    f"window insert out of order: {tup.ts} after {prev}"
                )
            prev = tup.ts
            items.append(tup)
            key = _hash_key(key_fn(tup.payload), "TimeWindow")
            if key == key:  # NaN keys never match anything (scan parity)
                buckets[key].append(tup)

    def expire(self, now: float) -> int:
        """Drop tuples with ``ts < now - span``; return how many were dropped.

        Only the global log is trimmed here; buckets catch up lazily when
        probed, against the horizon recorded now.
        """
        horizon = now - self.span
        if horizon > self._horizon:
            self._horizon = horizon
        dropped = 0
        items = self._items
        while items and items[0].ts < horizon:
            items.popleft()
            dropped += 1
        if dropped:
            self._stale += dropped
            if self._stale >= max(64, len(items)):
                self._sweep()
        return dropped

    def _sweep(self) -> None:
        """Purge every bucket against the horizon (the backstop of the
        module docstring's amortization scheme, for never-probed buckets)."""
        self._stale = 0
        horizon = self._horizon
        for key in list(self._buckets):
            bucket = self._buckets[key]
            while bucket and bucket[0].ts < horizon:
                bucket.popleft()
            if not bucket:
                del self._buckets[key]

    def matches(self, probe_ts: float) -> Iterator[DataTuple]:
        """Yield window tuples joinable with a probe at ``probe_ts``.

        With expiry performed eagerly against the probing tuple's timestamp,
        every remaining tuple is within the window, so this is simply
        iteration; it exists so callers read as the paper's "join of the
        tuple in A with the tuples in W(B)".
        """
        return iter(self._items)

    def probe(self, key: Any) -> Iterable[DataTuple]:
        """The tuples an equality join at ``key`` can match, oldest first.

        Purges the bucket's expired head run first (lazy half of the
        amortized expiry) and drops the bucket entirely once empty, so
        stale keys do not accumulate dict entries.
        """
        if self.key_fn is None:
            raise ReproError(
                "TimeWindow is not key-indexed; build it with a key_fn "
                "to probe by key"
            )
        if key != key:  # NaN: != everything, including itself, under scan
            return ()
        _hash_key(key, "TimeWindow")
        bucket = self._buckets.get(key)
        if bucket is None:
            return ()
        horizon = self._horizon
        while bucket and bucket[0].ts < horizon:
            bucket.popleft()
        if not bucket:
            del self._buckets[key]
            return ()
        return bucket

    def state_floor(self) -> float:
        """The expiry horizon: no live tuple is stamped below it."""
        return self._horizon

    def state_reach(self) -> float:
        """A probe matches nothing more than one span older than itself."""
        return self.span

    def snapshot_state(self) -> dict:
        """Versioned snapshot: only the global log and its horizon travel.

        Buckets are derived state (key_fn over the log) and may hold
        lazily-unpurged expired tuples; they are reconstructed from the
        global log on restore, which also sheds that dead weight.
        """
        return {"version": 1, "items": list(self._items),
                "horizon": self._horizon}

    def restore_state(self, state: dict) -> None:
        """Restore the global log and rebuild per-key buckets from it.

        Snapshots written before the horizon travelled restore it as -inf:
        every restored tuple is live, so no purge depends on it.
        """
        if state.get("version") != 1:
            raise ReproError(f"unsupported TimeWindow state: {state!r}")
        self._items.clear()
        self._buckets.clear()
        self._horizon = state.get("horizon", float("-inf"))
        self._stale = 0
        for tup in state["items"]:
            self.insert(tup)


class CountWindow:
    """A tuple-count sliding window buffer holding the last ``size`` tuples.

    With a ``key_fn`` the contents are also hash-partitioned into per-key
    buckets; bucket entries record each tuple's insertion number so a probed
    bucket can lazily discard entries the global ring has already evicted.
    """

    __slots__ = ("size", "key_fn", "_items", "_buckets", "_inserted",
                 "_swept_at")

    def __init__(self, size: int, key_fn: KeyFn | None = None) -> None:
        if size <= 0:
            raise ReproError(f"count window size must be positive, got {size}")
        self.size = int(size)
        self.key_fn = key_fn
        self._items: deque[DataTuple] = deque(maxlen=self.size)
        self._buckets: dict[Any, deque] = defaultdict(deque)  # (number, tup)
        self._inserted = 0  # keyed insertions; only differences matter
        self._swept_at = 0  # insertion count at the last backstop sweep

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[DataTuple]:
        return iter(self._items)

    @property
    def bucket_count(self) -> int:
        """Live buckets (unpurged empties included) — introspection only."""
        return len(self._buckets)

    def insert(self, tup: DataTuple) -> None:
        """Append ``tup``, evicting the globally oldest tuple when full."""
        self._items.append(tup)
        key_fn = self.key_fn
        if key_fn is None:
            return
        self._inserted += 1
        key = _hash_key(key_fn(tup.payload), "CountWindow")
        if key == key:  # NaN keys never match anything (scan parity)
            self._buckets[key].append((self._inserted, tup))
        if self._inserted - self._swept_at >= max(64, self.size):
            self._sweep()

    def insert_run(self, tuples: Iterable[DataTuple]) -> None:
        """Bulk insert.  Without buckets the bounded deque evicts exactly as
        per-tuple insertion would, so this is one C-level extend; with them
        per-tuple insertion is replayed (the backstop sweep fires at exact
        insertion numbers, so no batched shortcut stays bit-identical)."""
        if self.key_fn is None:
            self._items.extend(tuples)
            return
        insert = self.insert
        for tup in tuples:
            insert(tup)

    def _sweep(self) -> None:
        """Purge every bucket of globally evicted entries (the module
        docstring's backstop, for never-probed buckets)."""
        self._swept_at = self._inserted
        oldest_live = self._inserted - self.size
        for key in list(self._buckets):
            bucket = self._buckets[key]
            while bucket and bucket[0][0] <= oldest_live:
                bucket.popleft()
            if not bucket:
                del self._buckets[key]

    def expire(self, now: float) -> int:
        """Count windows expire by insertion, so this is a no-op."""
        return 0

    def matches(self, probe_ts: float) -> Iterator[DataTuple]:
        return iter(self._items)

    def probe(self, key: Any) -> Iterable[DataTuple]:
        """The tuples an equality join at ``key`` can match, oldest first."""
        if self.key_fn is None:
            raise ReproError(
                "CountWindow is not key-indexed; build it with a key_fn "
                "to probe by key"
            )
        if key != key:  # NaN (see TimeWindow.probe)
            return ()
        _hash_key(key, "CountWindow")
        bucket = self._buckets.get(key)
        if bucket is None:
            return ()
        oldest_live = self._inserted - self.size  # insertion numbers > this
        while bucket and bucket[0][0] <= oldest_live:
            bucket.popleft()
        if not bucket:
            del self._buckets[key]
            return ()
        return (tup for _, tup in bucket)

    def state_floor(self) -> float:
        """Eviction is by count: which tuples are live depends on every
        insertion, not on a timestamp."""
        return float("-inf")

    def state_reach(self) -> float:
        """A probe may match a tuple of any age."""
        return float("inf")

    def snapshot_state(self) -> dict:
        """Versioned snapshot: only the global ring travels (buckets are
        derived state, see :meth:`TimeWindow.snapshot_state`)."""
        return {"version": 1, "items": list(self._items)}

    def restore_state(self, state: dict) -> None:
        """Restore the global ring and rebuild per-key buckets from it.

        Insertion numbers restart at the ring's length: buckets compare
        them only with each other, so an ``inserted`` total carried by an
        older snapshot is not needed.
        """
        if state.get("version") != 1:
            raise ReproError(f"unsupported CountWindow state: {state!r}")
        self._items.clear()
        self._buckets.clear()
        self._inserted = self._swept_at = 0
        self.insert_run(state["items"])
