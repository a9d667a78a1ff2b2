"""Stream buffers (query-graph arcs) and Time-Stamp Memory registers.

A directed arc from operator ``Q_i`` to ``Q_j`` in the query graph is a FIFO
buffer: ``Q_i`` appends tuples at the tail (*production*) and ``Q_j`` removes
them from the front (*consumption*).  Buffers also host the consumer-side
**TSM register** introduced by the paper (Section 4.1): the register holds the
timestamp of the most recent element seen at that input and keeps its value
while the buffer is empty, which is what allows a punctuation to keep
unblocking data tuples waiting on the *other* inputs of an IWP operator.

All buffers register with a :class:`BufferRegistry` that maintains the global
live-tuple count and its running peak, making the paper's "peak total queue
size" metric (Figure 8) O(1) per enqueue/dequeue.
"""

from __future__ import annotations

from collections import deque
from itertools import groupby
from typing import Callable, Iterator

from .columnar import ColumnarBlock
from .errors import ExecutionError, TimestampError
from .tuples import LATENT_TS, Punctuation, StreamElement, TimestampKind

__all__ = ["TSMRegister", "BufferRegistry", "StreamBuffer"]


class TSMRegister:
    """Time-Stamp Memory register for one IWP-operator input (paper Fig. 5).

    The register value is automatically updated with the timestamp of the
    current (head) input element and *remains* until the next element updates
    it.  An unset register reports :data:`LATENT_TS` so that an input that has
    never produced anything does not gate ``min`` computations upward.
    """

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = LATENT_TS

    @property
    def value(self) -> float:
        return self._value

    @property
    def is_set(self) -> bool:
        return self._value != LATENT_TS

    def update(self, ts: float) -> None:
        """Record that an element with timestamp ``ts`` is/was at this input.

        Latent (unstamped) elements do not move the register: their stamp,
        ``-inf``, is never above it.  The drain and gate paths inline this
        one comparison.
        """
        if ts > self._value:
            self._value = ts

    def reset(self) -> None:
        self._value = LATENT_TS

    def snapshot_state(self) -> dict:
        """Versioned plain-data snapshot of the register (checkpointing)."""
        return {"version": 1, "value": self._value}

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported TSMRegister state: {state!r}")
        self._value = state["value"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TSMRegister({self._value!r})"


class BufferRegistry:
    """Tracks aggregate occupancy across every buffer of a query graph.

    The paper's memory metric is "peak total buffer size, in terms of total
    number of tuples in the buffers" — this registry maintains exactly that,
    incrementally.  It can also invoke an observer on every change so that
    metrics collectors can record occupancy-over-time series.  The counters
    are advanced by the buffers themselves, in the one accounting step each
    mutation ends with (:meth:`StreamBuffer._account`).
    """

    def __init__(self) -> None:
        self._total = 0
        self._peak = 0
        self._interval_peak = 0
        self._mutations = 0
        self._observers: list[Callable[[int], None]] = []
        #: Optional callback invoked with structured fields *before* an
        #: ingest/order violation raises — the hook tracing and fault
        #: monitors use to emit a trace event even when the error is about
        #: to unwind the stack.  Signature: ``on_violation(**fields)``.
        self.on_violation: Callable[..., None] | None = None

    def notify_violation(self, **fields) -> None:
        """Report a violation (about to raise) to the installed observer."""
        if self.on_violation is not None:
            self.on_violation(**fields)

    @property
    def total(self) -> int:
        """Current total number of elements across all registered buffers."""
        return self._total

    @property
    def peak(self) -> int:
        """Largest total ever observed."""
        return self._peak

    @property
    def mutations(self) -> int:
        """Monotonic count of buffer changes (pushes, pops, drains).

        The engine's walk uses this as a cheap version stamp: a set of
        operators known to be unable to execute stays valid exactly until
        any buffer in the graph changes.  Counts calls, not net occupancy —
        a pop immediately followed by a push still advances the stamp.
        """
        return self._mutations

    def add_observer(self, observer: Callable[[int], None]) -> None:
        """Add a callback invoked with the new total after every change."""
        self._observers.append(observer)

    def remove_observer(self, observer: Callable[[int], None]) -> None:
        """Remove a callback added with :meth:`add_observer` (no-op if gone)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def reset_peak(self) -> None:
        """Restart peak tracking from the current total (e.g. after warm-up)."""
        self._peak = self._total

    def mark(self) -> None:
        """Restart *interval* peak tracking (feedback sampling boundary).

        The feedback controller samples occupancy once per engine wake-up;
        :attr:`peak_since_mark` is the largest total seen since the previous
        sample, so a burst that drains before the wake-up ends still
        registers as pressure.
        """
        self._interval_peak = self._total

    @property
    def peak_since_mark(self) -> int:
        """Largest total observed since the last :meth:`mark` (or ever)."""
        return self._interval_peak


class StreamBuffer:
    """A FIFO arc of the query graph, with TSM register and statistics.

    Attributes:
        name: Human-readable identifier, usually ``producer->consumer``.
        register: The consumer-side TSM register for this input.
    """

    def __init__(self, name: str = "", registry: BufferRegistry | None = None,
                 *, enforce_order: bool = True,
                 consumer_name: str = "", consumer_port: int = 0) -> None:
        """Create an empty buffer.

        Args:
            name: Identifier used in errors and debug output.
            registry: Aggregate-occupancy registry; optional for unit tests.
            enforce_order: When True (the default), pushing an element whose
                timestamp is smaller than the last pushed element's raises
                :class:`TimestampError`.  The engine relies on the
                streams-are-ordered property throughout (paper Section 1),
                so violations are bugs and surface loudly.
            consumer_name / consumer_port: The operator and input-port index
                this buffer feeds; carried as structured fields on order
                violations so handlers can locate the failure without
                parsing buffer names.
        """
        self.name = name
        self.consumer_name = consumer_name
        self.consumer_port = consumer_port
        self.register = TSMRegister()
        #: Deque entries are :class:`~repro.core.columnar.ColumnarBlock`\ s
        #: (data rows) or :class:`Punctuation` (never inside a block; it
        #: closes an open one).  Nothing else is ever buffered.
        self._items: deque[ColumnarBlock | Punctuation] = deque()
        #: The *open tail block*: a block this buffer created, that is the
        #: deque's last entry and that nothing else references, so
        #: :meth:`append_row` may still extend its columns.  Every other
        #: method that puts an entry behind it or touches it drops this
        #: reference first, which closes the block for good.
        self._tail: ColumnarBlock | None = None
        #: Element count: blocks count one per live row.
        self._len = 0
        self._registry = registry
        self._enforce_order = enforce_order
        self._last_pushed_ts = LATENT_TS
        self._enqueued = 0
        self._dequeued = 0
        self._punctuation_enqueued = 0
        self._data_live = 0
        #: Optional zero-argument consumer hook invoked after any mutation
        #: (push / pop / drain / clear).  IWP operators install it to
        #: invalidate their cached TSM-gate minimum instead of recomputing
        #: ``min(gates)`` several times per execution step.  Exceptions the
        #: hook raises are isolated (counted, remembered, never propagated)
        #: so a faulty hook cannot abort a mutation that already happened —
        #: the same policy the obs bus applies to observers.
        self.on_change: Callable[[], None] | None = None
        #: Number of exceptions swallowed from :attr:`on_change` hooks.
        self.hook_errors = 0
        #: The most recent exception swallowed from an on_change hook.
        self.last_hook_error: BaseException | None = None

    # ------------------------------------------------------------------ #
    # Introspection

    def __len__(self) -> int:
        """Element count: a buffered block counts its live rows."""
        return self._len

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[StreamElement]:
        """Iterate the elements, a block's rows materialized (read-only)."""
        for entry in self._items:
            if isinstance(entry, ColumnarBlock):
                yield from entry.to_tuples()
            else:
                yield entry

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def registry(self) -> BufferRegistry | None:
        """The aggregate registry this buffer reports to (None standalone)."""
        return self._registry

    @property
    def enqueued_count(self) -> int:
        """Total elements ever pushed."""
        return self._enqueued

    @property
    def dequeued_count(self) -> int:
        """Total elements ever popped."""
        return self._dequeued

    @property
    def punctuation_count(self) -> int:
        """Total punctuation elements ever pushed (overhead accounting)."""
        return self._punctuation_enqueued

    @property
    def data_count(self) -> int:
        """Number of *data* tuples currently buffered (excludes punctuation)."""
        return self._data_live

    @property
    def last_pushed_ts(self) -> float:
        """Timestamp of the most recently pushed element (or LATENT_TS)."""
        return self._last_pushed_ts

    def _account(self, amount: int) -> None:
        """The one accounting step every mutation ends with.

        When the element count moved by ``amount`` the registry goes first:
        mutation stamp, total, peak, interval peak, then its observers with
        the new total.  Then the :attr:`on_change` hook runs, its exceptions
        isolated: the mutation has already completed, and letting a hook
        exception unwind here would leave callers believing it failed (and,
        for IWP consumers, leave the cached gate-min stale because later —
        successful — notifications would be skipped).  Errors are counted
        and remembered instead.
        """
        registry = self._registry
        if registry is not None and amount:
            registry._mutations += 1
            total = registry._total = registry._total + amount
            if amount > 0:  # a falling total sets no peak
                if total > registry._peak:
                    registry._peak = total
                if total > registry._interval_peak:
                    registry._interval_peak = total
            for observer in registry._observers:
                observer(total)
        hook = self.on_change
        if hook is not None:
            try:
                hook()
            except Exception as exc:
                self.hook_errors += 1
                self.last_hook_error = exc

    def state_floor(self) -> float:
        """Smallest timestamp held (see :meth:`Operator.state_floor`): the
        head's on an ordered arc, unknown on an unordered one."""
        head = self.head_ts()
        if head is None:
            return float("inf")
        return head if self._enforce_order else float("-inf")

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot_state(self) -> dict:
        """Versioned snapshot of buffer contents, register, and counters.

        ``items`` is the element list — blocks materialized into their
        rows, punctuation as it lies — so the format does not depend on how
        rows were grouped into blocks.
        """
        self._tail = None
        return {
            "version": 1,
            "items": list(iter(self)),
            "register": self.register.snapshot_state(),
            "last_pushed_ts": self._last_pushed_ts,
            "enqueued": self._enqueued,
            "dequeued": self._dequeued,
            "punctuation_enqueued": self._punctuation_enqueued,
            "data_live": self._data_live,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot; registry occupancy is kept consistent.

        Each maximal run of data tuples in ``items`` becomes one block.
        """
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported StreamBuffer state: {state!r}")
        delta = len(state["items"]) - self._len
        self._items = deque()
        for punctuation, run in groupby(state["items"],
                                        lambda e: e.is_punctuation):
            if punctuation:
                self._items.extend(run)
            else:
                self._items.append(ColumnarBlock.from_tuples(list(run)))
        self._tail = None
        self._len = len(state["items"])
        self.register.restore_state(state["register"])
        self._last_pushed_ts = state["last_pushed_ts"]
        self._enqueued = state["enqueued"]
        self._dequeued = state["dequeued"]
        self._punctuation_enqueued = state["punctuation_enqueued"]
        self._data_live = state["data_live"]
        self._account(delta)

    # ------------------------------------------------------------------ #
    # Production / consumption

    def _order_violation(self, ts: float, last: float) -> TimestampError:
        """Build (and pre-announce) a structured out-of-order error."""
        fields = dict(operator=self.consumer_name or self.name,
                      port=self.consumer_port,
                      offending_ts=ts, last_seen_ts=last,
                      buffer=self.name, kind="out-of-order")
        if self._registry is not None:
            self._registry.notify_violation(**fields)
        return TimestampError(
            f"buffer {self.name!r}: out-of-order push ({ts} after {last})",
            **fields,
        )

    def push(self, element: StreamElement) -> None:
        """Append ``element`` at the tail (production).

        A data tuple becomes one row of the open tail block
        (:meth:`append_row`); a punctuation is an entry of its own (an
        exact :class:`Punctuation` is told by its type, without the
        property call).
        """
        if type(element) is not Punctuation and not element.is_punctuation:
            self.append_row(element.ts, element.seq, element.kind,
                            element.arrival_ts, element.payload)
            return
        ts = element.ts
        last = self._last_pushed_ts
        if ts > last:
            self._last_pushed_ts = ts
        elif ts < last and ts != LATENT_TS and self._enforce_order:
            raise self._order_violation(ts, last)
        self._tail = None
        self._items.append(element)
        self._len += 1
        self._enqueued += 1
        self._punctuation_enqueued += 1
        self._account(1)

    def append_row(self, ts: float, seq: int, kind: TimestampKind,
                   arrival: float, payload) -> None:
        """Append one data row at the tail without building a tuple.

        The one row-at-a-time data entrance (:meth:`SourceNode.ingest`,
        :meth:`push` of a data tuple): the order check — one comparison
        when the stamp advances — then the five fields extend the columns
        of the open tail block (a fresh one when the tail is closed), so
        the first :meth:`drain_block` hands the rows over as they lie; the
        counters and the one :meth:`_account` step close it.
        """
        last = self._last_pushed_ts
        if ts > last:
            self._last_pushed_ts = ts
        elif ts < last and ts != LATENT_TS and self._enforce_order:
            raise self._order_violation(ts, last)
        tail = self._tail
        if tail is None:
            tail = self._tail = ColumnarBlock([], [], [], [], [])
            self._items.append(tail)
        tail.ts.append(ts)
        tail.seq.append(seq)
        tail.kind.append(kind)
        tail.arrival.append(arrival)
        tail.payloads.append(payload)
        self._len += 1
        self._enqueued += 1
        self._data_live += 1
        self._account(1)

    # ------------------------------------------------------------------ #
    # Columnar block transport

    def push_block(self, block: ColumnarBlock) -> None:
        """Append a whole columnar block at the tail in one operation.

        Blocks hold only data rows in timestamp order, so the order check
        reduces to comparing the block's first non-latent timestamp against
        the last pushed one, and all bookkeeping is one update per block
        instead of one per row.  Empty blocks are ignored.  The end stamps
        are read off the live rows directly; only a latent end scans.
        """
        ts, sel = block.ts, block.selection
        n = len(ts) if sel is None else len(sel)
        if not n:
            return
        first, last = (ts[0], ts[-1]) if sel is None \
            else (ts[sel[0]], ts[sel[-1]])
        if first == LATENT_TS or last == LATENT_TS:
            first, last = block.first_ts(), block.last_ts()
        if first != LATENT_TS:
            if self._enforce_order and self._last_pushed_ts != LATENT_TS \
                    and first < self._last_pushed_ts:
                raise self._order_violation(first, self._last_pushed_ts)
            if last > self._last_pushed_ts:
                self._last_pushed_ts = last
        self._tail = None
        self._items.append(block)
        self._len += n
        self._enqueued += n
        self._data_live += n
        self._account(n)

    def drain_block(self, limit: int,
                    max_ts: float | None = None) -> ColumnarBlock | None:
        """Dequeue up to ``limit`` leading rows of the head block.

        The run never crosses a block boundary, so never a punctuation,
        and with ``max_ts`` it stops before the first row stamped at or
        above it (latent rows never stop a run).  Returns ``None`` when the
        head is a punctuation, the buffer is empty or no row fits.

        The head block — a source's open tail block included — is handed
        over whole (zero copies) when it fits the limits, or split by
        selection otherwise.  The TSM register is updated once with the
        largest timestamp drained, exactly like a pop-by-pop consumption
        (the register's ``update``, inlined: a latent stamp is never above
        it).
        """
        items = self._items
        if not items or limit <= 0 or not isinstance(items[0], ColumnarBlock):
            return None
        taken = self._take_head_block(limit, max_ts)
        if taken is None:
            return None
        ts, sel = taken.ts, taken.selection
        n = len(ts) if sel is None else len(sel)
        last = ts[-1] if sel is None else ts[sel[-1]]
        if last == LATENT_TS or not self._enforce_order:
            last = self._run_max(taken)
        register = self.register
        if last > register._value:
            register._value = last
        self._len -= n
        self._dequeued += n
        self._data_live -= n
        self._account(-n)
        return taken

    def _take_head_block(self, limit: int,
                         max_ts: float | None) -> ColumnarBlock | None:
        """Unlink the part of the head block that fits ``limit``/``max_ts``
        (``None`` when no row does), leaving the remainder at the head as a
        block.  No counters move — callers do the bookkeeping.  An open
        tail block closes here: whole or split, its arrays now have a
        second owner.

        A block that fits whole leaves as it is, unsplit: within ``limit``
        and, under ``max_ts``, ending on a stamp below it on an ordered
        arc — every stamped row then lies below, and latent rows never
        stop a run.  A latent last row proves nothing, so it splits."""
        items = self._items
        taken = items[0]
        if taken is self._tail:
            self._tail = None
        ts, sel = taken.ts, taken.selection
        n = len(ts) if sel is None else len(sel)
        if 0 < n <= limit:
            if max_ts is None:
                return items.popleft()
            last = ts[-1] if sel is None else ts[sel[-1]]
            if last != LATENT_TS and last < max_ts and self._enforce_order:
                return items.popleft()
        rest: list[ColumnarBlock] = []
        if max_ts is not None:
            taken, tail = taken.split_below(max_ts)
            if tail is not None:
                rest.append(tail)
            if not taken.count:
                return None
        if taken.count > limit:
            taken, tail = taken.split_at(limit)
            rest.insert(0, tail)
        items.popleft()
        for part in reversed(rest):
            items.appendleft(part)
        return taken

    def _run_max(self, block: ColumnarBlock) -> float:
        """The register value a pop-by-pop consumption of ``block`` leaves:
        its last stamp on an ordered arc; on an ``enforce_order=False`` arc
        the rows lie in arrival order, so the largest one."""
        if self._enforce_order:
            return block.last_ts()
        ts = block.ts
        return max(ts) if block.selection is None \
            else max(ts[i] for i in block.selection)

    def pop(self) -> StreamElement:
        """Remove and return the head element (consumption); a data row
        leaves as a one-row slice of its block, materialized."""
        items = self._items
        if not items:
            raise IndexError(f"pop from empty buffer {self.name!r}")
        if isinstance(items[0], ColumnarBlock):
            return self.drain_block(1).row(0)
        head = items.popleft()
        register = self.register
        if head.ts > register._value:
            register._value = head.ts
        self._len -= 1
        self._dequeued += 1
        self._account(-1)
        return head

    def clear(self) -> None:
        """Discard all buffered elements (registry count is kept consistent)."""
        gone = self._len
        self._items.clear()
        self._tail = None
        self._len = 0
        self._data_live = 0
        self._account(-gone)

    # ------------------------------------------------------------------ #
    # Timestamp gating helpers

    def head_ts(self) -> float | None:
        """Timestamp of the head element (a head block's first live
        row), or None when empty.  Read-only: the register is untouched."""
        if not self._items:
            return None
        head = self._items[0]
        if isinstance(head, ColumnarBlock):
            return head.head_ts
        return head.ts

    def head_is_punctuation(self) -> bool:
        """True when the head element is punctuation."""
        items = self._items
        return bool(items) and not isinstance(items[0], ColumnarBlock)

    def head_run(self, limit: int) -> tuple[list[float], float]:
        """Look ahead, read-only, over the head run of stamped data rows.

        Returns the run's timestamps (at most ``limit``) and the timestamp
        at which the run *ends* — the bound below which a merging consumer
        may take these rows without looking at this input again:

        * the first punctuation's timestamp, when one closes the run;
        * the register value the input will hold once drained (its largest
          timestamp), when the buffer ends with the run;
        * the next row's timestamp, when ``limit`` cut the look-ahead short;
        * the last stamped row's own timestamp, when a latent row follows
          (it jumps the queue the moment it becomes the head, so nothing
          that merges after that row may be taken).

        Blocks are read through their timestamp column; nothing is
        materialized.
        """
        stamps: list[float] = []
        end: float | None = None
        for entry in self._items:
            if isinstance(entry, ColumnarBlock):
                col, room = entry.ts, limit + 1 - len(stamps)
                stamps.extend(col[:room] if entry.selection is None
                              else [col[i] for i in entry.selection[:room]])
            else:
                end = entry.ts
                break
            if len(stamps) > limit:
                break
        if LATENT_TS in stamps:
            del stamps[stamps.index(LATENT_TS):]
            end = stamps[-1] if stamps else LATENT_TS
        if len(stamps) > limit:
            end = stamps[limit]
            del stamps[limit:]
        elif end is None:
            end = self.register.value
            if stamps and stamps[-1] > end:
                end = stamps[-1]
        return stamps, end

    def gate_ts(self) -> float:
        """The timestamp this input contributes to the operator's τ.

        Per the relaxed ``more`` condition, an input contributes its head
        element's timestamp when nonempty (refreshing the register), and its
        remembered register value when empty.  A nonempty input refreshes
        its register from the head (latent heads never move it), the
        paper's "automatically updated with the current input tuple".
        """
        ts = self.head_ts()
        if ts is not None:
            self.register.update(ts)
            if ts != LATENT_TS:
                return ts
        return self.register.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StreamBuffer({self.name!r}, len={len(self._items)})"
