"""Struct-of-arrays record batches for the columnar execution path.

Consuming a run of tuples per engine step (``batch_size > 1``) amortizes
*dispatch*.  But a run held as a Python list of
:class:`~repro.core.tuples.DataTuple` objects still pays per-tuple costs
that no run length removes — a ``dataclasses.replace`` per projection, a
buffer ``popleft``/``append`` per hop, a bound-method call per predicate.
This module removes those costs with the classic columnar design: a
:class:`ColumnarBlock` holds the batch as parallel arrays (timestamps,
sequence numbers, timestamp kinds, arrival stamps, payloads) plus a
**selection vector** of live row indices.  Operators that understand blocks
transform the *arrays* — a selection narrows the selection vector without
copying anything, a projection rewrites only the payload column — and whole
blocks travel through stream buffers as single entries: a buffer holds
blocks and punctuation, nothing else.

Two invariants keep a run of any width byte-identical to the same elements
taken one at a time:

* **Blocks hold only data tuples.**  Punctuation never enters a block: it is
  a run boundary, so ETS information always reaches the NOS rules as
  individual elements.
* **Rows are timestamp-ordered** (latent rows, which carry no timestamp,
  may appear anywhere).  Blocks are built from runs drained out of ordered
  buffers, or row by row at a source behind the buffer's own per-row order
  check, and every transform preserves row order, so a buffer receiving a
  block needs one order check instead of one per row.  (The arcs of an
  ``out_of_order`` source are the exception they always were: rows lie in
  arrival order until a ``Reorder`` sorts them.)

Materializing a row rebuilds the exact original tuple — same payload object,
same ``seq``, same timestamp kind.  A kernel that must take one row (a tie,
a latent row) drains a one-row block instead: splitting one row off a block
is O(1) (:meth:`ColumnarBlock.split_at` slices a ``range``).

Everything here is pure Python lists: the module imports nothing outside
the standard library.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable, Iterator, Sequence

from .tuples import LATENT_TS, DataTuple, TimestampKind

__all__ = [
    "ColumnarBlock",
    "FieldPredicate",
    "set_numpy",
]


def set_numpy(enabled: bool) -> bool:
    """Inert: there is no numpy code path to switch; always returns False.

    Kept importable and callable only because ``benchmarks/e2e/run.py``
    (frozen) calls ``set_numpy(False)``; delete it once that call goes.
    """
    return False


class ColumnarBlock:
    """A struct-of-arrays batch of data tuples with a selection vector.

    The five parallel arrays hold one entry per *physical* row; the
    ``selection`` list holds the indices of the rows that are still live
    (``None`` means "all rows").  Filtering therefore never copies data: it
    produces a new block sharing the same arrays with a narrower selection.
    Payload-rewriting transforms (map, project) compact the block — gather
    the selected rows of every array — because they must build a new payload
    column anyway.

    Blocks are immutable once they leave a buffer's tail: operators build
    new blocks (or new selections over shared arrays) instead of mutating
    inputs, which makes fan-out (one block pushed to several output
    buffers) safe without copies.  The one writer is
    :meth:`StreamBuffer.append_row <repro.core.buffers.StreamBuffer.append_row>`,
    which extends the columns of the *open tail block* the buffer itself
    created and nobody else can yet reach; the block closes — for good —
    the moment anything is pushed behind it or a consumer call touches it,
    so no block is ever written after a second reference to it (or to its
    arrays, through a split) exists.
    """

    __slots__ = ("ts", "seq", "kind", "arrival", "payloads", "selection")

    def __init__(self, ts: list[float], seq: list[int],
                 kind: list[TimestampKind], arrival: list[float],
                 payloads: list[Any],
                 selection: list[int] | None = None) -> None:
        self.ts = ts
        self.seq = seq
        self.kind = kind
        self.arrival = arrival
        self.payloads = payloads
        self.selection = selection

    # ------------------------------------------------------------------ #
    # Construction / materialization

    @classmethod
    def from_tuples(cls, tuples: Sequence[DataTuple]) -> "ColumnarBlock":
        """Decompose a run of data tuples into column arrays.

        The run must already be in stream order (non-latent timestamps
        non-decreasing) — true for anything drained out of a
        :class:`~repro.core.buffers.StreamBuffer` or emitted by an operator
        preserving input order.
        """
        return cls(
            [t.ts for t in tuples],
            [t.seq for t in tuples],
            [t.kind for t in tuples],
            [t.arrival_ts for t in tuples],
            [t.payload for t in tuples],
        )

    def to_tuples(self) -> list[DataTuple]:
        """Rebuild the selected rows as the exact original data tuples.

        Round-trip identity: ``ColumnarBlock.from_tuples(run).to_tuples()``
        equals ``run`` field for field (``seq`` included — materialization
        never draws fresh sequence numbers, so tie-breaking downstream is
        unchanged).
        """
        ts, seq, kind = self.ts, self.seq, self.kind
        arrival, payloads = self.arrival, self.payloads
        indices = self.selection
        if indices is None:
            indices = range(len(ts))
        return [DataTuple(ts=ts[i], seq=seq[i], payload=payloads[i],
                          kind=kind[i], arrival_ts=arrival[i])
                for i in indices]

    def row(self, position: int) -> DataTuple:
        """Materialize the row at selected *position* (not physical index)."""
        i = self.selection[position] if self.selection is not None else position
        return DataTuple(ts=self.ts[i], seq=self.seq[i],
                         payload=self.payloads[i], kind=self.kind[i],
                         arrival_ts=self.arrival[i])

    def __iter__(self) -> Iterator[DataTuple]:
        """The selected rows, materialized one at a time (a read-only view;
        a window snapshot's ``items`` reads like the tuple list it was)."""
        return map(self.row, range(self.count))

    # ------------------------------------------------------------------ #
    # Introspection

    @property
    def count(self) -> int:
        """Number of live (selected) rows."""
        if self.selection is not None:
            return len(self.selection)
        return len(self.ts)

    def __len__(self) -> int:
        return self.count

    def indices(self) -> Iterable[int]:
        """Physical indices of the live rows, in row order."""
        if self.selection is not None:
            return self.selection
        return range(len(self.ts))

    def iter_payloads(self) -> Iterator[Any]:
        """The payload column of the live rows, in row order."""
        if self.selection is None:
            return iter(self.payloads)
        payloads = self.payloads
        return (payloads[i] for i in self.selection)

    def iter_arrival(self) -> Iterator[float]:
        """The arrival-stamp column of the live rows, in row order."""
        if self.selection is None:
            return iter(self.arrival)
        arrival = self.arrival
        return (arrival[i] for i in self.selection)

    @property
    def head_ts(self) -> float:
        """Timestamp of the first live row (may be :data:`LATENT_TS`)."""
        i = self.selection[0] if self.selection is not None else 0
        return self.ts[i]

    def first_ts(self) -> float:
        """Smallest (= first, rows being ordered) non-latent timestamp,
        or :data:`LATENT_TS` when every row is latent."""
        ts = self.ts
        for i in self.indices():
            if ts[i] != LATENT_TS:
                return ts[i]
        return LATENT_TS

    def last_ts(self) -> float:
        """Largest (= last) non-latent timestamp, or :data:`LATENT_TS`."""
        ts = self.ts
        sel = self.selection
        if sel is None:
            for i in range(len(ts) - 1, -1, -1):
                if ts[i] != LATENT_TS:
                    return ts[i]
        else:
            for j in range(len(sel) - 1, -1, -1):
                if ts[sel[j]] != LATENT_TS:
                    return ts[sel[j]]
        return LATENT_TS

    # ------------------------------------------------------------------ #
    # Splitting (drain limits and timestamp gates)

    def _positions(self) -> "list[int] | range":
        # A range slices in O(1): draining one row at a time off a long
        # block must not copy the rest of it on every drain.
        if self.selection is not None:
            return self.selection
        return range(len(self.ts))

    def split_at(self, n: int) -> tuple["ColumnarBlock", "ColumnarBlock"]:
        """Split into (first ``n`` live rows, the rest); arrays are shared."""
        sel = self._positions()
        return (
            ColumnarBlock(self.ts, self.seq, self.kind, self.arrival,
                          self.payloads, sel[:n]),
            ColumnarBlock(self.ts, self.seq, self.kind, self.arrival,
                          self.payloads, sel[n:]),
        )

    def split_below(self, max_ts: float, *,
                    inclusive: bool = False) -> tuple["ColumnarBlock",
                                                      "ColumnarBlock | None"]:
        """Split before the first row stamped at or above ``max_ts``.

        The ``max_ts`` rule of :meth:`StreamBuffer.drain_block`: latent
        rows never stop a run, so they stay with the head part.  Returns
        ``(head, tail)`` with ``tail is None`` when nothing was cut off.

        With ``inclusive=True`` the cut moves past rows stamped exactly
        ``max_ts`` (head holds ``ts <= max_ts``) — the reorder operator's
        slack-bound eviction is an inclusive threshold.
        """
        ts = self.ts
        sel = self._positions()
        for pos, i in enumerate(sel):
            t = ts[i]
            if t != LATENT_TS and (t > max_ts if inclusive else t >= max_ts):
                return (
                    ColumnarBlock(self.ts, self.seq, self.kind, self.arrival,
                                  self.payloads, sel[:pos]),
                    ColumnarBlock(self.ts, self.seq, self.kind, self.arrival,
                                  self.payloads, sel[pos:]),
                )
        return self, None

    # ------------------------------------------------------------------ #
    # Transforms

    def filter(self, predicate: Callable[[Any], bool]) -> "ColumnarBlock":
        """Narrow the selection to rows whose payload passes ``predicate``.

        One predicate call per live row, in row order (predicates may be
        stateful); no arrays are copied.
        """
        payloads = self.payloads
        if self.selection is None:
            sel = [i for i in range(len(payloads)) if predicate(payloads[i])]
        else:
            sel = [i for i in self.selection if predicate(payloads[i])]
        return ColumnarBlock(self.ts, self.seq, self.kind, self.arrival,
                             payloads, sel)

    def with_selection(self, selection: list[int]) -> "ColumnarBlock":
        """A view of the same arrays with a different selection vector."""
        return ColumnarBlock(self.ts, self.seq, self.kind, self.arrival,
                             self.payloads, selection)

    def with_payloads(self, payloads: list[Any]) -> "ColumnarBlock":
        """Compact the selected rows and attach a rewritten payload column.

        ``payloads`` must hold one entry per live row, in row order.
        """
        sel = self.selection
        if sel is None:
            if len(payloads) != len(self.ts):
                raise ValueError(
                    f"payload column has {len(payloads)} entries for "
                    f"{len(self.ts)} rows")
            return ColumnarBlock(self.ts, self.seq, self.kind, self.arrival,
                                 payloads)
        if len(payloads) != len(sel):
            raise ValueError(
                f"payload column has {len(payloads)} entries for "
                f"{len(sel)} rows")
        ts, seq, kind, arrival = self.ts, self.seq, self.kind, self.arrival
        return ColumnarBlock([ts[i] for i in sel], [seq[i] for i in sel],
                             [kind[i] for i in sel], [arrival[i] for i in sel],
                             payloads)

    def map_payloads(self, fn: Callable[[Any], Any]) -> "ColumnarBlock":
        """Apply ``fn`` to every live payload (row order), compacting."""
        return self.with_payloads([fn(p) for p in self.iter_payloads()])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnarBlock(rows={self.count}/{len(self.ts)})"


# ---------------------------------------------------------------------- #
# Structured (vectorizable) predicates

_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


class FieldPredicate:
    """A predicate of the form ``payload[field] <op> value``.

    Behaves as a plain callable (so the scalar path uses it unchanged),
    but carries enough structure for the columnar path to evaluate it in
    one pass over the block's payload column, with no per-row bound-method
    call.  Construct via the classmethods::

        Select("keep", FieldPredicate.lt("value", 0.95))
    """

    __slots__ = ("field", "op", "value", "_fn")

    def __init__(self, field: str, op: str, value: Any) -> None:
        if op not in _OPS:
            raise ValueError(f"unsupported FieldPredicate op {op!r}")
        self.field = field
        self.op = op
        self.value = value
        self._fn = _OPS[op]

    # Constructors ----------------------------------------------------- #

    @classmethod
    def lt(cls, field: str, value: Any) -> "FieldPredicate":
        return cls(field, "<", value)

    @classmethod
    def le(cls, field: str, value: Any) -> "FieldPredicate":
        return cls(field, "<=", value)

    @classmethod
    def gt(cls, field: str, value: Any) -> "FieldPredicate":
        return cls(field, ">", value)

    @classmethod
    def ge(cls, field: str, value: Any) -> "FieldPredicate":
        return cls(field, ">=", value)

    @classmethod
    def eq(cls, field: str, value: Any) -> "FieldPredicate":
        return cls(field, "==", value)

    @classmethod
    def ne(cls, field: str, value: Any) -> "FieldPredicate":
        return cls(field, "!=", value)

    # Evaluation ------------------------------------------------------- #

    def __call__(self, payload: Any) -> bool:
        return bool(self._fn(payload[self.field], self.value))

    def select_indices(self, block: ColumnarBlock) -> list[int]:
        """Physical indices of the block's rows passing the predicate."""
        fn, value, field = self._fn, self.value, self.field
        payloads = block.payloads
        if block.selection is None:
            return [i for i in range(len(payloads))
                    if fn(payloads[i][field], value)]
        return [i for i in block.selection if fn(payloads[i][field], value)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FieldPredicate({self.field!r} {self.op} {self.value!r})"
