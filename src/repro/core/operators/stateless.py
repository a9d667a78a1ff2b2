"""Shared machinery for single-input, non-IWP operators.

Non-IWP operators are straightforward (paper Section 2): compute the result,
emit it with the input tuple's timestamp, consume the input.  They must also
be punctuation-transparent (Section 4.2): punctuation tuples pass through
unchanged, except for reformatting, so that ETS information reaches the IWP
operators down the path.
"""

from __future__ import annotations

from ..columnar import ColumnarBlock
from ..tuples import DataTuple
from .base import BatchResult, Operator, OpContext

__all__ = ["StatelessOperator"]


class StatelessOperator(Operator):
    """Base for operators that map one input element to 0..n output tuples.

    Sub-classes implement :meth:`apply`, which receives a data tuple and
    returns the data tuples to emit (possibly none, as for a failed
    selection).  Punctuation handling and consumption are centralized here.

    The columnar path is centralized too: :meth:`execute_block` drains a
    whole :class:`~repro.core.columnar.ColumnarBlock` and hands it to
    :meth:`apply_block`.  The default ``apply_block`` materializes rows and
    loops :meth:`apply` — identical semantics for any subclass (including
    user-defined ones) while still amortizing the buffer traffic; Select /
    Project / Map override it with genuinely columnar transforms.
    """

    is_iwp = False
    arity = 1

    def state_floor(self) -> float:
        """Nothing is retained between steps."""
        return float("inf")

    def state_reach(self) -> float:
        """Every output carries its input's stamp."""
        return 0.0

    def apply(self, tup: DataTuple, ctx: OpContext) -> list[DataTuple]:
        """Transform one data tuple into its output tuples."""
        raise NotImplementedError

    def execute_block(self, ctx: OpContext, limit: int) -> BatchResult:
        """Drain a block, transform its columns, push the result whole.

        A punctuation at the head is a run of its own: it passes through
        re-attributed to this operator (punctuation transparency).
        """
        buf = self._ports.inputs[0]
        items = buf._items
        if not items:
            return BatchResult()
        if not isinstance(items[0], ColumnarBlock):
            self.emit_punctuation(buf.pop())
            return BatchResult(1, 0, 1, 0, 0, 0, 1)  # one in, one out
        block = buf.drain_block(limit)
        out = self.apply_block(block, ctx)
        emitted = 0
        if out is not None:
            sel = out.selection
            emitted = len(out.ts) if sel is None else len(sel)
            if emitted:
                for dest in self._ports.outputs:  # emit(), inlined
                    dest.push_block(out)
        sel = block.selection
        n = len(block.ts) if sel is None else len(sel)
        return BatchResult(n, n, 0, 0, 0, emitted)  # n rows in

    def apply_block(self, block: ColumnarBlock,
                    ctx: OpContext) -> ColumnarBlock | None:
        """Transform one block into its output block (None/empty = nothing).

        The default loops :meth:`apply` over materialized rows, in row
        order — byte-identical for any subclass (stateful ``apply``
        implementations included) at the cost of materialization; columnar
        subclasses override this to work on the arrays directly.
        """
        apply = self.apply
        outs: list[DataTuple] = []
        for tup in block.to_tuples():
            outs.extend(apply(tup, ctx))
        if not outs:
            return None
        return ColumnarBlock.from_tuples(outs)
