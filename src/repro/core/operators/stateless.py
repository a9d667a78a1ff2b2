"""Shared machinery for single-input, non-IWP operators.

Non-IWP operators are straightforward (paper Section 2): compute the result,
emit it with the input tuple's timestamp, consume the input.  They must also
be punctuation-transparent (Section 4.2): punctuation tuples pass through
unchanged, except for reformatting, so that ETS information reaches the IWP
operators down the path.
"""

from __future__ import annotations

from ..columnar import ColumnarBlock
from ..tuples import DataTuple, StreamElement
from .base import BatchResult, Operator, OpContext, StepResult

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
    supports_blocks = True

    def state_floor(self) -> float:
        """Nothing is retained between steps."""
        return float("inf")

    def state_reach(self) -> float:
        """Every output carries its input's stamp."""
        return 0.0

    def execute_step(self, ctx: OpContext) -> StepResult:
        element: StreamElement = self.inputs[0].pop()
        if element.is_punctuation:
            self.emit_punctuation(element)
            return StepResult(consumed=element, emitted_punctuation=1)

        assert isinstance(element, DataTuple)
        emitted = 0
        for out in self.apply(element, ctx):
            self.emit(out)
            emitted += 1
        return StepResult(consumed=element, emitted_data=emitted)

    def apply(self, tup: DataTuple, ctx: OpContext) -> list[DataTuple]:
        """Transform one data tuple into its output tuples."""
        raise NotImplementedError

    def execute_block(self, ctx: OpContext, limit: int) -> BatchResult:
        """Columnar path: drain a block, transform its columns, push whole.

        Punctuation is still a batch boundary consumed by the scalar step;
        the fast path never sees it inside a block by construction.
        """
        buf = self.inputs[0]
        block = buf.drain_block(limit)
        if block is None:
            if buf.is_empty:
                return BatchResult()
            batch = BatchResult()  # punctuation at the head: scalar step
            batch.add_step(self.execute_step(ctx))
            return batch
        out = self.apply_block(block, ctx)
        emitted = out.count if out is not None else 0
        if emitted:
            for out_buf in self.outputs:
                out_buf.push_block(out)
        n = block.count
        return BatchResult(steps=n, consumed_data=n, emitted_data=emitted)

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
