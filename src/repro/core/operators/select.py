"""Selection (filter) operator.

The paper's experimental query (Fig. 4) filters each input stream through a
selection with 95 % selectivity before the union; this operator is that
filter.  Tuples failing the predicate are consumed and dropped; punctuation
passes through (handled by :class:`StatelessOperator`), which is essential —
a dropped tuple's timestamp information must still reach the union.
"""

from __future__ import annotations

from typing import Any, Callable

from ..columnar import ColumnarBlock, FieldPredicate
from ..tuples import DataTuple
from .base import OpContext
from .stateless import StatelessOperator

__all__ = ["Select"]


class Select(StatelessOperator):
    """Emit only the tuples whose payload satisfies ``predicate``.

    Attributes:
        passed / dropped: Running selectivity statistics.
    """

    def __init__(self, name: str, predicate: Callable[[Any], bool]) -> None:
        super().__init__(name)
        self.predicate = predicate
        self.passed = 0
        self.dropped = 0

    def apply(self, tup: DataTuple, ctx: OpContext) -> list[DataTuple]:
        if self.predicate(tup.payload):
            self.passed += 1
            return [tup]
        self.dropped += 1
        return []

    def apply_block(self, block: ColumnarBlock,
                    ctx: OpContext) -> ColumnarBlock | None:
        """Columnar filter: one pass producing a narrowed selection vector.

        No rows are copied — the output block shares the input's arrays.  A
        structured :class:`~repro.core.columnar.FieldPredicate` is evaluated
        in one comprehension over the payload column; arbitrary callables
        are applied per row in row order, exactly like :meth:`apply`.
        """
        predicate = self.predicate
        if isinstance(predicate, FieldPredicate):
            out = block.with_selection(predicate.select_indices(block))
        else:
            out = block.filter(predicate)
        kept = out.count
        self.passed += kept
        self.dropped += block.count - kept
        return out if kept else None

    @property
    def observed_selectivity(self) -> float:
        """Fraction of data tuples that passed (nan before any input)."""
        total = self.passed + self.dropped
        if not total:
            return float("nan")
        return self.passed / total
