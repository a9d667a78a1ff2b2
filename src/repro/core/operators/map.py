"""Map (generic transform) and FlatMap operators.

``Map`` applies a user function to every payload, emitting exactly one output
tuple per input tuple with the same timestamp.  ``FlatMap`` may emit zero or
more payloads per input, which subsumes both selection and record expansion;
it exists mostly for the mini query language and user extensions (Stream
Mill's selling point is user-defined aggregates and transforms).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..columnar import ColumnarBlock
from ..tuples import DataTuple
from .base import OpContext
from .stateless import StatelessOperator

__all__ = ["Map", "FlatMap"]


class Map(StatelessOperator):
    """Emit ``fn(payload)`` for every data tuple, timestamp preserved."""

    def __init__(self, name: str, fn: Callable[[Any], Any]) -> None:
        super().__init__(name)
        self.fn = fn

    def apply(self, tup: DataTuple, ctx: OpContext) -> list[DataTuple]:
        return [tup.with_payload(self.fn(tup.payload))]

    def apply_block(self, block: ColumnarBlock,
                    ctx: OpContext) -> ColumnarBlock | None:
        """Columnar map: rewrite only the payloads column, rows untouched."""
        return block.map_payloads(self.fn)


class FlatMap(StatelessOperator):
    """Emit one tuple per payload produced by ``fn(payload)``.

    ``fn`` returns an iterable of payloads; all outputs share the input
    tuple's timestamp, so stream order is preserved.
    """

    def __init__(self, name: str, fn: Callable[[Any], Iterable[Any]]) -> None:
        super().__init__(name)
        self.fn = fn

    def apply(self, tup: DataTuple, ctx: OpContext) -> list[DataTuple]:
        return [tup.with_payload(p) for p in self.fn(tup.payload)]
