"""Projection operator: narrow each payload record to a subset of fields."""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Iterable

from ..columnar import ColumnarBlock
from ..errors import SchemaError
from ..tuples import DataTuple
from .base import OpContext
from .stateless import StatelessOperator

__all__ = ["Project"]


class Project(StatelessOperator):
    """Keep only the named payload fields of every data tuple.

    Payloads must be mappings.  Missing fields raise :class:`SchemaError`
    rather than silently emitting partial records — a projection that cannot
    find its columns indicates a mis-wired query graph.
    """

    def __init__(self, name: str, fields: Iterable[str]) -> None:
        super().__init__(name)
        self.fields = tuple(fields)
        if not self.fields:
            raise SchemaError(f"projection {name!r} must keep at least one field")

    def _project(self, payload: Any) -> dict:
        """``payload`` narrowed to :attr:`fields`, or the :class:`SchemaError`.

        An exact ``dict`` is indexed directly and the missing fields are
        worked out only once a ``KeyError`` says there are some; any other
        mapping is asked about membership first, so one with a
        ``__missing__`` (a ``defaultdict``) never fabricates a field.
        """
        fields = self.fields
        if type(payload) is dict:
            try:
                return {f: payload[f] for f in fields}
            except KeyError:
                pass
        elif not isinstance(payload, Mapping):
            raise SchemaError(
                f"projection {self.name!r}: payload must be a mapping, "
                f"got {type(payload).__name__}"
            )
        missing = [f for f in fields if f not in payload]
        if missing:
            raise SchemaError(
                f"projection {self.name!r}: payload missing fields {missing}"
            )
        return {f: payload[f] for f in fields}

    def apply(self, tup: DataTuple, ctx: OpContext) -> list[DataTuple]:
        return [tup.with_payload(self._project(tup.payload))]

    def apply_block(self, block: ColumnarBlock,
                    ctx: OpContext) -> ColumnarBlock | None:
        """Columnar projection: rewrite only the payloads column.

        Timestamps, sequence numbers and arrival times are shared with the
        input block untouched — projection never moves a row, so none of the
        per-tuple ``dataclasses.replace`` churn of :meth:`apply` happens.
        When every live payload is an exact ``dict`` the column is built by
        one comprehension; otherwise, or when a field is missing, row by row
        through :meth:`_project`, so a schema error carries the same message
        and names the same row as :meth:`apply`.
        """
        fields = self.fields
        payloads = block.payloads
        if block.selection is not None:
            payloads = [payloads[i] for i in block.selection]
        if set(map(type, payloads)) == {dict}:
            try:
                return block.with_payloads(
                    [{f: p[f] for f in fields} for p in payloads])
            except KeyError:
                pass
        return block.with_payloads([self._project(p) for p in payloads])
