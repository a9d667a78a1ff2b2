"""Projection differential: the column-at-once kernel against the per-row
reference model.

``Project.apply_block`` builds an all-exact-``dict`` payload column with
one comprehension and falls back to row-by-row projection otherwise.  Over
blocks with and without a selection, holding exact dicts, ``defaultdict``\\ s,
read-only mappings, dicts missing a field and non-mappings, the kernel must
give the payloads :meth:`Project.apply` gives row by row — same keys, key
order, values and types — or raise the same :class:`SchemaError` message
the first failing row raises, and never touch an input payload.
"""

from collections import defaultdict
from types import MappingProxyType

from hypothesis import given, settings, strategies as st

from repro.core.columnar import ColumnarBlock
from repro.core.errors import SchemaError
from repro.core.operators import Project
from repro.core.tuples import DataTuple

FIELDS = ("b", "a")

#: Payload shapes: whole exact dicts dominate so the fast path runs; each
#: shape that misses a field misses a different one, so the message names
#: the row that raised.
_SHAPES = ["dict"] * 6 + ["defaultdict", "proxy", "no_a", "no_b",
                          "defaultdict_no_a", "tuple"]


def _payload(shape: str, i: int):
    full = {"a": i, "x": -i, "b": str(i)}
    if shape == "dict":
        return full
    if shape == "defaultdict":
        return defaultdict(int, full)
    if shape == "proxy":
        return MappingProxyType(full)
    if shape == "no_a":
        return {"b": str(i), "x": -i}
    if shape == "no_b":
        return {"a": i}
    if shape == "defaultdict_no_a":
        return defaultdict(int, b=str(i))
    return (i, str(i))


def _shape(payloads: list) -> list:
    return [(type(p).__name__, list(p.items())) for p in payloads]


def _reference(op: Project, block: ColumnarBlock):
    """Row by row through the tuple-at-a-time ``apply``."""
    try:
        return _shape([op.apply(row, None)[0].payload
                       for row in block.to_tuples()])
    except SchemaError as exc:
        return ("SchemaError", str(exc))


def _kernel(op: Project, block: ColumnarBlock):
    try:
        out = op.apply_block(block, None)
    except SchemaError as exc:
        return ("SchemaError", str(exc))
    assert out.selection is None and out.count == block.count
    assert out.ts == [block.ts[i] for i in block.indices()]
    return _shape(out.payloads)


@given(shapes=st.lists(st.sampled_from(_SHAPES), min_size=1, max_size=24),
       keep=st.one_of(st.none(), st.lists(st.booleans(), min_size=24,
                                          max_size=24)))
@settings(max_examples=300, deadline=None)
def test_block_projection_matches_the_row_model(shapes, keep):
    payloads = [_payload(shape, i) for i, shape in enumerate(shapes)]
    before = [_shape([p]) if not isinstance(p, tuple) else p
              for p in payloads]
    block = ColumnarBlock.from_tuples(
        [DataTuple(ts=float(i), payload=p) for i, p in enumerate(payloads)])
    if keep is not None:
        block = block.with_selection(
            [i for i in range(len(payloads)) if keep[i]])
    op = Project("p", FIELDS)
    assert _kernel(op, block) == _reference(op, block)
    after = [_shape([p]) if not isinstance(p, tuple) else p
             for p in payloads]
    assert after == before  # no defaultdict ever grew a fabricated field


def test_fast_path_output_is_fresh_exact_dicts_in_field_order():
    rows = [DataTuple(ts=float(i), payload={"a": i, "b": -i, "c": 0})
            for i in range(4)]
    block = ColumnarBlock.from_tuples(rows).with_selection([1, 3])
    out = Project("p", ["c", "a"]).apply_block(block, None)
    assert out.payloads == [{"c": 0, "a": 1}, {"c": 0, "a": 3}]
    assert [list(p) for p in out.payloads] == [["c", "a"], ["c", "a"]]
    assert all(type(p) is dict for p in out.payloads)
    assert all(p is not row.payload for p, row in zip(out.payloads, rows))
