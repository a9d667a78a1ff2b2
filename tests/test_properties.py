"""Property-based tests (hypothesis) for core invariants.

These target the data-structure and operator invariants the whole system
rests on: FIFO buffers, monotone registers, order-preserving union output,
window-join completeness relative to a naive oracle, tumbling-aggregate
conservation, and expression-parser arithmetic fidelity.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import BufferRegistry, StreamBuffer, TSMRegister
from repro.core.operators import (
    AggSpec,
    Count,
    Sum,
    TumblingAggregate,
    Union,
    WindowJoin,
)
from repro.core.windows import TimeWindow, WindowSpec
from repro.query.parser import compile_expression

from conftest import OpHarness, data, insert, punct

# ---------------------------------------------------------------------- #
# Strategies

timestamps = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                       allow_infinity=False)


@st.composite
def ordered_ts_lists(draw, max_size=40):
    """Non-decreasing timestamp lists (the ordered-streams property)."""
    deltas = draw(st.lists(st.floats(min_value=0.0, max_value=10.0,
                                     allow_nan=False), max_size=max_size))
    out, t = [], 0.0
    for d in deltas:
        t += d
        out.append(t)
    return out


# ---------------------------------------------------------------------- #
# Buffers

@given(ordered_ts_lists())
def test_buffer_is_fifo(ts_list):
    buf = StreamBuffer("b")
    tuples = [data(ts, payload=i) for i, ts in enumerate(ts_list)]
    for t in tuples:
        buf.push(t)
    assert [buf.pop().payload for _ in tuples] == list(range(len(tuples)))


@given(ordered_ts_lists())
def test_registry_total_never_negative_and_peak_correct(ts_list):
    reg = BufferRegistry()
    buf = StreamBuffer("b", reg)
    peak = 0
    for i, ts in enumerate(ts_list):
        buf.push(data(ts))
        peak = max(peak, reg.total)
        if i % 3 == 2:
            buf.pop()
        assert reg.total >= 0
    assert reg.peak == peak


@given(st.lists(timestamps, max_size=50))
def test_tsm_register_is_monotone(values):
    reg = TSMRegister()
    high = -math.inf
    for v in values:
        reg.update(v)
        high = max(high, v)
        assert reg.value == high


# ---------------------------------------------------------------------- #
# Union

@given(ordered_ts_lists(), ordered_ts_lists())
@settings(max_examples=60)
def test_union_output_is_ordered_merge_prefix(a_ts, b_ts):
    """Union output must be a timestamp-ordered interleaving, and with a
    closing punctuation on both inputs it must contain *all* data tuples."""
    op = Union("u")
    h = OpHarness(op, n_inputs=2)
    for ts in a_ts:
        h.feed(0, ts, ("a", ts))
    for ts in b_ts:
        h.feed(1, ts, ("b", ts))
    closing = max(a_ts + b_ts, default=0.0) + 1.0
    h.feed_punctuation(0, closing)
    h.feed_punctuation(1, closing)
    h.run()
    out = h.output_data()
    out_ts = [t.ts for t in out]
    assert out_ts == sorted(out_ts)
    assert len(out) == len(a_ts) + len(b_ts)
    assert sorted(t.payload for t in out) == sorted(
        [("a", ts) for ts in a_ts] + [("b", ts) for ts in b_ts])


@given(ordered_ts_lists(), ordered_ts_lists())
@settings(max_examples=40)
def test_union_never_emits_below_consumed_watermark(a_ts, b_ts):
    op = Union("u")
    h = OpHarness(op, n_inputs=2)
    for ts in a_ts:
        h.feed(0, ts)
    for ts in b_ts:
        h.feed(1, ts)
    h.run()
    emitted = h.output_data()
    if emitted:
        last = emitted[-1].ts
        # every remaining buffered element must be >= the last emitted ts
        for buf in h.inputs:
            for element in buf:
                assert element.ts >= last


# ---------------------------------------------------------------------- #
# Window join vs naive oracle

@given(ordered_ts_lists(max_size=20), ordered_ts_lists(max_size=20),
       st.floats(min_value=0.5, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_join_matches_naive_oracle(a_ts, b_ts, span):
    """The symmetric window join must produce exactly the pairs within the
    time window, as computed by a brute-force oracle."""
    op = WindowJoin("j", WindowSpec.time(span),
                    combiner=lambda lp, rp: (lp, rp))
    h = OpHarness(op, n_inputs=2)
    for i, ts in enumerate(a_ts):
        h.feed(0, ts, ("a", i))
    for i, ts in enumerate(b_ts):
        h.feed(1, ts, ("b", i))
    closing = max(a_ts + b_ts, default=0.0) + span + 1.0
    h.feed_punctuation(0, closing)
    h.feed_punctuation(1, closing)
    h.run()
    got = sorted(t.payload for t in h.output_data())

    expected = []
    for i, ta in enumerate(a_ts):
        for j, tb in enumerate(b_ts):
            # mirror the window's exact float arithmetic: the earlier tuple
            # is still live when the later one probes iff it is at or above
            # the horizon ``later - span``
            earlier, later = min(ta, tb), max(ta, tb)
            if earlier >= later - span:
                expected.append((("a", i), ("b", j)))
    assert got == sorted(expected)


# ---------------------------------------------------------------------- #
# Tumbling aggregate conservation

@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=500.0,
                                    allow_nan=False),
                          st.integers(min_value=-100, max_value=100)),
                max_size=40),
       st.floats(min_value=1.0, max_value=60.0))
@settings(max_examples=60)
def test_tumbling_aggregate_conserves_count_and_sum(items, width):
    """Across all emitted windows, counts and sums equal the input totals."""
    items = sorted(items, key=lambda x: x[0])
    op = TumblingAggregate("agg", width,
                           {"n": AggSpec(Count), "s": AggSpec(Sum, "v")})
    h = OpHarness(op)
    for ts, v in items:
        h.feed(0, ts, {"v": v})
    closing = (items[-1][0] if items else 0.0) + width + 1.0
    h.feed_punctuation(0, closing)
    h.run()
    out = h.output_data()
    assert sum(t.payload["n"] for t in out) == len(items)
    assert sum(t.payload["s"] for t in out) == sum(v for _, v in items)
    # window ends are aligned and strictly increasing
    ends = [t.ts for t in out]
    assert ends == sorted(set(ends))
    for end in ends:
        assert math.isclose(end / width, round(end / width), abs_tol=1e-6)


# ---------------------------------------------------------------------- #
# Time windows

@given(ordered_ts_lists(), st.floats(min_value=0.1, max_value=100.0))
def test_time_window_expiry_invariant(ts_list, span):
    w = TimeWindow(span)
    for ts in ts_list:
        insert(w, data(ts))
        w.expire(ts)
        assert all(t.ts >= ts - span for t in w)


# ---------------------------------------------------------------------- #
# Expression parser vs Python eval

@st.composite
def arith_exprs(draw, depth=0):
    if depth > 2 or draw(st.booleans()):
        return str(draw(st.integers(min_value=0, max_value=9)))
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(arith_exprs(depth=depth + 1))
    right = draw(arith_exprs(depth=depth + 1))
    return f"({left} {op} {right})"


@given(arith_exprs())
@settings(max_examples=80)
def test_expression_parser_matches_python(expr):
    assert compile_expression(expr)({}) == eval(expr)


# ---------------------------------------------------------------------- #
# Punctuation-only streams never produce data

@given(ordered_ts_lists())
def test_punctuation_only_union_emits_no_data(ts_list):
    op = Union("u")
    h = OpHarness(op, n_inputs=2)
    for ts in ts_list:
        h.feed_punctuation(0, ts)
        h.feed_punctuation(1, ts)
    h.run()
    assert h.output_data() == []


# ---------------------------------------------------------------------- #
# Reorder: random bounded disorder is fully repaired

@st.composite
def disordered_streams(draw):
    """(timestamps with bounded disorder, the disorder bound)."""
    ordered = draw(ordered_ts_lists(max_size=30))
    bound = draw(st.floats(min_value=0.1, max_value=5.0))
    jitters = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                            min_size=len(ordered), max_size=len(ordered)))
    disordered = [ts + j * bound for ts, j in zip(ordered, jitters)]
    return disordered, bound


@given(disordered_streams())
@settings(max_examples=60)
def test_reorder_repairs_bounded_disorder(stream):
    """With slack >= the disorder bound, Reorder emits every tuple exactly
    once, in timestamp order, with nothing dropped."""
    from repro.core.operators import Reorder

    values, bound = stream
    op = Reorder("r", slack=bound + 1e-9)
    h = OpHarness(op)
    h.inputs[0]._enforce_order = False
    for i, ts in enumerate(values):
        h.feed(0, ts, payload=i)
    closing = max(values, default=0.0) + bound + 1.0
    h.feed_punctuation(0, closing)
    h.run()
    out = h.output_data()
    assert op.late_dropped == 0
    assert sorted(t.payload for t in out) == list(range(len(values)))
    out_ts = [t.ts for t in out]
    assert out_ts == sorted(out_ts)


@given(disordered_streams())
@settings(max_examples=40)
def test_reorder_output_ordered_even_with_tiny_slack(stream):
    """Insufficient slack may drop tuples but must never emit out of order."""
    from repro.core.operators import Reorder

    values, bound = stream
    op = Reorder("r", slack=bound / 10.0 + 1e-9)
    h = OpHarness(op)
    h.inputs[0]._enforce_order = False
    for i, ts in enumerate(values):
        h.feed(0, ts, payload=i)
    h.feed_punctuation(0, max(values, default=0.0) + bound + 1.0)
    h.run()
    out_ts = [t.ts for t in h.output_data()]
    assert out_ts == sorted(out_ts)
