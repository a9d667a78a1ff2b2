"""Differential-oracle workloads: run path vs scalar, ETS modes vs NoEts.

Each test builds a deterministic feed schedule plus a graph factory, wraps
them in :class:`oracle.DifferentialOracle`, and asserts that every compared
engine configuration delivers byte-identical sink sequences.  Together they
cover the paper's query shapes (Fig.-4 union, the window-join extension),
tie-heavy merges that exercise the IWP block kernels' one-element scalar
selection, long stateless pipelines (where runs pay off most), and external
timestamps with a skew-bound ETS generator.
"""

from __future__ import annotations

import random

from oracle import DifferentialOracle, Feed

from repro.core.ets import OnDemandEts
from repro.core.graph import QueryGraph
from repro.core.operators import (
    AggSpec,
    Count,
    FlatMap,
    Map,
    Select,
    Shed,
    Sum,
    TumblingAggregate,
    Union,
    WindowJoin,
)
from repro.core.tuples import TimestampKind
from repro.core.windows import WindowSpec

# --------------------------------------------------------------------- #
# Feed schedules (deterministic; merged by arrival time, stable on ties)


def _merge(*streams: list[Feed]) -> list[Feed]:
    order: dict[int, int] = {id(f): i for s in streams for i, f in enumerate(s)}
    merged: list[Feed] = [f for s in streams for f in s]
    merged.sort(key=lambda f: (f.time, order[id(f)]))
    return merged


def _stream(source: str, *, rate_period: float, count: int, seed: int,
            start: float = 0.0, external_lag: float | None = None) -> list[Feed]:
    rng = random.Random(seed)
    feeds = []
    for i in range(count):
        t = start + i * rate_period
        feeds.append(Feed(
            source=source, time=t,
            payload={"seq": i, "value": rng.random()},
            external_ts=(t - external_lag * rng.random()
                         if external_lag is not None else None),
        ))
    return feeds


def fig7_feeds(fast: int = 400, slow: int = 6) -> list[Feed]:
    """The paper's rate-diverse workload: dense fast stream, sparse slow."""
    return _merge(
        _stream("fast", rate_period=0.02, count=fast, seed=11),
        _stream("slow", rate_period=1.5, count=slow, seed=13, start=0.7),
    )


def tie_feeds(rounds: int = 120) -> list[Feed]:
    """Both streams arrive at the same integer instants — every merge
    decision at the union is a timestamp tie, forcing the IWP block kernel
    onto its scalar-faithful single-element branch."""
    fast = _stream("fast", rate_period=1.0, count=rounds, seed=17)
    slow = _stream("slow", rate_period=1.0, count=rounds, seed=19)
    return _merge(fast, slow)


# --------------------------------------------------------------------- #
# Graph factories


def union_graph() -> QueryGraph:
    graph = QueryGraph("oracle-union")
    fast = graph.add_source("fast")
    slow = graph.add_source("slow")
    f1 = graph.add(Select("filter_fast", lambda p: p["value"] < 0.95))
    f2 = graph.add(Select("filter_slow", lambda p: p["value"] < 0.95))
    union = graph.add(Union("union"))
    sink = graph.add_sink("sink")
    graph.connect(fast, f1)
    graph.connect(slow, f2)
    graph.connect(f1, union)
    graph.connect(f2, union)
    graph.connect(union, sink)
    return graph


def join_graph() -> QueryGraph:
    graph = QueryGraph("oracle-join")
    fast = graph.add_source("fast")
    slow = graph.add_source("slow")
    join = graph.add(WindowJoin(
        "join", WindowSpec.time(5.0),
        predicate=lambda a, b: int(a["value"] * 4) == int(b["value"] * 4)))
    sink = graph.add_sink("sink")
    graph.connect(fast, join)
    graph.connect(slow, join)
    graph.connect(join, sink)
    return graph


def pipeline_graph() -> QueryGraph:
    """A long stateless chain — map, filter, probabilistic shed, flat-map,
    tumbling aggregate — the shape where run-draining amortizes most."""
    graph = QueryGraph("oracle-pipeline")
    src = graph.add_source("fast")
    enrich = graph.add(Map("enrich", lambda p: {**p, "bucket": p["seq"] % 5}))
    keep = graph.add(Select("keep", lambda p: p["value"] < 0.9))
    shed = graph.add(Shed("shed", 0.25, seed=23))
    expand = graph.add(FlatMap(
        "expand", lambda p: [p] * (1 + p["bucket"] % 2)))
    agg = graph.add(TumblingAggregate("agg", 1.0, {
        "n": AggSpec(Count),
        "total": AggSpec(Sum, field="value"),
    }))
    sink = graph.add_sink("sink")
    graph.connect(src, enrich)
    graph.connect(enrich, keep)
    graph.connect(keep, shed)
    graph.connect(shed, expand)
    graph.connect(expand, agg)
    graph.connect(agg, sink)
    return graph


def external_union_graph() -> QueryGraph:
    graph = QueryGraph("oracle-external")
    fast = graph.add_source("fast", TimestampKind.EXTERNAL, out_of_order=True)
    slow = graph.add_source("slow", TimestampKind.EXTERNAL, out_of_order=True)
    union = graph.add(Union("union"))
    sink = graph.add_sink("sink")
    graph.connect(fast, union, enforce_order=False)
    graph.connect(slow, union, enforce_order=False)
    graph.connect(union, sink)
    return graph


# --------------------------------------------------------------------- #
# The oracle tests


def test_fig7_union_oracle():
    oracle = DifferentialOracle(union_graph, fig7_feeds(),
                                chunk=16, punctuate_every=3)
    oracle.assert_all()


def test_join_oracle():
    feeds = _merge(
        _stream("fast", rate_period=0.1, count=150, seed=29),
        _stream("slow", rate_period=0.7, count=22, seed=31, start=0.35),
    )
    oracle = DifferentialOracle(join_graph, feeds,
                                chunk=8, punctuate_every=4)
    oracle.assert_all()


def test_timestamp_tie_oracle():
    oracle = DifferentialOracle(union_graph, tie_feeds(),
                                chunk=10, punctuate_every=5)
    oracle.assert_all()


def test_stateless_pipeline_oracle():
    feeds = _stream("fast", rate_period=0.05, count=400, seed=37)
    oracle = DifferentialOracle(pipeline_graph, feeds, chunk=32)
    oracle.assert_run_equals_scalar((2, 3, 8, 64, 1000))


def test_external_timestamps_oracle():
    feeds = _merge(
        _stream("fast", rate_period=0.25, count=80, seed=41,
                external_lag=0.2),
        _stream("slow", rate_period=1.1, count=18, seed=43, start=0.5,
                external_lag=0.2),
    )
    oracle = DifferentialOracle(external_union_graph, feeds, chunk=12)
    oracle.assert_run_equals_scalar()
    oracle.assert_run_equals_scalar(
        ets_policy_factory=lambda: OnDemandEts(external_delta=0.25))


def test_single_chunk_degenerates_to_one_big_batch():
    # chunk larger than the whole schedule: the engine sees every tuple at
    # once; batch_size=1000 drains whole runs in single execute_block calls.
    oracle = DifferentialOracle(union_graph, fig7_feeds(fast=120, slow=4),
                                chunk=10_000)
    oracle.assert_run_equals_scalar((64, 1000))


def test_oracle_reports_divergence_clearly():
    # Sanity-check the oracle itself: corrupt one run and the assertion
    # must fire with an index-level diagnosis.
    oracle = DifferentialOracle(union_graph, fig7_feeds(fast=50, slow=2),
                                chunk=8)
    reference = oracle.run(batch_size=1)
    tampered = list(reference)
    tampered[3] = ("sink", -1.0, None)
    try:
        from oracle import _assert_same
        _assert_same(reference, tampered, "tamper check")
    except AssertionError as exc:
        assert "index 3" in str(exc)
    else:  # pragma: no cover - the oracle must notice
        raise AssertionError("oracle failed to flag a corrupted run")
