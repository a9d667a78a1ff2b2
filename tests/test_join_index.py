"""Differential tests: hash-indexed equality joins vs the scan layout.

The hash-partitioned window state is only worth having if it is
*observationally identical* to the scan join: same data tuples, same
payloads, same timestamps, in the same order at every sink — under every
engine configuration (ETS modes, batch widths) and every workload shape
(skewed and balanced rates, key cardinalities 2–64, duplicate keys,
simultaneous timestamps).  The scan reference (``indexed=False``), the
demanded bucket probe (``indexed=True``) and the auto-selected layout
(``indexed=None``) of the same query are replayed through the PR-1
:class:`oracle.DifferentialOracle` and compared byte-for-byte; only the
*probe counts* may (and must) differ.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from oracle import DifferentialOracle, Feed, _assert_same

from repro.core.ets import NoEts, OnDemandEts
from repro.core.graph import QueryGraph
from repro.core.operators import WindowJoin
from repro.core.windows import WindowSpec
from repro.obs import MetricsRegistry

BATCH_SIZES = (1, 8, 64)


# --------------------------------------------------------------------- #
# Workloads


def _merge(*streams: list[Feed]) -> list[Feed]:
    order = {id(f): i for s in streams for i, f in enumerate(s)}
    merged = [f for s in streams for f in s]
    merged.sort(key=lambda f: (f.time, order[id(f)]))
    return merged


def keyed_stream(source: str, *, rate_period: float, count: int, seed: int,
                 cardinality: int, start: float = 0.0) -> list[Feed]:
    rng = random.Random(seed)
    return [Feed(source=source, time=start + i * rate_period,
                 payload={"seq": i, "k": rng.randrange(cardinality),
                          "value": rng.random()})
            for i in range(count)]


def skewed_feeds(cardinality: int = 8) -> list[Feed]:
    """The paper's rate-diverse shape, with join keys on both streams."""
    return _merge(
        keyed_stream("fast", rate_period=0.05, count=240, seed=11,
                     cardinality=cardinality),
        keyed_stream("slow", rate_period=0.9, count=14, seed=13,
                     cardinality=cardinality, start=0.45),
    )


def balanced_feeds(cardinality: int) -> list[Feed]:
    """Similar rates on both sides, so *both* windows grow many buckets."""
    return _merge(
        keyed_stream("fast", rate_period=0.05, count=200, seed=7,
                     cardinality=cardinality),
        keyed_stream("slow", rate_period=0.06, count=160, seed=9,
                     cardinality=cardinality, start=0.02),
    )


# --------------------------------------------------------------------- #
# Graph factories — identical queries, differing only in window layout


def keyed_join_graph(*, indexed: bool | None, window: WindowSpec | None = None,
                     residual: bool = False) -> QueryGraph:
    graph = QueryGraph("join-index-oracle")
    fast = graph.add_source("fast")
    slow = graph.add_source("slow")
    join = graph.add(WindowJoin(
        "join", window if window is not None else WindowSpec.time(5.0),
        key="k", indexed=indexed,
        predicate=(lambda a, b: a["value"] < b["value"]) if residual else None,
    ))
    sink = graph.add_sink("sink")
    graph.connect(fast, join)
    graph.connect(slow, join)
    graph.connect(join, sink)
    return graph


def _assert_indexed_equals_scan(feeds, *, window=None, residual=False,
                                chunk=8, punctuate_every=4) -> None:
    """Replay ``feeds`` under every (ETS mode × batch size) pair and demand
    byte-identical sink sequences from the scan reference, the demanded
    bucket probe and the auto-selected layout."""
    def oracle(indexed: bool | None) -> DifferentialOracle:
        return DifferentialOracle(
            lambda: keyed_join_graph(indexed=indexed, window=window,
                                     residual=residual),
            feeds, chunk=chunk, punctuate_every=punctuate_every)

    scan, indexed, auto = oracle(False), oracle(True), oracle(None)
    for batch_size in BATCH_SIZES:
        for label, kwargs in (
                ("NoEts", dict(ets_policy=NoEts())),
                ("OnDemandEts", dict(ets_policy=OnDemandEts())),
                ("heartbeat", dict(ets_policy=NoEts(), punctuate=True))):
            reference = scan.run(batch_size=batch_size, **kwargs)
            for layout, variant in (("indexed", indexed), ("auto", auto)):
                _assert_same(reference,
                             variant.run(batch_size=batch_size, **kwargs),
                             f"{layout} diverged from scan "
                             f"({label}, batch_size={batch_size})")
            assert reference, f"empty sink trace ({label}) proves nothing"


# --------------------------------------------------------------------- #
# The differential tests


def test_indexed_join_matches_scan_across_modes():
    for feeds in (skewed_feeds(), skewed_feeds(cardinality=64),
                  balanced_feeds(4), balanced_feeds(64)):
        _assert_indexed_equals_scan(feeds)


def test_indexed_join_matches_scan_with_residual_predicate():
    _assert_indexed_equals_scan(skewed_feeds(), residual=True)


def test_indexed_count_window_matches_scan():
    _assert_indexed_equals_scan(skewed_feeds(cardinality=4),
                                window=WindowSpec.count(12))


def test_indexed_join_matches_scan_with_hot_duplicate_keys():
    # Cardinality 2: every bucket is long, exercising intra-bucket order.
    _assert_indexed_equals_scan(skewed_feeds(cardinality=2))


def test_indexed_run_reduces_examined_probes_only():
    """Same output; strictly fewer examined probes; identical emitted —
    and the auto-selected layout *is* the bucket probe at every key
    cardinality (the registry counts the per-step ``probes`` that
    ``EngineStats.probes`` sums)."""
    for cardinality, batch_size in ((8, 1), (4, 1), (4, 8)):
        feeds = skewed_feeds(cardinality)
        counts = {}
        for indexed in (False, True, None):
            registry = MetricsRegistry()
            oracle = DifferentialOracle(
                lambda: keyed_join_graph(indexed=indexed), feeds, chunk=8)
            counts[indexed] = (
                oracle.run(batch_size=batch_size, observers=[registry]),
                registry.join_probes.value(result="examined"),
                registry.join_probes.value(result="emitted"),
            )
        scan_out, scan_examined, scan_emitted = counts[False]
        idx_out, idx_examined, idx_emitted = counts[True]
        assert scan_out == idx_out
        assert idx_emitted == scan_emitted
        assert 0 < idx_examined < scan_examined
        # Scan joins examine every stored tuple, so examined == emitted
        # never holds for them; the indexed join's gap is residual-free.
        assert idx_examined == idx_emitted
        assert counts[None] == counts[True]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_duplicate_keys_and_simultaneous_timestamps(seed: int):
    """Hypothesis: ties everywhere — duplicate keys, equal timestamps on and
    across both inputs — may never make the layouts diverge."""
    rng = random.Random(seed)
    feeds = []
    t = 0.0
    for i in range(rng.randint(20, 80)):
        # Integer-ish time steps with frequent exact ties (dt == 0).
        t += rng.choice((0.0, 0.0, 0.5, 1.0))
        feeds.append(Feed(source=rng.choice(("fast", "slow")), time=t,
                          payload={"seq": i, "k": rng.randrange(3),
                                   "value": rng.random()}))
    window = rng.choice((WindowSpec.time(3.0), WindowSpec.count(7)))
    chunk = rng.choice((1, 4, 16))
    batch_size = rng.choice(BATCH_SIZES)

    def run(indexed: bool | None):
        oracle = DifferentialOracle(
            lambda: keyed_join_graph(indexed=indexed, window=window),
            feeds, chunk=chunk, punctuate_every=3)
        return oracle.run(batch_size=batch_size, ets_policy=OnDemandEts(),
                          punctuate=True)

    _assert_same(run(False), run(True),
                 f"indexed diverged from scan (seed={seed})")
