"""Property-based engine tests: random DAGs × random arrivals × all modes.

Hypothesis supplies a seed; from it we derive a random query graph built
from count-preserving operators (maps and union merges, so every ingested
tuple must reach the sink exactly once) and a random arrival schedule with
bursts, rate skew, and deliberate timestamp ties.  The properties checked
under every ETS mode (NoEts, OnDemandEts, manual periodic punctuation) and
every batch width:

* **Sink timestamp monotonicity** — delivered timestamps never decrease
  (the ordered-stream invariant survives merging and batching);
* **No tuple loss, no duplication** — after the end-of-stream flush, the
  multiset of delivered payloads equals the multiset ingested.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from oracle import DifferentialOracle, Feed

from repro.core.ets import NoEts, OnDemandEts
from repro.core.graph import QueryGraph
from repro.core.operators import Map, Union

BATCH_SIZES = (1, 4, 64)


# --------------------------------------------------------------------- #
# Seeded random generation


def random_graph(seed: int) -> tuple[list[str], "GraphFactory"]:
    """Derive a graph *shape* from the seed; return source names plus a
    factory producing fresh graphs of that shape (one per oracle run)."""
    rng = random.Random(seed)
    n_sources = rng.randint(1, 3)
    chain_lens = [rng.randint(0, 2) for _ in range(n_sources)]
    tail_len = rng.randint(0, 2)
    names = [f"s{i}" for i in range(n_sources)]

    def build() -> QueryGraph:
        graph = QueryGraph(f"prop-{seed}")
        heads = []
        for i, name in enumerate(names):
            node = graph.add_source(name)
            for j in range(chain_lens[i]):
                nxt = graph.add(Map(f"map_{i}_{j}", lambda p: p))
                graph.connect(node, nxt)
                node = nxt
            heads.append(node)
        # Merge all branches with a left-deep chain of unions.
        merged = heads[0]
        for i, head in enumerate(heads[1:]):
            union = graph.add(Union(f"union_{i}"))
            graph.connect(merged, union)
            graph.connect(head, union)
            merged = union
        for j in range(tail_len):
            nxt = graph.add(Map(f"tail_{j}", lambda p: p))
            graph.connect(merged, nxt)
            merged = nxt
        sink = graph.add_sink("sink")
        graph.connect(merged, sink)
        return graph

    return names, build


def random_feeds(seed: int, sources: list[str]) -> list[Feed]:
    """A bursty, rate-skewed, tie-laden schedule over ``sources``."""
    rng = random.Random(seed ^ 0x5EED)
    feeds: list[Feed] = []
    uid = 0
    for i, name in enumerate(sources):
        t = 0.0
        rate = 10.0 ** rng.uniform(-0.5, 1.5)  # ~0.3 .. ~30 tuples/s
        for _ in range(rng.randint(15, 50)):
            choice = rng.random()
            if choice < 0.2:
                gap = 0.0  # burst: several tuples at one instant
            elif choice < 0.4:
                gap = round(rng.uniform(0.0, 2.0), 1)  # coarse grid → ties
            else:
                gap = rng.expovariate(rate)
            t += gap
            feeds.append(Feed(source=name, time=t,
                              payload={"uid": uid, "src": i}))
            uid += 1
    feeds.sort(key=lambda f: (f.time, f.payload["uid"]))
    return feeds


# --------------------------------------------------------------------- #
# Properties


def _check_run(records, feeds, label: str) -> None:
    last = float("-inf")
    for _, ts, _ in records:
        assert ts >= last, (
            f"{label}: sink timestamps regressed ({ts} after {last})")
        last = ts
    got = Counter(r[2]["uid"] for r in records)
    expected = Counter(f.payload["uid"] for f in feeds)
    missing = expected - got
    extra = got - expected
    assert not missing and not extra, (
        f"{label}: lost {sorted(missing)} / duplicated {sorted(extra)}")


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_random_dags_monotone_and_lossless(seed: int):
    sources, build = random_graph(seed)
    feeds = random_feeds(seed, sources)
    chunk = random.Random(seed ^ 0xC4).randint(1, 24)
    oracle = DifferentialOracle(build, feeds, chunk=chunk, punctuate_every=3)
    for batch_size in BATCH_SIZES:
        for label, kwargs in (
            ("NoEts", {"ets_policy": NoEts()}),
            ("OnDemandEts", {"ets_policy": OnDemandEts()}),
            ("periodic", {"ets_policy": NoEts(), "punctuate": True}),
        ):
            records = oracle.run(batch_size=batch_size, **kwargs)
            _check_run(records, feeds,
                       f"seed={seed} batch={batch_size} ets={label}")


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_random_dags_batched_equals_scalar(seed: int):
    sources, build = random_graph(seed)
    feeds = random_feeds(seed, sources)
    oracle = DifferentialOracle(build, feeds, chunk=8, punctuate_every=4)
    # canonical=True: the schedules deliberately contain cross-input
    # timestamp ties, whose interleaving legitimately depends on buffer
    # fill order (see DifferentialOracle.assert_run_equals_scalar).
    oracle.assert_run_equals_scalar((4, 64), canonical=True)
    oracle.assert_run_equals_scalar(
        (4, 64), ets_policy_factory=OnDemandEts, canonical=True)
