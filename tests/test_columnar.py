"""Columnar block engine: primitives, vectorized operators, byte-identity.

Three layers of coverage:

* **Block primitives** — ``from_tuples``/``to_tuples`` round-trips
  (Hypothesis, including ``None``/NaN payload values and latent rows),
  selection-vector narrowing, splitting, predicate evaluation.
* **Differential identity** — kernel output at every width (1 included)
  is byte-identical to the tuple-at-a-time reference models of
  ``reference_ops.py`` — and to those models run at the same width —
  across ETS modes × batch widths on graphs covering every operator: the
  stateless set (Select with both predicate forms, Project, Map, FlatMap,
  Shed, TumblingAggregate) *and* the stateful hot path (WindowJoin,
  Reorder, both Union modes) — including tie-laden, NaN-keyed, and
  out-of-order feeds, plus a Hypothesis sweep over random disorder
  schedules.  The two configurations that used to fall back to scalar
  steps — the strict (X1-ablation) join and the ``late="error"`` reorder
  — run their own kernels, and ``block_fallbacks`` stays 0 everywhere.
* **Stats plumbing** — every step is one kernel call (``blocks``), and
  pre-columnar engine snapshots still restore.
* **Merge-run join kernel** — the block join consumes both inputs in τ
  order per step: the oracle matrix over two-sided tie-laden
  interleavings (windows × probing × ETS × widths 2–64, latent side),
  an operator-level Hypothesis property observing every emitted element
  and per-call step counts against the reference model (widths 1–64),
  the order-boundary case, and two count-based
  structural guards (no join input is ever exploded; pushes and drains
  per ``execute_block`` call are bounded by a constant).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from contextlib import nullcontext

from conftest import ManualClock, OpHarness, forced_scalar_fallback, punct
from reference_ops import reference_run, reference_step
from oracle import DifferentialOracle, Feed

from repro.core.buffers import StreamBuffer
from repro.core.columnar import (
    ColumnarBlock,
    FieldPredicate,
    set_numpy,
)
from repro.core.errors import TimestampError
from repro.core.ets import NoEts, OnDemandEts
from repro.core.execution import EngineStats
from repro.core.graph import QueryGraph
from repro.core.operators.base import OpContext
from repro.core.operators import (
    AggSpec,
    Avg,
    Count,
    FlatMap,
    Map,
    Project,
    Reorder,
    Select,
    Shed,
    TumblingAggregate,
    Union,
    WindowJoin,
)
from repro.core.tuples import LATENT_TS, DataTuple, TimestampKind
from repro.core.windows import WindowSpec

@pytest.fixture(params=[False, True], ids=["python", "numpy"])
def layout(request):
    """Both arguments of the now-inert ``set_numpy``: frozen
    ``benchmarks/e2e/run.py`` still calls it, so it must stay callable and
    must not change what runs.  The ids are the two column layouts it used
    to select; they are kept because the tier-1 floor list names them."""
    assert set_numpy(request.param) is False


# --------------------------------------------------------------------- #
# Block primitives


def _tuples(rows):
    """Build DataTuples from (ts, payload) pairs with increasing seq."""
    return [DataTuple(ts=ts, seq=1000 + i, payload=payload)
            for i, (ts, payload) in enumerate(rows)]


class TestBlockPrimitives:
    def test_round_trip_preserves_everything(self, layout):
        tuples = _tuples([(1.0, {"v": 1}), (2.0, {"v": 2}),
                          (LATENT_TS, {"v": 3})])
        block = ColumnarBlock.from_tuples(tuples)
        assert block.count == 3
        assert block.to_tuples() == tuples

    def test_selection_narrows_without_copy(self, layout):
        block = ColumnarBlock.from_tuples(
            _tuples([(float(i), {"v": i}) for i in range(6)]))
        narrowed = block.with_selection([1, 3, 5])
        assert [t.payload["v"] for t in narrowed.to_tuples()] == [1, 3, 5]
        assert narrowed.ts is block.ts  # shared columns, new selection

    def test_split_at(self, layout):
        block = ColumnarBlock.from_tuples(
            _tuples([(float(i), {"v": i}) for i in range(5)]))
        head, tail = block.split_at(2)
        assert [t.payload["v"] for t in head.to_tuples()] == [0, 1]
        assert [t.payload["v"] for t in tail.to_tuples()] == [2, 3, 4]

    def test_split_below_keeps_latent_rows_in_run(self, layout):
        block = ColumnarBlock.from_tuples(
            _tuples([(1.0, {"v": 0}), (LATENT_TS, {"v": 1}),
                     (2.0, {"v": 2}), (5.0, {"v": 3})]))
        head, tail = block.split_below(3.0)
        assert [t.payload["v"] for t in head.to_tuples()] == [0, 1, 2]
        assert [t.payload["v"] for t in tail.to_tuples()] == [3]

    def test_field_predicate_matches_python_filter(self, layout):
        rows = [(float(i), {"x": i % 5, "y": i}) for i in range(40)]
        block = ColumnarBlock.from_tuples(_tuples(rows))
        for pred, fn in [
            (FieldPredicate.lt("x", 3), lambda p: p["x"] < 3),
            (FieldPredicate.ge("x", 2), lambda p: p["x"] >= 2),
            (FieldPredicate.eq("x", 0), lambda p: p["x"] == 0),
            (FieldPredicate.ne("x", 4), lambda p: p["x"] != 4),
        ]:
            got = block.with_selection(pred.select_indices(block))
            want = block.filter(fn)
            assert got.to_tuples() == want.to_tuples()

    def test_with_payloads_compacts(self, layout):
        block = ColumnarBlock.from_tuples(
            _tuples([(float(i), {"v": i}) for i in range(4)]))
        narrowed = block.with_selection([0, 2])
        mapped = narrowed.map_payloads(lambda p: {"v": p["v"] * 10})
        assert [t.payload["v"] for t in mapped.to_tuples()] == [0, 20]
        # timestamps and seq survive the payload rewrite
        assert [t.ts for t in mapped.to_tuples()] == [0.0, 2.0]
        assert ([t.seq for t in mapped.to_tuples()]
                == [t.seq for t in narrowed.to_tuples()])


_values = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.text(max_size=4),
)


@given(rows=st.lists(
    st.tuples(st.one_of(st.just(LATENT_TS),
                        st.floats(0.0, 100.0, allow_nan=False)),
              st.dictionaries(st.sampled_from(["a", "b", "c"]), _values,
                              max_size=3)),
    max_size=30))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(rows):
    """from_tuples → to_tuples is the identity, incl. None/NaN payloads."""
    tuples = _tuples(rows)
    back = ColumnarBlock.from_tuples(tuples).to_tuples()
    assert len(back) == len(tuples)
    for got, want in zip(back, tuples):
        assert got.seq == want.seq and got.kind == want.kind
        assert got.payload == want.payload or (
            got.payload != got.payload)  # NaN-bearing dicts compare !=
        if math.isnan(want.ts):
            assert math.isnan(got.ts)
        else:
            assert got.ts == want.ts


# --------------------------------------------------------------------- #
# Differential identity: block kernels == scalar-run fallback == scalar


def stateless_rich_build() -> QueryGraph:
    """Every vectorized operator in one graph, two sources, two sinks."""
    g = QueryGraph("columnar-rich")
    a = g.add_source("a")
    b = g.add_source("b")
    sel_field = g.add(Select("sel_field", FieldPredicate.lt("v", 7)))
    sel_fn = g.add(Select("sel_fn", lambda p: p["v"] % 3 != 0))
    proj = g.add(Project("proj", ["v", "k"]))
    mapped = g.add(Map("mapped", lambda p: {**p, "v2": p["v"] * 2}))
    flat = g.add(FlatMap("flat", lambda p: [p] if p["v"] % 4 else [p, p]))
    shed = g.add(Shed("shed", 0.25, seed=9))
    union = g.add(Union("union"))
    agg = g.add(TumblingAggregate(
        "agg", 5.0, {"n": AggSpec(Count), "mean": AggSpec(Avg, "v")}))
    sink_rows = g.add_sink("rows")
    sink_agg = g.add_sink("aggs")
    g.connect(a, sel_field)
    g.connect(sel_field, proj)
    g.connect(proj, mapped)
    g.connect(b, sel_fn)
    g.connect(sel_fn, flat)
    g.connect(flat, shed)
    g.connect(mapped, union)
    g.connect(shed, union)
    g.connect(union, sink_rows)
    g.connect(union, agg)
    g.connect(agg, sink_agg)
    return g


def join_build() -> QueryGraph:
    """Stateful window join: vectorized via the block-probe path."""
    g = QueryGraph("columnar-join")
    left = g.add_source("a")
    right = g.add_source("b")
    join = g.add(WindowJoin("join", WindowSpec.time(3.0), key="k"))
    sink = g.add_sink("out")
    g.connect(left, join)
    g.connect(right, join)
    g.connect(join, sink)
    return g


def strict_join_build() -> QueryGraph:
    """Strict (X1-ablation) join: its both-inputs-nonempty gate can flip
    on every consumption, so its kernel takes one element per round."""
    g = QueryGraph("columnar-strict-join")
    left = g.add_source("a")
    right = g.add_source("b")
    join = g.add(WindowJoin("join", WindowSpec.time(3.0), key="k",
                            strict=True))
    sink = g.add_sink("out")
    g.connect(left, join)
    g.connect(right, join)
    g.connect(join, sink)
    return g


def strict_union_build() -> QueryGraph:
    """Strict Fig.-1 union: vectorized via the run-merge block path."""
    g = QueryGraph("columnar-strict-union")
    a = g.add_source("a")
    b = g.add_source("b")
    strict = g.add(Union("strict", strict=True))
    sink = g.add_sink("out")
    g.connect(a, strict)
    g.connect(b, strict)
    g.connect(strict, sink)
    return g


def reorder_build(late: str = "drop") -> QueryGraph:
    """Out-of-order external source restored by a vectorized Reorder."""
    g = QueryGraph("columnar-reorder")
    src = g.add_source("a", TimestampKind.EXTERNAL, out_of_order=True)
    reorder = g.add(Reorder("reorder", 1.0, late=late))
    sink = g.add_sink("out")
    g.connect(src, reorder)
    g.connect(reorder, sink)
    return g


def stateful_plan_build() -> QueryGraph:
    """The paper-style stateful plan, fully vectorized.

    An out-of-order external stream is restored by Reorder, window-joined
    against an ordered stream, and the matches are strictly merged with a
    third stream — WindowJoin, Reorder, and strict Union all on their
    block paths, so the whole plan runs with zero block fallbacks.
    """
    g = QueryGraph("columnar-stateful-plan")
    a = g.add_source("a", TimestampKind.EXTERNAL, out_of_order=True)
    b = g.add_source("b")
    c = g.add_source("c")
    reorder = g.add(Reorder("reorder", 1.0))
    join = g.add(WindowJoin("join", WindowSpec.time(3.0), key="k"))
    strict = g.add(Union("strict", strict=True))
    sink = g.add_sink("out")
    g.connect(a, reorder)
    g.connect(reorder, join)
    g.connect(b, join)
    g.connect(join, strict)
    g.connect(c, strict)
    g.connect(strict, sink)
    return g


def diamond_build() -> QueryGraph:
    """A source fanning out to two arms of one union, one arm starved.

    ``starve`` drops every tuple, so the union's first input stays empty
    and gated while the direct arc fills — the topology whose
    Forward/Backtrack cycle used to spin the engine walk forever instead
    of reaching the dead-end ETS consultation.
    """
    g = QueryGraph("columnar-diamond")
    src = g.add_source("a")
    starve = g.add(Select("starve", lambda p: False))
    union = g.add(Union("merge"))
    sink = g.add_sink("out")
    g.connect(src, starve)
    g.connect(starve, union)
    g.connect(src, union)
    g.connect(union, sink)
    return g


def make_feeds(n: int = 400, sources=("a", "b"), *,
               ties: bool = False, nan_keys: bool = False) -> list[Feed]:
    """Deterministic bursty schedule.

    With ``ties=False`` every arrival gets a distinct instant, so sink
    order is fully determined and byte-identity across batch widths is
    well-defined.  ``ties=True`` adds cross-source equal timestamps,
    whose interleaving legitimately depends on batch width — those runs
    are compared canonically (sorted), matching the repo's property
    suite.  ``nan_keys=True`` replaces every fifth join key with a fresh
    ``float("nan")`` — rows the indexed join must bucket but never match
    (NaN ≠ NaN) and the scan join must reject, identically on both paths.
    """
    rng = random.Random(77)
    feeds, t = [], 0.0
    gaps = (0.0, 0.0, 0.01, 0.05, 0.4) if ties else (0.01, 0.03, 0.05, 0.4)
    for i in range(n):
        t += rng.choice(gaps)
        key = float("nan") if (nan_keys and i % 5 == 0) else i % 4
        feeds.append(Feed(source=rng.choice(sources), time=t,
                          payload={"v": i % 11, "k": key, "uid": i}))
    return feeds


def make_ooo_feeds(n: int = 400, sources=("a", "b", "c"), *,
                   disorder: float = 0.8, seed: int = 123) -> list[Feed]:
    """Bursty schedule whose ``"a"`` stream is externally timestamped and
    bounded-disordered: each ``a`` arrival carries ``external_ts`` jittered
    up to ``disorder`` seconds behind its arrival instant, so a downstream
    Reorder genuinely parks, sorts, and late-drops.  Other sources stay
    internally stamped (arrival order), giving the join and union ordered
    competing inputs."""
    rng = random.Random(seed)
    feeds, t = [], 0.0
    for i in range(n):
        t += rng.choice((0.01, 0.03, 0.05, 0.4))
        src = rng.choice(sources)
        ets = t - rng.random() * disorder if src == "a" else None
        feeds.append(Feed(source=src, time=t,
                          payload={"v": i % 11, "k": i % 4, "uid": i},
                          external_ts=ets))
    return feeds


ETS_FACTORIES = [NoEts, OnDemandEts]


class TestBlockDifferential:
    @pytest.mark.parametrize("ets_factory", ETS_FACTORIES)
    def test_stateless_chain_block_equals_scalar(self, layout, ets_factory):
        oracle = DifferentialOracle(stateless_rich_build, make_feeds(),
                                    chunk=16, punctuate_every=3)
        oracle.assert_run_equals_scalar(ets_policy_factory=ets_factory)

    @pytest.mark.parametrize("ets_factory", ETS_FACTORIES)
    def test_block_equals_batched(self, layout, ets_factory):
        """Block kernels against "batched" execution at the same width:
        the same run boundaries over the reference models' one-element
        steps, every operator's kernel replaced by its model."""
        for size in (2, 8, 64):
            seen = []
            for fallback in (False, True):
                with forced_scalar_fallback() if fallback else nullcontext():
                    graph = stateless_rich_build()
                    traces = [DifferentialOracle._capture(sink)
                              for sink in graph.sinks()]
                    engine = _drive_engine(graph, make_feeds(), chunk=16,
                                           batch_size=size,
                                           ets_policy=ets_factory())
                assert engine.stats.blocks > 0
                assert engine.stats.block_fallbacks == 0
                seen.append(traces)
            assert seen[0] == seen[1], f"batch_size={size}"
            assert all(seen[0]), "the comparison is not vacuous"

    @pytest.mark.parametrize("build", [join_build, strict_union_build,
                                       strict_join_build])
    @pytest.mark.parametrize("ets_factory", ETS_FACTORIES)
    def test_stateful_graph_block_equals_scalar(self, layout, ets_factory,
                                                build):
        """Vectorized join and strict union — plus the strict join's
        one-element rounds — are byte-identical to the reference models."""
        oracle = DifferentialOracle(build, make_feeds(),
                                    chunk=8, punctuate_every=4)
        oracle.assert_run_equals_scalar(ets_policy_factory=ets_factory)

    @pytest.mark.parametrize("ets_factory", ETS_FACTORIES)
    def test_reorder_block_equals_scalar(self, layout, ets_factory):
        """The columnar Reorder replays scalar flush/park/late decisions
        exactly on a genuinely disordered external stream."""
        oracle = DifferentialOracle(
            reorder_build, make_ooo_feeds(sources=("a",)), chunk=8)
        oracle.assert_run_equals_scalar(ets_policy_factory=ets_factory)

    @pytest.mark.parametrize("ets_factory", ETS_FACTORIES)
    def test_stateful_plan_block_equals_scalar(self, layout, ets_factory):
        """The full paper-style plan (Reorder → WindowJoin → strict
        Union) is byte-identical to scalar under every ETS mode."""
        oracle = DifferentialOracle(stateful_plan_build, make_ooo_feeds(),
                                    chunk=8)
        oracle.assert_run_equals_scalar(ets_policy_factory=ets_factory)

    @pytest.mark.parametrize("build", [join_build, stateful_plan_build])
    @pytest.mark.parametrize("ets_factory", ETS_FACTORIES)
    def test_nan_key_feeds_block_equals_scalar(self, layout, ets_factory,
                                               build):
        """NaN join keys (bucketed but never matching) take identical
        scan/indexed decisions on the scalar and block-probe paths."""
        feeds = (make_feeds(nan_keys=True) if build is join_build
                 else make_ooo_feeds())
        if build is not join_build:
            feeds = [Feed(source=f.source, time=f.time,
                          payload={**f.payload,
                                   "k": float("nan") if f.payload["uid"] % 5 == 0
                                   else f.payload["k"]},
                          external_ts=f.external_ts) for f in feeds]
        oracle = DifferentialOracle(build, feeds, chunk=8,
                                    punctuate_every=4 if build is join_build
                                    else None)
        oracle.assert_run_equals_scalar(ets_policy_factory=ets_factory)

    @pytest.mark.parametrize("ets_factory", ETS_FACTORIES)
    def test_tie_laden_feeds_canonical_identity(self, layout, ets_factory):
        """Cross-source timestamp ties: same delivered multiset per sink."""
        oracle = DifferentialOracle(stateless_rich_build,
                                    make_feeds(ties=True),
                                    chunk=16, punctuate_every=3)
        oracle.assert_run_equals_scalar(ets_policy_factory=ets_factory,
                                          canonical=True)

    @pytest.mark.parametrize("ets_factory", ETS_FACTORIES)
    def test_tie_laden_join_canonical_identity(self, layout, ets_factory):
        """Equal timestamps across the join's inputs: batching changes
        which interleaving is picked, never the delivered multiset."""
        oracle = DifferentialOracle(join_build, make_feeds(ties=True),
                                    chunk=8, punctuate_every=4)
        oracle.assert_run_equals_scalar(ets_policy_factory=ets_factory,
                                          canonical=True)

    @pytest.mark.parametrize("ets_factory", ETS_FACTORIES)
    def test_diamond_block_equals_scalar(self, layout, ets_factory):
        """Regression: the starved-arm diamond terminates (the walk used
        to Forward/Backtrack forever) and delivers identically."""
        oracle = DifferentialOracle(diamond_build,
                                    make_feeds(sources=("a",)),
                                    chunk=8, punctuate_every=4)
        oracle.assert_run_equals_scalar(ets_policy_factory=ets_factory)


@given(plan=st.lists(
    st.tuples(st.sampled_from([0.01, 0.05, 0.4]),   # inter-arrival gap
              st.integers(0, 2),                    # source index
              st.floats(0.0, 1.5, allow_nan=False)),  # "a" disorder jitter
    min_size=10, max_size=60))
@settings(max_examples=25, deadline=None)
def test_stateful_plan_random_disorder_property(plan):
    """Hypothesis: for random bursty schedules with random bounded
    disorder on the external stream — including jitter beyond the
    reorder's slack, which forces late-drops — the paper plan on the run
    path delivers the same multiset as the scalar engine.  Comparison is
    canonical because Hypothesis can mint cross-input timestamp ties,
    whose interleaving legitimately depends on batch width."""
    names = ("a", "b", "c")
    feeds, t = [], 0.0
    for i, (gap, src_i, jitter) in enumerate(plan):
        t += gap
        src = names[src_i]
        feeds.append(Feed(
            source=src, time=t,
            payload={"v": i % 11, "k": i % 4, "uid": i},
            external_ts=t - jitter if src == "a" else None))
    oracle = DifferentialOracle(stateful_plan_build, feeds, chunk=4)
    oracle.assert_run_equals_scalar(batch_sizes=(3, 8),
                                      canonical=True)


# --------------------------------------------------------------------- #
# Stats plumbing


def _drive_engine(graph, feeds, *, chunk=8, batch_size=8, ets_policy=None):
    """Chunked replay of ``feeds`` through a fresh engine (the oracle's
    drive, minus the sink capture), returning the engine for its stats."""
    from repro.core.execution import ExecutionEngine
    from repro.sim.clock import VirtualClock

    engine = ExecutionEngine(graph, VirtualClock(), cost_model=None,
                             ets_policy=ets_policy or OnDemandEts(),
                             batch_size=batch_size)
    for i, f in enumerate(feeds, 1):
        engine.clock.advance_to(f.time)
        graph[f.source].ingest(f.payload, now=f.time, ts=f.external_ts)
        if i % chunk == 0:
            engine.wakeup(graph[f.source])
    engine.wakeup()
    return engine


class TestBlockStats:
    def test_block_counters_move_only_in_block_mode(self):
        """Every step is one kernel call: at ``batch_size=1`` each call is
        a one-element run (``blocks == steps``), wider runs take fewer
        calls for the same steps; no fallback is ever counted."""
        seen = {}
        for batch_size in (1, 8):
            seen[batch_size] = _drive_engine(
                stateless_rich_build(), make_feeds(200), chunk=1,
                batch_size=batch_size).stats
        assert seen[1].blocks == seen[1].steps
        assert seen[1].block_rows == seen[1].data_steps
        assert seen[1].block_fallbacks == 0
        assert seen[8].blocks > 0
        assert seen[8].block_rows > 0
        assert seen[8].steps == seen[1].steps
        assert seen[8].block_fallbacks == 0

    def test_stateful_plan_zero_block_fallbacks(self, layout):
        """The tentpole claim: the full paper-style plan — Reorder,
        WindowJoin, strict Union, sink — runs entirely on the block path."""
        engine = _drive_engine(stateful_plan_build(), make_ooo_feeds(300))
        assert engine.stats.blocks > 0
        assert engine.stats.block_rows > 0
        assert engine.stats.block_fallbacks == 0
        assert not hasattr(engine.stats, "block_fallbacks_by_operator")

    def test_strict_join_runs_its_own_kernel(self):
        """The strict (X1) join has a kernel of its own: one element per
        round, no fallback, and every one of its steps is kernel work."""
        engine = _drive_engine(strict_join_build(), make_feeds(200))
        stats = engine.stats
        assert stats.block_fallbacks == 0
        assert stats.per_operator_steps["join"] > 0
        assert stats.block_rows == stats.data_steps

    def test_error_policy_reorder_runs_its_own_kernel(self):
        """``late="error"`` stops each drain before the first late row, in
        its own kernel: no fallback, and its rows are counted as kernel
        rows like every other operator's."""
        feeds = make_ooo_feeds(40, sources=("a",), disorder=0.5)
        graph = reorder_build(late="error")
        stats = _drive_engine(graph, feeds).stats
        assert stats.block_fallbacks == 0
        assert stats.per_operator_steps["reorder"] >= 40
        assert stats.block_rows == stats.data_steps
        assert graph["out"].delivered > 0

    def test_no_fallback_counter_in_metrics(self):
        """With no fallback left, the exposition carries no
        ``repro_engine_block_fallbacks_total`` series and no
        ``block_fallbacks`` engine stat (a zero counter is skipped)."""
        from repro.obs.registry import MetricsRegistry

        engine = _drive_engine(strict_join_build(), make_feeds(120))
        registry = MetricsRegistry()
        registry.absorb_engine_stats(engine.stats)
        registry.absorb_engine_stats(engine.stats)  # absorb is idempotent
        text = registry.render_prometheus()
        assert "block_fallbacks" not in text
        assert (f'repro_engine_stat{{field="blocks"}} '
                f'{engine.stats.blocks}') in text

    def test_restore_from_pre_columnar_snapshot(self):
        stats = EngineStats()
        stats.blocks = 5
        stats.block_rows = 40
        state = stats.snapshot_state()
        for key in ("blocks", "block_rows", "block_fallbacks"):
            state.pop(key, None)  # a checkpoint written before this field
        restored = EngineStats()
        restored.restore_state(state)
        assert restored.blocks == 0
        assert restored.block_rows == 0
        assert restored.block_fallbacks == 0

    def test_restore_from_snapshot_with_heartbeat_ladder_counters(self):
        """A version-1 checkpoint written while ``EngineStats`` still had
        the fallback-heartbeat counters restores cleanly: unknown keys are
        ignored, so the format needs no version bump."""
        stats = EngineStats()
        stats.steps = 7
        stats.quarantine_clamped = 2
        state = stats.snapshot_state()
        state.update(degradations=3, resyncs=1, fallback_heartbeats=12)
        restored = EngineStats()
        restored.restore_state(state)
        assert restored.steps == 7
        assert restored.quarantine_clamped == 2
        assert not hasattr(restored, "fallback_heartbeats")
        assert "degradations" not in restored.snapshot_state()

    def test_restore_from_snapshot_with_fallback_attribution(self):
        """A version-1 checkpoint written while ``EngineStats`` still
        attributed scalar fallbacks per operator restores: the unknown
        ``block_fallbacks_by_operator`` key is ignored, the counters it sat
        beside come back, and the format keeps version 1."""
        stats = EngineStats()
        stats.steps = 9
        stats.blocks = 4
        state = stats.snapshot_state()
        state.update(block_fallbacks=3,
                     block_fallbacks_by_operator={"join": 3})
        restored = EngineStats()
        restored.restore_state(state)
        assert (restored.steps, restored.blocks) == (9, 4)
        assert restored.block_fallbacks == 3
        assert not hasattr(restored, "block_fallbacks_by_operator")
        again = restored.snapshot_state()
        assert again["version"] == 1
        assert "block_fallbacks_by_operator" not in again


# --------------------------------------------------------------------- #
# Merge-run WindowJoin kernel: both inputs consumed in τ order per step


def merge_join_build(window: WindowSpec, probe: str,
                     latent_b: bool = False):
    """source a, source b → WindowJoin → sink, one probing strategy."""
    def build() -> QueryGraph:
        g = QueryGraph(f"merge-join-{probe}")
        left = g.add_source("a")
        right = g.add_source(
            "b", TimestampKind.LATENT if latent_b else TimestampKind.INTERNAL)
        join = g.add(WindowJoin("join", window, key="k",
                                indexed=probe == "indexed"))
        sink = g.add_sink("out")
        g.connect(left, join)
        g.connect(right, join)
        g.connect(join, sink)
        return g

    return build


MERGE_BATCH_SIZES = (1, 2, 3, 7, 64)


class TestMergeRunJoin:
    """The block join merges its two inputs per step; the differential
    oracle holds it to the scalar engine's exact sink sequence (source →
    join has no upstream scheduling, so even cross-side ties are decided
    identically: input 0 first)."""

    @pytest.mark.parametrize("ets_mode", ["none", "on-demand", "periodic"])
    @pytest.mark.parametrize("probe", ["scan", "indexed"])
    @pytest.mark.parametrize("window", [WindowSpec.time(3.0),
                                        WindowSpec.count(5)],
                             ids=["time", "count"])
    @pytest.mark.parametrize("latent_b", [False, True],
                             ids=["stamped", "latent-b"])
    def test_two_sided_interleavings_block_equals_scalar(
            self, window, probe, ets_mode, latent_b):
        """Tie-laden two-sided interleavings, chunked so buffers hold runs
        on both inputs, one side exhausting mid-step, punctuation landing
        exactly on the horizon (periodic heartbeats and on-demand ETS are
        stamped with the clock, i.e. the last row's own timestamp), the
        limit cutting mid-merge at small widths."""
        oracle = DifferentialOracle(
            merge_join_build(window, probe, latent_b),
            make_feeds(300, ties=True), chunk=12, punctuate_every=2)
        policy = OnDemandEts if ets_mode == "on-demand" else NoEts
        punctuate = ets_mode == "periodic"
        reference = oracle.run(batch_size=1, ets_policy=policy(),
                               punctuate=punctuate)
        if not latent_b:
            assert len(reference) > 100  # the comparison is not vacuous
        # Width 1 is the scalar reference itself at engine level; the
        # kernel's limit=1 behaviour is held to the scalar step loop by
        # test_merge_run_random_interleavings_property below.
        for size in MERGE_BATCH_SIZES[1:]:
            got = oracle.run(batch_size=size, ets_policy=policy(),
                             punctuate=punctuate)
            assert got == reference, f"batch_size={size}"

    def test_alternating_feed_moves_a_handful_of_containers(self):
        """Structural regression guard (counts, not time): on a strictly
        alternating two-input feed every one-sided run is one row long, so
        the per-run kernel paid one drain and one output block per row.
        The merge run pays a constant number per ``execute_block`` call,
        however many rows the call consumes."""
        graph = join_build()
        join = graph["join"]
        pushes = _count_calls(join.outputs[0], "push_block")
        drains = [_count_calls(buf, "drain_block") for buf in join.inputs]
        per_call = []
        execute_block = join.execute_block

        def counted(ctx, limit):
            before = pushes[0], sum(d[0] for d in drains)
            batch = execute_block(ctx, limit)
            per_call.append((batch.consumed_data,
                             pushes[0] - before[0],
                             sum(d[0] for d in drains) - before[1],
                             batch.emitted_punctuation))
            return batch

        join.execute_block = counted
        feeds = [Feed(source="ab"[i % 2], time=i * 0.01,
                      payload={"k": i % 4, "v": i % 11, "uid": i})
                 for i in range(960)]
        _drive_engine(graph, feeds, chunk=48, batch_size=64)
        assert max(rows for rows, *_ in per_call) >= 32
        assert sum(rows for rows, *_ in per_call) == 960
        for rows, pushed, drained, puncts in per_call:
            assert pushed <= 1 + puncts, per_call
            assert drained <= 4, per_call


def _count_calls(obj, name: str) -> list[int]:
    """Shadow ``obj.name`` with a counting wrapper; returns the live cell."""
    calls = [0]
    method = getattr(obj, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return method(*args, **kwargs)

    setattr(obj, name, wrapper)
    return calls


class _JoinRig:
    """One engine-free WindowJoin: two input buffers, a recording output
    (order unenforced, so an order boundary is observed, not raised)."""

    def __init__(self, window: WindowSpec, probe: str) -> None:
        self.op = WindowJoin("j", window, key="k", indexed=probe == "indexed")
        self.clock = ManualClock()
        self.ctx = OpContext(clock=self.clock)
        self.inputs = [StreamBuffer(f"in{i}->j") for i in range(2)]
        for buf in self.inputs:
            self.op.attach_input(buf, producer=None)
        self.output = StreamBuffer("j->out", enforce_order=False)
        self.op.attach_output(self.output, consumer=None)

    def run(self, limit: int, block: bool) -> list[int]:
        """Run to quiescence in engine-sized calls (at most ``limit``
        steps, punctuation closing a call); returns steps per call."""
        calls = []
        while self.op.more():
            run = (self.op.execute_block(self.ctx, limit) if block
                   else reference_run(self.op, self.ctx, limit))
            calls.append(run.steps)
        return calls

    def observed(self) -> dict:
        emitted = [(e.is_punctuation, e.ts,
                    None if e.is_punctuation
                    else (e.payload, e.kind, e.arrival_ts))
                   for e in self.output]
        self.output.clear()
        op = self.op
        return {
            "emitted": emitted,
            "windows": [[(t.ts, t.payload) for t in w] for w in op.windows],
            "registers": [buf.register.value for buf in self.inputs],
            "left": [len(buf) for buf in self.inputs],
            "watermark": op._last_emitted_ts,
            "counters": (op.tuples_processed, op.matches_emitted,
                         op.punctuation_consumed, op.punctuation_forwarded,
                         op.punctuation_suppressed),
        }


_merge_events = st.lists(
    st.tuples(st.integers(0, 1),                           # input
              st.sampled_from(["data", "data", "data", "latent", "punct",
                               "run"]),
              st.sampled_from([0.0, 0.0, 0.5, 1.0]),       # timestamp gap
              st.integers(0, 2),                           # join key
              st.sampled_from([0.0, 0.5, 2.0, 7.0])),      # clock nudge
    min_size=4, max_size=60)


@given(events=_merge_events,
       limit=st.sampled_from(MERGE_BATCH_SIZES),
       count_window=st.booleans(),
       probe=st.sampled_from(["scan", "indexed"]),
       as_blocks=st.booleans())
@settings(max_examples=200, deadline=None)
def test_merge_run_random_interleavings_property(events, limit, count_window,
                                                 probe, as_blocks):
    """Hypothesis: over random two-input interleavings — cross-side and
    same-side ties, punctuation at and between data timestamps, latent
    rows *inside* a buffered run, runs delivered as blocks or as scalar
    tuples, the limit cutting mid-merge — ``execute_block`` is the scalar
    step loop, observed at full resolution: every emitted element
    (punctuation included, with its τ), call-by-call step counts, windows,
    registers, watermark and counters."""
    window = WindowSpec.count(3) if count_window else WindowSpec.time(1.5)
    scalar, block = _JoinRig(window, probe), _JoinRig(window, probe)
    stamp = [0.0, 0.0]
    pending: list[list] = [[], []]

    def deliver() -> None:
        for i in (0, 1):
            for rig in (scalar, block):
                if as_blocks and rig is block:
                    run: list = []
                    for element in pending[i] + [None]:
                        if element is not None and not element.is_punctuation:
                            run.append(element)
                            continue
                        if run:
                            rig.inputs[i].push_block(
                                ColumnarBlock.from_tuples(run))
                            run = []
                        if element is not None:
                            rig.inputs[i].push(element)
                else:
                    for element in pending[i]:
                        rig.inputs[i].push(element)
            pending[i].clear()

    uid = 0
    for i, kind, gap, key, nudge in events + [(0, "run", 0.0, 0, 0.0)]:
        if kind == "run":
            deliver()
            now = max(stamp) + nudge - 1.0  # may sit below buffered rows
            scalar.clock.t = block.clock.t = now
            assert block.run(limit, True) == scalar.run(limit, False)
            assert block.observed() == scalar.observed()
            continue
        stamp[i] += gap
        uid += 1
        if kind == "punct":
            pending[i].append(punct(stamp[i]))
        else:
            # Latent rows only under count windows: a time window (rightly)
            # refuses a stamped-latent row that lands out of order.
            ts = LATENT_TS if kind == "latent" and count_window else stamp[i]
            pending[i].append(DataTuple(ts=ts, payload={"k": key, "uid": uid},
                                        arrival_ts=stamp[i]))


@pytest.mark.parametrize("block", [False, True], ids=["scalar", "block"])
def test_merge_run_order_boundary_reaches_the_output_buffer(block):
    """A latent row stamped *below* an already-emitted timestamp is an
    order violation the output buffer must see exactly as the scalar push
    sequence shows it: the block path cuts its match columns there, so
    the in-order stretch lands and the regressing one raises."""
    op = WindowJoin("j", WindowSpec.count(4), key="k")
    h = OpHarness(op, n_inputs=2)
    h.feed(0, 1.0, {"k": 0, "side": "l"})
    h.inputs[0].push(punct(20.0))
    h.feed(1, 10.0, {"k": 0, "side": "r"})
    h.feed(1, LATENT_TS, {"k": 0, "side": "r"})
    h.clock.t = 5.0  # the latent row's stamp: below the match at 10.0
    with pytest.raises(TimestampError):
        while op.more():
            if block:
                op.execute_block(h.ctx, 64)
            else:
                reference_step(op, h.ctx)
    assert [(e.is_punctuation, e.ts) for e in h.output] == [
        (True, 10.0), (False, 10.0)]
