"""Edge-case tests for on-demand ETS on externally timestamped streams.

External timestamps decouple stream time from the arrival clock, so the
skew bound (``t + τ − δ``, Srivastava & Widom via paper Section 5) carries
all the safety burden.  These tests pin down its contract under a nonzero
``external_delta``, reading each injected value off the engine's
``on_punctuation`` event:

* a proposed ETS never exceeds the skew bound, so with a workload whose
  actual skew respects δ no future data tuple can arrive with a smaller
  timestamp (no ordered-stream violation is ever risked);
* injected punctuation never regresses a TSM register — registers are
  monotone through any interleaving of data and on-demand punctuation;
* the policy declines on a cold start (a never-started stream gives no
  basis for estimation, so its IWP consumer keeps waiting), and the
  source's watermark guard absorbs proposals that would not advance the
  stream.
"""

from __future__ import annotations

import random

from repro.core.ets import OnDemandEts
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import Union
from repro.core.tuples import LATENT_TS, TimestampKind
from repro.obs import Observer
from repro.sim.clock import VirtualClock

DELTA = 0.5


class SkewBoundRecorder(Observer):
    """Logs every on-demand ETS the engine announces, with the inputs of
    its skew bound read off the source at that moment."""

    def __init__(self, graph: QueryGraph) -> None:
        self.graph = graph
        self.proposals: list[tuple[str, float, float, float, float]] = []

    def on_punctuation(self, *, operator, round_id, time, origin,
                       ts=None) -> None:
        if origin == "ets":
            source = self.graph[operator]
            self.proposals.append((operator, ts, time, source.last_data_ts,
                                   source.last_arrival_wall))


def _external_union_graph():
    graph = QueryGraph("ets-edge")
    fast = graph.add_source("fast", TimestampKind.EXTERNAL, out_of_order=True)
    slow = graph.add_source("slow", TimestampKind.EXTERNAL, out_of_order=True)
    union = graph.add(Union("union"))
    sink = graph.add_sink("sink", keep_outputs=True)
    graph.connect(fast, union, enforce_order=False)
    graph.connect(slow, union, enforce_order=False)
    graph.connect(union, sink)
    return graph, fast, slow, union, sink


def _run_skewed_workload(batch_size: int = 1):
    """Drive a rate-skewed external workload; return everything inspected."""
    graph, fast, slow, union, sink = _external_union_graph()
    recorder = SkewBoundRecorder(graph)
    clock = VirtualClock()
    engine = ExecutionEngine(graph, clock, cost_model=None,
                             ets_policy=OnDemandEts(external_delta=DELTA),
                             batch_size=batch_size, observers=[recorder])
    rng = random.Random(1234)
    register_history = []
    feeds = []  # (time, source, external_ts), bounded skew in [0, DELTA]
    t = 0.0
    for i in range(300):
        t += rng.expovariate(20.0)
        src = fast if rng.random() < 0.95 else slow
        feeds.append((t, src, t - rng.uniform(0.0, DELTA)))
    # External ts must be non-decreasing per source (ordered streams):
    last_ts = {"fast": 0.0, "slow": 0.0}
    for when, src, ets in feeds:
        ets = max(ets, last_ts[src.name])
        last_ts[src.name] = ets
        clock.advance_to(when)
        src.ingest({"t": when}, now=clock.now(), ts=ets, arrival=when)
        engine.wakeup(src)
        register_history.append(tuple(
            buf.register.value for buf in union.inputs))
    return recorder, engine, union, sink, register_history, feeds


def test_proposals_never_exceed_the_skew_bound():
    recorder, engine, *_ = _run_skewed_workload()
    assert engine.stats.ets_injected > 0, \
        "workload never exercised on-demand ETS"
    assert len(recorder.proposals) == engine.stats.ets_injected
    last = {}
    for name, ts, now, last_data_ts, last_arrival in recorder.proposals:
        elapsed = now - last_arrival
        bound = last_data_ts + elapsed - DELTA
        assert ts <= bound + 1e-12, (
            f"proposal {ts} exceeds skew bound {bound}")
        # With actual skew ≤ δ, the bound (hence the proposal) trails
        # the arrival clock: no future tuple can be stamped below it.
        assert ts <= now
        # Each injection advances its source's watermark.
        assert ts > last.get(name, LATENT_TS)
        last[name] = ts


def test_registers_never_regress_under_on_demand_ets():
    for batch_size in (1, 16):
        *_, union, sink, history, feeds = _run_skewed_workload(batch_size)
        previous = (LATENT_TS, LATENT_TS)
        for snapshot in history:
            for prev, cur in zip(previous, snapshot):
                assert cur >= prev, (
                    f"TSM register regressed {prev} -> {cur} "
                    f"(batch_size={batch_size})")
            previous = snapshot
        # And the merged output is timestamp-ordered despite the skew.
        out_ts = [t.ts for t in sink.outputs_seen]
        assert out_ts == sorted(out_ts)


def test_injected_punctuation_never_regresses_the_watermark():
    _, engine, union, *_ = _run_skewed_workload()
    for buf in union.inputs:
        # The buffers enforce nothing here (enforce_order=False); order
        # safety rests on the ETS bound alone, so the engine run above
        # doubles as a no-TimestampError check.  The registers end set.
        assert buf.register.is_set
    assert engine.stats.ets_injected > 0


def test_cold_start_declines_without_injection():
    graph, fast, slow, union, sink = _external_union_graph()
    policy = OnDemandEts(external_delta=DELTA)
    clock = VirtualClock()
    engine = ExecutionEngine(graph, clock, cost_model=None, ets_policy=policy)
    clock.advance_to(5.0)
    # Only 'fast' has data; 'slow' is cold — the union idle-waits, the
    # engine backtracks into 'slow', and the skew bound must decline rather
    # than guess a timestamp for a stream it has never seen.
    fast.ingest({"n": 1}, now=5.0, ts=4.9, arrival=5.0)
    engine.wakeup(fast)
    assert engine.stats.ets_injected == 0
    assert engine.stats.ets_offers > 0
    assert slow.punctuation_injected == 0
    assert sink.delivered == 0  # the tuple stays gated, correctly


def test_watermark_guard_absorbs_non_advancing_proposals():
    graph, fast, slow, union, sink = _external_union_graph()
    policy = OnDemandEts(external_delta=DELTA)
    clock = VirtualClock()
    engine = ExecutionEngine(graph, clock, cost_model=None, ets_policy=policy)
    clock.advance_to(1.0)
    slow.ingest({"n": 0}, now=1.0, ts=0.6, arrival=1.0)
    engine.wakeup(slow)
    clock.advance_to(2.0)
    fast.ingest({"n": 1}, now=2.0, ts=1.8, arrival=2.0)
    engine.wakeup(fast)
    watermark_before = slow.watermark
    injected_before = slow.punctuation_injected
    # Same instant, same stall, a new round: the proposal repeats the
    # previous value and the watermark guard must reject it (offered, not
    # injected).
    offers_before = engine.stats.ets_offers
    generated_before = engine.stats.ets_injected
    engine.wakeup()
    assert engine.stats.ets_offers > offers_before
    assert slow.watermark == watermark_before
    assert slow.punctuation_injected == injected_before
    assert engine.stats.ets_injected == generated_before


def test_once_per_round_rate_limits_generation():
    graph, fast, slow, union, sink = _external_union_graph()
    policy = OnDemandEts(external_delta=DELTA)
    clock = VirtualClock()
    clock.advance_to(1.0)
    slow.ingest({"n": 0}, now=1.0, ts=0.9, arrival=1.0)
    round_id = 7
    assert policy.on_source_stalled(slow, 2.0, round_id) is True
    assert policy.on_source_stalled(slow, 3.0, round_id) is False
    assert slow.punctuation_injected == 1
    # A new round may generate again (clock moved, bound advanced).
    assert policy.on_source_stalled(slow, 4.0, round_id + 1) is True
