"""Property tests for the feedback loop (hypothesis).

Two families, matching the subsystem's two safety claims:

* **Transparency** — feedback never reorders or drops data tuples.  With
  an inert controller the run is byte-identical to a bare run; with an
  active controller (waves firing) the delivered payload multiset is
  unchanged, sink timestamps stay non-decreasing and the Reorder keeps its
  configured slack, for any disorder within that slack.

* **Convergence** — under a constant overload squeeze the closed loop
  settles instead of oscillating: a bounded number of episodes, AIMD rate
  always inside [min_rate, nominal], and every activation eventually
  relieved.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import QueryGraph
from repro.core.operators import Reorder
from repro.core.execution import ExecutionEngine
from repro.core.tuples import TimestampKind
from repro.experiments.overload import (HIGH_WATERMARK, OverloadConfig,
                                        run_overload_experiment)
from repro.feedback import FeedbackController, TokenBucketThrottle
from repro.sim.clock import VirtualClock

BASE_SLACK = 10.0


def run_line(bursts, controller):
    """Feed jittered external timestamps through source->reorder->sink.

    ``bursts`` is a list of lists of jitters: each inner list is ingested
    back-to-back before one engine wakeup, so burst length controls the
    buffer depth the controller observes.
    Returns (sink outputs as (ts, payload) pairs, reorder, the reorder's
    slack after every wake-up).
    """
    graph = QueryGraph("prop-line")
    source = graph.add_source("src", TimestampKind.EXTERNAL,
                              out_of_order=True)
    reorder = graph.add(Reorder("reorder", BASE_SLACK))
    graph.connect(source, reorder)
    sink = graph.add_sink("sink", keep_outputs=True)
    graph.connect(reorder, sink)
    graph.validate()

    engine = ExecutionEngine(graph, VirtualClock(), feedback=controller)
    seq = 0
    max_ts = 0.0
    slacks = []
    for burst in bursts:
        for jitter in burst:
            ts = seq * 1.0 + jitter
            max_ts = max(max_ts, ts)
            source.ingest({"seq": seq}, now=0.05 * seq, ts=ts)
            seq += 1
        engine.wakeup(source)
        slacks.append(reorder.slack)
    source.inject_punctuation(max_ts + BASE_SLACK + 1.0)
    engine.wakeup(source)
    outputs = [(t.ts, t.payload["seq"]) for t in sink.outputs_seen]
    return outputs, reorder, slacks


# Disorder up to just under the configured slack: the Reorder's declared
# bound admits every such row, pressure or not.
jitters = st.floats(min_value=0.0, max_value=BASE_SLACK, exclude_max=True,
                    allow_nan=False, width=32)
burst_lists = st.lists(st.lists(jitters, min_size=1, max_size=8),
                       min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(bursts=burst_lists)
def test_inert_controller_is_byte_identical(bursts):
    bare, _, _ = run_line(bursts, None)
    inert, _, _ = run_line(bursts,
                           FeedbackController(high_watermark=10 ** 9))
    assert inert == bare


@settings(max_examples=40, deadline=None)
@given(bursts=burst_lists)
def test_active_controller_neither_drops_nor_disorders(bursts):
    bare, _, _ = run_line(bursts, None)
    controller = FeedbackController(high_watermark=2, low_watermark=1)
    active, reorder, slacks = run_line(bursts, controller)

    assert reorder.late_dropped == 0
    # Same payload multiset: nothing dropped, nothing duplicated.
    assert sorted(p for _, p in active) == sorted(p for _, p in bare)
    # Ordered-streams invariant holds at the sink.
    out_ts = [ts for ts, _ in active]
    assert out_ts == sorted(out_ts)
    # Feedback never touches the Reorder's declared bound.
    assert slacks == [BASE_SLACK] * len(bursts)


@settings(max_examples=60, deadline=None)
@given(waves=st.lists(st.booleans(), min_size=1, max_size=60))
def test_throttle_rate_stays_in_envelope(waves):
    """AIMD never escapes [min_rate, nominal] for any wave sequence."""
    throttle = TokenBucketThrottle(rate=100.0, min_rate=5.0)
    for pressure in waves:
        throttle.step(pressure)
        assert 5.0 <= throttle.rate <= 100.0


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=5, max_value=50))
def test_constant_pressure_converges_monotonically(n):
    """Constant full pressure drives the rate down to the floor and keeps
    it there — multiplicative decrease cannot oscillate."""
    throttle = TokenBucketThrottle(rate=100.0, min_rate=5.0)
    rates = []
    for _ in range(n):
        throttle.step(True)
        rates.append(throttle.rate)
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    if n >= 10:
        assert rates[-1] == 5.0


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=1, max_value=10 ** 6))
def test_closed_loop_settles_under_constant_spike(seed):
    """One sustained LoadSpike produces a settled response, not a limit
    cycle: few episodes, each relieved, queues bounded well below the
    open-loop peak, and no invariant violations."""
    report = run_overload_experiment(
        OverloadConfig(feedback=True, duration=40.0, seed=seed))
    s = report.summary
    assert 1 <= s["feedback_episodes"] <= 6
    assert s["feedback_reliefs"] >= s["feedback_episodes"]
    assert report.monitor_violations == 0
    assert report.peak_queue <= 4 * HIGH_WATERMARK
