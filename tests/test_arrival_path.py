"""The per-arrival path of scenario C, pinned by count.

The paper's Section 6 measures on-demand ETS on the path every sparse
arrival takes: one wake-up, a walk that backtracks to the empty slow
source, an injected ETS and three punctuation steps.  Two guards hold it:

* the seed-1 drive of the ``sparse-union-ets`` plan (Poisson 200/s and
  0.05/s, 95 % selects, relaxed union, on-demand ETS, calibrated cost
  model, the DES waking the engine once per arrival) repeats its exact
  counters — steps, punctuation steps, ETS offers and injections, sink
  latency and the union's idle fraction.  A walk change claimed to be
  exact cannot drift them silently;
* the Python calls one arrival costs are counted, deterministically, with
  ``sys.setprofile``: a regression of the path fails here without timing
  anything.

The plan is built with the library exactly as the ``sparse-union-ets``
benchmark workload builds it (same feeds from the same seeds, same plan,
same 0.32-virtual-second run slices).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from repro.api import (
    Arrival,
    FieldPredicate,
    OnDemandEts,
    Pipeline,
)

RATE_FAST, RATE_SLOW, SELECTIVITY = 200.0, 0.05, 0.95
#: Virtual seconds per run slice: 64 arrivals at the fast rate.
SLICE = 64 / RATE_FAST
#: The full-size feed: 64 virtual seconds, ~12,800 fast arrivals.
FULL_SLICES = 200


def sparse_union(seed: int = 1, slices: int = FULL_SLICES):
    """The ``sparse-union-ets`` plan over its seeded feeds, ready to run:
    returns ``(pipeline, simulation, sink)``."""
    horizon = slices * SLICE
    p = Pipeline("sparse-union-ets")
    fast, slow = p.source("fast"), p.source("slow")
    keep = FieldPredicate.lt("value", SELECTIVITY)
    (fast.select(keep, name="filter_fast")
         .union(slow.select(keep, name="filter_slow"), name="union")
         .sink("sink", keep_outputs=True))
    p.engine(ets_policy=OnDemandEts)
    p.compile()
    for name, rate in (("fast", RATE_FAST), ("slow", RATE_SLOW)):
        rng = random.Random(f"sparse-union-ets:{seed}:{name}")
        when, seq, feed = rng.expovariate(rate), 0, []
        while when < horizon:
            feed.append(Arrival(when, {"seq": seq, "value": rng.random()}))
            seq += 1
            when += rng.expovariate(rate)
        p.feed(name, feed)
    sim = p.build_simulation()
    return p, sim, p.sinks["sink"]


def drive(p, slices: int) -> None:
    for index in range(slices):
        p.run((index + 1) * SLICE)


def test_seed_1_scenario_c_counters_are_exact():
    """The full seed-1 drive: every counter the walk decides, exactly."""
    p, sim, sink = sparse_union()
    drive(p, FULL_SLICES)
    stats = sim.engine.stats
    assert (sim.arrivals_delivered, sink.delivered) == (12_666, 12_007)
    assert (stats.steps, stats.punct_steps, stats.ets_offers,
            stats.ets_injected) == (72_236, 35_556, 12_047, 11_854)
    assert stats.rounds == 12_688
    assert sink.latency_sum == 1.265656982512538
    assert sink.mean_latency * 1e3 == 0.10540992608582811
    assert sim.idle_fraction("union") == 0.010532489138258676
    assert sim.graph.registry.peak == 4
    assert sim.graph.registry.mutations == 144_452


#: ``repro`` calls per arrival on the 1/16-size drive below, measured when
#: the path was last cut (188.5 before that); the guard allows 3 % above.
CALLS_PER_ARRIVAL = 108.6


def count_repro_calls(fn) -> int:
    """Python-level calls into ``repro`` while ``fn`` runs.  Comprehension
    frames are left out: Python 3.12 inlines them, older versions do not."""
    root = str(Path(__import__("repro").__file__).parent)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(root) \
                    and not code.co_name.startswith("<"):
                calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_an_arrival_costs_no_more_calls_than_it_did():
    """A 1/16-size seed-1 drive (12 slices, ~800 arrivals): the calls per
    arrival stay within 3 % of the recorded figure.  Exact and
    machine-independent, so a regression of the per-arrival path shows
    here first; lower the figure when a change cuts the path further."""
    slices = 12
    p, sim, _ = sparse_union(slices=slices)
    calls = count_repro_calls(lambda: drive(p, slices))
    arrivals = sim.arrivals_delivered
    assert arrivals > 700 and sim.engine.stats.ets_injected > 600
    per_arrival = calls / arrivals
    assert per_arrival <= CALLS_PER_ARRIVAL * 1.03, (
        f"{per_arrival:.1f} Python calls per arrival; recorded "
        f"{CALLS_PER_ARRIVAL}")
