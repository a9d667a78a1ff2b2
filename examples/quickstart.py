"""Quickstart: the fluent API in ten lines, then the paper's experiment.

Part 1 builds and runs a tiny query with :class:`~repro.api.Pipeline` —
the recommended front door: declare sources, chain combinators, terminate
in a sink, then configure and drive the whole thing in one chain (the
columnar block engine is on by default).

Part 2 runs the Fig.-4 query (two skewed Poisson streams,
95 %-selectivity filters, a union) for two simulated minutes under each of
the four scenarios of Section 6, and prints the metrics the paper reports:
mean output latency, peak total queue size, and the union's idle-waiting
share.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro.api import (
    OnDemandEts,
    Pipeline,
    format_table,
)
from repro.workloads import (
    ScenarioConfig,
    build_union_scenario,
    poisson_arrivals,
    uniform_value_payloads,
)


def pipeline_demo() -> None:
    """The whole API surface in one chain."""
    p = Pipeline("hello")
    fast = p.source("fast")
    slow = p.source("slow")
    (fast.select(lambda t: t["value"] < 0.95)
         .union(slow.select(lambda t: t["value"] < 0.95))
         .sink("out"))
    sim = (p.engine(ets_policy=OnDemandEts)
            .feed("fast", poisson_arrivals(
                50.0, random.Random(1),
                payloads=uniform_value_payloads(random.Random(2))))
            .feed("slow", poisson_arrivals(
                0.05, random.Random(3),
                payloads=uniform_value_payloads(random.Random(4))))
            .run(until=30.0))
    stats = sim.engine.stats
    print(f"pipeline demo: {p.sinks['out'].delivered} tuples delivered in "
          f"30 simulated seconds ({stats.blocks} columnar blocks, "
          f"{stats.block_rows} rows vectorized)\n")


def main() -> None:
    pipeline_demo()

    scenarios = [
        ("A", "internal timestamps, no ETS", {}),
        ("B", "internal timestamps, periodic ETS @100/s",
         {"heartbeat_rate": 100.0}),
        ("C", "internal timestamps, on-demand ETS", {}),
        ("D", "latent timestamps (optimum)", {}),
    ]
    rows = []
    for label, description, extra in scenarios:
        config = ScenarioConfig(scenario=label, duration=120.0, seed=42,
                                **extra)
        handles = build_union_scenario(config).run()
        rows.append([
            label,
            description,
            handles.recorder.mean * 1e3,
            handles.sim.peak_queue_size,
            handles.sim.idle_fraction("union") * 100,
            handles.sink.delivered,
        ])
        print(f"scenario {label} done "
              f"({handles.sink.delivered} tuples delivered)")

    print()
    print(format_table(
        ["scenario", "setup", "mean latency (ms)", "peak queue (tuples)",
         "idle-waiting (%)", "delivered"],
        rows,
        title="Paper Section 6 — the four timestamp-management scenarios"))
    print()
    print("Expected shape (paper): A orders of magnitude worse than C; "
          "C within ~0.1 ms of D; B in between, tunable by heartbeat rate.")


if __name__ == "__main__":
    main()
