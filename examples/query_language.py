"""The mini continuous-query language end to end.

Stream Mill's selling point was "power and extensibility" through its query
language (the paper's reference [3]).  This example writes the paper's
experiment as a textual program, compiles it into a
:class:`~repro.api.Pipeline` with :meth:`Pipeline.from_program`, attaches
workloads, and runs it under on-demand ETS — no Python graph wiring at all.

Run with::

    python examples/query_language.py
"""

from __future__ import annotations

import random

from repro.api import (
    OnDemandEts,
    Pipeline,
    format_table,
)
from repro.workloads import poisson_arrivals, uniform_value_payloads

PROGRAM = """
-- the paper's Fig. 4 experiment, plus a per-10-second rate summary

STREAM fast (seq int, value float) TIMESTAMP INTERNAL;
STREAM slow (seq int, value float) TIMESTAMP INTERNAL;

s1 = SELECT * FROM fast WHERE value < 0.95;
s2 = SELECT * FROM slow WHERE value < 0.95;

merged = UNION s1, s2;

rates = AGGREGATE merged WINDOW 10
        COMPUTE n = count(), mean_value = avg(value);

SINK merged AS events;
SINK rates  AS summary;
"""

DURATION = 120.0


def main() -> None:
    print("compiling program:")
    print(PROGRAM)
    pipeline = Pipeline.from_program(PROGRAM, name="paper-in-esl")
    print(pipeline.graph.describe())
    print()

    sim = (pipeline
           .engine(ets_policy=OnDemandEts)
           .feed("fast", poisson_arrivals(
               50.0, random.Random(1),
               payloads=uniform_value_payloads(random.Random(2))))
           .feed("slow", poisson_arrivals(
               0.05, random.Random(3),
               payloads=uniform_value_payloads(random.Random(4))))
           .run(until=DURATION))

    events = pipeline.sinks["events"]
    summary = pipeline.sinks["summary"]
    rows = [
        ["events", events.delivered, events.mean_latency * 1e3],
        ["summary", summary.delivered, summary.mean_latency * 1e3],
    ]
    print(format_table(["sink", "tuples delivered", "mean latency (ms)"],
                       rows, title=f"after {DURATION:.0f} simulated seconds"))
    print()
    print(f"peak total queue size: {sim.peak_queue_size} tuples; "
          f"ETS punctuation generated on demand: "
          f"{sim.engine.stats.ets_injected}")


if __name__ == "__main__":
    main()
