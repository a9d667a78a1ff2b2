"""Network monitoring: merging a busy backbone feed with a quiet alarm feed.

This is the Gigascope-style use case that motivated heartbeats in the first
place (Johnson et al., VLDB'05 — the paper's reference [9], and its
periodic-ETS baseline).  A backbone packet stream runs at hundreds of
tuples per second; an operator-alarm stream emits a few tuples per minute.
An analyst wants a single timestamp-ordered feed of *interesting* events:

* backbone packets larger than 1200 bytes (possible exfiltration), and
* every alarm.

Without ETS, every large packet waits for the next alarm — minutes of
latency.  This example builds the query with the fluent
:class:`~repro.api.Pipeline`, runs it with on-demand ETS and prints both
the merged feed's head and the latency statistics, then reruns it without
ETS to show the difference.

Run with::

    python examples/network_monitoring.py
"""

from __future__ import annotations

import random

from repro.api import (
    NoEts,
    OnDemandEts,
    Pipeline,
    format_table,
)
from repro.workloads import packet_payloads, poisson_arrivals

BACKBONE_RATE = 200.0   # packets per second
ALARM_RATE = 0.05       # alarms per second (one every ~20 s)
DURATION = 120.0


def alarm_payloads():
    codes = ["LINK_DOWN", "BGP_FLAP", "CRC_ERRORS"]
    rng = random.Random(3)
    while True:
        yield {"code": rng.choice(codes), "severity": rng.randint(1, 5)}


def run(policy) -> tuple:
    pipeline = Pipeline("netmon")
    backbone = pipeline.source("backbone")
    alarms = pipeline.source("alarms")
    suspicious = backbone.select(lambda p: p["bytes"] > 1200,
                                 name="large_packets")
    tagged_alarms = alarms.map(lambda p: {**p, "kind": "alarm"},
                               name="tag_alarms")
    feed = []
    (suspicious.union(tagged_alarms, name="event_feed")
               .sink("analyst",
                     on_output=lambda tup, lat: feed.append((tup, lat))))
    sim = (pipeline
           .engine(ets_policy=policy)
           .feed("backbone", poisson_arrivals(
               BACKBONE_RATE, random.Random(1),
               payloads=packet_payloads(random.Random(2))))
           .feed("alarms", poisson_arrivals(
               ALARM_RATE, random.Random(4), payloads=alarm_payloads()))
           .run(until=DURATION))
    return sim, pipeline.sinks["analyst"], feed


def main() -> None:
    print(f"merging backbone ({BACKBONE_RATE}/s) with alarms "
          f"({ALARM_RATE}/s) for {DURATION:.0f} simulated seconds\n")

    results = {}
    for label, policy in (("on-demand ETS", OnDemandEts()),
                          ("no ETS", NoEts())):
        sim, sink, feed = run(policy)
        results[label] = (sim, sink, feed)

    sim, sink, feed = results["on-demand ETS"]
    print("first events on the analyst feed (on-demand ETS):")
    head = [[f"{tup.ts:.3f}",
             tup.payload.get("kind", "packet"),
             tup.payload.get("code", tup.payload.get("src", "")),
             f"{latency * 1e3:.3f}"]
            for tup, latency in feed[:8]]
    print(format_table(["stream time", "kind", "detail", "latency (ms)"],
                       head))

    rows = []
    for label, (sim, sink, _) in results.items():
        rows.append([label, sink.delivered, sink.mean_latency * 1e3,
                     sink.latency_max * 1e3, sim.peak_queue_size,
                     sim.idle_fraction("event_feed") * 100])
    print()
    print(format_table(
        ["policy", "events", "mean latency (ms)", "max latency (ms)",
         "peak queue", "idle-waiting (%)"],
        rows, title="On-demand ETS vs no ETS on the same feeds"))
    print()
    print(f"operator kernels: {sim.engine.stats.blocks} calls over "
          f"{sim.engine.stats.block_rows} data rows")


if __name__ == "__main__":
    main()
