"""Sensor correlation: window-joining a chatty sensor with a sparse one.

A machine room has a vibration sensor reporting several times a second and
a maintenance log that records service events a few times per hour.  The
operations team wants every vibration reading within 30 seconds of a
service event (to study whether servicing perturbs the machine), plus a
per-minute aggregate of the join results.

The join is Idle-Waiting Prone: vibration readings cannot flow past the
join until the maintenance stream's timestamp progress is known.  On-demand
ETS keeps them moving — and, as a bonus, the ETS punctuation expires the
join windows (bounding state) and closes the aggregate's tumbling windows
on time.

The query is built with :class:`~repro.api.Pipeline`; ``join`` is the
window-join combinator.

Run with::

    python examples/sensor_join.py
"""

from __future__ import annotations

import itertools
import random

from repro.api import (
    AggSpec,
    Avg,
    Count,
    NoEts,
    OnDemandEts,
    Pipeline,
    WindowSpec,
    format_table,
    poisson_arrivals,
)

VIBRATION_RATE = 5.0     # readings per second
SERVICE_RATE = 0.02      # service events per second (one per ~50 s)
JOIN_WINDOW = 30.0       # seconds around a service event
DURATION = 600.0


def vibration_payloads():
    rng = random.Random(11)
    for i in itertools.count():
        yield {"machine": f"m{rng.randrange(3)}",
               "level": rng.gauss(1.0, 0.3),
               "seq": i}


def maintenance_payloads():
    rng = random.Random(13)
    while True:
        yield {"machine": f"m{rng.randrange(3)}",
               "action": rng.choice(["lubricate", "align", "inspect"])}


def run(policy):
    pipeline = Pipeline("sensors")
    vibration = pipeline.source("vibration")
    maintenance = pipeline.source("maintenance")
    results = []
    (vibration
     .join(maintenance, WindowSpec.time(JOIN_WINDOW),
           predicate=lambda v, m: v["machine"] == m["machine"],
           name="near_service")
     .tumbling(60.0,
               {"readings": AggSpec(Count), "mean_level": AggSpec(Avg, "level")},
               name="per_minute")
     .sink("ops", on_output=lambda tup, lat: results.append(tup)))
    sim = (pipeline
           .engine(ets_policy=policy)
           .feed("vibration", poisson_arrivals(
               VIBRATION_RATE, random.Random(1),
               payloads=vibration_payloads()))
           .feed("maintenance", poisson_arrivals(
               SERVICE_RATE, random.Random(2),
               payloads=maintenance_payloads()))
           .run(until=DURATION))
    return sim, pipeline.sinks["ops"], results


def main() -> None:
    print(f"join window {JOIN_WINDOW:.0f}s, vibration {VIBRATION_RATE}/s, "
          f"service events {SERVICE_RATE}/s, {DURATION:.0f}s simulated\n")

    sim, sink, results = run(OnDemandEts())
    print("per-minute summaries of readings near service events:")
    rows = [[f"{tup.payload['window_end']:.0f}",
             tup.payload["readings"],
             f"{tup.payload['mean_level']:.3f}"]
            for tup in results[:10]]
    print(format_table(["minute ending", "joined readings", "mean level"],
                       rows))

    join_op = sim.graph["near_service"]
    print()
    print(f"join state at end of run: {join_op.window_size_total} tuples "
          f"buffered across both windows "
          f"(punctuation expired the rest)")
    print(f"summaries delivered: {sink.delivered}, "
          f"mean output latency {sink.mean_latency * 1e3:.2f} ms")

    sim_off, sink_off, _ = run(NoEts())
    print()
    print("same run without ETS:")
    print(f"summaries delivered: {sink_off.delivered} "
          f"(windows cannot close until the sparse stream speaks); "
          f"join state: {sim_off.graph['near_service'].window_size_total} "
          f"tuples; peak queue {sim_off.peak_queue_size} vs "
          f"{sim.peak_queue_size} with ETS")


if __name__ == "__main__":
    main()
