"""Arrival processes: synthetic substitutes for the paper's traffic.

The paper drives Stream Mill with randomly generated tuples "under a Poisson
arrival process with the desired average arrival rates" (Section 6).  This
module provides that process plus the ones the extension experiments need:
constant-rate and bursty on/off (the paper repeatedly worries about bursty,
non-stationary traffic defeating periodic heartbeats).

All processes are lazy iterators of :class:`~repro.sim.kernel.Arrival` and
take an explicit :class:`random.Random`, so every experiment is seeded and
reproducible.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterable, Iterator

from ..core.errors import WorkloadError
from ..sim.kernel import Arrival

__all__ = [
    "poisson_arrivals",
    "constant_arrivals",
    "bursty_arrivals",
    "with_external_timestamps",
    "with_out_of_order_timestamps",
]


def _payloads(payloads: Iterable[Any] | None) -> Iterator[Any]:
    if payloads is None:
        return ({"seq": i} for i in itertools.count())
    return iter(payloads)


def poisson_arrivals(rate: float, rng: random.Random, *,
                     start: float = 0.0,
                     payloads: Iterable[Any] | None = None) -> Iterator[Arrival]:
    """Poisson process: exponential inter-arrival times at ``rate`` per second.

    Args:
        rate: Average arrivals per stream second; must be positive.
        rng: Seeded random source.
        start: Time of the process origin (first arrival comes after it).
        payloads: Payload per arrival; defaults to ``{"seq": n}`` records.
    """
    if rate <= 0:
        raise WorkloadError(f"poisson rate must be positive, got {rate}")
    t = start
    for payload in _payloads(payloads):
        t += rng.expovariate(rate)
        yield Arrival(time=t, payload=payload)


def constant_arrivals(rate: float, *, start: float = 0.0,
                      payloads: Iterable[Any] | None = None) -> Iterator[Arrival]:
    """Deterministic arrivals exactly ``1/rate`` seconds apart."""
    if rate <= 0:
        raise WorkloadError(f"constant rate must be positive, got {rate}")
    period = 1.0 / rate
    t = start
    for payload in _payloads(payloads):
        t += period
        yield Arrival(time=t, payload=payload)


def bursty_arrivals(on_rate: float, rng: random.Random, *,
                    on_duration: float, off_duration: float,
                    start: float = 0.0,
                    payloads: Iterable[Any] | None = None) -> Iterator[Arrival]:
    """On/off (interrupted Poisson) process.

    During an ON period of mean ``on_duration`` seconds, arrivals follow a
    Poisson process at ``on_rate``; then the source goes silent for an OFF
    period of mean ``off_duration``.  Period lengths are exponential, so the
    process is a standard two-state MMPP — the "bursty" traffic for which
    the paper argues periodic heartbeats are hard to tune.
    """
    if on_rate <= 0:
        raise WorkloadError(f"burst on_rate must be positive, got {on_rate}")
    if on_duration <= 0 or off_duration <= 0:
        raise WorkloadError("burst durations must be positive")
    t = start
    payload_iter = _payloads(payloads)
    while True:
        on_end = t + rng.expovariate(1.0 / on_duration)
        while True:
            t += rng.expovariate(on_rate)
            if t >= on_end:
                t = on_end
                break
            payload = next(payload_iter, None)
            if payload is None:
                return
            yield Arrival(time=t, payload=payload)
        t += rng.expovariate(1.0 / off_duration)


def with_out_of_order_timestamps(arrivals: Iterator[Arrival],
                                 rng: random.Random, *,
                                 max_disorder: float) -> Iterator[Arrival]:
    """Give arrivals application timestamps with *bounded disorder*.

    Each tuple's external timestamp is its arrival time minus a uniform
    delay in ``[0, max_disorder]`` — without the per-stream order clamping
    of :func:`with_external_timestamps`, so consecutive tuples may carry
    regressing timestamps (by at most ``max_disorder``).  Feed such a
    stream into an ``out_of_order=True`` source followed by a
    :class:`~repro.core.operators.reorder.Reorder` with matching slack.
    """
    if max_disorder < 0:
        raise WorkloadError(
            f"max_disorder must be non-negative, got {max_disorder}"
        )
    for arrival in arrivals:
        yield Arrival(time=arrival.time, payload=arrival.payload,
                      external_ts=arrival.time - rng.uniform(0.0,
                                                             max_disorder))


def with_external_timestamps(arrivals: Iterator[Arrival], rng: random.Random,
                             *, max_skew: float) -> Iterator[Arrival]:
    """Give arrivals application timestamps lagging their arrival time.

    Each tuple's external timestamp is its arrival time minus a uniform
    delay in ``[0, max_skew]``, clamped to keep the per-stream order the
    paper's model requires.  This is the workload for the X3 ablation
    (skew-bound ETS on externally timestamped streams).
    """
    if max_skew < 0:
        raise WorkloadError(f"max_skew must be non-negative, got {max_skew}")
    last_ts = -float("inf")
    for arrival in arrivals:
        ts = arrival.time - rng.uniform(0.0, max_skew)
        ts = max(ts, last_ts)
        last_ts = ts
        yield Arrival(time=arrival.time, payload=arrival.payload,
                      external_ts=ts)
