"""Payload generators for the examples and experiments.

Payloads are plain dict records matching simple schemas.  The engine never
looks inside them; the 95 %-selectivity filters of the paper's query and the
join predicates of the extension experiments do.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterator

__all__ = [
    "sequence_payloads",
    "uniform_value_payloads",
    "packet_payloads",
    "sensor_payloads",
]


def sequence_payloads(field: str = "seq") -> Iterator[dict[str, Any]]:
    """``{field: 0}, {field: 1}, ...`` — the minimal payload stream."""
    return ({field: i} for i in itertools.count())


def uniform_value_payloads(rng: random.Random, *, low: float = 0.0,
                           high: float = 1.0,
                           field: str = "value") -> Iterator[dict[str, Any]]:
    """Records with one uniform float field — used for selectivity filters.

    A predicate ``payload[field] < s`` then passes a fraction ``s`` of
    tuples, which is how the paper's 95 %-selectivity selections are driven.
    """
    counter = itertools.count()
    while True:
        yield {"seq": next(counter), field: rng.uniform(low, high)}


def packet_payloads(rng: random.Random, *,
                    hosts: int = 16) -> Iterator[dict[str, Any]]:
    """Synthetic network-monitoring records (the Gigascope-style use case)."""
    counter = itertools.count()
    while True:
        yield {
            "seq": next(counter),
            "src": f"h{rng.randrange(hosts)}",
            "dst": f"h{rng.randrange(hosts)}",
            "bytes": rng.randrange(64, 1500),
            "value": rng.random(),
        }


def sensor_payloads(rng: random.Random, *, sensors: int = 8,
                    drift: float = 0.01) -> Iterator[dict[str, Any]]:
    """Synthetic sensor readings with a slowly drifting mean per sensor."""
    means = [rng.uniform(15.0, 25.0) for _ in range(sensors)]
    counter = itertools.count()
    while True:
        idx = rng.randrange(sensors)
        means[idx] += rng.gauss(0.0, drift)
        yield {
            "seq": next(counter),
            "sensor": f"s{idx}",
            "reading": means[idx] + rng.gauss(0.0, 0.5),
            "value": rng.random(),
        }
