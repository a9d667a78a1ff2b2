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
    "uniform_value_payloads",
    "packet_payloads",
]


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
