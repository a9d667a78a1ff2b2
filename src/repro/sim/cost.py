"""CPU cost model: how much simulated time each engine action consumes.

The paper's absolute numbers come from a 2.8 GHz P4 running Stream Mill; we
substitute a calibrated constant-cost model (documented in DESIGN.md).  The
choices below are in the microsecond range typical of per-tuple operator
costs in 2007-era DSMS engines, and they are *the* knob that places the
C-vs-D gap of Figure 7(b) around 0.1 ms.  Every experiment records the cost
model used, and tests exercise both the default and the zero-cost ("purely
logical") models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.operators.base import BatchResult, Operator

__all__ = ["CostModel", "DEFAULT_DATA_COSTS", "DEFAULT_PUNCT_COSTS"]

#: Per-step cost (seconds) of processing one data tuple, by operator class.
DEFAULT_DATA_COSTS: Mapping[str, float] = {
    "select": 20e-6,
    "project": 15e-6,
    "map": 20e-6,
    "flatmap": 25e-6,
    "union": 15e-6,
    "windowjoin": 30e-6,
    "tumblingaggregate": 25e-6,
    "sinknode": 5e-6,
}

#: Per-step cost (seconds) of servicing one punctuation tuple, by class.
DEFAULT_PUNCT_COSTS: Mapping[str, float] = {
    "select": 10e-6,
    "project": 8e-6,
    "map": 10e-6,
    "flatmap": 10e-6,
    "union": 10e-6,
    "windowjoin": 15e-6,
    "tumblingaggregate": 12e-6,
    "sinknode": 3e-6,
}


@dataclass(slots=True)
class CostModel:
    """Maps engine actions to simulated CPU seconds.

    Attributes:
        data_costs / punct_costs: Per-operator-class step costs; classes not
            listed fall back to ``default_data_cost`` / ``default_punct_cost``.
        per_probe: Added per window tuple examined by a join.
        ets_generation: Cost of producing one on-demand ETS at a source
            (the Backtrack-to-source work of scenario C).
        heartbeat_injection: Cost of one periodic heartbeat injection
            (scenario B's wrapper-side work).
        scheduling_overhead: Added once per engine wake-up round.
    """

    data_costs: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DATA_COSTS))
    punct_costs: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PUNCT_COSTS))
    default_data_cost: float = 20e-6
    default_punct_cost: float = 10e-6
    per_probe: float = 2e-6
    ets_generation: float = 10e-6
    heartbeat_injection: float = 5e-6
    scheduling_overhead: float = 2e-6

    @classmethod
    def zero(cls) -> "CostModel":
        """A free-CPU model: instantaneous processing, for logical tests."""
        return cls(data_costs={}, punct_costs={}, default_data_cost=0.0,
                   default_punct_cost=0.0, per_probe=0.0, ets_generation=0.0,
                   heartbeat_injection=0.0, scheduling_overhead=0.0)

    @classmethod
    def uniform(cls, step: float, *, per_probe: float = 0.0) -> "CostModel":
        """Every step (data or punctuation) costs the same ``step`` seconds."""
        return cls(data_costs={}, punct_costs={}, default_data_cost=step,
                   default_punct_cost=step, per_probe=per_probe,
                   ets_generation=step, heartbeat_injection=step,
                   scheduling_overhead=0.0)

    def price(self, op: "Operator") -> tuple[float, float, float]:
        """``op``'s ``(data, punct, probe)`` prices: seconds per data
        tuple, per punctuation and per window tuple examined.  The engine
        resolves them once per operator and model."""
        return (self.data_costs.get(op.cost_class, self.default_data_cost),
                self.punct_costs.get(op.cost_class, self.default_punct_cost),
                self.per_probe)

    def batch_cost(self, op: "Operator", batch: "BatchResult") -> float:
        """Simulated seconds consumed by one execution step.

        A run amortizes Python dispatch (wall-clock), not simulated CPU:
        every tuple in the run is charged its full per-tuple cost, so
        simulated time does not depend on ``batch_size``.
        """
        data, punct, probe = self.price(op)
        return (batch.consumed_data * data
                + batch.consumed_punctuation * punct
                + batch.probes * probe)
