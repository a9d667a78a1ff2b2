"""Alternative operator-scheduling strategies (ablation X4).

The paper's on-demand ETS is *integrated with the DFS backtracking* of the
execution model (Section 4): the act of backtracking to a stalled source is
itself the trigger for generating a timestamp.  The DSMS scheduling
literature the paper cites (Carney et al., VLDB'03; Sharaf et al.; Babcock
et al.'s Chain) studies other strategies, most simply round-robin.  This
module provides a round-robin engine so the ablation can quantify what the
DFS integration buys:

* **Round-robin** visits every operator each pass, paying a visit cost even
  for operators with nothing to do, and needs an explicit end-of-pass poll
  of the sources to drive on-demand ETS.
* **DFS (the default engine)** touches only the active path and gets the
  ETS trigger for free from the Backtrack rule.

:class:`RoundRobinEngine` is drop-in compatible with
:class:`~repro.core.execution.ExecutionEngine` (same constructor and
``wakeup``), so the kernel accepts it unchanged.
"""

from __future__ import annotations

from .execution import ExecutionEngine
from .graph import QueryGraph
from .operators.base import Operator
from .operators.source import SourceNode

__all__ = ["RoundRobinEngine"]


class RoundRobinEngine(ExecutionEngine):
    """Fixed-order, quantum-per-visit operator scheduling.

    Args:
        quantum: Maximum elements an operator processes per visit before
            the scheduler moves on (the classical scheduling quantum — not
            the base engine's ``batch_size`` run width: round-robin always
            executes scalar steps within a visit, whatever that is).
        visit_cost: Simulated CPU seconds charged per operator *visit*,
            whether or not the operator had work — the context-switch
            overhead that depth-first traversal avoids.  Defaults to the
            cost model's ``scheduling_overhead``.

    Everything else (cost model, ETS policy, idle tracking, the
    ``deliver_due`` hook) behaves exactly as in the base engine.
    """

    def __init__(self, graph: QueryGraph, clock, *, quantum: int = 16,
                 visit_cost: float | None = None, **kwargs) -> None:
        super().__init__(graph, clock, **kwargs)
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        self.quantum = quantum
        if visit_cost is not None:
            self.visit_cost = visit_cost
        elif self.cost_model is not None:
            self.visit_cost = self.cost_model.scheduling_overhead
        else:
            self.visit_cost = 0.0
        self._order: list[Operator] = [
            op for op in graph.topological_order()
            if not isinstance(op, SourceNode)
        ]
        self._sources = graph.sources()

    def wakeup(self, entry: SourceNode | Operator | None = None) -> None:
        """Run fixed-order passes to quiescence (entry hints are ignored —
        round-robin has no notion of 'start where the data landed')."""
        self._round_id += 1
        self.stats.rounds += 1
        self._refresh_idle()
        while True:
            self._pump_due()
            progressed = False
            for op in self._order:
                if self.visit_cost:
                    self.clock.advance(self.visit_cost)
                    self.stats.busy_time += self.visit_cost
                served = 0
                while served < self.quantum and op.more():
                    self._step(op)
                    served += 1
                    progressed = True
            if not progressed:
                # End-of-pass source poll: round-robin has no backtracking,
                # so on-demand ETS needs this explicit trigger.
                for source in self._sources:
                    if self._try_ets(source):
                        progressed = True
            if not progressed:
                break
        self._refresh_idle()
