"""The baselines the ablations run only to show what the paper's engine
buys: round-robin scheduling (X4) and adaptive heartbeats (X7).

The paper's on-demand ETS is *integrated with the DFS backtracking* of the
execution model (Section 4): the act of backtracking to a stalled source is
itself the trigger for generating a timestamp.  The DSMS scheduling
literature the paper cites (Carney et al., VLDB'03; Sharaf et al.; Babcock
et al.'s Chain) studies other strategies, most simply round-robin:

* **Round-robin** (:class:`RoundRobinEngine`) visits every operator each
  pass, paying a visit cost even for operators with nothing to do, and
  needs an explicit end-of-pass poll of the sources to drive on-demand
  ETS.
* **DFS (the default engine)** touches only the active path and gets the
  ETS trigger for free from the Backtrack rule.

The periodic side has its own natural baseline between fixed-rate
heartbeats (scenario B) and on-demand ETS (scenario C): heartbeats whose
rate tracks the traffic they must unblock (:class:`AdaptiveHeartbeatSchedule`).
Neither is part of the engine a pipeline runs; both are importable from
here only.
"""

from __future__ import annotations

from math import isfinite
from typing import Mapping

from ..core.errors import PolicyError
from ..core.ets import PeriodicEtsSchedule
from ..core.execution import ExecutionEngine
from ..core.graph import QueryGraph
from ..core.operators.base import Operator
from ..core.operators.source import SourceNode

__all__ = ["AdaptiveHeartbeatSchedule", "RoundRobinEngine"]


class RoundRobinEngine(ExecutionEngine):
    """Fixed-order, quantum-per-visit operator scheduling (ablation X4).

    Drop-in compatible with :class:`~repro.core.execution.ExecutionEngine`
    (same constructor and ``wakeup``), so the kernel accepts it unchanged
    (``Simulation(engine_cls=RoundRobinEngine)``).

    Args:
        quantum: Maximum elements an operator processes per visit before
            the scheduler moves on (the classical scheduling quantum); a
            visit takes execution steps of up to ``batch_size`` elements,
            never past the quantum.
        visit_cost: Simulated CPU seconds charged per operator *visit*,
            whether or not the operator had work — the context-switch
            overhead that depth-first traversal avoids.  Defaults to the
            cost model's ``scheduling_overhead``, which is therefore not
            charged a second time per wake-up.

    Only the traversal is its own.  Everything else — the wake-up envelope
    (observer hooks, idle tracking, feedback sampling, the invariant
    monitor, the checkpoint cadence), the cost model, the ETS policy, the
    ``deliver_due`` pump and the ``max_steps_per_round`` budget — behaves
    exactly as in the base engine.
    """

    charges_wakeup = False

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

    def _traverse(self, entry: SourceNode | Operator | None) -> None:
        """Fixed-order passes to quiescence (the entry hint is ignored —
        round-robin has no notion of 'start where the data landed')."""
        while True:
            self._pump_due()
            progressed = False
            for op in self._order:
                if self.visit_cost:
                    self.clock.advance(self.visit_cost)
                    self.stats.busy_time += self.visit_cost
                served = 0
                while served < self.quantum and op.more():
                    served += self._step(
                        op, min(self.batch_size,
                                self.quantum - served)).steps
                    progressed = True
            if not progressed:
                # End-of-pass source poll: round-robin has no
                # backtracking, so on-demand ETS needs this explicit
                # trigger.
                for source in self._sources:
                    if self._try_ets(source):
                        progressed = True
            if not progressed:
                return


class AdaptiveHeartbeatSchedule(PeriodicEtsSchedule):
    """Heartbeats whose rate tracks the traffic they must unblock (X7).

    The paper observes that the right periodic rate "largely depends on the
    load conditions of the various streams": punctuation on the sparse
    stream A should match the frequency of tuples on the busy stream B.
    This schedule is the natural adaptive baseline between fixed-rate
    heartbeats (scenario B) and on-demand ETS (scenario C): each punctuated
    source re-estimates, at every injection, the recent arrival rate of a
    designated *driver* stream and sets the next period to match it.

    Args:
        drivers: Mapping from punctuated source name to the name of the
            stream whose rate it should match (the busy stream).
        min_rate / max_rate: Clamp for the adapted rate, in heartbeats per
            second, finite with ``0 < min_rate <= max_rate``; the minimum
            also serves as the cold-start rate.

    Even adapted this way, heartbeats remain reactive-with-lag: they match
    the *recent past* rate, so the first tuples of a burst still wait about
    one (pre-burst) period — which is exactly what the X6 and X7
    ablations show and on-demand ETS avoids.
    """

    #: Minimum span (stream seconds) over which the driver rate is
    #: measured; shorter gaps reuse the previous estimate.  Without this
    #: floor, a fast adapted rate would shrink its own observation window
    #: until single-tuple noise whipsaws the estimate.
    ESTIMATION_WINDOW = 1.0

    def __init__(self, drivers: Mapping[str, str], *,
                 min_rate: float = 0.1, max_rate: float = 1000.0) -> None:
        if not (0 < min_rate <= max_rate and isfinite(max_rate)):
            raise PolicyError(
                f"need finite 0 < min_rate <= max_rate, got {min_rate}, "
                f"{max_rate}"
            )
        super().__init__({name: min_rate for name in drivers})
        self.drivers = dict(drivers)
        self.min_rate = min_rate
        self.max_rate = max_rate
        self._graph = None
        self._last_counts: dict[str, tuple[float, int]] = {}
        self._current_rate: dict[str, float] = {}

    def bind(self, graph) -> None:
        for name, driver in self.drivers.items():
            if driver not in graph:
                raise PolicyError(
                    f"adaptive heartbeat for {name!r}: driver stream "
                    f"{driver!r} is not in the graph"
                )
        self._graph = graph

    def _observed_rate(self, source_name: str, now: float) -> float:
        assert self._graph is not None, "bind() must run before injections"
        driver = self._graph[self.drivers[source_name]]
        count = driver.ingested_count
        last = self._last_counts.get(source_name)
        if last is None:
            self._last_counts[source_name] = (now, count)
            return self.min_rate
        last_t, last_count = last
        elapsed = now - last_t
        if elapsed < self.ESTIMATION_WINDOW:
            # Too little evidence since the last estimate: hold the rate.
            return self._current_rate.get(source_name, self.min_rate)
        self._last_counts[source_name] = (now, count)
        return (count - last_count) / elapsed

    def next_period(self, source: SourceNode, now: float) -> float:
        rate = self._observed_rate(source.name, now)
        rate = min(self.max_rate, max(self.min_rate, rate))
        self._current_rate[source.name] = rate
        return 1.0 / rate

    def snapshot_state(self) -> dict:
        """Versioned snapshot of the rate-estimation state.

        The graph binding itself is wiring, not state; ``bind`` re-runs on
        the rebuilt graph before injections resume.
        """
        return {
            "version": 1,
            "last_counts": dict(self._last_counts),
            "current_rate": dict(self._current_rate),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise PolicyError(
                f"unsupported AdaptiveHeartbeatSchedule state: {state!r}")
        self._last_counts = dict(state["last_counts"])
        self._current_rate = dict(state["current_rate"])
