"""The interpreted NOS walk, kept as the reference engine.

:class:`ReferenceWalkEngine` is :class:`~repro.core.execution.ExecutionEngine`
with the wake-up loop, walk, step, ETS hook and pump it had before the walk
read per-node records: every decision asks the operator (``more``,
``stalled_input_index``, ``predecessors[j]``, a set test for sources), the
pump calls the kernel at every clock change (and on the first pump of each
wake-up), every step re-prices itself through ``CostModel.batch_cost`` and
refreshes the idle tracker, and every emission goes through the bus.  Run
beside the engine under test on the same graph and feed, it must produce
the same events, counters, outputs, clock and idle time.

The step budget is not modelled: the reference has none.
"""

from __future__ import annotations

from repro.core.execution import ExecutionEngine
from repro.core.operators.base import BatchResult, Operator
from repro.core.operators.source import SourceNode

__all__ = ["ReferenceWalkEngine"]


class ReferenceWalkEngine(ExecutionEngine):
    """The engine as a plain interpreter of the NOS rules."""

    def __init__(self, graph, clock, **kwargs) -> None:
        super().__init__(graph, clock, **kwargs)
        #: Clock reading and round of the last ``deliver_due`` call.
        self._pumped_at: float | None = None
        self._pumped_round = 0
        self._source_nodes = frozenset(graph.sources())
        self._scan = [op for op in graph.operators
                      if op not in self._source_nodes]

    def wakeup(self, entry: SourceNode | Operator | None = None) -> None:
        self._round_id += 1
        self.stats.rounds += 1
        if self.cost_model is not None:
            self.clock.advance(self.cost_model.scheduling_overhead)
        if self.bus is not None:
            self.bus.wakeup(round_id=self._round_id, time=self.clock.now(),
                            entry=entry.name if entry is not None else None)
        self._refresh_idle()
        if entry is not None:
            self._walk(entry)
        while True:
            self._pump_due()
            progressed = False
            for op in self._scan:
                if op.more():
                    progressed = self._walk(op) or progressed
            if not progressed:
                for op in self._iwp_ops:
                    if op.idle_waiting():
                        progressed = self._walk(op) or progressed
            if not progressed:
                break
        self._refresh_idle()
        if self.feedback is not None:
            self.feedback.sample(self.clock.now(), self._round_id)
        if self.monitor is not None:
            self.stats.invariant_violations += self.monitor.check(
                self.clock.now())
        if self.bus is not None:
            self.bus.quiesce(round_id=self._round_id, time=self.clock.now())
        if (self.checkpoint_every is not None
                and self.checkpoint_hook is not None
                and self._round_id % self.checkpoint_every == 0):
            self.checkpoint_hook(self._round_id)

    def _walk(self, start: Operator) -> bool:
        progress = False
        current = start
        execute = True
        bus = self.bus
        registry = self.graph.registry
        clock, deliver_due = self.clock, self.deliver_due
        round_id, sources = self._round_id, self._source_nodes
        dead: set[Operator] = set()
        dead_stamp = registry.mutations
        while True:
            if deliver_due is not None:
                now = clock.now()
                if now != self._pumped_at or round_id != self._pumped_round:
                    self._pumped_at, self._pumped_round = now, round_id
                    deliver_due(now)
            stamp = registry.mutations
            if stamp != dead_stamp:
                dead_stamp = stamp
                dead.clear()
            if current in sources:
                nxt = None
                for buf, succ in current.forward_pairs:
                    if buf and succ not in dead:
                        nxt = succ
                        break
                if nxt is not None:
                    if bus is not None:
                        bus.nos_decision(decision="forward",
                                         operator=nxt.name,
                                         round_id=self._round_id,
                                         time=self.clock.now())
                    current, execute = nxt, True
                    continue
                if current in dead:
                    return progress
                dead.add(current)
                if self._try_ets(current):
                    progress = True
                    continue
                return progress
            if execute and current.more():
                self._step(current)
                progress = True
            else:
                if current in dead:
                    return progress
                dead.add(current)
            nxt = None
            for buf, succ in current.forward_pairs:
                if buf:
                    nxt = succ
                    break
            if nxt is not None:
                if bus is not None:
                    bus.nos_decision(decision="forward", operator=nxt.name,
                                     round_id=self._round_id,
                                     time=self.clock.now())
                current, execute = nxt, True
                continue
            if current.more():
                if bus is not None:
                    bus.nos_decision(decision="encore", operator=current.name,
                                     round_id=self._round_id,
                                     time=self.clock.now())
                execute = True
                continue
            if not current.inputs:
                return progress
            j = current.stalled_input_index()
            pred = current.predecessors[j]
            if pred is None:
                return progress
            if bus is not None:
                bus.nos_decision(decision="backtrack", operator=pred.name,
                                 round_id=self._round_id,
                                 time=self.clock.now(),
                                 detail=f"stalled input {j} of "
                                        f"{current.name}")
            current, execute = pred, False

    def _step(self, op: Operator, limit: int | None = None) -> BatchResult:
        run = op.execute_block(self.ctx, limit or self.batch_size)
        stats = self.stats
        stats.blocks += 1
        stats.block_rows += run.consumed_data
        stats.steps += run.steps
        stats.data_steps += run.consumed_data
        stats.punct_steps += run.consumed_punctuation
        stats.probes += run.probes
        stats.probes_emitted += run.probes_emitted
        stats.emitted_data += run.emitted_data
        stats.emitted_punctuation += run.emitted_punctuation
        per_op = stats.per_operator_steps
        per_op[op.name] = per_op.get(op.name, 0) + run.steps
        cost = 0.0
        if self.cost_model is not None:
            cost = self.cost_model.batch_cost(op, run)
            if cost:
                self.clock.advance(cost)
                stats.busy_time += cost
        if self.bus is not None and run.steps:
            shape = ({"kind": "block", "steps": run.steps}
                     if self.batch_size > 1 else
                     {"kind": "punct" if run.consumed_punctuation else "data"})
            self.bus.step(
                operator=op.name, round_id=self._round_id,
                time=self.clock.now(), **shape,
                probes=run.probes, probes_emitted=run.probes_emitted,
                emitted_data=run.emitted_data,
                emitted_punctuation=run.emitted_punctuation,
                duration=cost)
        if self.idle_tracker is not None:
            self.idle_tracker.refresh(self.clock.now())
        return run

    def _try_ets(self, source: SourceNode) -> bool:
        offered = self.offer_ets_always or any(
            op.idle_waiting() for op in self._iwp_ops)
        injected = False
        if offered:
            self.stats.ets_offers += 1
            injected = self.ets_policy.on_source_stalled(
                source, self.clock.now(), self._round_id)
        if injected:
            self.stats.ets_injected += 1
            if self.cost_model is not None:
                cost = self.cost_model.ets_generation
                if cost:
                    self.clock.advance(cost)
                    self.stats.busy_time += cost
            self._refresh_idle()
        if self.bus is not None:
            self.bus.ets(operator=source.name, round_id=self._round_id,
                         time=self.clock.now(), injected=injected,
                         offered=offered)
            if injected:
                self.bus.punctuation(
                    operator=source.name, round_id=self._round_id,
                    time=self.clock.now(), origin="ets")
        return injected

    def _pump_due(self) -> None:
        if self.deliver_due is not None:
            now = self.clock.now()
            if now != self._pumped_at or self._round_id != self._pumped_round:
                self._pumped_at, self._pumped_round = now, self._round_id
                self.deliver_due(now)

    def _refresh_idle(self) -> None:
        if self.idle_tracker is not None:
            self.idle_tracker.refresh(self.clock.now())
