"""The query-graph execution engine (paper Sections 3–4).

The engine implements the two-step cycle of paper Fig. 3 — *execute the
current operator, then select the next operator* — with the depth-first
Next-Operator-Selection (NOS) rules:

* **Forward**: if ``yield`` (the operator's output buffer holds tuples),
  the next operator is the successor consuming that buffer;
* **Encore**: else if ``more`` (processable input remains), re-execute the
  same operator;
* **Backtrack**: else move to the predecessor — for multi-input operators,
  to ``pred_j`` where *j* is the input whose emptiness gates progress — and
  repeat the NOS step there *without* executing.

When backtracking reaches a source node whose buffer is empty, the engine
consults its :class:`~repro.core.ets.EtsPolicy`.  Under
:class:`~repro.core.ets.OnDemandEts` the source injects a punctuation
carrying a fresh ETS, and the very next Forward step carries it down the
path that was just backtracked — this integration of timestamp management
with the execution model is the paper's core contribution.

The engine is also the simulation's CPU: every step charges simulated time
through the :class:`~repro.sim.cost.CostModel`, and a ``deliver_due`` hook
lets the kernel feed arrivals that became due while the engine was busy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Callable

from ..obs.bus import EventBus, Observer
from .config import EngineConfig
from .errors import ExecutionError
from .ets import EtsPolicy, NoEts
from .graph import QueryGraph
from .operators.base import BatchResult, OpContext, Operator
from .operators.source import SourceNode

__all__ = ["EngineStats", "ExecutionEngine"]


@dataclass(slots=True)
class EngineStats:
    """Counters describing everything the engine has done so far.

    Attributes:
        rounds: Wake-up rounds executed.
        steps: Operator execution steps performed.
        data_steps / punct_steps: Steps that consumed a data tuple vs a
            punctuation tuple.
        probes: Window tuples examined across all joins (bucket-sized under
            indexed equality joins, window-sized under scan joins).
        probes_emitted: Examined candidates that passed the join condition
            and produced an output tuple.  The examined-vs-emitted gap is
            the wasted probe work a hash index removes.
        ets_offers: Times a stalled source consulted the ETS policy.
        ets_injected: Times the policy actually injected a punctuation.
        busy_time: Simulated CPU seconds consumed by operator steps.
        quarantine_dropped / quarantine_clamped: Regressed-timestamp tuples
            absorbed by the quarantine policy instead of crashing ingest.
        invariant_violations: Violations the invariant monitor recorded in
            degrade mode (halt mode raises instead of counting here).
        blocks / block_rows: Kernel calls (one per execution step, a run
            of up to ``batch_size`` elements) and the data rows they
            consumed.
        block_fallbacks: Always 0: every operator runs its one kernel.
            Kept because the frozen benchmark reads it.
    """

    rounds: int = 0
    steps: int = 0
    data_steps: int = 0
    punct_steps: int = 0
    probes: int = 0
    probes_emitted: int = 0
    ets_offers: int = 0
    ets_injected: int = 0
    busy_time: float = 0.0
    emitted_data: int = 0
    emitted_punctuation: int = 0
    quarantine_dropped: int = 0
    quarantine_clamped: int = 0
    invariant_violations: int = 0
    blocks: int = 0
    block_rows: int = 0
    block_fallbacks: int = 0
    per_operator_steps: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """Every counter under its canonical ``snake_case`` name.

        This is the one serialized shape the metrics registry, the
        exporters, and the report helpers consume.
        """
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def snapshot_state(self) -> dict:
        """Versioned snapshot of every counter (checkpointing)."""
        state = self.as_dict()
        state["per_operator_steps"] = dict(self.per_operator_steps)
        state["version"] = 1
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`.

        Keys this version no longer has (the per-operator fallback
        attribution, the heartbeat-ladder counters) are ignored, so older
        version-1 checkpoints restore without a version bump.
        """
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported EngineStats state: {state!r}")
        for f in dataclass_fields(self):
            if f.name == "per_operator_steps":
                self.per_operator_steps = dict(state[f.name])
            elif f.name in ("blocks", "block_rows", "block_fallbacks"):
                # Columnar counters postdate snapshot version 1; default
                # them so pre-columnar checkpoints keep restoring.
                setattr(self, f.name, state.get(f.name, 0))
            else:
                setattr(self, f.name, state[f.name])


class ExecutionEngine:
    """Single-threaded DFS executor for one query graph.

    Args:
        graph: A validated (or validatable) :class:`QueryGraph`.
        clock: The virtual clock; advanced by the cost model per step.
        cost_model: CPU pricing; None means free (purely logical execution).
        idle_tracker: Optional :class:`~repro.obs.idle.IdleTracker`
            refreshed at every state change the engine causes.
        deliver_due: Kernel hook invoked with the current time between steps
            so arrivals that became due while the engine was busy enter
            their buffers at the right moment.
        offer_ets_always: When False (default), the ETS policy is consulted
            only while some IWP operator is idle-waiting on pending *data* —
            ETS exists to reactivate idle-waiting operators, and generating
            one with nothing to unblock is pure overhead.  Set True for the
            fidelity ablation where every dead-ended backtrack offers.
        monitor: Optional :class:`~repro.faults.monitors.InvariantMonitor`
            (already installed on the graph); its per-round checks run at
            the end of every wake-up, and degrade-mode violations are
            counted into :attr:`EngineStats.invariant_violations`.
        config / **knobs: The shared knobs, declared and documented on
            :class:`~repro.core.config.EngineConfig` (``ets_policy``,
            ``batch_size``, ``observers``, ``feedback``,
            ``checkpoint_every``, ``max_steps_per_round``): ``config``
            carries them, keywords are ``config.replace``.
    """

    def __init__(self, graph: QueryGraph, clock, *, cost_model=None,
                 idle_tracker=None,
                 deliver_due: Callable[[float], None] | None = None,
                 offer_ets_always: bool = False,
                 monitor=None,
                 config: EngineConfig | None = None, **knobs) -> None:
        config = (config or EngineConfig()).replace(**knobs)
        if not graph.is_validated:
            graph.validate()
        self.graph = graph
        self.clock = clock
        self.cost_model = cost_model
        policy = config.per_engine("ets_policy")
        self.ets_policy: EtsPolicy = policy if policy is not None else NoEts()
        self.idle_tracker = idle_tracker
        self.deliver_due = deliver_due
        self.offer_ets_always = offer_ets_always
        self.batch_size = config.batch_size
        self.monitor = monitor
        self.max_steps_per_round = config.max_steps_per_round
        #: Checkpoint cadence in wake-up rounds; None disables.  The actual
        #: writing is delegated to :attr:`checkpoint_hook` (installed by a
        #: bound :class:`~repro.recovery.RecoveryManager`), keeping the
        #: engine free of any storage dependency.
        self.checkpoint_every = config.checkpoint_every
        self.checkpoint_hook: Callable[[int], None] | None = None
        #: Optional :class:`~repro.feedback.FeedbackController` sampled at
        #: the end of every wake-up.  None — the default — keeps the engine
        #: entirely feedback-free (and byte-identical to pre-feedback runs).
        self.feedback = config.per_engine("feedback")
        if self.feedback is not None:
            self.feedback.bind(graph, self)
        self.stats = EngineStats()
        self.ctx = OpContext(clock=clock)
        self._round_id = 0
        #: Clock reading and round of the last ``deliver_due`` call.
        self._pumped_at: float | None = None
        self._pumped_round = 0
        self._iwp_ops = graph.iwp_operators()
        self._source_nodes = frozenset(graph.sources())
        self._executable = [op for op in graph.operators
                            if op not in self._source_nodes]
        self.bus: EventBus | None = (EventBus(config.observers)
                                     if config.observers else None)
        self._buffer_forward = None
        self._wire_buffer_events()
        if monitor is not None and self.bus is not None \
                and getattr(monitor, "bus", None) is None:
            monitor.bus = self.bus

    def attach_observer(self, observer: Observer) -> "ExecutionEngine":
        """Attach one observer, creating the event bus on first use."""
        if self.bus is None:
            self.bus = EventBus()
        self.bus.attach(observer)
        self._wire_buffer_events()
        if self.monitor is not None \
                and getattr(self.monitor, "bus", None) is None:
            self.monitor.bus = self.bus
        return self

    def _wire_buffer_events(self) -> None:
        """Feed buffer-occupancy changes to the bus iff someone listens."""
        bus = self.bus
        if bus is None or self._buffer_forward is not None \
                or not bus.listens("on_buffer_change"):
            return
        registry, clock = self.graph.registry, self.clock

        def forward(total: int) -> None:
            bus.buffer_change(total=total, time=clock.now())

        self._buffer_forward = forward
        registry.add_observer(forward)

    # ------------------------------------------------------------------ #
    # Public API

    @property
    def round_id(self) -> int:
        return self._round_id

    def wakeup(self, entry: SourceNode | Operator | None = None) -> None:
        """Run the engine to quiescence.

        Args:
            entry: Optional hint — the source (or operator) where new input
                just appeared; the DFS starts there.  Work elsewhere in the
                graph is found by scanning once the entry path quiesces.
        """
        self._round_id += 1
        self.stats.rounds += 1
        if self.cost_model is not None:
            self.clock.advance(self.cost_model.scheduling_overhead)
        if self.bus is not None:
            self.bus.wakeup(round_id=self._round_id, time=self.clock.now(),
                            entry=entry.name if entry is not None else None)
        self._refresh_idle()
        steps_before = self.stats.steps

        if entry is not None:
            self._walk(entry)
        while True:
            self._pump_due()
            progressed = False
            for op in self._executable:
                if op.more():
                    progressed = self._walk(op) or progressed
            if not progressed:
                # No operator can execute; give idle-waiting IWP operators a
                # chance to trigger on-demand ETS through backtracking.
                for op in self._iwp_ops:
                    if op.idle_waiting():
                        progressed = self._walk(op) or progressed
            if not progressed:
                break
            if (self.max_steps_per_round is not None
                    and self.stats.steps - steps_before
                    >= self.max_steps_per_round):
                raise ExecutionError(
                    f"engine exceeded {self.max_steps_per_round} steps in one "
                    "round; livelock or undersized budget"
                )
        self._refresh_idle()
        if self.feedback is not None:
            # Feedback sampling happens at quiescence: reactions only turn
            # knobs (drop budgets, slack, admission rates) for *future*
            # input, so the completed round's output is already settled.
            self.feedback.sample(self.clock.now(), self._round_id)
        if self.monitor is not None:
            # Halt-mode monitors raise out of the wake-up; degrade-mode
            # violations are only counted (and traced by the monitor).
            self.stats.invariant_violations += self.monitor.check(
                self.clock.now())
        if self.bus is not None:
            self.bus.quiesce(round_id=self._round_id, time=self.clock.now())
        if (self.checkpoint_every is not None
                and self.checkpoint_hook is not None
                and self._round_id % self.checkpoint_every == 0):
            self.checkpoint_hook(self._round_id)

    def snapshot_state(self) -> dict:
        """Versioned snapshot of engine progress (stats + round counter)."""
        state = {
            "version": 1,
            "round_id": self._round_id,
            "stats": self.stats.snapshot_state(),
        }
        if self.feedback is not None:
            state["feedback"] = self.feedback.snapshot_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported ExecutionEngine state: {state!r}")
        self._round_id = state["round_id"]
        self.stats.restore_state(state["stats"])
        feedback_state = state.get("feedback")
        if feedback_state is not None and self.feedback is not None:
            self.feedback.restore_state(feedback_state)

    def run_to_quiescence(self) -> None:
        """Alias for ``wakeup()`` with no entry hint (useful in tests)."""
        self.wakeup()

    # ------------------------------------------------------------------ #
    # DFS walk implementing the NOS rules

    def _walk(self, start: Operator) -> bool:
        """Run the Execute/Continue cycle from ``start`` until a dead end.

        Returns True when any step executed or any ETS was injected.

        NOS transitions are published to the event bus right here — the
        single walk implementation serves tracing, metrics, and exporters
        alike, and a missing observer costs one ``is None`` test per
        decision.
        """
        progress = False
        current = start
        execute = True  # False right after Backtrack ("repeat the NOS step")
        bus = self.bus
        registry = self.graph.registry
        clock, deliver_due = self.clock, self.deliver_due
        round_id, sources = self._round_id, self._source_nodes
        step = self._step
        # Operators (and sources) visited without executing since the last
        # buffer mutation.  Re-reaching one means the NOS rules are cycling
        # through a topology where Forward and Backtrack chase each other —
        # a source feeding two consumers (diamond) does exactly that when
        # one arm stalls gated on the other.  Any buffer change invalidates
        # the set: new state means a dead operator may now execute.
        dead: set[Operator] = set()
        dead_stamp = registry.mutations
        while True:
            # The pump (_pump_due, inlined): its place before the NOS
            # decision is observable, and it fires only on a clock change.
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
                # Forward to a live successor not dead-ended in this state
                # (a stalled diamond must reach the ETS consultation).
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
                # Every live successor is dead-ended: this is the genuine
                # stalled-source dead end the ETS hook exists for, even when
                # some output buffer is nonempty (diamond topologies).
                if current in dead:
                    return progress
                dead.add(current)
                if self._try_ets(current):
                    progress = True
                    continue  # the injected punctuation enables Forward
                return progress

            # [Execution Step] — a run of up to batch_size elements, never
            # across the next punctuation; batch_size=1 is the paper's
            # one element per step.
            if execute and current.more():
                step(current)
                progress = True
            else:
                # Visited without executing: a second visit in the same
                # buffer state would retrace the identical continuation.
                if current in dead:
                    return progress
                dead.add(current)

            # [Continuation Step] — NOS rules.  Forward: the successor
            # consuming a nonempty output buffer (the precomputed
            # ``forward_pairs`` arcs with a live consumer).
            nxt = None
            for buf, succ in current.forward_pairs:
                if buf:
                    nxt = succ
                    break
            if nxt is not None:  # Forward
                if bus is not None:
                    bus.nos_decision(decision="forward", operator=nxt.name,
                                     round_id=self._round_id,
                                     time=self.clock.now())
                current, execute = nxt, True
                continue
            if current.more():  # Encore
                if bus is not None:
                    bus.nos_decision(decision="encore", operator=current.name,
                                     round_id=self._round_id,
                                     time=self.clock.now())
                execute = True
                continue
            # Backtrack: to the predecessor feeding the gating input.
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
        """One execution step: ``op``'s kernel over a run of up to
        ``limit`` (default ``batch_size``) elements.

        Stats count per-element steps and the cost model charges per
        tuple, so EngineStats and simulated time do not depend on the run
        width; only wall-clock dispatch is amortized.  A one-element step
        publishes its ``on_step`` as ``"data"`` or ``"punct"``; a
        ``batch_size > 1`` engine publishes ``"block"`` with the run length.
        """
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

    # ------------------------------------------------------------------ #
    # ETS integration (the Backtrack-to-source hook)

    def _try_ets(self, source: SourceNode) -> bool:
        offered = self.offer_ets_always or self._ets_needed()
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

    def _ets_needed(self) -> bool:
        """Is any IWP operator idle-waiting on pending data right now?"""
        for op in self._iwp_ops:
            if op.idle_waiting():
                return True
        return False

    # ------------------------------------------------------------------ #
    # Bookkeeping hooks

    def _pump_due(self) -> None:
        """Let the kernel deliver what became due — iff something can have.

        Within a wake-up an event becomes due only when the clock moves, so
        a pump at an unchanged reading is skipped.  The first pump of a
        wake-up always delivers: a raised ``run(until)`` horizon or an
        ad-hoc ``schedule_arrival`` makes events due with the clock still.
        """
        if self.deliver_due is not None:
            now = self.clock.now()
            if now != self._pumped_at or self._round_id != self._pumped_round:
                self._pumped_at, self._pumped_round = now, self._round_id
                self.deliver_due(now)

    def _refresh_idle(self) -> None:
        if self.idle_tracker is not None:
            self.idle_tracker.refresh(self.clock.now())
