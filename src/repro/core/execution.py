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
from types import SimpleNamespace
from typing import Callable

from ..obs.bus import EventBus, Observer, bound_emitters
from .config import EngineConfig
from .errors import ExecutionError
from .ets import EtsPolicy, NoEts
from .graph import QueryGraph
from .operators.base import BatchResult, IwpOperator, OpContext, Operator
from .operators.source import SourceNode

__all__ = ["EngineStats", "ExecutionEngine"]

_INF = float("inf")
#: The pump's due time without a kernel queue: always due.
_ALWAYS_DUE = SimpleNamespace(due=-_INF)


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
            (the gap to ``probes`` is the work a hash index removes).
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
        block_fallbacks: Always 0 (every operator runs its one kernel);
            kept because the frozen benchmark reads it.
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
        """Every counter under its canonical ``snake_case`` name: the one
        shape the metrics registry, exporters and reports consume."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def snapshot_state(self) -> dict:
        """Versioned snapshot of every counter (checkpointing)."""
        state = self.as_dict()
        state["per_operator_steps"] = dict(self.per_operator_steps)
        state["version"] = 1
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`; keys this
        version no longer has (per-operator fallbacks, heartbeat-ladder
        counters) are ignored, so older version-1 checkpoints restore."""
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
            refreshed at every state change that can move a tracked gate.
        deliver_due: Kernel hook invoked with the current time between steps
            once :attr:`event_queue` says an arrival (or heartbeat) fell due
            while the engine was busy, so it enters its buffer on time.
        monitor: Optional :class:`~repro.faults.monitors.InvariantMonitor`
            (installed on the graph), checked at the end of every wake-up;
            degrade-mode violations count into ``invariant_violations``.
        config / **knobs: The shared knobs, declared and documented on
            :class:`~repro.core.config.EngineConfig` (``ets_policy``,
            ``batch_size``, ``observers``, ``feedback``,
            ``checkpoint_every``, ``max_steps_per_round``): ``config``
            carries them, keywords are ``config.replace``.
    """

    def __init__(self, graph: QueryGraph, clock, *, cost_model=None,
                 idle_tracker=None,
                 deliver_due: Callable[[float], None] | None = None,
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
        #: Where the pump reads the time the next event falls due: the
        #: kernel sets its :class:`~repro.sim.events.EventQueue` here.
        self.event_queue = _ALWAYS_DUE
        self.batch_size = config.batch_size
        self.monitor = monitor
        self.max_steps_per_round = config.max_steps_per_round
        #: Checkpoint cadence in wake-up rounds; None disables.  The writing
        #: is :attr:`checkpoint_hook`'s (a bound RecoveryManager installs it).
        self.checkpoint_every = config.checkpoint_every
        self.checkpoint_hook: Callable[[int], None] | None = None
        #: Optional :class:`~repro.feedback.FeedbackController` sampled at
        #: the end of every wake-up; None keeps the engine feedback-free.
        self.feedback = config.per_engine("feedback")
        if self.feedback is not None:
            self.feedback.bind(graph, self)
        self.stats = EngineStats()
        #: ``(operator, run)`` per step of the wake-up in progress, folded
        #: into :attr:`stats` when it ends (:meth:`_fold_runs`).
        self._runs: list[tuple[Operator, BatchResult]] = []
        self.ctx = OpContext(clock=clock)
        self._round_id = 0
        self._budget_end = _INF
        sources = graph.sources()
        # One NOS record per node: ``(is_source, input, backtrack, gated)``.
        # A single-input node with the base ``more``/``stalled_input_index``
        # holds its input buffer and Backtrack target.  A ``gated`` node is
        # a relaxed IWP operator with the base gate conditions: its ``more``
        # and ``idle_waiting`` are read off the memoised gate tuple.  Others
        # are asked.
        single = (Operator.more, Operator.stalled_input_index)
        gate = (IwpOperator.more, IwpOperator.stalled_input_index,
                IwpOperator.idle_waiting)
        self._nodes = {}
        for op in graph.operators:
            cls = type(op)
            if op in sources:
                record = (True, None, None, False)
            elif len(op.inputs) == 1 and single == (
                    cls.more, cls.stalled_input_index):
                record = (False, op.inputs[0], op.predecessors[0], False)
            else:
                record = (False, None, None, isinstance(op, IwpOperator)
                          and not op.strict and gate == (
                              cls.more, cls.stalled_input_index,
                              cls.idle_waiting))
            self._nodes[op] = record
        self._executable = [(op, record[1], record[3])
                            for op, record in self._nodes.items()
                            if not record[0]]
        #: ``(operator, gated)`` per IWP operator, for the idle questions.
        self._iwp_gated = [(op, self._nodes[op][3])
                           for op in graph.iwp_operators()]
        # Per-operator (data, punct, probe) prices of the cost model
        # ``_priced``; whether a pump delivered since the last idle refresh.
        self._priced = self._prices = None
        self._idle_stale = False
        self.bus: EventBus | None = (EventBus(config.observers)
                                     if config.observers else None)
        self._sync_hooks()
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
        self._sync_hooks()
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

    def _sync_hooks(self) -> None:
        """Bind the engine's six emitters, None where no observer overrides
        the hook; :meth:`_begin_round` re-binds them when attach/detach has
        rebuilt the bus's subscription table since."""
        bus = self.bus
        self._hooked = bus._subscribers if bus is not None else None
        (self._on_nos, self._on_step, self._on_ets, self._on_punct,
         self._on_wakeup, self._on_quiesce) = bound_emitters(
            bus, "nos_decision", "step", "ets", "punctuation", "wakeup",
            "quiesce")

    # ------------------------------------------------------------------ #
    # Public API

    @property
    def round_id(self) -> int:
        return self._round_id

    def wakeup(self, entry: SourceNode | Operator | None = None) -> None:
        """Run the engine to quiescence.  ``entry`` is an optional hint —
        the source (or operator) where new input just appeared; the DFS
        starts there, and a scan finds work elsewhere afterwards."""
        self._begin_round()
        try:
            if self.cost_model is not None:
                self.clock.advance(self.cost_model.scheduling_overhead)
            if self._on_wakeup is not None:
                self._on_wakeup(round_id=self._round_id,
                                time=self.clock.now(),
                                entry=entry.name if entry is not None
                                else None)
            self._refresh_idle()
            if entry is not None:
                self._walk(entry)
            while True:
                self._pump_due()
                progressed = False
                for op, buf, gated in self._executable:
                    if (buf._items if buf is not None else
                            (op._gate or op._evaluate_gate())[3] is not None
                            if gated else op.more()):
                        progressed = self._walk(op) or progressed
                if not progressed:
                    # Nothing can execute: idle-waiting IWP operators
                    # backtrack.
                    for op, gated in self._iwp_gated:
                        if ((op._gate or op._evaluate_gate())[4] if gated
                                else op.idle_waiting()):
                            progressed = self._walk(op) or progressed
                if not progressed:
                    break
        finally:
            self._fold_runs()
        self._refresh_idle()
        if self.feedback is not None:
            # At quiescence: reactions turn knobs for *future* input only.
            self.feedback.sample(self.clock.now(), self._round_id)
        if self.monitor is not None:
            # Halt mode raises; degrade-mode violations are only counted.
            self.stats.invariant_violations += self.monitor.check(
                self.clock.now())
        if self._on_quiesce is not None:
            self._on_quiesce(round_id=self._round_id, time=self.clock.now())
        if (self.checkpoint_every is not None
                and self.checkpoint_hook is not None
                and self._round_id % self.checkpoint_every == 0):
            self.checkpoint_hook(self._round_id)

    def snapshot_state(self) -> dict:
        """Versioned snapshot of engine progress (stats + round counter)."""
        state = {"version": 1, "round_id": self._round_id,
                 "stats": self.stats.snapshot_state()}
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

    # ------------------------------------------------------------------ #
    # DFS walk implementing the NOS rules

    def _walk(self, start: Operator) -> bool:
        """Run the Execute/Continue cycle from ``start`` until a dead end;
        True when any step executed or any ETS was injected.  A single-input
        node's ``more`` is a read of its input buffer, a gated node's a read
        of its gate memo; others are asked."""
        progress, current = False, start
        execute = True  # False right after Backtrack ("repeat the NOS step")
        nodes, registry, clock = self._nodes, self.graph.registry, self.clock
        deliver_due, queue = self.deliver_due, self.event_queue
        nos, step, round_id = self._on_nos, self._step, self._round_id
        # Nodes visited without executing since the last buffer mutation.
        # Re-reaching one means Forward and Backtrack chase each other (a
        # source feeding both arms of a diamond, one arm stalled); any
        # buffer change clears the set, as a dead node may now execute.
        dead: set[Operator] = set()
        dead_stamp = registry._mutations  # the registry's mutation stamp
        # Buffers and clock move only by a step, an ETS injection or a
        # delivery; only then are the pump (_pump_due, inlined) and the
        # stamp looked at.  A delivery that moved the clock may make more due.
        fresh = True
        while True:
            if fresh:
                fresh = False
                if deliver_due is not None:
                    now = clock.now()
                    if queue.due <= now:
                        self._idle_stale = True
                        deliver_due(now)
                        fresh = clock.now() != now
                stamp = registry._mutations
                if stamp != dead_stamp:
                    dead_stamp = stamp
                    dead.clear()
            source, buf, pred, gated = nodes[current]
            nxt = None
            if source:
                # Forward to a live successor not dead-ended in this state.
                for out, succ in current.forward_pairs:
                    if out._items and succ not in dead:
                        nxt = succ
                        break
                if nxt is None:
                    # A stalled source: the dead end the ETS hook exists
                    # for, even with an output nonempty (diamonds).
                    if current in dead:
                        return progress
                    dead.add(current)
                    if self._try_ets(current):
                        progress = fresh = True
                        continue  # the injected punctuation enables Forward
                    return progress
            else:
                # [Execution Step] — a run of up to batch_size elements,
                # never across a punctuation (batch_size=1: the paper's).
                if execute and (
                        buf._items if buf is not None else
                        (current._gate or current._evaluate_gate())[3]
                        is not None if gated else current.more()):
                    step(current)
                    progress = fresh = True
                else:
                    # A second such visit would retrace the same path.
                    if current in dead:
                        return progress
                    dead.add(current)
                # [Continuation Step] — NOS rules.  Forward: the successor
                # consuming a nonempty output buffer.
                for out, succ in current.forward_pairs:
                    if out._items:
                        nxt = succ
                        break
            if nxt is not None:  # Forward
                if nos is not None:
                    nos(decision="forward", operator=nxt.name,
                        round_id=round_id, time=clock.now())
                current, execute = nxt, True
                continue
            if (buf._items if buf is not None else  # Encore
                    (current._gate or current._evaluate_gate())[3]
                    is not None if gated else current.more()):
                if nos is not None:
                    nos(decision="encore", operator=current.name,
                        round_id=round_id, time=clock.now())
                execute = True
                continue
            # Backtrack: to the predecessor feeding the gating input.
            j = 0
            if buf is None:
                if not current._ports.inputs:
                    return progress
                j = current.stalled_input_index()
                pred = current.predecessors[j]
            if pred is None:
                return progress
            if nos is not None:
                nos(decision="backtrack", operator=pred.name,
                    round_id=round_id, time=clock.now(),
                    detail=f"stalled input {j} of {current.name}")
            current, execute = pred, False

    def _step(self, op: Operator, limit: int | None = None) -> BatchResult:
        """One execution step: ``op``'s kernel over a run of up to
        ``limit`` (default ``batch_size``) elements.

        Stats count per-element steps and the cost model charges per
        tuple, so neither depends on the run width.  ``on_step`` is
        ``"data"``/``"punct"`` at ``batch_size=1``, else ``"block"`` with
        the run length.  Taking the wake-up past ``max_steps_per_round``
        raises.
        """
        run = op.execute_block(self.ctx, limit or self.batch_size)
        # ``steps`` is read mid-wake-up (the budget); the other counters
        # are folded in when the wake-up ends.
        stats = self.stats
        stats.steps += run.steps
        self._runs.append((op, run))
        cost, now = 0.0, None
        model = self.cost_model
        if model is not None:
            if model is not self._priced:  # resolved once per model
                from ..sim.cost import CostModel
                self._priced, self._prices = model, (
                    {node: model.price(node) for node in self.graph.operators}
                    if type(model).batch_cost is CostModel.batch_cost
                    else {})
            price = self._prices.get(op)
            if price is None:  # an interposed model prices each step itself
                cost = model.batch_cost(op, run)
            else:
                data, punct, probe = price
                cost = (run.consumed_data * data
                        + run.consumed_punctuation * punct
                        + run.probes * probe)
            if cost:
                now = self.clock.advance(cost)
                stats.busy_time += cost
        on_step = self._on_step
        if on_step is not None and run.steps:
            shape = ({"kind": "block", "steps": run.steps}
                     if self.batch_size > 1 else
                     {"kind": "punct" if run.consumed_punctuation else "data"})
            on_step(operator=op.name, round_id=self._round_id,
                    time=self.clock.now(), **shape,
                    probes=run.probes, probes_emitted=run.probes_emitted,
                    emitted_data=run.emitted_data,
                    emitted_punctuation=run.emitted_punctuation,
                    duration=cost)
        tracker = self.idle_tracker
        if tracker is not None and (self._idle_stale
                                    or op in tracker.feeders):
            self._idle_stale = False  # this step or a delivery moved a gate
            tracker.refresh(self.clock.now() if now is None else now)
        if stats.steps > self._budget_end:
            raise ExecutionError(
                f"engine exceeded {self.max_steps_per_round} steps in one "
                "round; livelock or undersized budget")
        return run

    # ------------------------------------------------------------------ #
    # ETS integration (the Backtrack-to-source hook)

    def _try_ets(self, source: SourceNode) -> bool:
        # Offer only while some IWP operator idle-waits on pending data: an
        # ETS with nothing to unblock is pure overhead.
        offered = False
        for op, gated in self._iwp_gated:
            if ((op._gate or op._evaluate_gate())[4] if gated
                    else op.idle_waiting()):
                offered = True
                break
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
        if self._on_ets is not None:
            self._on_ets(operator=source.name, round_id=self._round_id,
                         time=self.clock.now(), injected=injected,
                         offered=offered)
        if injected and self._on_punct is not None:
            self._on_punct(operator=source.name, round_id=self._round_id,
                           time=self.clock.now(), origin="ets",
                           ts=source.watermark)
        return injected

    # ------------------------------------------------------------------ #
    # Bookkeeping hooks

    def _fold_runs(self) -> None:
        """Add the wake-up's runs to the step counters nothing reads
        before it ends (``steps`` itself is counted per step)."""
        runs = self._runs
        if not runs:
            return
        stats = self.stats
        per_op = stats.per_operator_steps
        data = punct = probes = matched = emitted = forwarded = 0
        for op, run in runs:
            data += run.consumed_data
            punct += run.consumed_punctuation
            probes += run.probes
            matched += run.probes_emitted
            emitted += run.emitted_data
            forwarded += run.emitted_punctuation
            per_op[op.name] = per_op.get(op.name, 0) + run.steps
        stats.blocks += len(runs)
        stats.block_rows += data
        stats.data_steps += data
        stats.punct_steps += punct
        stats.probes += probes
        stats.probes_emitted += matched
        stats.emitted_data += emitted
        stats.emitted_punctuation += forwarded
        runs.clear()

    def _begin_round(self) -> None:
        """Count a wake-up, re-bind the emitters if the bus's subscription
        table changed, open the step budget."""
        self._round_id += 1
        self.stats.rounds += 1
        bus = self.bus
        if (bus._subscribers if bus is not None else None) \
                is not self._hooked:
            self._sync_hooks()
        budget = self.max_steps_per_round
        self._budget_end = (_INF if budget is None
                            else self.stats.steps + budget)

    def _pump_due(self) -> None:
        """Let the kernel deliver what fell due — iff something has."""
        if self.deliver_due is not None:
            now = self.clock.now()
            if self.event_queue.due <= now:
                self._idle_stale = True
                self.deliver_due(now)

    def _refresh_idle(self) -> None:
        """Bring the idle tracker to the current instant.

        A refresh judges only gates dropped since it last judged; when
        there is none, all it would do is move the tracker's
        :attr:`~repro.obs.idle.IdleTracker.last_seen`, so that is done
        here instead of the call.
        """
        tracker = self.idle_tracker
        if tracker is None:
            return
        self._idle_stale = False
        now = self.clock.now()
        judged = tracker.judged
        for i, op in enumerate(tracker.tracked):
            gate = op._gate
            if gate is None or gate is not judged[i]:
                tracker.refresh(now)
                return
        if now > tracker.last_seen:
            tracker.last_seen = now

