"""Operator base classes and the execution-step contract.

An operator is a node of the query graph.  Arcs are :class:`StreamBuffer`
instances; the operator at the tail *produces* into the buffer and the
operator at the head *consumes* from it.  The execution engine drives
operators through a narrow contract:

* :meth:`Operator.more` — the paper's ``more`` condition: does the operator
  have input it is allowed to process right now?  IWP operators implement the
  relaxed TSM-register condition of paper Fig. 5.
* :meth:`Operator.has_yield` — the paper's ``yield`` condition: is there
  anything in the operator's output buffers for a successor to consume?
* :meth:`Operator.execute_block` — perform the production/consumption
  steps (paper Figs. 1 and 6) of a run of up to ``batch_size`` elements on
  the columnar transport, and report what was done so the engine can charge
  simulated CPU cost per element.  ``batch_size == 1`` is a run of one
  element: the paper's tuple-at-a-time execution.
* :meth:`Operator.stalled_input_index` — when ``more`` is false, which input
  gates progress; the engine backtracks to that input's producer (the
  modified Backtrack rule of Section 3.2).
* :meth:`Operator.idle_waiting` — pending data behind a false ``more``: the
  one predicate on-demand ETS and idle accounting share.

:class:`IwpOperator` holds the gating of the Idle-Waiting-Prone operators
(union, join) once: the relaxed gate is memoised per operator and
invalidated by the input buffers' ``on_change`` hooks.

Operators never touch the clock or the cost model directly; everything they
need arrives through the :class:`OpContext` the engine passes in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..buffers import StreamBuffer
from ..columnar import ColumnarBlock
from ..errors import GraphError
from ..tuples import LATENT_TS, DataTuple, Punctuation
__all__ = ["BatchResult", "Clock", "OpContext", "Operator"]


class Clock(Protocol):
    """Anything with a ``now()`` returning the current stream time."""

    def now(self) -> float: ...


@dataclass(slots=True)
class OpContext:
    """Per-step context handed to operators by the engine.

    Attributes:
        clock: Source of "now" for latent stamping and window bookkeeping.
    """

    clock: Clock


@dataclass(slots=True)
class BatchResult:
    """What one execution step (a run of up to ``batch_size`` elements) did.

    The accounting is per element, so the cost model charges CPU per tuple
    — a run amortizes dispatch overhead, it does not make tuples cheaper in
    simulated time.

    Attributes:
        steps: Elements consumed — the paper's per-tuple steps this run is.
        consumed_data / consumed_punctuation: Elements removed from input
            buffers, by kind.
        probes: Window tuples *examined* across the whole run (join probe
            cost) — bucket-sized under an indexed equality join,
            window-sized under a scan join.
        probes_emitted: The subset of examined candidates that passed the
            join condition and produced an output tuple.  The
            examined-vs-emitted gap is the work the hash index removes.
        emitted_data / emitted_punctuation: Elements appended to output
            buffers (counted once per logical emission).

    The kernels on the per-arrival path build it with positional
    arguments, in this field order: binding keywords costs as much again
    as the construction, and there is one per execution step.
    """

    steps: int = 0
    consumed_data: int = 0
    consumed_punctuation: int = 0
    probes: int = 0
    probes_emitted: int = 0
    emitted_data: int = 0
    emitted_punctuation: int = 0


@dataclass(slots=True)
class _Ports:
    inputs: list[StreamBuffer] = field(default_factory=list)
    outputs: list[StreamBuffer] = field(default_factory=list)


class Operator:
    """Base class for all query-graph nodes.

    Sub-classes set :attr:`is_iwp` when they are Idle-Waiting Prone (union,
    join) and :attr:`arity` when they require a fixed number of inputs.

    Attributes:
        name: Unique name within the owning query graph.
        cost_class: Key into the simulation cost model; defaults to the
            lower-cased class name so each operator type can be priced
            individually.
    """

    #: True for operators that can idle-wait on timestamp skew (union, join).
    is_iwp: bool = False
    #: Required number of inputs; None means "one or more".
    arity: int | None = 1

    def __init__(self, name: str) -> None:
        self.name = name
        self._ports = _Ports()
        self.cost_class = type(self).__name__.lower()
        #: Producer operator per input index; wired by the query graph.
        self.predecessors: list["Operator | None"] = []
        #: Consumer operator per output index; wired by the query graph.
        self.successors: list["Operator | None"] = []
        #: Precomputed (output buffer, consumer) arcs with a live consumer.
        #: The engine's Forward rule walks this instead of re-zipping and
        #: re-filtering ``outputs``/``successors`` on every NOS decision.
        self.forward_pairs: tuple[tuple[StreamBuffer, "Operator"], ...] = ()

    # ------------------------------------------------------------------ #
    # Wiring (used by QueryGraph)

    @property
    def inputs(self) -> list[StreamBuffer]:
        return self._ports.inputs

    @property
    def outputs(self) -> list[StreamBuffer]:
        return self._ports.outputs

    def attach_input(self, buffer: StreamBuffer, producer: "Operator | None") -> None:
        if self.arity is not None and len(self._ports.inputs) >= self.arity:
            raise GraphError(
                f"operator {self.name!r} accepts {self.arity} input(s); "
                "attempted to attach more"
            )
        self._ports.inputs.append(buffer)
        self.predecessors.append(producer)

    def attach_output(self, buffer: StreamBuffer, consumer: "Operator | None") -> None:
        self._ports.outputs.append(buffer)
        self.successors.append(consumer)
        self.rebuild_forward_pairs()

    def rebuild_forward_pairs(self) -> None:
        """Refresh the precomputed Forward-rule lookup table.

        Called after every :meth:`attach_output` (and again by the query
        graph's ``validate``), so the table is correct for hand-wired
        operators in tests as well as graph-built ones.
        """
        self.forward_pairs = tuple(
            (buf, succ)
            for buf, succ in zip(self._ports.outputs, self.successors)
            if succ is not None
        )

    def validate_wiring(self) -> None:
        """Raise :class:`GraphError` unless the operator is fully wired."""
        if self.arity is not None and len(self._ports.inputs) != self.arity:
            raise GraphError(
                f"operator {self.name!r} needs {self.arity} input(s), "
                f"has {len(self._ports.inputs)}"
            )
        if self.arity is None and not self._ports.inputs:
            raise GraphError(f"operator {self.name!r} needs at least one input")

    # ------------------------------------------------------------------ #
    # NOS conditions

    def more(self) -> bool:
        """The ``more`` condition: is there processable input right now?

        The default suits single-input operators: any buffered element is
        processable.  IWP operators override this with the relaxed
        TSM-register condition.
        """
        for buf in self._ports.inputs:
            if buf:
                return True
        return False

    def has_yield(self) -> bool:
        """The ``yield`` condition: do the output buffers hold anything?"""
        return any(buf for buf in self._ports.outputs)

    def stalled_input_index(self) -> int:
        """Index of the input that gates progress when ``more`` is false.

        Single-input operators stall only on their sole input.
        """
        return 0

    def has_pending_data(self) -> bool:
        """True when any input buffer holds a *data* tuple.

        Idle-waiting is measured (and on-demand ETS is justified) in terms of
        data tuples stuck behind the timestamp gate; punctuation sitting in a
        buffer is bookkeeping, not user-visible delay.
        """
        for buf in self._ports.inputs:
            if buf.data_count:
                return True
        return False

    def idle_waiting(self) -> bool:
        """Idle-waiting: pending data behind a false ``more``.

        What on-demand ETS exists to end and what the idle tracker
        integrates over time — both read this one definition.
        """
        return self.has_pending_data() and not self.more()

    def state_floor(self) -> float:
        """Smallest timestamp that can still influence future output.

        An element stamped below it has left no trace in this operator that
        a later element or punctuation could read.  A live reshard replays
        only history at or above the minimum over a shard
        (:meth:`repro.core.graph.QueryGraph.state_floor`); it is read at
        quiescence and never on a wake-up path.  ``-inf`` — everything may
        matter, replay it all — unless the operator knows better; ``+inf``
        for one that retains no elements.
        """
        return float("-inf")

    def state_reach(self) -> float:
        """How far below an output's stamp the inputs that shaped it can lie.

        :meth:`state_floor` speaks of the stamps an operator *reads*; a
        holder fed by another operator retains derived elements, and the
        graph lowers its floor by the reach of everything upstream to get
        back to stamps of the source history.  ``0`` where stamps pass
        through unchanged, a time window's span for a join; ``inf`` — any
        input, however old, may have shaped an output — unless the operator
        knows better.
        """
        return float("inf")

    # ------------------------------------------------------------------ #
    # Execution

    def execute_block(self, ctx: OpContext, limit: int) -> BatchResult:
        """Consume a run of up to ``limit`` input elements in one step.

        Only called when :meth:`more` is true.  Every kernel shares the run
        boundary rules: stop after ``limit`` elements, when ``more`` turns
        false, or right after consuming a punctuation tuple (runs never
        cross punctuation — ETS information must reach the engine's NOS
        rules promptly).  A run must be observationally identical to the
        same elements consumed one per step: same elements consumed in the
        same order, same emissions in the same order.  Input arrives as
        :class:`~repro.core.columnar.ColumnarBlock` runs drained from the
        buffer, and data output should be pushed as blocks so downstream
        operators keep the amortization.
        """
        raise NotImplementedError(
            f"{type(self).__name__} {self.name!r} is not executable")

    # ------------------------------------------------------------------ #
    # Emission helpers

    def emit(self, element: ColumnarBlock | DataTuple | Punctuation) -> None:
        """Append ``element`` — a block of data rows, a data tuple or a
        punctuation — to every output buffer (replicating fan-out)."""
        if isinstance(element, ColumnarBlock):
            for buf in self._ports.outputs:
                buf.push_block(element)
        else:
            for buf in self._ports.outputs:
                buf.push(element)

    def emit_punctuation(self, punctuation: Punctuation) -> None:
        """Propagate a punctuation downstream, re-attributed to this operator."""
        copy = punctuation.reformatted(origin=self.name)
        for buf in self._ports.outputs:
            buf.push(copy)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


class IwpOperator(Operator):
    """Idle-Waiting-Prone operator: the TSM gate of paper Fig. 5, once.

    With τ the minimum over the inputs' gate timestamps (the head's when
    there is one, the TSM register's otherwise), the operator proceeds when
    some head is stamped τ; a latent head needs no timestamp and jumps the
    queue.  That gate is a pure function of the input buffers, so it is
    computed in one pass with one head read per input, memoised in
    :attr:`_gate`, and dropped by the buffers' ``on_change`` hooks: knowing
    it costs per *mutation*, not per question.  ``more``,
    ``stalled_input_index``, ``idle_waiting`` and the block kernels all
    read the memo.

    A ``strict`` operator (Fig.-1 rule: every input nonempty) never reads
    gates and is not hooked — its test is cheaper than a hook call per
    mutation.  ``strict`` is fixed at construction, before inputs attach.
    """

    is_iwp = True
    strict = False
    #: ``(latent, gates, tau, pick, idle)`` or None when stale — see
    #: :meth:`_evaluate_gate`.
    _gate: tuple | None = None

    def attach_input(self, buffer: StreamBuffer, producer) -> None:
        super().attach_input(buffer, producer)
        if not self.strict:
            buffer.on_change = self._drop_gate

    def _drop_gate(self) -> None:
        self._gate = None

    def _evaluate_gate(self) -> tuple:
        """Compute and memoise ``(latent, gates, tau, pick, idle)``.

        ``latent`` is the first input with a latent head (or None),
        ``gates`` the per-input gate timestamps and ``tau`` their minimum.
        ``pick`` is the input the next step consumes from — the latent head,
        else the first data head at τ, else the first punctuation at τ (a
        punctuation never delays a data tuple it arrived with) — or None
        when ``more`` is false; ``idle`` is :meth:`idle_waiting`.  Reading a
        stamped head refreshes its TSM register, as a peek would; the
        refresh is idempotent, so doing it once per buffer state leaves the
        registers where re-reading on every call left them.

        The buffers are read in place — head entry, head stamp, register,
        live data rows — because this runs once per input mutation.
        """
        inputs = self._ports.inputs
        latent = None
        heads: list[float | None] = []
        gates: list[float] = []
        for i, buf in enumerate(inputs):
            items, register = buf._items, buf.register
            if not items:
                heads.append(None)
                gates.append(register._value)
                continue
            head = items[0]
            if isinstance(head, ColumnarBlock):
                sel = head.selection
                ts = head.ts[0 if sel is None else sel[0]]
            else:
                ts = head.ts
            heads.append(ts)
            if ts == LATENT_TS:
                if latent is None:
                    latent = i
                gates.append(register._value)
            else:
                if ts > register._value:
                    register._value = ts
                gates.append(ts)
        tau = min(gates)
        pick = latent
        if pick is None:
            for i, ts in enumerate(heads):
                if ts == tau:
                    if isinstance(inputs[i]._items[0], ColumnarBlock):
                        pick = i
                        break
                    if pick is None:
                        pick = i
        idle = False
        if pick is None:
            for buf in inputs:
                if buf._data_live:
                    idle = True
                    break
        self._gate = state = (latent, gates, tau, pick, idle)
        return state

    def _tau(self) -> float:
        """τ: the minimum over the input gates, as of the last mutation."""
        return (self._gate or self._evaluate_gate())[2]

    def more(self) -> bool:
        if self.strict:
            ready = True
            for buf in self._ports.inputs:
                ts = buf.head_ts()
                if ts == LATENT_TS:
                    return True
                if ts is None:
                    ready = False
            return ready
        return (self._gate or self._evaluate_gate())[3] is not None

    def idle_waiting(self) -> bool:
        if self.strict:
            return super().idle_waiting()
        return (self._gate or self._evaluate_gate())[4]

    def stalled_input_index(self) -> int:
        inputs = self._ports.inputs
        if self.strict:
            for i, buf in enumerate(inputs):
                if buf.is_empty:
                    return i
            return 0
        _, gates, tau, _, _ = self._gate or self._evaluate_gate()
        for i, buf in enumerate(inputs):
            if gates[i] == tau and not buf._items:
                return i
        # Fall back to the input with the smallest gate; keeps backtracking
        # well-defined even if more() flipped between calls.
        return gates.index(tau)
