"""Reference models: one element per step, for every operator kernel.

The engine runs each operator through one kernel, ``execute_block``; a
``batch_size=1`` engine is a run of one element.  The bodies here are the
tuple-at-a-time steps those kernels replaced — written against the
operators' state, one element consumed per call, emissions pushed as they
happen — and they are the models the differential oracles compare the
kernels against at every width.  :func:`forced_scalar_fallback` installs
them in place of the kernels.

Every concrete :class:`~repro.core.operators.base.Operator` subclass has an
entry in :data:`REFERENCE_STEPS` (``tests/test_one_kernel.py`` checks it),
so a new operator cannot ship without a model.

:class:`ReferenceBuffer` is the same kind of model for the arcs: a list of
tuples and punctuation, one element per entry, against which the block
transport of :class:`~repro.core.buffers.StreamBuffer` is compared.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.buffers import TSMRegister
from repro.core.columnar import ColumnarBlock
from repro.core.errors import ExecutionError, TimestampError
from repro.core.operators import (Reorder, SinkNode, StatelessOperator,
                                  TumblingAggregate, Union, WindowJoin)
from repro.core.operators.base import BatchResult, OpContext, Operator
from repro.core.operators.join import latest_arrival
from repro.core.tuples import LATENT_TS, DataTuple, Punctuation


@dataclass(slots=True)
class StepResult:
    """What one reference step did (the fields of a one-element run)."""

    consumed: object = None
    probes: int = 0
    probes_emitted: int = 0
    emitted_data: int = 0
    emitted_punctuation: int = 0

    @property
    def consumed_punctuation(self) -> bool:
        return self.consumed is not None and self.consumed.is_punctuation


def add_step(run: BatchResult, result: StepResult) -> None:
    """Fold one reference step into a run's accounting."""
    run.steps += 1
    if result.consumed_punctuation:
        run.consumed_punctuation += 1
    else:
        run.consumed_data += 1
    run.probes += result.probes
    run.probes_emitted += result.probes_emitted
    run.emitted_data += result.emitted_data
    run.emitted_punctuation += result.emitted_punctuation


# --------------------------------------------------------------------- #
# Per-operator steps


def stateless_step(op: StatelessOperator, ctx: OpContext) -> StepResult:
    element = op.inputs[0].pop()
    if element.is_punctuation:
        op.emit_punctuation(element)
        return StepResult(consumed=element, emitted_punctuation=1)
    emitted = 0
    for out in op.apply(element, ctx):
        op.emit(out)
        emitted += 1
    return StepResult(consumed=element, emitted_data=emitted)


def sink_step(op: SinkNode, ctx: OpContext) -> StepResult:
    element = op.inputs[0].pop()
    if element.is_punctuation:
        op.punctuation_eliminated += 1
        return StepResult(consumed=element)
    latency = ctx.clock.now() - element.arrival_ts
    if latency == latency:  # not NaN
        op.latency_sum += latency
        op.latency_count += 1
        if latency > op.latency_max:
            op.latency_max = latency
    op.delivered += 1
    if op.keep_outputs:
        op.outputs_seen.append(element)
    if op.on_output is not None:
        op.on_output(element, latency)
    if op._capture is not None:
        op._capture((element.ts,), (element.payload,))
    return StepResult(consumed=element)


def aggregate_step(op: TumblingAggregate, ctx: OpContext) -> StepResult:
    element = op.inputs[0].pop()
    if element.is_punctuation:
        emitted = op._advance_to(element.ts, element.ts)
        op.emit_punctuation(element)
        return StepResult(consumed=element, emitted_data=emitted,
                          emitted_punctuation=1)
    if element.is_latent:
        element = element.stamped(ctx.clock.now())
    emitted = 0
    if op._window_start is None:
        op._window_start = op._align(element.ts)
    else:
        emitted = op._advance_to(element.ts, element.arrival_ts)
    key = element.payload[op.group_by] if op.group_by is not None else None
    accumulators = op._groups.get(key)
    if accumulators is None:
        accumulators = op._fresh_accumulators()
        op._groups[key] = accumulators
    for out, spec in op.aggs.items():
        accumulators[out].update(spec.extract(element.payload))
    return StepResult(consumed=element, emitted_data=emitted)


def reference_pick(op) -> int:
    """The input an IWP step consumes from, per the active gating mode."""
    if not op.strict:
        pick = (op._gate or op._evaluate_gate())[3]
        if pick is None:
            raise ExecutionError(f"{type(op).__name__} {op.name!r}: "
                                 "stepped without more()")
        return pick
    heads = [buf.head_ts() for buf in op.inputs]
    if LATENT_TS in heads:
        return heads.index(LATENT_TS)
    return heads.index(min(heads))


def union_step(op: Union, ctx: OpContext) -> StepResult:
    element = op.inputs[reference_pick(op)].pop()
    if element.is_punctuation:
        op.punctuation_consumed += 1
        # The safe output watermark is min over all gates *after* this
        # punctuation advanced its own input's register.
        tau = element.ts if op.strict else op._tau()
        if tau > op._last_emitted_ts:
            op.emit(Punctuation(ts=tau, origin=op.name,
                                periodic=getattr(element, "periodic", False)))
            op._last_emitted_ts = tau
            op.punctuation_forwarded += 1
            return StepResult(consumed=element, emitted_punctuation=1)
        op.punctuation_suppressed += 1
        return StepResult(consumed=element)
    op.emit(element)
    op.data_forwarded += 1
    if element.ts != LATENT_TS and element.ts > op._last_emitted_ts:
        op._last_emitted_ts = element.ts
    return StepResult(consumed=element, emitted_data=1)


def join_step(op: WindowJoin, ctx: OpContext) -> StepResult:
    idx = reference_pick(op)
    tup = op.inputs[idx].pop()
    if tup.is_punctuation:
        op.punctuation_consumed += 1
        tau = tup.ts if op.strict else op._tau()
        for window in op.windows:
            window.expire(tau)
        if tau > op._last_emitted_ts:
            op.emit(Punctuation(ts=tau, origin=op.name,
                                periodic=getattr(tup, "periodic", False)))
            op._last_emitted_ts = tau
            op.punctuation_forwarded += 1
            return StepResult(consumed=tup, emitted_punctuation=1)
        op.punctuation_suppressed += 1
        return StepResult(consumed=tup)
    if tup.is_latent:
        tup = tup.stamped(ctx.clock.now())
    own_window, other_window = op.windows[idx], op.windows[1 - idx]
    # Probe against the still-valid window contents (Kang et al. order).
    other_window.expire(tup.ts)
    bound = other_window.base + len(other_window.ts)  # every filed row
    if op.indexed:
        candidates = other_window.probe(tup.payload[op.key_fields[idx]],
                                        bound)
    else:
        candidates = other_window.matches(tup.ts, bound)
    base = other_window.base
    payloads, arrival = other_window.payloads, other_window.arrival
    emitted = 0
    for number in candidates:
        row = number - base
        left, right = ((tup.payload, payloads[row]) if idx == 0
                       else (payloads[row], tup.payload))
        if op._match is not None and not op._match(left, right):
            continue
        op.emit(DataTuple(ts=tup.ts, payload=op.combiner(left, right),
                          kind=tup.kind,
                          arrival_ts=latest_arrival(tup.arrival_ts,
                                                    arrival[row])))
        emitted += 1
    own_window.file(((tup.ts,), (tup.seq,), (tup.kind,), (tup.arrival_ts,),
                     (tup.payload,)))
    own_window.retain(tup.ts)
    op.tuples_processed += 1
    op.matches_emitted += emitted
    if tup.ts > op._last_emitted_ts and emitted:
        op._last_emitted_ts = tup.ts
    emitted_punct = 0
    if not emitted and not op.strict:
        # "When we cannot generate a data tuple, we simply produce a
        # punctuation tuple for the benefit of the IWP operators down the
        # path" (paper Section 4.2).
        tau = op._tau()
        if tau > op._last_emitted_ts:
            op.emit(Punctuation(ts=tau, origin=op.name))
            op._last_emitted_ts = tau
            op.punctuation_forwarded += 1
            emitted_punct = 1
    return StepResult(consumed=tup, probes=len(candidates),
                      probes_emitted=emitted, emitted_data=emitted,
                      emitted_punctuation=emitted_punct)


def reorder_step(op: Reorder, ctx: OpContext) -> StepResult:
    """The min-heap reorder: park, flush everything at or below the
    threshold.  The heap is rebuilt from, and written back to, the
    operator's parked runs, so kernel and model share one state."""
    heap = [(t.ts, t.seq, t) for run in op._runs for t in run.to_tuples()]
    heapq.heapify(heap)
    result = _reorder_heap_step(op, heap)
    parked = sorted(heap)
    op._runs = ([ColumnarBlock.from_tuples([t for _, _, t in parked])]
                if parked else [])
    return result


def _reorder_heap_step(op: Reorder, heap: list) -> StepResult:
    def flush_to(threshold: float) -> int:
        emitted = 0
        while heap and heap[0][0] <= threshold:
            op.emit(heapq.heappop(heap)[2])
            emitted += 1
        if threshold > op._emitted_watermark:
            op._emitted_watermark = threshold
        return emitted

    element = op.inputs[0].pop()
    if element.is_punctuation:
        if element.ts < op._emitted_watermark:
            return StepResult(consumed=element)  # stale: nothing to release
        emitted = flush_to(element.ts)
        op.emit_punctuation(element)
        return StepResult(consumed=element, emitted_data=emitted,
                          emitted_punctuation=1)
    if element.is_latent:
        op.emit(element)  # latent streams carry no order to restore
        return StepResult(consumed=element, emitted_data=1)
    if element.ts < op._emitted_watermark:
        if op.late_policy == "error":
            raise TimestampError(
                f"reorder {op.name!r}: tuple at {element.ts} arrived "
                f"after watermark {op._emitted_watermark} "
                f"(slack {op.slack} too small for this stream)")
        op.late_dropped += 1
        return StepResult(consumed=element)
    heapq.heappush(heap, (element.ts, element.seq, element))
    if element.ts > op._max_seen:
        op._max_seen = element.ts
    emitted = flush_to(op._max_seen - op.slack)
    return StepResult(consumed=element, emitted_data=emitted,
                      probes=len(heap))


#: The reference step of every concrete operator class (subclasses of
#: :class:`StatelessOperator` share one: their semantics live in ``apply``).
REFERENCE_STEPS = {
    StatelessOperator: stateless_step,
    SinkNode: sink_step,
    TumblingAggregate: aggregate_step,
    Union: union_step,
    WindowJoin: join_step,
    Reorder: reorder_step,
}


def reference_step(op: Operator, ctx: OpContext) -> StepResult:
    """One element through ``op``'s reference model."""
    for cls in type(op).__mro__:
        step = REFERENCE_STEPS.get(cls)
        if step is not None:
            return step(op, ctx)
    raise TypeError(f"no reference model for {type(op).__name__}")


def reference_run(op: Operator, ctx: OpContext, limit: int) -> BatchResult:
    """A run of reference steps under the run boundary rules every kernel
    shares: stop after ``limit`` steps, when ``more`` turns false, or right
    after a punctuation."""
    run = BatchResult()
    while run.steps < limit and op.more():
        result = reference_step(op, ctx)
        add_step(run, result)
        if result.consumed_punctuation:
            break
    return run


def concrete_operator_classes() -> list[type]:
    """Every executable operator class the package defines."""
    from repro.core.operators import SourceNode

    found, stack = [], [Operator]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if (cls.__module__.startswith("repro.") and cls is not SourceNode
                and not cls.__name__.startswith("_")
                and cls not in (Operator, StatelessOperator)
                and cls.__name__ != "IwpOperator"):
            found.append(cls)
    return sorted(set(found), key=lambda cls: cls.__name__)


@contextmanager
def forced_scalar_fallback():
    """Every operator runs its reference model instead of its kernel: the
    same run boundaries, one element per step.  The reference the kernels
    are compared against at equal width."""
    patched: dict[type, object] = {}
    stack = [Operator]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls not in patched and "execute_block" in cls.__dict__:
            patched[cls] = cls.__dict__["execute_block"]
            cls.execute_block = reference_run
    try:
        yield
    finally:
        for cls, kernel in patched.items():
            cls.execute_block = kernel


# --------------------------------------------------------------------- #
# The arc


class ReferenceBuffer:
    """A stream buffer as a plain list of elements, one per entry.

    The FIFO semantics :class:`~repro.core.buffers.StreamBuffer` keeps with
    blocks: the order check and its structured violation, the counters,
    the TSM register, registry deltas, one ``on_change`` call per mutation,
    the drain boundary rules, ``head_run``, ``gate_ts`` and the version-1
    snapshot.  A drain gathers the maximal run the rules allow, across
    what would be block boundaries.
    """

    def __init__(self, name: str = "", registry=None, *,
                 enforce_order: bool = True, consumer_name: str = "",
                 consumer_port: int = 0) -> None:
        self.name = name
        self.consumer_name = consumer_name
        self.consumer_port = consumer_port
        self.register = TSMRegister()
        self.items: list = []
        self.registry = registry
        self.enforce_order = enforce_order
        self.last_pushed_ts = LATENT_TS
        self.enqueued_count = self.dequeued_count = 0
        self.punctuation_count = self.data_count = 0
        self.on_change = None

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __iter__(self):
        return iter(self.items)

    def _changed(self, delta: int) -> None:
        """The registry rule written out — when the count moved: stamp,
        total, peak, interval peak, then the observers with the new
        total — and then ``on_change``."""
        reg = self.registry
        if reg is not None and delta:
            reg._mutations += 1
            reg._total += delta
            reg._peak = max(reg._peak, reg._total)
            reg._interval_peak = max(reg._interval_peak, reg._total)
            for observer in reg._observers:
                observer(reg._total)
        if self.on_change is not None:
            self.on_change()

    def _admit(self, ts: float) -> None:
        """The order check for an element stamped ``ts``."""
        last = self.last_pushed_ts
        if ts != LATENT_TS:
            if self.enforce_order and last != LATENT_TS and ts < last:
                fields = dict(operator=self.consumer_name or self.name,
                              port=self.consumer_port, offending_ts=ts,
                              last_seen_ts=last, buffer=self.name,
                              kind="out-of-order")
                if self.registry is not None:
                    self.registry.notify_violation(**fields)
                raise TimestampError(
                    f"buffer {self.name!r}: out-of-order push "
                    f"({ts} after {last})", **fields)
            self.last_pushed_ts = max(ts, last)

    def push(self, element) -> None:
        self._admit(element.ts)
        self.items.append(element)
        self.enqueued_count += 1
        if element.is_punctuation:
            self.punctuation_count += 1
        else:
            self.data_count += 1
        self._changed(1)

    def push_block(self, block) -> None:
        """A block's rows as one mutation: each admitted in order (only the
        first stamped one can fail on an ordered block), one registry
        delta, one ``on_change``; an empty block is no mutation."""
        rows = block.to_tuples()
        if not rows:
            return
        for row in rows:
            self._admit(row.ts)
        self.items.extend(rows)
        self.enqueued_count += len(rows)
        self.data_count += len(rows)
        self._changed(len(rows))

    def pop(self):
        if not self.items:
            raise IndexError(f"pop from empty buffer {self.name!r}")
        head = self.items.pop(0)
        self.register.update(head.ts)
        self.dequeued_count += 1
        if not head.is_punctuation:
            self.data_count -= 1
        self._changed(-1)
        return head

    def drain_block(self, limit: int, max_ts: float | None = None):
        """Up to ``limit`` leading data rows as one block: the run stops at
        a punctuation and before the first row stamped at or above
        ``max_ts`` (latent rows never stop it); the register takes the
        run's largest stamp.  ``None`` when no row leaves."""
        run = []
        while self.items and len(run) < limit:
            head = self.items[0]
            if head.is_punctuation or (max_ts is not None and head.ts >= max_ts
                                       and head.ts != LATENT_TS):
                break
            run.append(self.items.pop(0))
        if not run:
            return None
        for row in run:
            self.register.update(row.ts)
        self.dequeued_count += len(run)
        self.data_count -= len(run)
        self._changed(-len(run))
        return ColumnarBlock.from_tuples(run)

    def clear(self) -> None:
        delta = -len(self.items)
        self.items.clear()
        self.data_count = 0
        self._changed(delta)

    def head_ts(self):
        return self.items[0].ts if self.items else None

    def head_is_punctuation(self) -> bool:
        return bool(self.items) and self.items[0].is_punctuation

    def head_run(self, limit: int) -> tuple[list[float], float]:
        """The leading stamped data rows (at most ``limit``) and where the
        run ends: a closing punctuation's stamp; the last stamped row's
        when a latent row follows it; the next row's when ``limit`` cut it;
        else the register the drained run will leave."""
        stamps: list[float] = []
        for element in self.items:
            if element.is_punctuation:
                return stamps, element.ts
            if element.ts == LATENT_TS:
                return stamps, stamps[-1] if stamps else LATENT_TS
            if len(stamps) == limit:
                return stamps, element.ts
            stamps.append(element.ts)
        end = self.register.value
        return stamps, max(end, stamps[-1]) if stamps else end

    def gate_ts(self) -> float:
        if self.items:
            ts = self.items[0].ts
            self.register.update(ts)
            if ts != LATENT_TS:
                return ts
        return self.register.value

    def snapshot_state(self) -> dict:
        return {
            "version": 1,
            "items": list(self.items),
            "register": self.register.snapshot_state(),
            "last_pushed_ts": self.last_pushed_ts,
            "enqueued": self.enqueued_count,
            "dequeued": self.dequeued_count,
            "punctuation_enqueued": self.punctuation_count,
            "data_live": self.data_count,
        }

    def restore_state(self, state: dict) -> None:
        delta = len(state["items"]) - len(self.items)
        self.items = list(state["items"])
        self.register.restore_state(state["register"])
        self.last_pushed_ts = state["last_pushed_ts"]
        self.enqueued_count = state["enqueued"]
        self.dequeued_count = state["dequeued"]
        self.punctuation_count = state["punctuation_enqueued"]
        self.data_count = state["data_live"]
        self._changed(delta)
