"""Windowed aggregate operators with punctuation-driven window closing.

Aggregates over unbounded streams are the original motivation for
punctuation (Tucker et al., TKDE 2003, the paper's reference [8]): a tumbling
window can only be *closed* once the operator knows no more tuples with
timestamps inside the window will arrive.  Data tuples carry that knowledge
implicitly (streams are ordered); punctuation tuples carry it explicitly —
which means on-demand ETS also speeds up aggregate emission on sparse
streams, a pleasant side effect exercised by the examples.

:class:`TumblingAggregate` covers fixed-width consecutive windows: one output
tuple per non-empty window (optionally per empty window too), stamped with
the window's end time.

Aggregation functions follow Stream Mill's user-defined-aggregate spirit: an
:class:`Aggregator` is any object with ``update(value)`` and ``result()``;
factories for the usual suspects are provided.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..errors import ExecutionError
from ..tuples import LATENT_TS, DataTuple
from .base import BatchResult, Operator, OpContext

__all__ = [
    "Aggregator",
    "Count",
    "Sum",
    "Avg",
    "Min",
    "Max",
    "AggSpec",
    "TumblingAggregate",
]


class Aggregator:
    """Base class for aggregation state: one instance per open window."""

    def update(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class Count(Aggregator):
    """Number of tuples in the window."""

    def __init__(self) -> None:
        self.n = 0

    def update(self, value: Any) -> None:
        self.n += 1

    def result(self) -> int:
        return self.n


class Sum(Aggregator):
    """Sum of a numeric field."""

    def __init__(self) -> None:
        self.total = 0

    def update(self, value: Any) -> None:
        self.total += value

    def result(self) -> Any:
        return self.total


class Avg(Aggregator):
    """Arithmetic mean of a numeric field (None for empty windows)."""

    def __init__(self) -> None:
        self.total = 0.0
        self.n = 0

    def update(self, value: Any) -> None:
        self.total += value
        self.n += 1

    def result(self) -> float | None:
        if not self.n:
            return None
        return self.total / self.n


class Min(Aggregator):
    """Minimum of a field (None for empty windows)."""

    def __init__(self) -> None:
        self.best: Any = None

    def update(self, value: Any) -> None:
        if self.best is None or value < self.best:
            self.best = value

    def result(self) -> Any:
        return self.best


class Max(Aggregator):
    """Maximum of a field (None for empty windows)."""

    def __init__(self) -> None:
        self.best: Any = None

    def update(self, value: Any) -> None:
        if self.best is None or value > self.best:
            self.best = value

    def result(self) -> Any:
        return self.best


class AggSpec:
    """One output column of an aggregate operator.

    Attributes:
        field: Input payload field fed to the aggregator; None feeds the
            whole payload (useful for Count and user-defined aggregates).
        factory: Zero-argument callable producing a fresh :class:`Aggregator`
            per window — any user-defined aggregate works here.
    """

    __slots__ = ("field", "factory")

    def __init__(self, factory: Callable[[], Aggregator],
                 field: str | None = None) -> None:
        self.factory = factory
        self.field = field

    def extract(self, payload: Any) -> Any:
        if self.field is None:
            return payload
        return payload[self.field]


class TumblingAggregate(Operator):
    """Fixed-width consecutive windows: ``[k*width, (k+1)*width)``.

    A window is closed — and its result emitted, stamped with the window end
    time — as soon as any element (data *or punctuation*) proves that stream
    time has passed the window's end.

    Args:
        width: Window width in stream seconds.
        aggs: Mapping from output field name to :class:`AggSpec`.
        group_by: Optional payload field; when set, one accumulator group per
            distinct value, and results carry the group key.
        emit_empty: Also emit a result tuple for windows with no data.
    """

    is_iwp = False
    arity = 1

    def __init__(self, name: str, width: float, aggs: Mapping[str, AggSpec],
                 *, group_by: str | None = None,
                 emit_empty: bool = False) -> None:
        super().__init__(name)
        if width <= 0:
            raise ExecutionError(f"aggregate {name!r}: width must be positive")
        if not aggs:
            raise ExecutionError(f"aggregate {name!r}: needs at least one AggSpec")
        self.width = float(width)
        self.aggs = dict(aggs)
        self.group_by = group_by
        self.emit_empty = emit_empty
        self._window_start: float | None = None
        self._groups: dict[Any, dict[str, Aggregator]] = {}
        self.windows_emitted = 0

    # ------------------------------------------------------------------ #

    def _fresh_accumulators(self) -> dict[str, Aggregator]:
        return {out: spec.factory() for out, spec in self.aggs.items()}

    def _window_end(self) -> float:
        assert self._window_start is not None
        return self._window_start + self.width

    def _align(self, ts: float) -> float:
        """Start of the window containing ``ts``."""
        return (ts // self.width) * self.width

    def _flush(self, arrival_hint: float) -> int:
        """Emit results for the currently open window; returns tuples emitted."""
        emitted = 0
        end = self._window_end()
        if self._groups:
            for key, accumulators in sorted(self._groups.items(),
                                            key=lambda kv: repr(kv[0])):
                payload = {out: acc.result() for out, acc in accumulators.items()}
                if self.group_by is not None:
                    payload[self.group_by] = key
                payload["window_end"] = end
                self.emit(DataTuple(ts=end, payload=payload,
                                    arrival_ts=arrival_hint))
                emitted += 1
        elif self.emit_empty:
            payload = {out: spec.factory().result()
                       for out, spec in self.aggs.items()}
            payload["window_end"] = end
            self.emit(DataTuple(ts=end, payload=payload,
                                arrival_ts=arrival_hint))
            emitted += 1
        self._groups = {}
        self.windows_emitted += emitted
        return emitted

    def _advance_to(self, ts: float, arrival_hint: float) -> int:
        """Close every window whose end is ≤ ``ts``; returns tuples emitted."""
        emitted = 0
        if self._window_start is None:
            return 0
        while self._window_end() <= ts:
            emitted += self._flush(arrival_hint)
            if self.emit_empty:
                self._window_start += self.width
            else:
                # Jump over the gap of empty windows in one hop.
                self._window_start = max(self._window_start + self.width,
                                         self._align(ts))
        return emitted

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot_state(self) -> dict:
        """Versioned snapshot of the open window and its accumulator groups.

        Aggregators are plain-attribute objects (their ``vars()`` *is* their
        state); restore rebuilds each from its spec's factory and reapplies
        the attributes, so user-defined aggregates round-trip too as long as
        they keep their state in instance attributes.
        """
        return {
            "version": 1,
            "window_start": self._window_start,
            "groups": {
                repr(key): (key, {out: dict(vars(acc))
                                  for out, acc in accumulators.items()})
                for key, accumulators in self._groups.items()
            },
            "windows_emitted": self.windows_emitted,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise ExecutionError(
                f"unsupported TumblingAggregate state: {state!r}")
        self._window_start = state["window_start"]
        self._groups = {}
        for key, acc_states in state["groups"].values():
            accumulators = self._fresh_accumulators()
            for out, attrs in acc_states.items():
                for attr, value in attrs.items():
                    setattr(accumulators[out], attr, value)
            self._groups[key] = accumulators
        self.windows_emitted = state["windows_emitted"]

    def execute_block(self, ctx: OpContext, limit: int) -> BatchResult:
        """Columnar accumulation: fold a whole block into the open window.

        Rows are read straight off the block's columns in order — window
        advancement, group lookup and accumulator updates row by row
        (window results are emitted mid-block where a row closes them; a
        latent row is stamped with the clock) — but no :class:`DataTuple`
        is materialized per input row.  A punctuation at the head is a run
        of its own: it closes every window ending at or before it, then
        passes through.
        """
        buf = self.inputs[0]
        block = buf.drain_block(limit)
        if block is None:
            if buf.is_empty:
                return BatchResult()
            punct = buf.pop()
            emitted = self._advance_to(punct.ts, punct.ts)
            self.emit_punctuation(punct)
            return BatchResult(steps=1, consumed_punctuation=1,
                               emitted_data=emitted, emitted_punctuation=1)
        ts_col = block.ts
        arrival_col = block.arrival
        payload_col = block.payloads
        group_by = self.group_by
        groups = self._groups
        agg_items = tuple(self.aggs.items())
        emitted = 0
        for i in block.indices():
            ts = ts_col[i]
            if ts == LATENT_TS:
                ts = ctx.clock.now()
            payload = payload_col[i]
            if self._window_start is None:
                self._window_start = self._align(ts)
            else:
                emitted += self._advance_to(ts, arrival_col[i])
                groups = self._groups  # _advance_to may have replaced it
            key = payload[group_by] if group_by is not None else None
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = self._fresh_accumulators()
                groups[key] = accumulators
            for out, spec in agg_items:
                accumulators[out].update(spec.extract(payload))
        n = block.count
        return BatchResult(steps=n, consumed_data=n, emitted_data=emitted)
