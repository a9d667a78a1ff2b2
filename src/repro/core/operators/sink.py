"""Sink nodes: where result streams leave the query graph.

The arcs leading into a sink are the query's output buffers; an output
wrapper (the user, in our examples) drains them.  Per the paper, sink nodes
**eliminate punctuation tuples**, which are only needed internally.

The sink is also the natural place to measure the paper's headline metric,
*output latency*: the difference between the virtual-clock time at which a
data tuple is delivered and the time it entered the DSMS (its
``arrival_ts``).  A pluggable callback receives every delivered tuple so that
examples can stream results while experiments aggregate statistics.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import ExecutionError
from ..tuples import DataTuple
from .base import BatchResult, Operator, OpContext

__all__ = ["SinkNode"]


class SinkNode(Operator):
    """Terminal node consuming one result stream.

    Attributes:
        delivered: Number of data tuples delivered to the output wrapper.
        punctuation_eliminated: Punctuation tuples absorbed by this sink.
        latency_sum / latency_max: Aggregate latency statistics, in stream
            seconds, over tuples whose ``arrival_ts`` was recorded.
    """

    is_iwp = False
    arity = 1

    def __init__(self, name: str,
                 on_output: Callable[[DataTuple, float], Any] | None = None,
                 *, keep_outputs: bool = False) -> None:
        """Create a sink.

        Args:
            name: Node name within the graph.
            on_output: Callback invoked as ``on_output(tuple, latency)`` for
                every delivered data tuple; latency is ``nan`` when the tuple
                never got an arrival stamp.
            keep_outputs: When True, delivered tuples are retained on
                :attr:`outputs_seen` — convenient in tests and examples,
                ruinous in long benchmarks, hence off by default.
        """
        super().__init__(name)
        self.on_output = on_output
        self.keep_outputs = keep_outputs
        self.outputs_seen: list[DataTuple] = []
        self.delivered = 0
        self.punctuation_eliminated = 0
        self.latency_sum = 0.0
        self.latency_max = 0.0
        self.latency_count = 0
        #: Internal column hook: ``_capture(ts, payloads)`` receives each
        #: delivered run as two parallel sequences, after ``on_output`` —
        #: how a shard collects its output without building tuples.  They
        #: may be the block's own columns: copy, never keep or mutate them.
        self._capture: Callable[[Any, Any], Any] | None = None

    def execute_block(self, ctx: OpContext, limit: int) -> BatchResult:
        """Columnar delivery: consume whole blocks off the input buffer.

        When no per-tuple callback is registered and outputs are not kept,
        latency statistics are accumulated straight off the block's arrival
        column without materializing a single tuple — the common benchmark
        configuration.  Otherwise rows are materialized in order and handed
        to the callback one at a time.  The column hook,
        when set, gets the block's ``ts`` and payload columns either way.
        """
        batch = BatchResult()
        buf = self.inputs[0]
        while batch.steps < limit and buf:
            block = buf.drain_block(limit - batch.steps)
            if block is None:
                # Punctuation at the head: absorb it, close the batch.
                buf.pop()
                self.punctuation_eliminated += 1
                batch.steps += 1
                batch.consumed_punctuation += 1
                break
            now = ctx.clock.now()
            # Latency statistics accumulate in locals (same addition order,
            # so latency_sum stays bit-identical) and land once per block.
            lat_sum, lat_max = self.latency_sum, self.latency_max
            lat_count = self.latency_count
            if self.on_output is None and not self.keep_outputs:
                for arrival in block.iter_arrival():
                    latency = now - arrival
                    if latency == latency:  # not NaN
                        lat_sum += latency
                        lat_count += 1
                        if latency > lat_max:
                            lat_max = latency
            else:
                on_output = self.on_output
                for element in block.to_tuples():
                    latency = now - element.arrival_ts
                    if latency == latency:  # not NaN
                        lat_sum += latency
                        lat_count += 1
                        if latency > lat_max:
                            lat_max = latency
                    if self.keep_outputs:
                        self.outputs_seen.append(element)
                    if on_output is not None:
                        on_output(element, latency)
            self.latency_sum, self.latency_max = lat_sum, lat_max
            self.latency_count = lat_count
            if self._capture is not None:
                sel = block.selection
                if sel is None:
                    self._capture(block.ts, block.payloads)
                else:
                    ts, payloads = block.ts, block.payloads
                    self._capture([ts[i] for i in sel],
                                  [payloads[i] for i in sel])
            n = block.count
            self.delivered += n
            batch.steps += n
            batch.consumed_data += n
        return batch

    @property
    def mean_latency(self) -> float:
        """Mean output latency in stream seconds (nan before any output)."""
        if not self.latency_count:
            return float("nan")
        return self.latency_sum / self.latency_count

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def state_floor(self) -> float:
        """Delivered rows are gone; the counters steer nothing."""
        return float("inf")

    def snapshot_state(self) -> dict:
        """Versioned snapshot of delivery counters and latency statistics.

        ``delivered`` doubles as the sink's checkpoint-time high-water mark:
        recovery compares it against the WAL-recorded delivery count to know
        how many replayed outputs to suppress.  ``outputs_seen`` is retained
        state too when ``keep_outputs`` is on.
        """
        return {
            "version": 1,
            "delivered": self.delivered,
            "punctuation_eliminated": self.punctuation_eliminated,
            "latency_sum": self.latency_sum,
            "latency_max": self.latency_max,
            "latency_count": self.latency_count,
            "outputs_seen": list(self.outputs_seen) if self.keep_outputs else [],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported SinkNode state: {state!r}")
        self.delivered = state["delivered"]
        self.punctuation_eliminated = state["punctuation_eliminated"]
        self.latency_sum = state["latency_sum"]
        self.latency_max = state["latency_max"]
        self.latency_count = state["latency_count"]
        self.outputs_seen = list(state["outputs_seen"])
