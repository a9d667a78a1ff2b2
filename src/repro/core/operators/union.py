"""The union operator — the paper's canonical Idle-Waiting-Prone operator.

Union is a sort-merge over its input streams: it repeatedly moves a tuple
with minimal timestamp to the output, producing a single stream ordered by
timestamp.  Three behavioural modes are supported, matching the paper:

* **strict** (paper Fig. 1): union proceeds only when *all* inputs are
  nonempty; this is the classical rule and both suffers idle-waiting and
  mishandles simultaneous tuples (Section 4.1).
* **TSM / relaxed** (paper Figs. 5–6, the default): each input carries a
  Time-Stamp Memory register; with τ the minimum over the registers, union
  proceeds whenever some input holds an element stamped τ.  Punctuation
  tuples advance registers and are re-emitted (deduplicated) downstream.
* **latent** (engaged automatically for unstamped elements): a latent tuple
  is forwarded as soon as it arrives, with no timestamp checks at all —
  the paper's scenario D and its performance optimum.
"""

from __future__ import annotations

from ..columnar import ColumnarBlock
from ..errors import ExecutionError, GraphError
from ..tuples import LATENT_TS, Punctuation
from .base import BatchResult, IwpOperator, OpContext

__all__ = ["Union"]

_INF = float("inf")


class Union(IwpOperator):
    """N-ary order-preserving merge with TSM-register idle-waiting relief.

    Attributes:
        strict: Use the original Fig.-1 rules (all-inputs-present) instead of
            the relaxed TSM condition.  Kept for the X1 ablation and for
            faithful scenario-A baselines.
    """

    arity: int | None = None  # n-ary

    def __init__(self, name: str, *, strict: bool = False) -> None:
        super().__init__(name)
        self.strict = strict
        self._last_emitted_ts = LATENT_TS
        self.data_forwarded = 0
        self.punctuation_consumed = 0
        self.punctuation_forwarded = 0
        self.punctuation_suppressed = 0

    def state_floor(self) -> float:
        """Rows pass through; the TSM registers and the emission watermark
        are maxima the live suffix (and its punctuation) rebuilds."""
        return float("inf")

    def state_reach(self) -> float:
        """Every output carries its input's stamp."""
        return 0.0

    def snapshot_state(self) -> dict:
        """Versioned snapshot of emission watermark and counters."""
        return {
            "version": 1,
            "last_emitted_ts": self._last_emitted_ts,
            "data_forwarded": self.data_forwarded,
            "punctuation_consumed": self.punctuation_consumed,
            "punctuation_forwarded": self.punctuation_forwarded,
            "punctuation_suppressed": self.punctuation_suppressed,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported Union state: {state!r}")
        self._last_emitted_ts = state["last_emitted_ts"]
        self._drop_gate()
        self.data_forwarded = state["data_forwarded"]
        self.punctuation_consumed = state["punctuation_consumed"]
        self.punctuation_forwarded = state["punctuation_forwarded"]
        self.punctuation_suppressed = state["punctuation_suppressed"]

    def validate_wiring(self) -> None:
        super().validate_wiring()
        if len(self.inputs) < 2:
            raise GraphError(
                f"union {self.name!r} needs at least two inputs, "
                f"has {len(self.inputs)}"
            )

    # ------------------------------------------------------------------ #
    # Execution (gating lives in IwpOperator)

    def execute_block(self, ctx: OpContext, limit: int) -> BatchResult:
        """Columnar sort-merge: forward sub-gate runs as whole blocks.

        While one input's head run stays *strictly* below every other
        input's gate timestamp, the gate picks that input on every
        iteration — so the run is drained as a
        :class:`~repro.core.columnar.ColumnarBlock` and forwarded without
        materializing a single tuple.  Gate ties, latent heads and
        punctuation consume exactly the element the gate picks (a one-row
        drain, or the punctuation popped), so cross-input ordering and
        punctuation dedup follow the one-element merge.  A punctuation
        forwards the minimum over all gates *after* it advanced its own
        input's register.
        Strict mode routes through :meth:`_execute_block_strict`, which
        amortizes over head-to-head runs instead of sub-gate runs.
        """
        if self.strict:
            return self._execute_block_strict(ctx, limit)
        steps = data = punct = forwarded = 0
        staged: list[ColumnarBlock | Punctuation] = []
        inputs = self._ports.inputs
        while steps < limit:
            latent, gates, tau, pick, _ = self._gate or self._evaluate_gate()
            if pick is None:
                if not steps:
                    raise ExecutionError(f"union {self.name!r}: "
                                         "execute_block called without more()")
                break  # more() turned false
            buf = inputs[pick]
            if latent is None and not isinstance(buf._items[0],
                                                 ColumnarBlock):
                element = buf.pop()
                self.punctuation_consumed += 1
                steps += 1
                punct = 1
                tau = self._tau()
                if tau > self._last_emitted_ts:
                    staged.append(Punctuation(
                        ts=tau, origin=self.name,
                        periodic=getattr(element, "periodic", False)))
                    self._last_emitted_ts = tau
                    self.punctuation_forwarded += 1
                    forwarded = 1
                else:
                    self.punctuation_suppressed += 1
                break  # punctuation is a batch boundary
            if latent is not None:
                other_min = LATENT_TS
            else:  # the smallest gate of the other inputs, no list built
                other_min = _INF
                for i, gate in enumerate(gates):
                    if gate < other_min and i != pick:
                        other_min = gate
            # A sub-gate run leaves as one block; a latent head or a tie
            # with another input's gate leaves as exactly one row, so the
            # gate decides the cross-input order row by row.
            blk = buf.drain_block(limit - steps, max_ts=other_min) \
                if tau < other_min else buf.drain_block(1)
            assert blk is not None  # head is data at tau
            staged.append(blk)
            ts, sel = blk.ts, blk.selection
            n, last = (len(ts), ts[-1]) if sel is None \
                else (len(sel), ts[sel[-1]])
            if last == LATENT_TS:
                last = blk.last_ts()
            if last > self._last_emitted_ts:  # never true of LATENT_TS
                self._last_emitted_ts = last
            steps += n
            data += n
        self.data_forwarded += data
        outputs = self._ports.outputs  # emit(), inlined: one step's output
        for entry in staged:
            if isinstance(entry, ColumnarBlock):
                for out in outputs:
                    out.push_block(entry)
            else:
                for out in outputs:
                    out.push(entry)
        return BatchResult(steps, data, punct, 0, 0, data, forwarded)

    def _execute_block_strict(self, ctx: OpContext, limit: int) -> BatchResult:
        """Columnar strict merge: emit maximal runs between interleave points.

        The strict rule proceeds only while every input is nonempty and
        always consumes the smallest head timestamp (ties broken by input
        index).  While the chosen input's head run stays *strictly* below
        every other input's head timestamp, the rule picks that input on
        every iteration — so the run up to the interleave boundary is
        drained as one zero-copy block slice.  Ties at the boundary are
        drained one row at a time (``min((ts, i))`` decides), and
        punctuation is consumed alone and closes the run, so the merge
        equals the one-element-per-step Fig.-1 merge.
        """
        batch = BatchResult()
        staged: list[ColumnarBlock | Punctuation] = []
        inputs = self._ports.inputs
        n_inputs = len(inputs)
        # Head timestamps are cached across iterations: only the input just
        # consumed from can change its head, so only that slot is refreshed.
        # head_ts() is side-effect free, and nothing pushes into our inputs
        # while we execute, so the cache cannot go stale mid-invocation.
        heads = [buf.head_ts() for buf in inputs]
        steps = data_fwd = 0
        while steps < limit:
            # Latent heads jump the queue (they carry no timestamp yet).
            idx = -1
            for i in range(n_inputs):
                if heads[i] == LATENT_TS:
                    idx = i
                    break
            if idx >= 0:
                buf = inputs[idx]
                staged.append(buf.drain_block(1))
                data_fwd += 1
                steps += 1
                heads[idx] = buf.head_ts()
                continue
            # Strict: every input must be nonempty; find the smallest head
            # (first index wins ties: ``min((ts, i))``)
            # and the smallest *other* head in one two-minimum scan.
            ts = bound = _INF
            for i in range(n_inputs):
                h = heads[i]
                if h is None:
                    idx = -1
                    break
                if idx < 0 or h < ts:
                    bound = ts
                    ts = h
                    idx = i
                elif h < bound:
                    bound = h
            if idx < 0:
                break  # some input is empty
            buf = inputs[idx]
            if buf.head_is_punctuation():
                element = buf.pop()
                self.punctuation_consumed += 1
                steps += 1
                batch.consumed_punctuation += 1
                tau = element.ts
                if tau > self._last_emitted_ts:
                    staged.append(Punctuation(
                        ts=tau, origin=self.name,
                        periodic=getattr(element, "periodic", False)))
                    self._last_emitted_ts = tau
                    self.punctuation_forwarded += 1
                    batch.emitted_punctuation += 1
                else:
                    self.punctuation_suppressed += 1
                break  # punctuation is a batch boundary
            # A run below every other head leaves as one block; a
            # head-to-head tie leaves as exactly one row, so the
            # (ts, input-index) tie-break decides each round.
            blk = buf.drain_block(limit - steps, max_ts=bound) \
                if ts < bound else buf.drain_block(1)
            assert blk is not None  # head is data at or below bound
            staged.append(blk)
            last = blk.last_ts()
            if last != LATENT_TS and last > self._last_emitted_ts:
                self._last_emitted_ts = last
            n = blk.count
            data_fwd += n
            steps += n
            heads[idx] = buf.head_ts()
        self.data_forwarded += data_fwd
        batch.steps = steps
        batch.consumed_data = data_fwd
        batch.emitted_data = data_fwd
        for entry in staged:
            self.emit(entry)
        return batch
