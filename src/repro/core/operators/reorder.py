"""Reorder: restore timestamp order over an out-of-order input.

The engine's ordered-streams invariant (paper Section 1) is load-bearing:
union and join gate on it.  Real externally timestamped feeds, however, can
deliver tuples slightly out of order — the problem studied by Srivastava &
Widom (PODS'04, the paper's reference [12]), whose skew-bound machinery the
paper reuses for ETS values.  This operator closes the loop: place it
between an out-of-order source and the IWP operators, and everything
downstream sees an ordered stream again.

Mechanics: arriving tuples park in sorted runs keyed by ``(ts, seq)``.  A
tuple becomes *safe to emit* once the operator can prove nothing smaller can still
arrive —

* **slack rule**: the stream's disorder is bounded by ``slack`` seconds, so
  everything with ``ts ≤ max_seen − slack`` is safe;
* **punctuation rule**: a punctuation stamped ``p`` asserts no future
  element below ``p``, so everything with ``ts ≤ p`` is safe (this is how
  on-demand ETS drains the reorder buffer of a silent stream).

Tuples arriving below the already-emitted watermark are *late*; they are
counted and, by default, dropped (``late="drop"``), or the operator can
raise (``late="error"``) for pipelines that must not lose data.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left

from ..columnar import ColumnarBlock
from ..errors import ExecutionError, TimestampError
from ..tuples import LATENT_TS, Punctuation
from .base import BatchResult, Operator, OpContext

__all__ = ["Reorder"]

#: Sorts after any real sequence number in (ts, seq, ...) bisection keys.
_SEQ_INF = float("inf")


class Reorder(Operator):
    """Buffered sort with bounded slack (one input, one ordered output).

    Args:
        slack: Upper bound, in stream seconds, on how far behind the
            largest seen timestamp a future tuple can arrive.
        late: ``"drop"`` (count and discard) or ``"error"`` (raise
            :class:`TimestampError`) for tuples below the emitted watermark.

    Attributes:
        late_dropped: Tuples discarded for arriving below the watermark.
        pending: Number of tuples currently parked.
    """

    is_iwp = False
    arity = 1

    def __init__(self, name: str, slack: float, *,
                 late: str = "drop") -> None:
        super().__init__(name)
        if slack < 0:
            raise ExecutionError(f"reorder {name!r}: slack must be >= 0")
        if late not in ("drop", "error"):
            raise ExecutionError(
                f"reorder {name!r}: late must be 'drop' or 'error', "
                f"got {late!r}"
            )
        self.slack = float(slack)
        self.late_policy = late
        #: The parked rows: sorted ``(ts, seq)`` runs, kept as zero-copy
        #: selections over drained input blocks; eviction merges them.
        self._runs: list[ColumnarBlock] = []
        self._max_seen = LATENT_TS
        self._emitted_watermark = LATENT_TS
        self.late_dropped = 0

    @property
    def pending(self) -> int:
        return sum(run.count for run in self._runs)

    def frontier_floor(self) -> float | None:
        """Earliest parked timestamp, or None when nothing is parked.

        Part of the sharding frontier protocol (:mod:`repro.shard`): a
        parked tuple may be emitted below the source horizon later, so a
        shard's advertised frontier must not pass it.
        """
        floor = None
        for run in self._runs:
            head = run.head_ts
            if floor is None or head < floor:
                floor = head
        return floor

    def state_floor(self) -> float:
        """The earliest parked row; the watermarks are maxima that the live
        suffix and its punctuation rebuild."""
        floor = self.frontier_floor()
        return float("inf") if floor is None else floor

    def state_reach(self) -> float:
        """Every output carries its input's stamp."""
        return 0.0

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot_state(self) -> dict:
        """Versioned snapshot of the parked rows and watermarks.

        Parked rows are saved as ``(ts, seq, tuple)`` ``heap`` entries in
        ``(ts, seq)`` order, the layout of the version-1 format — sequence numbers are the
        tie-breakers, and recovery bumps the global counter past every
        restored seq so post-restore arrivals sort after them.
        """
        return {
            "version": 1,
            "heap": sorted((tup.ts, tup.seq, tup)
                           for run in self._runs for tup in run.to_tuples()),
            "max_seen": self._max_seen,
            "emitted_watermark": self._emitted_watermark,
            "late_dropped": self.late_dropped,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`.  The
        slack is the constructor's: a ``slack`` key from an older snapshot
        is ignored."""
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported Reorder state: {state!r}")
        parked = sorted(state["heap"], key=lambda entry: entry[:2])
        self._runs = ([ColumnarBlock.from_tuples([t for _, _, t in parked])]
                      if parked else [])
        self._max_seen = state["max_seen"]
        self._emitted_watermark = state["emitted_watermark"]
        self.late_dropped = state["late_dropped"]

    # ------------------------------------------------------------------ #
    # Columnar path

    def execute_block(self, ctx: OpContext, limit: int) -> BatchResult:
        """Columnar reorder: park rows as sorted runs, evict by threshold.

        A drained block is processed with float arithmetic only — per-row
        late detection against the evolving watermark, running
        ``max_seen``, and a shadow timestamp heap that gives the per-row
        ``probes`` (parked count after the row's flush) and release counts
        — and the releases themselves are *coalesced*: the concatenation
        of the per-row flush batches over a run of data rows equals the
        global ``(ts, seq)`` order of everything released (each flush emits
        every parked tuple below its non-decreasing threshold, and a tuple
        arriving below an earlier threshold would have been dropped as
        late), so one merge of sorted runs per boundary replaces per-tuple
        heap churn.  Boundaries — where pending releases must materialize
        to preserve emission order — are latent passthroughs, punctuation,
        and the end of each drained block.  Rows still parked stay as
        zero-copy selections over the drained block in :attr:`_runs`.

        Under ``late="error"`` each drain stops right before the first late
        row (:meth:`_late_cut` replays the watermark over the head run
        first), so the run's releases go out and that row is consumed as
        the error is raised — nothing after it leaves the buffer.
        """
        batch = BatchResult()
        buf = self.inputs[0]
        staged: list[ColumnarBlock | Punctuation] = []
        # Shadow heap of parked timestamps: scalar probes are "heap size
        # after flush" and scalar releases are "pops at this row"; floats
        # through C heapq reproduce both without touching payloads.
        shadow: list[float] = []
        for run in self._runs:
            ts_col = run.ts
            shadow.extend(ts_col[i] for i in run.indices())
        heapq.heapify(shadow)
        heappush, heappop = heapq.heappush, heapq.heappop
        wm = self._emitted_watermark
        max_seen = self._max_seen
        slack = self.slack
        threshold = LATENT_TS  # largest flush threshold applied this call
        late = False
        while batch.steps < limit:
            if buf.head_is_punctuation():
                element = buf.pop()
                batch.steps += 1
                batch.consumed_punctuation += 1
                if element.ts >= wm:
                    emitted = self._evict(None, [], element.ts, staged)
                    if element.ts > wm:
                        wm = element.ts
                    staged.append(element.reformatted(origin=self.name))
                    batch.emitted_data += emitted
                    batch.emitted_punctuation += 1
                # Stale or not, punctuation is a batch boundary.
                break
            room = limit - batch.steps
            if self.late_policy == "error":
                room = self._late_cut(buf, room, wm, max_seen)
                if not room:
                    late = True
                    break
            block = buf.drain_block(room)
            if block is None:
                break
            ts_col, seq_col = block.ts, block.seq
            parked: list[tuple[float, int, int]] = []  # (ts, seq, physical)
            best = LATENT_TS
            for i in block.indices():
                ts = ts_col[i]
                if ts == LATENT_TS:
                    # Latent passthrough sits between flush batches:
                    # stage pending releases, then the row itself.
                    self._evict(block, parked, threshold, staged)
                    parked = []
                    staged.append(block.with_selection([i]))
                    batch.steps += 1
                    batch.consumed_data += 1
                    batch.emitted_data += 1
                    continue
                if ts > best:
                    best = ts
                batch.steps += 1
                batch.consumed_data += 1
                if ts < wm:
                    self.late_dropped += 1
                    continue
                heappush(shadow, ts)
                if ts > max_seen:
                    max_seen = ts
                bound = max_seen - slack
                released = 0
                while shadow and shadow[0] <= bound:
                    heappop(shadow)
                    released += 1
                batch.emitted_data += released
                batch.probes += len(shadow)
                parked.append((ts, seq_col[i], i))
                if bound > threshold:
                    threshold = bound
                if bound > wm:
                    wm = bound
            self._evict(block, parked, threshold, staged)
            if best != LATENT_TS:
                # A pop-by-pop consumption tops the register up with every
                # timestamp it sees; the drain already recorded the run's
                # last stamp, which for an out-of-order input need not be
                # its largest.
                buf.register.update(best)
        self._emitted_watermark = wm
        self._max_seen = max_seen
        for entry in staged:
            self.emit(entry)
        if late:
            element = buf.pop()
            raise TimestampError(
                f"reorder {self.name!r}: tuple at {element.ts} arrived "
                f"after watermark {wm} "
                f"(slack {self.slack} too small for this stream)")
        return batch

    def _late_cut(self, buf, room: int, wm: float, max_seen: float) -> int:
        """How many head rows (at most ``room``) a drain may take without
        reaching a late one: 0 when the head row itself is late.  Replays
        the watermark the stamped head run would raise; a latent head is
        never late and passes alone."""
        stamps, _ = buf.head_run(room)
        if not stamps:
            return 1
        slack = self.slack
        for k, ts in enumerate(stamps):
            if ts < wm:
                return k
            if ts > max_seen:
                max_seen = ts
            if max_seen - slack > wm:
                wm = max_seen - slack
        return len(stamps)

    def _evict(self, block: ColumnarBlock | None,
               parked: list[tuple[float, int, int]], threshold: float,
               staged: list[ColumnarBlock | Punctuation]) -> int:
        """Release every parked tuple with ts ≤ ``threshold`` into
        ``staged`` in global ``(ts, seq)`` order; park the rest.

        ``parked`` holds this block's surviving arrivals as ``(ts, seq,
        physical index)`` triples; rows above the threshold become one new
        sorted run (a selection over ``block``, zero copies).  Release
        sources — previous runs' prefixes and this block's below-threshold
        rows — are each already sorted, so a single-source release stages
        zero-copy and multi-source releases are one :func:`heapq.merge`.
        Returns the number released.
        """
        if parked:
            parked.sort()
            cut = bisect_left(parked, (threshold, _SEQ_INF))
        else:
            cut = 0
        need_runs = any(run.head_ts <= threshold for run in self._runs)
        if not cut and not need_runs:
            if parked:
                self._runs.append(
                    block.with_selection([entry[2] for entry in parked]))
            return 0
        sources: list[ColumnarBlock] = []
        if need_runs:
            kept: list[ColumnarBlock] = []
            for run in self._runs:
                head, tail = run.split_below(threshold, inclusive=True)
                if head.count:
                    sources.append(head)
                if tail is not None and tail.count:
                    kept.append(tail)
            self._runs = kept
        if cut:
            sources.append(
                block.with_selection([entry[2] for entry in parked[:cut]]))
        if cut < len(parked):
            self._runs.append(
                block.with_selection([entry[2] for entry in parked[cut:]]))
        if len(sources) == 1:
            staged.append(sources[0])
            return sources[0].count
        triples = [[(t.ts, t.seq, t) for t in src.to_tuples()]
                   for src in sources]
        merged = [t for _, _, t in heapq.merge(*triples)]
        staged.append(ColumnarBlock.from_tuples(merged))
        return len(merged)
