"""Frontier-based progress tracking across engine shards.

The paper's IWP operators gate on ``τ = min`` over their *per-input* TSM
registers.  Sharding generalizes the same rule one level up (the
timestamp-tokens construction of Lattuada & McSherry): each shard advertises
a **frontier** — a timestamp F with the guarantee that the shard will never
again deliver a tuple stamped ``< F`` — and a downstream consumer merging
shard outputs gates on ``min`` over the advertised frontiers, exactly as a
join gates on ``min`` over its TSM registers.

A shard's frontier is derived from the same state the TSM registers are
fed by:

* per source, the progress horizon of *future* ingests — the punctuation
  watermark and last data timestamp for in-order external streams (minus a
  declared disorder bound for out-of-order ones), or the virtual clock for
  internally stamped streams (a future internal tuple cannot be stamped
  below "now");
* the head timestamp of every non-empty stream buffer (tuples already in
  flight may still be delivered);
* any operator-held element below the source horizon, exposed through the
  optional ``frontier_floor()`` operator protocol (:class:`Reorder`'s
  slack heap is the canonical case).

The minimum over all of those is safe: every future sink delivery is either
already buffered (counted), held by an operator (counted), or not yet
ingested (bounded by the source horizon).  Per-shard frontiers are monotone
because every contributing term is; :class:`FrontierTracker` clamps and
counts would-be regressions anyway, and a Hypothesis property pins global
monotonicity under random shard interleavings.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterable

from ..core.errors import ReproError
from ..core.tuples import LATENT_TS, TimestampKind

__all__ = ["shard_frontier", "FrontierTracker", "FrontierMerge",
           "MergedRecord"]

#: One merged output record: (timestamp, shard, sequence, sink, payload).
MergedRecord = tuple[float, int, int, str, Any]

#: Compared per source on every frontier read, so a module constant rather
#: than an Enum member load.
_INTERNAL = TimestampKind.INTERNAL


def shard_frontier(graph, clock, *, disorder_bound: float = 0.0) -> float:
    """The shard's emit-frontier over ``graph`` at the current instant.

    Returns ``-inf`` until every source has a progress horizon (an external
    source that has seen neither data nor punctuation promises nothing).
    Call at quiescence — i.e. right after ``engine.wakeup()`` returns —
    so no element is in mid-step limbo.
    """
    frontier = math.inf
    for source in graph.sources():
        if source.timestamp_kind is _INTERNAL:
            # Future internal tuples are stamped with the clock at ingest,
            # which only moves forward; punctuation may be ahead of it.
            horizon = max(clock.now(), source.watermark)
        else:
            horizon = max(source.watermark, source.last_data_ts)
            if source.out_of_order:
                horizon -= disorder_bound
        frontier = min(frontier, horizon)
    for buf in graph.buffers:
        if not buf.is_empty:
            head = buf.head_ts()
            frontier = min(frontier,
                           LATENT_TS if head is None else head)
    for op in graph.operators:
        floor = getattr(op, "frontier_floor", None)
        if floor is not None:
            held = floor()
            if held is not None:
                frontier = min(frontier, held)
    return frontier


class FrontierTracker:
    """Per-shard advertised frontiers and their global minimum.

    Mirrors the TSM-register table of an IWP operator, one register per
    *shard* instead of one per input.  Advertisements are clamped monotone
    (a frontier is a promise; taking it back would re-admit timestamps the
    merge already released past) and regression attempts are counted for
    the differential suite to assert on.
    """

    __slots__ = ("_frontiers", "regressions", "advertisements")

    def __init__(self, shards: int) -> None:
        if shards <= 0:
            raise ReproError(f"shard count must be positive, got {shards}")
        self._frontiers: list[float] = [LATENT_TS] * shards
        self.regressions = 0
        self.advertisements = 0

    @property
    def shards(self) -> int:
        return len(self._frontiers)

    def advertise(self, shard: int, frontier: float) -> float:
        """Record shard ``shard``'s new frontier; returns the stored value."""
        current = self._frontiers[shard]
        self.advertisements += 1
        if frontier < current:
            self.regressions += 1
            return current
        self._frontiers[shard] = frontier
        return frontier

    def frontier(self, shard: int) -> float:
        return self._frontiers[shard]

    def resize(self, shards: int, *, floor: float | None = None) -> None:
        """Rebuild the register table for a new shard count (resharding).

        Every new register starts at ``floor`` — the reshard coordinator
        passes the old global frontier, which is safe because migrated
        state was quiesced at that frontier: no restored shard can emit
        below it.  ``floor=None`` uses the current global minimum.  The
        ``regressions`` / ``advertisements`` counters survive the resize,
        so a restored shard advertising a stale pre-reshard frontier is
        clamped *and counted* exactly like an in-place regression.
        """
        if shards <= 0:
            raise ReproError(f"shard count must be positive, got {shards}")
        base = self.global_frontier() if floor is None else floor
        self._frontiers = [base] * shards

    def global_frontier(self) -> float:
        """``min`` across all shards — the downstream gate, TSM-style."""
        return min(self._frontiers)

    def spread(self) -> float:
        """How far the fastest shard is ahead of the slowest."""
        lo, hi = min(self._frontiers), max(self._frontiers)
        if lo == LATENT_TS or math.isinf(hi):
            return 0.0
        return hi - lo

    def as_dict(self) -> dict:
        return {
            "frontiers": list(self._frontiers),
            "global": self.global_frontier(),
            "spread": self.spread(),
            "regressions": self.regressions,
            "advertisements": self.advertisements,
        }


class FrontierMerge:
    """Order-restoring merge of shard outputs, gated on the min frontier.

    Only records stamped strictly below the global frontier are released:
    no shard can produce an earlier timestamp any more, so the released
    stream is globally ordered, while records at exactly the frontier stay
    buffered (a shard sitting *at* its frontier may still emit there) — the
    paper's IWP gate applied across shards.  Ties break ``(ts, shard,
    seq)``, the same order for any backend.  Like the strict union's
    kernel it merges runs (DESIGN.md §4g): one sorted run per offer, cut
    by bisection at each release, coalesced past :attr:`RUN_LIMIT`.
    """

    __slots__ = ("_runs", "_seq", "_pending", "released", "released_count")
    RUN_LIMIT = 32  # held runs (an idle shard pins the frontier)

    def __init__(self) -> None:
        self._runs: list[list[MergedRecord]] = []
        self._seq = self._pending = self.released_count = 0
        #: Highest timestamp released so far (−inf before the first).
        self.released = LATENT_TS

    def __len__(self) -> int:
        return self._pending

    pending = property(__len__)

    def offer(self, shard: int, records: Iterable[tuple[str, float, Any]]
              ) -> int:
        """Buffer ``(sink, ts, payload)`` records delivered by ``shard``."""
        run = [(ts, shard, seq, sink, payload)
               for seq, (sink, ts, payload) in enumerate(records, self._seq)]
        run.sort()  # (ts, shard, seq) is unique: payloads never compare
        self._seq += len(run)
        self._pending += len(run)
        self._runs.append(run)  # an empty run is dropped by the next take
        if len(self._runs) > self.RUN_LIMIT:
            self._runs = [sorted(r for held in self._runs for r in held)]
        return len(run)

    def release(self, frontier: float) -> list[MergedRecord]:
        """Take every buffered record stamped strictly below ``frontier``."""
        return self._take(lambda run: bisect_left(run, (frontier,)))

    def flush(self) -> list[MergedRecord]:
        """Release everything (end of stream / orderly close)."""
        return self._take(len)

    def _take(self, cut_of) -> list[MergedRecord]:
        out: list[MergedRecord] = []
        kept = []
        for run in self._runs:
            cut = cut_of(run)
            out += run[:cut]
            if cut < len(run):
                kept.append(run[cut:] if cut else run)
        self._runs = kept
        out.sort()
        self._pending -= len(out)
        self.released_count += len(out)
        if out and out[-1][0] > self.released:
            self.released = out[-1][0]
        return out
