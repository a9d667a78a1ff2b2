"""Load shedding: drop tuples under overload, keep timestamp knowledge.

The paper's related work minimizes memory through operator scheduling
(Babcock et al.'s Chain, reference [5]); the complementary DSMS tool is
*load shedding* — deliberately dropping tuples when the system cannot keep
up.  This operator sheds by probability or by queue pressure, and — the
part that matters in this codebase — it stays punctuation-transparent and
converts shedding into timestamp knowledge: a shed tuple's timestamp is not
lost, because the operator's pass-through of later elements (or an ETS from
upstream) still advances downstream TSM registers.

The drop rate is the configured ``probability`` (classic random shedding at
a fixed rate) or, when larger, the ``drop_budget`` an upstream-flowing
feedback wave granted — pressure-driven shedding that is inactive in a
healthy system (see :mod:`repro.feedback`).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any

from ..columnar import ColumnarBlock
from ..errors import ExecutionError
from ..tuples import DataTuple
from .base import OpContext
from .stateless import StatelessOperator

__all__ = ["Shed"]


class Shed(StatelessOperator):
    """Probabilistic / pressure-driven load shedder.

    Args:
        probability: Chance of dropping each data tuple (0 disables random
            shedding).
        seed: RNG seed — shedding must be reproducible like everything else.

    Attributes:
        shed_count: Data tuples dropped so far.
    """

    def __init__(self, name: str, probability: float, *,
                 seed: int = 0) -> None:
        super().__init__(name)
        if not 0.0 <= probability <= 1.0:
            raise ExecutionError(
                f"shed {name!r}: probability must be in [0, 1], "
                f"got {probability}"
            )
        self.probability = probability
        self._rng = random.Random(seed)
        self.shed_count = 0
        self.passed_count = 0
        #: Drop probability granted by upstream-flowing feedback (see
        #: :mod:`repro.feedback`); the effective drop rate is the max of
        #: the configured probability and this budget.  Stays 0.0 — and the
        #: operator stays byte-identical to its pre-feedback behavior —
        #: until a feedback wave actually carries a budget.
        self.drop_budget = 0.0

    def state_floor(self) -> float:
        """The RNG position depends on every row ever offered."""
        return float("-inf")

    def snapshot_state(self) -> dict:
        """Versioned snapshot of RNG position and shed counters.

        The RNG state travels so a recovered run draws the *same* random
        sequence the uninterrupted run would have — shedding decisions are
        part of the deterministic replay contract.
        """
        return {
            "version": 1,
            "rng_state": self._rng.getstate(),
            "shed_count": self.shed_count,
            "passed_count": self.passed_count,
            "drop_budget": self.drop_budget,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported Shed state: {state!r}")
        self._rng.setstate(state["rng_state"])
        self.shed_count = state["shed_count"]
        self.passed_count = state["passed_count"]
        self.drop_budget = state.get("drop_budget", 0.0)

    @property
    def effective_probability(self) -> float:
        """Drop rate in force: configured probability or feedback budget."""
        if self.drop_budget > self.probability:
            return self.drop_budget
        return self.probability

    def apply(self, tup: DataTuple, ctx: OpContext) -> list[Any]:
        probability = self.effective_probability
        if probability > 0.0 and self._rng.random() < probability:
            self.shed_count += 1
            return []
        self.passed_count += 1
        return [tup]

    def apply_block(self, block: ColumnarBlock,
                    ctx: OpContext) -> ColumnarBlock | None:
        """Columnar shed: draw per row in row order, narrow the selection.

        The RNG draw sequence is exactly :meth:`apply`'s — no draw at all
        while the effective probability is zero (so an inactive shedder
        consumes no randomness), one draw per data tuple otherwise — which
        keeps crash-recovery RNG snapshots and byte-identity intact.
        """
        probability = self.effective_probability
        if probability <= 0.0:
            self.passed_count += block.count
            return block
        rng_random = self._rng.random
        kept: list[int] = []
        for i in block.indices():
            if rng_random() < probability:
                self.shed_count += 1
            else:
                self.passed_count += 1
                kept.append(i)
        if not kept:
            return None
        return block.with_selection(kept)

    def on_feedback(self, feedback, now: float):
        """Adopt the wave's drop budget; absorb it from further upstream.

        A pressure wave sets the budget directly; a relief wave halves it
        (and snaps to zero below 1%), so shedding unwinds over a few relief
        beats instead of cliff-dropping.  The forwarded assertion carries
        ``drop_budget=0``: this operator consumed the budget, and upstream
        shedders double-dropping the same tuples would overshoot.
        """
        if feedback.is_relief:
            self.drop_budget = 0.0 if self.drop_budget < 0.01 \
                else self.drop_budget * 0.5
        else:
            self.drop_budget = min(1.0, max(0.0, feedback.drop_budget))
        return replace(feedback, drop_budget=0.0)

    @property
    def shed_fraction(self) -> float:
        """Fraction of data tuples dropped so far (nan before any input)."""
        total = self.shed_count + self.passed_count
        if not total:
            return float("nan")
        return self.shed_count / total
