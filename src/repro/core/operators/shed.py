"""Load shedding: drop tuples under overload, keep timestamp knowledge.

The paper's related work minimizes memory through operator scheduling
(Babcock et al.'s Chain, reference [5]); the complementary DSMS tool is
*load shedding* — deliberately dropping tuples when the system cannot keep
up.  This operator sheds at a fixed probability (classic random shedding)
and — the part that matters in this codebase — it stays
punctuation-transparent and converts shedding into timestamp knowledge: a
shed tuple's timestamp is not lost, because the operator's pass-through of
later elements (or an ETS from upstream) still advances downstream TSM
registers.
"""

from __future__ import annotations

import random
from typing import Any

from ..columnar import ColumnarBlock
from ..errors import ExecutionError
from ..tuples import DataTuple
from .base import OpContext
from .stateless import StatelessOperator

__all__ = ["Shed"]


class Shed(StatelessOperator):
    """Fixed-probability load shedder.

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
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`; any other
        key an older snapshot carries is ignored."""
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported Shed state: {state!r}")
        self._rng.setstate(state["rng_state"])
        self.shed_count = state["shed_count"]
        self.passed_count = state["passed_count"]

    def apply(self, tup: DataTuple, ctx: OpContext) -> list[Any]:
        if self.probability > 0.0 and self._rng.random() < self.probability:
            self.shed_count += 1
            return []
        self.passed_count += 1
        return [tup]

    def apply_block(self, block: ColumnarBlock,
                    ctx: OpContext) -> ColumnarBlock | None:
        """Columnar shed: draw per row in row order, narrow the selection.

        The RNG draw sequence is exactly :meth:`apply`'s — no draw at all
        while the probability is zero (so an inactive shedder consumes no
        randomness), one draw per data tuple otherwise — which keeps
        crash-recovery RNG snapshots and byte-identity intact.
        """
        probability = self.probability
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

    @property
    def shed_fraction(self) -> float:
        """Fraction of data tuples dropped so far (nan before any input)."""
        total = self.shed_count + self.passed_count
        if not total:
            return float("nan")
        return self.shed_count / total
