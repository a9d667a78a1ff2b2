"""AIMD token-bucket admission throttle for source nodes.

The throttle sits at the very front of :meth:`SourceNode.ingest`: every
record costs one token, the bucket refills at ``rate`` tokens per virtual
second, and a record arriving to an empty bucket is refused (the source
counts it and returns None, exactly the quarantine-drop contract).

The rate itself is closed-loop controlled the way TCP controls its window
— additive increase, multiplicative decrease:

* a **pressure** wave (:meth:`step` with ``True``) multiplies the rate
  by ``decrease`` (default 0.5), never below ``min_rate``;
* a **relief** beat (``step(False)``) adds ``increase`` tokens/s
  (default ``rate / 10``), never above ``max_rate`` (the configured
  healthy rate).

Everything is driven by the virtual clock and plain arithmetic — no wall
clock, no RNG — so a recovered run replays the same admission decisions
(the bucket state travels in :meth:`snapshot_state`).
"""

from __future__ import annotations

from ..core.errors import PolicyError

__all__ = ["TokenBucketThrottle"]


class TokenBucketThrottle:
    """Token-bucket admission control with AIMD rate adaptation.

    Args:
        rate: Healthy-path admission rate in records per virtual second;
            also the default ``max_rate`` ceiling.
        capacity: Bucket depth in tokens (burst tolerance).  Defaults to
            one second's worth (``rate``), minimum 1.
        increase: Additive-increase step per relief beat, tokens/s.
            Defaults to ``rate / 10``.
        decrease: Multiplicative-decrease factor per pressure wave,
            in ``(0, 1)``.
        min_rate: Floor the rate never drops below.  Defaults to
            ``rate / 100``.
        max_rate: Ceiling the rate never recovers past.  Defaults to
            ``rate``.

    Attributes:
        admitted / denied: Admission decision counters.
        decreases / increases: AIMD events applied so far.
    """

    def __init__(self, rate: float, *, capacity: float | None = None,
                 increase: float | None = None, decrease: float = 0.5,
                 min_rate: float | None = None,
                 max_rate: float | None = None) -> None:
        if rate <= 0:
            raise PolicyError(f"throttle rate must be > 0, got {rate}")
        if not 0.0 < decrease < 1.0:
            raise PolicyError(
                f"throttle decrease must be in (0, 1), got {decrease}")
        self.rate = float(rate)
        self.capacity = max(1.0, float(capacity if capacity is not None
                                       else rate))
        self.increase = float(increase if increase is not None
                              else rate / 10.0)
        self.decrease = float(decrease)
        self.min_rate = float(min_rate if min_rate is not None
                              else rate / 100.0)
        self.max_rate = float(max_rate if max_rate is not None else rate)
        self._tokens = self.capacity
        self._last_refill: float | None = None
        self.admitted = 0
        self.denied = 0
        self.decreases = 0
        self.increases = 0

    # ------------------------------------------------------------------ #
    # Admission

    def admit(self, now: float) -> bool:
        """Spend one token at virtual time ``now``; False refuses the record."""
        if self._last_refill is None:
            self._last_refill = now
        elif now > self._last_refill:
            self._tokens = min(self.capacity, self._tokens
                               + (now - self._last_refill) * self.rate)
            self._last_refill = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.admitted += 1
            return True
        self.denied += 1
        return False

    # ------------------------------------------------------------------ #
    # AIMD control

    def step(self, pressure: bool) -> None:
        """Apply one AIMD step: decrease on a pressure wave, increase on a
        relief beat."""
        if pressure:
            if self.rate > self.min_rate:
                self.rate = max(self.min_rate, self.rate * self.decrease)
                self.decreases += 1
            # A pressure wave also drains any accumulated burst allowance:
            # the backlog downstream *is* the burst we already admitted.
            if self._tokens > 1.0:
                self._tokens = 1.0
        elif self.rate < self.max_rate:
            self.rate = min(self.max_rate, self.rate + self.increase)
            self.increases += 1

    @property
    def denied_fraction(self) -> float:
        """Fraction of records refused so far (nan before any decision)."""
        total = self.admitted + self.denied
        if not total:
            return float("nan")
        return self.denied / total

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot_state(self) -> dict:
        """Versioned snapshot of the bucket and AIMD state."""
        return {
            "version": 1,
            "rate": self.rate,
            "tokens": self._tokens,
            "last_refill": self._last_refill,
            "admitted": self.admitted,
            "denied": self.denied,
            "decreases": self.decreases,
            "increases": self.increases,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise PolicyError(
                f"unsupported TokenBucketThrottle state: {state!r}")
        self.rate = state["rate"]
        self._tokens = state["tokens"]
        self._last_refill = state["last_refill"]
        self.admitted = state["admitted"]
        self.denied = state["denied"]
        self.decreases = state["decreases"]
        self.increases = state["increases"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TokenBucketThrottle(rate={self.rate:g}, "
                f"tokens={self._tokens:.1f})")
