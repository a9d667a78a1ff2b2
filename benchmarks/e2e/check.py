"""Output checks: everything that feeds ``failed`` / ``failed_fraction``.

A benchmark that times wrong answers measures nothing, so every run checks
what it produced:

* the sink's output is timestamp-ordered;
* delivered counts and exact counters repeat across the timed drives
  (and, where outputs are in hand, so does the canonical digest);
* the first :data:`DIFFERENTIAL_PREFIX` arrivals give the same
  multiset of outputs through the scalar engine (``batch_size=1,
  block_mode=False``) as through the default one;
* workload-specific equalities (``Workload.verify``): sharded output ==
  serial P=1, elastic output across reshard + crash + recover == an
  uninterrupted static run, on-demand ETS keeps the union from idling.

Digests are *canonical* — order-free over the multiset of ``(ts,
payload)`` — because equal-timestamp tuples on different inputs of a union
or join may legally interleave differently across engine configurations.
Payload values are numbers by construction of the feeds, so ``hash()`` is
stable across processes (no string hashing is involved).
"""

from __future__ import annotations

from repro.api import EngineConfig

__all__ = ["DIFFERENTIAL_PREFIX", "SCALAR", "Checks", "Digest",
           "differential", "digest_records"]

#: The reference configuration of the differential check: the paper's
#: tuple-at-a-time engine.
SCALAR = EngineConfig(batch_size=1, block_mode=False)
#: Arrivals the differential check replays through the scalar engine.
DIFFERENTIAL_PREFIX = 8_192

_MASK = (1 << 64) - 1


class Digest:
    """Streaming canonical digest; doubles as a sink's ``on_output``.

    Tracks the delivered count, whether timestamps ever went backwards, and
    an order-free accumulator over ``(ts, payload values)``.
    """

    __slots__ = ("count", "unordered", "last", "acc", "mix")

    def __init__(self) -> None:
        self.count = 0
        self.unordered = 0
        self.last = float("-inf")
        self.acc = 0
        self.mix = 0

    def __call__(self, tup, latency=None) -> None:
        self.add(tup.ts, tup.payload)

    def add(self, ts: float, payload: dict) -> None:
        if ts < self.last:
            self.unordered += 1
        self.last = ts
        self.count += 1
        h = hash((ts, *payload.values()))
        self.acc = (self.acc + h) & _MASK
        self.mix ^= h

    def result(self) -> tuple[int, int, int]:
        return (self.count, self.acc, self.mix & _MASK)


def digest_records(records) -> tuple[int, int, int]:
    """Canonical digest of ``(ts, payload)`` records."""
    return _digest(records).result()


def _digest(records, breaks: tuple[int, ...] = ()) -> Digest:
    digest = Digest()
    for index, (ts, payload) in enumerate(records):
        if index in breaks:
            digest.last = float("-inf")
        digest.add(ts, payload)
    return digest


class Checks:
    """Accumulates pass/fail outcomes; ``failed`` names what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{what}: {detail}" if detail else what)
        return ok

    def drive(self, what: str, drive, capture: Digest | None = None) -> tuple:
        """Checks every drive passes; returns its canonical digest."""
        digest = capture if drive.records is None else _digest(
            drive.records, drive.breaks)
        if digest is None:
            return ()
        self.expect(f"{what}: output is timestamp-ordered",
                    digest.unordered == 0,
                    f"{digest.unordered} regressions")
        self.expect(f"{what}: sink saw every delivery",
                    digest.count == drive.delivered and drive.delivered > 0,
                    f"{digest.count} captured, {drive.delivered} delivered")
        return digest.result()

    def repeat(self, index: int, drive, reference, digest: tuple) -> None:
        """A timed drive must reproduce the verified drive exactly."""
        self.expect(f"repeat {index}: exact counters repeat",
                    drive.fingerprint == reference.fingerprint,
                    f"{drive.fingerprint} != {reference.fingerprint}")
        if drive.records is not None:
            self.expect(f"repeat {index}: canonical digest repeats",
                        digest_records(drive.records) == digest)


def differential(workload, checks: Checks) -> None:
    """Default engine == scalar engine on the feed's first arrivals."""
    results = []
    for config in (None, SCALAR):
        capture = Digest()
        plan = workload.build(config=config, capture=capture,
                              prefix=DIFFERENTIAL_PREFIX)
        drive = workload.drive(plan)
        if drive.records is None:
            results.append(capture.result())
        elif workload.stamps_follow_timing:
            results.append(digest_records(
                (0.0, payload) for _, payload in drive.records))
        else:
            results.append(digest_records(drive.records))
    checks.expect("default engine == scalar engine on the prefix",
                  results[0] == results[1] and results[0][0] > 0,
                  f"{results[0]} != {results[1]}")
