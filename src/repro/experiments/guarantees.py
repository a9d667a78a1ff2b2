"""The repository's own guarantees R1, R2 and S1–S3, as measurements.

None of these is a figure of the paper; each is a promise the durability
and sharding layers make on top of the engine.  The R rows crash-stop the
union scenario and recover it (:mod:`.crash`); the S rows drive a keyed
window join through the sharded engine, with and without live resharding,
beside one unsharded engine.  One function per row builds the workload,
runs it and returns its measurements;
:func:`repro.experiments.validation.validate_guarantee_claims` judges them
and EXPERIMENTS.md tabulates them.  Defaults are the sizes EXPERIMENTS.md
quotes; the keyword arguments exist so tests can run the same code on fewer
tuples.
"""

from __future__ import annotations

import random

from ..core.ets import NoEts
from ..core.graph import QueryGraph
from ..core.tuples import TimestampKind
from ..core.windows import WindowSpec
from ..query.pipeline import Pipeline
from ..shard import ElasticShardedEngine, ShardedEngine
from .crash import CrashConfig, CrashReport, run_crash_experiment

__all__ = [
    "corrupt_checkpoint",
    "crash_recovery",
    "live_reshard",
    "run_guarantees",
    "sharded_join",
]

#: The R rows' union scenario: the fast stream arrives at ``CRASH_RATE``
#: tuples per second, and R1 runs one crash cycle per ``CRASH_BATCHES``
#: batch size.
CRASH_RATE, CRASH_BATCHES = 20.0, (1, 64)

#: The S rows' keyed join: tuples alternate between inputs L and R at
#: ``RATE`` per stream second with keys drawn from ``CARDINALITY``, joined
#: over a ``SPAN``-second window; ``CHUNK`` arrivals are routed between
#: wake-ups and each shard runs blocks of up to ``BATCH`` rows.  S1 runs
#: the P=2 join on each of ``BACKENDS``.
RATE, CARDINALITY, SPAN, CHUNK, BATCH, SEED = 100.0, 64, 2.0, 32, 8, 42
BACKENDS = ("serial", "process")


def crash_recovery(*, duration: float = 30.0, crash_at: float = 15.0
                   ) -> dict[int, CrashReport]:
    """R1: crash-stop the union scenario at ``crash_at``, recover from
    checkpoint + WAL, resume to ``duration``; one cycle per batch size."""
    return {
        size: run_crash_experiment(CrashConfig(
            duration=duration, crash_at=crash_at, rate_fast=CRASH_RATE,
            checkpoint_every=25, batch_size=size))
        for size in CRASH_BATCHES
    }


def corrupt_checkpoint(*, duration: float = 30.0, crash_at: float = 15.0
                       ) -> CrashReport:
    """R2: the R1 cycle with the newest checkpoint corrupted before
    recovery (a checkpoint every 10 rounds, so an older one exists)."""
    return run_crash_experiment(CrashConfig(
        duration=duration, crash_at=crash_at, rate_fast=CRASH_RATE,
        checkpoint_every=10, corrupt_latest=True))


def _feeds(tuples: int) -> list[tuple[str, float, dict]]:
    """``(source, t, payload)`` per arrival, stamped at its arrival time."""
    rng = random.Random(SEED)
    return [("L" if i % 2 == 0 else "R", (i + 1) / RATE,
             {"key": rng.randrange(CARDINALITY), "seq": i})
            for i in range(tuples)]


def _join_graph() -> QueryGraph:
    p = Pipeline("sharded-join")
    left = p.source("L", TimestampKind.EXTERNAL)
    right = p.source("R", TimestampKind.EXTERNAL)
    left.join(right, WindowSpec.time(SPAN), key="key", name="join").sink("out")
    return p.graph


def _drive(feeds, shards: int, backend: str,
           reshards: dict[int, int] | None = None) -> dict:
    """Feed ``feeds`` through P=``shards`` engines, resharding to
    ``reshards[i]`` before arrival ``i``.  Returns the merged output as
    sorted ``(sink, ts, repr(payload))`` and the reshard reports."""
    cls = ElasticShardedEngine if reshards else ShardedEngine
    engine = cls(_join_graph, shards=shards, key="key", backend=backend,
                 ets_policy=NoEts, batch_size=BATCH, op_timeout=60.0)
    schedule = dict(reshards or {})
    records = []
    for index, (source, t, payload) in enumerate(feeds):
        if index in schedule:
            report = engine.reshard(schedule.pop(index), reason="validate")
            records.extend(report.released)
        engine.ingest(source, payload, time=t, ts=t)
        if (index + 1) % CHUNK == 0:
            records.extend(engine.wakeup())
    final_ts = feeds[-1][1] + 1.0
    for name in ("L", "R"):
        engine.inject_punctuation(name, final_ts, origin=f"eos:{name}")
    records.extend(engine.wakeup())
    reports = list(getattr(engine, "reshards", ()))
    records.extend(engine.close(flush=True))
    return {"records": sorted((r[3], r[0], repr(r[4])) for r in records),
            "reshards": reports}


def sharded_join(*, tuples: int = 800) -> dict[str, dict]:
    """S1: the keyed join at P=2 on each backend, beside one engine."""
    feeds = _feeds(tuples)
    reference = _drive(feeds, 1, "serial")["records"]
    return {backend: {**_drive(feeds, 2, backend), "reference": reference}
            for backend in BACKENDS}


def live_reshard(*, runs: tuple[tuple[str, int, int], ...] = (
                     ("thread", 2, 2400), ("process", 2, 2400),
                     ("serial", 4, 1600))) -> dict[str, dict]:
    """S2/S3: per ``(backend, P, tuples)``, grow to P+1 at the first chunk
    boundary past a third of the feed and shrink back to P at two thirds.

    Each run also carries ``first_segment_ts``, the last timestamp of the
    first wake-up segment: a reshard whose floor lies above it has dead
    history it must not replay.
    """
    out = {}
    for backend, shards, tuples in runs:
        feeds = _feeds(tuples)
        schedule = {int(tuples * f) // CHUNK * CHUNK: target
                    for f, target in ((1 / 3, shards + 1), (2 / 3, shards))}
        out[f"{backend} P={shards}"] = {
            **_drive(feeds, shards, backend, reshards=schedule),
            "reference": _drive(feeds, 1, "serial")["records"],
            "first_segment_ts": feeds[min(CHUNK, tuples) - 1][1],
        }
    return out


def run_guarantees() -> dict[str, object]:
    """Every guarantee at the size EXPERIMENTS.md quotes, keyed by claim
    id; S3 is judged on the S2 runs."""
    return {
        "R1": crash_recovery(),
        "R2": corrupt_checkpoint(),
        "S1": sharded_join(),
        "S2": live_reshard(),
    }
