"""Isolated per-layer microbenches (``run.py --layers``): ns per operation.

The traced run says where a workload's wall time goes; these say what one
operation of each layer costs on its own, with nothing else on the path.
Rows are keyed by the per-layer metric family they belong to (the name
before the brackets is the layer of ``BENCHMARK.json``), so a change that
moves ``core.buffers.push_s`` in a traced run should move
``core.buffers.push_block[...]`` here too.

Each row is the median over :data:`ROUNDS` rounds of ``n`` operations; GC
is off inside a round.  These are *not* end-to-end numbers and carry no
bound — they exist to explain the ones that do.
"""

from __future__ import annotations

import gc
import pickle
import random
import shutil
import statistics
from time import perf_counter

from repro.api import (
    CheckpointStore,
    ColumnarBlock,
    DataTuple,
    EventBus,
    ExecutionEngine,
    FrontierMerge,
    HashPartitioner,
    Observer,
    OnDemandEts,
    Pipeline,
    VirtualClock,
    WriteAheadLog,
)
from repro.core.buffers import StreamBuffer
from repro.shard.backends import ShardResult

from workloads import CHUNK, OUT_DIR

__all__ = ["bus_dispatch_ns", "run_layers"]

ROUNDS = 5


def _rounds(round_fn) -> list:
    """``round_fn()`` ROUNDS times, GC collected before and off inside."""
    results = []
    for _ in range(ROUNDS):
        gc.collect()
        gc.disable()
        try:
            results.append(round_fn())
        finally:
            gc.enable()
    return results


def _ns_per_op(round_fn, ops: int) -> float:
    """Median over the rounds of ``round_fn()`` seconds, as ns per op."""
    return statistics.median(_rounds(round_fn)) / ops * 1e9


def _ns_per_op_pair(round_fn, ops: int) -> tuple[float, float]:
    """Same for a round that times two phases: ``(first, second)``."""
    first, second = zip(*_rounds(round_fn))
    return (statistics.median(first) / ops * 1e9,
            statistics.median(second) / ops * 1e9)


def _block(rows: int, base: float = 0.0) -> ColumnarBlock:
    return ColumnarBlock.from_tuples(
        [DataTuple(ts=base + i * 1e-3, payload={"seq": i, "value": i * 0.5})
         for i in range(rows)])


def _buffer_transport(rows: int) -> dict[str, float]:
    blocks = 200
    prepared = [[_block(rows, base=(r * blocks + b) * rows * 1e-3)
                 for b in range(blocks)] for r in range(ROUNDS)]

    def one_round() -> tuple[float, float]:
        buf = StreamBuffer("bench")
        mine = prepared.pop()
        t0 = perf_counter()
        for block in mine:
            buf.push_block(block)
        t1 = perf_counter()
        while buf.drain_block(rows) is not None:
            pass
        return t1 - t0, perf_counter() - t1

    push, drain = _ns_per_op_pair(one_round, blocks)
    return {f"core.buffers.push_block[{rows}]": push,
            f"core.buffers.drain_block[{rows}]": drain}


def _identity(payload):
    return payload


def _walk_chain(length: int = 8, chunks: int = 2_000) -> float:
    """The NOS walk over ``length`` pass-through operators: ns per operator
    dispatch, one row per wake-up so the kernels have nothing to amortize."""

    def one_round() -> float:
        p = Pipeline("walk")
        stream = p.source("src")
        for i in range(length):
            stream = stream.map(_identity, name=f"pass{i}")
        stream.sink("sink")
        clock = VirtualClock()
        engine = ExecutionEngine(p.compile(), clock, config=p.config)
        src = p.graph["src"]
        payload = {"seq": 0}
        spent = 0.0
        for c in range(chunks):
            now = c * 1.0
            clock.advance_to(now)
            src.ingest(payload, now=now)
            t0 = perf_counter()
            engine.wakeup(src)
            spent += perf_counter() - t0
        return spent

    return _ns_per_op(one_round, chunks * (length + 1))


def _ets_generate(calls: int = 20_000) -> float:
    def one_round() -> float:
        p = Pipeline("ets")
        p.source("src").sink("sink")
        src = p.compile()["src"]
        policy = OnDemandEts()
        t0 = perf_counter()
        for i in range(calls):
            policy.on_source_stalled(src, i * 1e-3 + 1.0, i)
        return perf_counter() - t0

    return _ns_per_op(one_round, calls)


def bus_dispatch_ns(observers: int, events: int = 20_000) -> float:
    """One ``step`` event through a bus with ``observers`` no-op observers."""
    bus = EventBus([Observer() for _ in range(observers)])
    kw = dict(operator="op", round_id=1, time=0.0, kind="block", steps=64,
              probes=0, probes_emitted=0, emitted_data=64,
              emitted_punctuation=0, duration=0.0)

    def one_round() -> float:
        t0 = perf_counter()
        for _ in range(events):
            bus.step(**kw)
        return perf_counter() - t0

    return _ns_per_op(one_round, events)


def _durability() -> dict[str, float]:
    root = OUT_DIR / "layers"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    record = {"kind": "ingest", "source": "fast", "time": 1.0, "now": 1.0,
              "payload": {"seq": 1, "k": 17, "value": 0.25},
              "external_ts": None}
    out = {}
    try:
        for fsync, appends in ((False, 5_000), (True, 200)):
            counter = iter(range(ROUNDS))

            def one_round() -> float:
                log = WriteAheadLog(root / f"wal-{fsync}-{next(counter)}.log",
                                    fsync=fsync)
                t0 = perf_counter()
                for _ in range(appends):
                    log.append(record)
                spent = perf_counter() - t0
                log.close()
                return spent

            key = "fsync" if fsync else "no-fsync"
            out[f"recovery.wal.append[{key}]"] = _ns_per_op(one_round,
                                                            appends)
        state = {"operators": {f"op{i}": {"window": list(range(200))}
                               for i in range(8)}}
        saves = 20
        store = CheckpointStore(root / "ckpt")

        def save_round() -> float:
            t0 = perf_counter()
            for _ in range(saves):
                store.save(state)
            return perf_counter() - t0

        out["recovery.checkpoint.save[fsync]"] = _ns_per_op(save_round,
                                                            saves)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


def _routing(calls: int = 50_000) -> float:
    partitioner = HashPartitioner(4, "k")
    payloads = [{"k": i % 256} for i in range(calls)]

    def one_round() -> float:
        route = partitioner.shard_for_payload
        t0 = perf_counter()
        for payload in payloads:
            route(payload)
        return perf_counter() - t0

    return _ns_per_op(one_round, calls)


def _pickle_round_trip(trips: int = 500) -> float:
    """What one process wake-up moves: a 64-ingest command there, a result
    with as many outputs back."""
    rng = random.Random(5)
    ingests = [("fast", {"seq": i, "k": rng.randrange(256),
                         "value": rng.random()}, i * 0.01, None)
               for i in range(CHUNK)]
    command = ("apply", ingests, [], 0.64, None)
    result = ("ok", ShardResult(
        shard=0, frontier=0.64, ingested=CHUNK,
        outputs=[("sink", i * 0.01, {"seq": i, "k": 3, "value": 0.5})
                 for i in range(CHUNK)]))

    def one_round() -> float:
        t0 = perf_counter()
        for _ in range(trips):
            pickle.loads(pickle.dumps(command))
            pickle.loads(pickle.dumps(result))
        return perf_counter() - t0

    return _ns_per_op(one_round, trips)


def _frontier_merge(records: int = 50_000) -> dict[str, float]:
    batches = [[("sink", (b * CHUNK + i) * 1e-3, None) for i in range(CHUNK)]
               for b in range(records // CHUNK)]

    def one_round() -> tuple[float, float]:
        merge = FrontierMerge()
        offered = released = 0.0
        for index, batch in enumerate(batches):
            t0 = perf_counter()
            merge.offer(index % 2, batch)
            t1 = perf_counter()
            merge.release(batch[-1][1])
            offered += t1 - t0
            released += perf_counter() - t1
        return offered, released

    offer, release = _ns_per_op_pair(one_round, records)
    return {"shard.frontier.offer[per-record]": offer,
            "shard.frontier.release[per-record]": release}


def run_layers() -> dict[str, float]:
    """Every microbench; values are ns per operation."""
    rows: dict[str, float] = {}
    for size in (64, 1_024):
        rows.update(_buffer_transport(size))
    rows["core.execution.walk[per-dispatch]"] = _walk_chain()
    rows["core.ets.generate[on_source_stalled]"] = _ets_generate()
    for observers in (0, 1):
        rows[f"obs.bus.dispatch[{observers}-observers]"] = bus_dispatch_ns(
            observers)
    rows.update(_durability())
    rows["shard.partition.route[per-payload]"] = _routing()
    rows["shard.backends.pickle[64-ingest-round-trip]"] = _pickle_round_trip()
    rows.update(_frontier_merge())
    return rows
