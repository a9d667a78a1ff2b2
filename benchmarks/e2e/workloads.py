"""Seeded feeds, plans and closed-loop drivers for the five workloads.

Every workload follows one protocol (README.md, "Protocol"): a single
driver thread hands the engine a *chunk* of :data:`CHUNK` arrivals, calls
the wake-up, and sends the next chunk only when it returns.  A chunk's
wall time runs from the start of its ingest until its wake-up returns, so
``ingest`` is inside every number this harness reports.

Plans are built through :class:`repro.api.Pipeline` and run with the
:class:`~repro.api.EngineConfig` the pipeline defaults to; the only knobs
set here are the ones that *define* a workload (the ETS policy, the shard
count and backend, the checkpoint cadence).  Feeds come from ``--seed``
alone: the program under test sees only the generated arrivals.

Sizes and the reason each workload exists are mirrored in
``BENCHMARK.json`` (``test_harness.py`` checks the names agree).
"""

from __future__ import annotations

import os
import random
import shutil
from pathlib import Path
from time import perf_counter

from repro.api import (
    Arrival,
    ElasticShardedEngine,
    EngineConfig,
    ExecutionEngine,
    FieldPredicate,
    OnDemandEts,
    Pipeline,
    ShardedEngine,
    TimestampKind,
    VirtualClock,
    WindowSpec,
)

from check import differential, digest_records

__all__ = ["CHUNK", "WORKLOADS", "Drive", "SpeedProbe", "Workload"]

#: Arrivals handed to the engine between two wake-ups.
CHUNK = 64
#: Scratch space for durable state and trace files; inside the checkout
#: because the benchmark may write nowhere else, and git-ignored.
OUT_DIR = Path(__file__).resolve().parent / ".out"


#: The speed probe: a fixed pure-Python loop, and the seconds it takes on
#: the reference sandbox when nothing else runs there.
PROBE_ITERATIONS = 2_000
PROBE_NOMINAL_S = 100e-6
#: Driving seconds between two probes.
PROBE_PERIOD_S = 0.002


class SpeedProbe:
    """Samples how fast this machine runs Python *right now*.

    The sandbox's cores are shared: identical code runs 10-40 % slower for
    seconds at a time while a neighbour is busy, and the same run repeats
    no better than that.  So every ~2 ms of driving — between chunks,
    outside their timings — the driver runs a fixed loop and notes how
    long it took.  ``reference()`` then rescales each chunk by
    ``PROBE_NOMINAL_S / probe nearest to it``: wall seconds become
    *reference seconds*, what the chunk would take on the undisturbed
    reference machine.  The probe never changes with the program, so the
    factor depends on the machine alone.
    """

    __slots__ = ("chunk_s", "marks", "samples", "last", "spent")

    def __init__(self, chunk_s: list[float]) -> None:
        self.chunk_s = chunk_s
        self.marks: list[int] = []
        self.samples: list[float] = []
        self.last = float("-inf")
        self.spent = 0.0

    def __call__(self) -> None:
        started = perf_counter()
        if started - self.last < PROBE_PERIOD_S:
            return
        x = 0
        for i in range(PROBE_ITERATIONS):
            x += i * i
        self.last = perf_counter()
        self.samples.append(self.last - started)
        self.marks.append(len(self.chunk_s))
        self.spent += self.last - started

    def reference(self) -> list[float]:
        """``chunk_s`` in reference seconds (median-of-3 smoothed probes)."""
        samples, marks = self.samples, self.marks
        windows = [sorted(samples[max(0, j - 1):j + 2])
                   for j in range(len(samples))]
        smooth = [window[len(window) // 2] for window in windows]
        out, k = [], 0
        for index, seconds in enumerate(self.chunk_s):
            while k < len(marks) - 1 and index >= marks[k]:
                k += 1
            out.append(seconds * PROBE_NOMINAL_S / smooth[k])
        return out


class Drive:
    """What one closed-loop drive measured and produced.

    Attributes:
        wall_s: First ingest to quiescence after the last arrival, less the
            time the speed probe took.
        chunk_s: Wall seconds of every chunk — every blocking call the
            driver makes — in feed order.
        probe: The :class:`SpeedProbe` that ran between the chunks.
        arrivals: Input arrivals fed.
        delivered: Data tuples that reached the sink / left the merge.
        fingerprint: Exact counters that must repeat across drives.
        records: ``(ts, payload)`` outputs in delivery order, or None when
            the sink ran without a consumer (the bulk plans' timed drives).
        breaks: Indices into ``records`` where timestamp order legitimately
            restarts (a crash-stop flushes the volatile merge).
        extras: Workload-specific measurements (``reshard_pause_ms``, ...).
        handles: Live objects the trace summary reads counters from.
    """

    __slots__ = ("wall_s", "chunk_s", "probe", "arrivals", "delivered",
                 "fingerprint", "records", "breaks", "extras", "handles")

    def __init__(self, tracer=None) -> None:
        self.wall_s = 0.0
        self.chunk_s: list[float] = []
        self.probe = SpeedProbe(self.chunk_s)
        if tracer is not None:
            # A traced drive reports raw seconds per layer; probing would
            # only add spans of the harness's own.
            self.probe.last = float("inf")
        self.arrivals = 0
        self.delivered = 0
        self.fingerprint: tuple = ()
        self.records: list | None = None
        self.breaks: tuple[int, ...] = ()
        self.extras: dict[str, float] = {}
        self.handles: dict = {}


class Workload:
    """One workload: a seeded feed, a plan factory, and a driver."""

    name = ""
    #: Build the plan before installing the tracer (the process backend
    #: forks at construction; workers must run the unwrapped classes).
    trace_after_build = False
    #: Full-size arrivals; ``scale`` (``--smoke``) divides it.
    size = 0
    #: Output timestamps depend on engine timing (a charging cost model
    #: stamps an arrival that finds the engine busy with its later entry
    #: time, and batching moves that instant), so the differential check
    #: compares payloads only.
    stamps_follow_timing = False

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.chunks = self.generate(max(CHUNK * 4, int(self.size * scale)))
        self.arrivals = sum(len(chunk) for chunk in self.chunks)

    def generate(self, arrivals: int) -> list[list]:
        raise NotImplementedError

    def build(self, *, config: EngineConfig | None = None, capture=None,
              observers=(), prefix: int | None = None):
        """Set-up: compile the plan and construct the engine (a *plan*).

        ``capture`` is the sink consumer (``on_output``) of a verification
        drive; ``prefix`` limits the plan's feed to its first arrivals.
        """
        raise NotImplementedError

    def drive(self, plan, tracer=None) -> Drive:
        raise NotImplementedError

    def prefix_chunks(self, prefix: int | None) -> list[list]:
        if prefix is None:
            return self.chunks
        return self.chunks[:max(1, prefix // CHUNK)]

    def verify(self, checks, reference: Drive, digest: tuple) -> None:
        """Output checks beyond the verified drive's own: reference engines
        and topologies must reproduce its canonical ``digest``."""
        differential(self, checks)

    def topologies(self, process_apply: dict) -> dict[str, float]:
        """Per-layer values from reference drives on other topologies
        (traced runs only; ``process_apply`` is the traced drive's
        ``shard.backends.apply`` summary row)."""
        return {}


def _pipeline(name: str, config: EngineConfig | None, observers) -> Pipeline:
    """A pipeline on the library's default config unless a check overrides
    it (the scalar reference) or attaches observers."""
    pipeline = Pipeline(name, config=config)
    if observers:
        pipeline.engine(observers=tuple(observers))
    return pipeline


# ---------------------------------------------------------------------- #
# Bulk plans: one ExecutionEngine fed chunk by chunk


class _BulkPlan:
    __slots__ = ("graph", "engine", "clock", "sources", "sink", "chunks",
                 "compile_s")


class _BulkWorkload(Workload):
    """Shared driver of the two single-engine plans."""

    source_names: tuple[str, ...] = ()

    def declare(self, p: Pipeline, capture) -> None:
        """Declare the query on ``p``, ending in a sink named ``sink``."""
        raise NotImplementedError

    def build(self, *, config=None, capture=None, observers=(),
              prefix=None) -> _BulkPlan:
        plan = _BulkPlan()
        started = perf_counter()
        pipeline = _pipeline(self.name, config, observers)
        self.declare(pipeline, capture)
        plan.graph = pipeline.compile()
        plan.compile_s = perf_counter() - started
        plan.clock = VirtualClock()
        plan.engine = ExecutionEngine(
            plan.graph, plan.clock, ets_policy=OnDemandEts(),
            config=pipeline.config)
        plan.sources = {name: plan.graph[name] for name in self.source_names}
        plan.sink = pipeline.sinks["sink"]
        plan.chunks = self.prefix_chunks(prefix)
        return plan

    def drive(self, plan: _BulkPlan, tracer=None) -> Drive:
        out = Drive(tracer)
        engine, clock, sources = plan.engine, plan.clock, plan.sources
        advance = clock.advance_to
        chunk_s, probe = out.chunk_s, out.probe
        started = perf_counter()
        if tracer is not None:
            tracer.begin_drive()
        for chunk in plan.chunks:
            t0 = perf_counter()
            if tracer is not None:
                tracer.begin_chunk(len(chunk_s))
            for name, when, ets, payload in chunk:
                advance(when)
                source = sources[name]
                source.ingest(payload, now=when, ts=ets, arrival=when)
            engine.wakeup(source)
            if tracer is not None:
                tracer.end_chunk()
            chunk_s.append(perf_counter() - t0)
            probe()
        # Quiescence after the last arrival: one end-of-stream punctuation
        # per source releases everything still gated.
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin_chunk(len(chunk_s))
        final = plan.chunks[-1][-1][1] + 1.0
        advance(final)
        for name in self.source_names:
            sources[name].inject_punctuation(final, origin=f"eos:{name}")
        engine.wakeup()
        if tracer is not None:
            tracer.end_chunk()
            tracer.end_drive()
        ended = perf_counter()
        chunk_s.append(ended - t0)
        out.wall_s = ended - started - probe.spent
        out.arrivals = sum(len(chunk) for chunk in plan.chunks)
        sink, stats = plan.sink, engine.stats
        out.delivered = sink.delivered
        out.fingerprint = (
            sink.delivered, sink.latency_count, sink.latency_sum,
            sink.punctuation_eliminated, stats.steps, stats.punct_steps,
            stats.probes, stats.probes_emitted, stats.ets_injected,
            stats.emitted_data)
        out.handles = {"engines": [engine], "graphs": [plan.graph],
                       "compile_s": plan.compile_s}
        return out


GAP = 0.001
DISORDER = 20 * GAP
SLACK = 50 * GAP
JOIN_WINDOW = 100 * GAP
JOIN_KEYS = 8


def _combine(left: dict, right: dict) -> dict:
    """Projection combiner: the select-list a compiled plan would run."""
    return {"k": left["k"], "l_uid": left["uid"], "r_uid": right["uid"],
            "l_v": left["v"], "r_v": right["v"]}


class StatefulPlan(_BulkWorkload):
    """Reorder -> indexed WindowJoin -> strict Union with a control stream."""

    name = "stateful-plan"
    size = 65_536
    source_names = ("a", "b", "c")

    def generate(self, arrivals: int) -> list[list]:
        rng = self.rng
        feed = []
        for i in range(arrivals):
            when = i * GAP
            slot = i % 16
            name = "c" if slot == 15 else ("a" if slot % 2 == 0 else "b")
            # Stream a carries application timestamps jittered behind its
            # arrival, so the reorder parks and sorts for real.
            ets = when - rng.random() * DISORDER if name == "a" else None
            feed.append((name, when, ets,
                         {"k": rng.randrange(JOIN_KEYS),
                          "v": rng.randrange(11), "uid": i}))
        return [feed[i:i + CHUNK] for i in range(0, len(feed), CHUNK)]

    def declare(self, p: Pipeline, capture) -> None:
        a = p.source("a", TimestampKind.EXTERNAL, out_of_order=True)
        b = p.source("b")
        c = p.source("c")
        (a.reorder(SLACK, name="reorder")
          .join(b, WindowSpec.time(JOIN_WINDOW), key="k", indexed=True,
                combiner=_combine, name="join")
          .union(c, strict=True, name="strict")
          .sink("sink", on_output=capture))


def _bump(payload: dict) -> dict:
    return {"seq": payload["seq"], "value": payload["value"] * 2.0,
            "noise": payload["noise"]}


class StatelessChain(_BulkWorkload):
    """Select(FieldPredicate) -> Map -> Project: trivial kernels."""

    name = "stateless-chain"
    size = 262_144
    source_names = ("src",)

    def generate(self, arrivals: int) -> list[list]:
        rng = self.rng
        feed = [("src", i * GAP, None,
                 {"seq": i, "value": rng.random(), "noise": i * 3})
                for i in range(arrivals)]
        return [feed[i:i + CHUNK] for i in range(0, len(feed), CHUNK)]

    def declare(self, p: Pipeline, capture) -> None:
        (p.source("src")
          .select(FieldPredicate.lt("value", 0.95), name="select")
          .map(_bump, name="map")
          .project(("seq", "value"), name="project")
          .sink("sink", on_output=capture))


# ---------------------------------------------------------------------- #
# The paper's Fig.-4 query through the discrete-event simulation

RATE_FAST = 200.0
RATE_SLOW = 0.05
SELECTIVITY = 0.95
#: Virtual seconds per driver slice: one slice is about one chunk of
#: arrivals at the fast rate.
SLICE = CHUNK / RATE_FAST


class _SimPlan:
    __slots__ = ("pipeline", "sim", "sink", "slices", "compile_s")


class SparseUnionEts(Workload):
    """Scenario C: Poisson 200/s and 0.05/s, 95% selects, union, on-demand
    ETS, calibrated cost model; the DES wakes the engine once per arrival."""

    name = "sparse-union-ets"
    stamps_follow_timing = True
    #: Expected arrivals over the full 64 virtual seconds.
    size = 12_800

    def generate(self, arrivals: int) -> list[list]:
        horizon = arrivals / RATE_FAST
        self.slices = max(4, round(horizon / SLICE))
        self.horizon = self.slices * SLICE
        self.feeds = {}
        for name, rate in (("fast", RATE_FAST), ("slow", RATE_SLOW)):
            rng = random.Random(f"{self.name}:{self.seed}:{name}")
            when, seq, feed = rng.expovariate(rate), 0, []
            while when < self.horizon:
                feed.append(Arrival(when, {"seq": seq, "value": rng.random()}))
                seq += 1
                when += rng.expovariate(rate)
            self.feeds[name] = feed
        merged = sorted(self.feeds["fast"] + self.feeds["slow"],
                        key=lambda arrival: arrival.time)
        return [merged]  # one list: the DES does its own chunking

    def build(self, *, config=None, capture=None, observers=(),
              prefix=None) -> _SimPlan:
        plan = _SimPlan()
        started = perf_counter()
        p = _pipeline(self.name, config, observers)
        fast = p.source("fast")
        slow = p.source("slow")
        keep = FieldPredicate.lt("value", SELECTIVITY)
        (fast.select(keep, name="filter_fast")
             .union(slow.select(keep, name="filter_slow"), name="union")
             .sink("sink", keep_outputs=True))
        p.engine(ets_policy=OnDemandEts)
        p.compile()
        plan.compile_s = perf_counter() - started
        plan.slices = self.slices if prefix is None else min(
            self.slices, max(1, prefix // CHUNK))
        until = plan.slices * SLICE
        for name, feed in self.feeds.items():
            p.feed(name, [a for a in feed if a.time < until])
        plan.pipeline = p
        plan.sim = p.build_simulation()
        plan.sink = p.sinks["sink"]
        return plan

    def drive(self, plan: _SimPlan, tracer=None) -> Drive:
        out = Drive(tracer)
        run, chunk_s, probe = plan.pipeline.run, out.chunk_s, out.probe
        started = perf_counter()
        if tracer is not None:
            tracer.begin_drive()
        for index in range(plan.slices):
            t0 = perf_counter()
            if tracer is not None:
                tracer.begin_chunk(len(chunk_s))
            run((index + 1) * SLICE)
            if tracer is not None:
                tracer.end_chunk()
            chunk_s.append(perf_counter() - t0)
            probe()
        if tracer is not None:
            tracer.end_drive()
        out.wall_s = perf_counter() - started - probe.spent
        sim, sink = plan.sim, plan.sink
        stats = sim.engine.stats
        out.arrivals = sim.arrivals_delivered
        out.delivered = sink.delivered
        out.records = [(t.ts, t.payload) for t in sink.outputs_seen]
        out.fingerprint = (
            sim.arrivals_delivered, sink.delivered, sink.latency_sum,
            stats.steps, stats.punct_steps, stats.ets_offers,
            stats.ets_injected)
        out.extras = {
            "sim_latency_ms_mean": sink.mean_latency * 1e3,
            "idle_fraction": sim.idle_fraction("union"),
            "ets_injected": stats.ets_injected,
            "virtual_s": plan.slices * SLICE,
        }
        out.handles = {"engines": [sim.engine], "graphs": [sim.graph],
                       "compile_s": plan.compile_s, "sim": sim}
        return out

    def verify(self, checks, reference: Drive, digest: tuple) -> None:
        super().verify(checks, reference, digest)
        idle = reference.extras["idle_fraction"]
        checks.expect("union idle fraction <= 0.05 with ETS injected",
                      idle <= 0.05 and reference.extras["ets_injected"] > 0,
                      f"idle={idle:.4f} "
                      f"injected={reference.extras['ets_injected']}")


# ---------------------------------------------------------------------- #
# Sharded plans: a keyed join behind the shard facades

PERIOD = 0.01
SPAN = 8.0
CARDINALITY = 256
SHARD_SOURCES = ("fast", "slow")


def _join_graph():
    """Fresh keyed-join graph; called once per shard."""
    p = Pipeline("keyed-join")
    fast = p.source("fast")
    slow = p.source("slow")
    fast.join(slow, WindowSpec.time(SPAN), key="k", indexed=True,
              name="join").sink("sink")
    return p.compile()


def _keyed_feed(rng: random.Random, arrivals: int) -> list[list]:
    feed = []
    for i in range(arrivals // 2):
        base = i * PERIOD
        for name, when in (("fast", base), ("slow", base + PERIOD / 2)):
            feed.append((name, when,
                         {"seq": i, "k": rng.randrange(CARDINALITY),
                          "value": rng.random()}))
    return [feed[i:i + CHUNK] for i in range(0, len(feed), CHUNK)]


def _feed_chunks(engine, chunks, out: Drive, released: list, tracer) -> float:
    """Closed loop over ``chunks`` on a shard facade; returns the last
    arrival time fed."""
    chunk_s, probe = out.chunk_s, out.probe
    ingest, wakeup = engine.ingest, engine.wakeup
    now = 0.0
    for chunk in chunks:
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin_chunk(len(chunk_s))
        for name, when, payload in chunk:
            ingest(name, payload, time=when)
        now = when
        released.extend(wakeup())
        if tracer is not None:
            tracer.end_chunk()
        chunk_s.append(perf_counter() - t0)
        probe()
    return now


def _finish(engine, now: float, out: Drive, released: list, tracer) -> None:
    """End of stream: punctuate, wake up, and close with a flush."""
    t0 = perf_counter()
    if tracer is not None:
        tracer.begin_chunk(len(out.chunk_s))
    for name in SHARD_SOURCES:
        engine.inject_punctuation(name, now + 1.0, origin=f"eos:{name}")
    released.extend(engine.wakeup())
    if tracer is not None:  # per-shard counters, while the shards still live
        out.handles["summaries"] = engine.summaries()
    released.extend(engine.close(flush=True))
    if tracer is not None:
        tracer.end_chunk()
        tracer.end_drive()
    out.chunk_s.append(perf_counter() - t0)


def _merged(out: Drive, released: list) -> None:
    out.delivered = len(released)
    out.records = [(ts, payload) for ts, _, _, _, payload in released]
    out.fingerprint = (len(released),)


class _ShardPlan:
    __slots__ = ("engine", "chunks", "compile_s", "root", "facade")


class ShardedJoin(Workload):
    """Keyed join behind ``ShardedEngine(backend="process")``."""

    name = "sharded-join"
    size = 24_576
    trace_after_build = True
    backend = "process"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        #: P is capped by the cores present.
        self.shards = max(1, min(2, os.cpu_count() or 1))

    def generate(self, arrivals: int) -> list[list]:
        return _keyed_feed(self.rng, arrivals)

    def build(self, *, config=None, capture=None, observers=(), prefix=None,
              shards: int | None = None, backend: str | None = None
              ) -> _ShardPlan:
        plan = _ShardPlan()
        started = perf_counter()
        _join_graph()
        plan.compile_s = perf_counter() - started
        plan.engine = ShardedEngine(
            _join_graph, shards=shards or self.shards, key="k",
            backend=backend or self.backend,
            config=_pipeline(self.name, config, observers).config)
        plan.chunks = self.prefix_chunks(prefix)
        return plan

    def drive(self, plan: _ShardPlan, tracer=None) -> Drive:
        out = Drive(tracer)
        released: list = []
        engine = plan.engine
        started = perf_counter()
        if tracer is not None:
            tracer.begin_drive()
        try:
            now = _feed_chunks(engine, plan.chunks, out, released, tracer)
            _finish(engine, now, out, released, tracer)
        finally:
            engine.close(flush=False)  # no-op after an orderly finish
        out.wall_s = perf_counter() - started - out.probe.spent
        out.arrivals = engine.ingested
        _merged(out, released)
        out.handles = {"facade": engine, "compile_s": plan.compile_s}
        return out

    def reference(self, *, shards: int, backend: str) -> Drive:
        """An untraced drive of the same feed on another topology."""
        return self.drive(self.build(shards=shards, backend=backend))

    def direct(self) -> float:
        """Tuples/s of one bare engine on the same feed: what the facade,
        the exchange and the merge are added on top of."""
        graph = _join_graph()
        clock = VirtualClock()
        engine = ExecutionEngine(graph, clock, config=Pipeline().config)
        sources = {name: graph[name] for name in SHARD_SOURCES}
        started = perf_counter()
        for chunk in self.chunks:
            for name, when, payload in chunk:
                clock.advance_to(when)
                source = sources[name]
                source.ingest(payload, now=when, arrival=when)
            engine.wakeup(source)
        clock.advance_to(when + 1.0)
        for name in SHARD_SOURCES:
            sources[name].inject_punctuation(when + 1.0, origin=f"eos:{name}")
        engine.wakeup()
        return self.arrivals / (perf_counter() - started)

    def topologies(self, process_apply: dict) -> dict[str, float]:
        """Reference drives that say where the process backend's time goes
        (GIL, serialization, or merge): the bare engine, serial P=1 and P=2,
        threads at P=2; and the parallel efficiency of the exchange."""
        from repro.shard.backends import EngineShard
        from tracing import timed_calls
        values = {"shard.engine.direct_engine_tuples_per_s": self.direct()}
        with timed_calls(EngineShard, "apply") as serial_apply:
            runs = {"serial_p2": self.reference(shards=2, backend="serial")}
        runs["serial_p1"] = self.reference(shards=1, backend="serial")
        runs["thread_p2"] = self.reference(shards=2, backend="thread")
        for label, run in runs.items():
            values[f"shard.engine.{label}_tuples_per_s"] = (
                run.arrivals / run.wall_s)
        # Serial per-shard apply time over P x the process backend's
        # apply_all wall: 1.0 would be perfect overlap at zero exchange cost.
        wall = process_apply.get("total_s", 0.0)
        values["shard.backends.parallel_efficiency"] = (
            serial_apply[0] / (self.shards * wall) if wall else 0.0)
        return values

    def verify(self, checks, reference: Drive, digest: tuple) -> None:
        super().verify(checks, reference, digest)
        serial = self.reference(shards=1, backend="serial")
        checks.expect("canonical output == serial P=1",
                      digest_records(serial.records) == digest,
                      f"{serial.delivered} vs {reference.delivered}")


#: Arrivals fed before the reshard, between reshard and crash, and after
#: the recovery.
ELASTIC_PHASES = (12_288, 2_048, 2_048)
CHECKPOINT_EVERY = 16


class ElasticDurable(Workload):
    """Durable elastic shards: feed, reshard 2->3, crash-stop, recover."""

    name = "elastic-durable"
    size = sum(ELASTIC_PHASES)

    def generate(self, arrivals: int) -> list[list]:
        chunks = _keyed_feed(self.rng, arrivals)
        total = len(chunks)
        first = max(1, total * ELASTIC_PHASES[0] // self.size)
        second = max(first + 1, total * sum(ELASTIC_PHASES[:2]) // self.size)
        self.cuts = (first, min(second, total - 1))
        return chunks


    def build(self, *, config=None, capture=None, observers=(), prefix=None,
              durable: bool = True) -> _ShardPlan:
        plan = _ShardPlan()
        started = perf_counter()
        _join_graph()
        plan.compile_s = perf_counter() - started
        plan.root = None
        if durable:
            plan.root = OUT_DIR / "state" / f"{os.getpid()}"
            shutil.rmtree(plan.root, ignore_errors=True)
            plan.root.mkdir(parents=True)
        engine_config = _pipeline(self.name, config, observers).config.replace(
            checkpoint_every=CHECKPOINT_EVERY if durable else None)

        def facade() -> ElasticShardedEngine:
            """A fresh facade on the plan's state root (start and restart)."""
            return ElasticShardedEngine(
                _join_graph, shards=2, key="k", backend="serial",
                state_dir=plan.root, config=engine_config)

        plan.facade = facade
        plan.engine = facade()
        plan.chunks = self.prefix_chunks(prefix)
        return plan

    def drive(self, plan: _ShardPlan, tracer=None) -> Drive:
        """The write side end to end.  ``fsync`` is a counted no-op for the
        duration: durable state must stay inside the checkout, and a disk
        fsync (~0.5 ms here, device-dependent) would otherwise set every
        number — the same reason the issue asked for RAM-backed storage."""
        out = Drive(tracer)
        released: list = []
        engine = plan.engine
        chunks = plan.chunks
        first, second = self.cuts if len(chunks) == len(self.chunks) \
            else (len(chunks), len(chunks))
        fsyncs = [0]

        def fsync(fd) -> None:
            fsyncs[0] += 1

        real_fsync, os.fsync = os.fsync, fsync
        started = perf_counter()
        if tracer is not None:
            tracer.begin_drive()
        try:
            now = _feed_chunks(engine, chunks[:first], out, released, tracer)
            if plan.root is not None and first < len(chunks):
                # The reshard, and below the restart + recovery, block the
                # caller like any chunk: each is one more entry in chunk_s.
                hooks = _PhaseClock(engine)
                t0 = perf_counter()
                if tracer is not None:
                    tracer.begin_chunk(len(out.chunk_s))
                report = engine.reshard(3, reason="bench")
                if tracer is not None:
                    tracer.end_chunk()
                out.chunk_s.append(perf_counter() - t0)
                released.extend(report.released)
                out.extras.update(hooks.durations())
                out.extras["reshard_pause_ms"] = report.pause_seconds * 1e3
                out.handles["reshard"] = report
                now = _feed_chunks(engine, chunks[first:second], out,
                                   released, tracer)
                # Crash-stop.  The merge is volatile by design: what it
                # still holds was delivered to no one, but the shards' sinks
                # (the durable exactly-once boundary) have counted it, so the
                # driver keeps it as the library's own crash tests do.  Those
                # records are at or above the frontier, so order restarts
                # before and after them.
                flushed = engine.merge.flush()
                out.breaks = (len(released), len(released) + len(flushed))
                released.extend(flushed)
                t0 = perf_counter()
                if tracer is not None:
                    tracer.begin_chunk(len(out.chunk_s))
                engine.close(flush=False)
                engine = plan.facade()
                t1 = perf_counter()
                recovery = engine.recover()
                ended = perf_counter()
                if tracer is not None:
                    tracer.end_chunk()
                out.chunk_s.append(ended - t0)
                out.extras["recover_ms"] = (ended - t1) * 1e3
                out.handles["recovery"] = recovery
                out.handles["recovered_ingests"] = recovery.total_ingests
                now = _feed_chunks(engine, chunks[second:], out, released,
                                   tracer)
            elif first < len(chunks):
                now = _feed_chunks(engine, chunks[first:], out, released,
                                   tracer)
            _finish(engine, now, out, released, tracer)
        finally:
            engine.close(flush=False)
            os.fsync = real_fsync
        out.wall_s = perf_counter() - started - out.probe.spent
        out.arrivals = sum(len(chunk) for chunk in chunks)
        _merged(out, released)
        out.handles.update(facade=engine, compile_s=plan.compile_s,
                           fsyncs=fsyncs[0], root=plan.root)
        return out

    def verify(self, checks, reference: Drive, digest: tuple) -> None:
        super().verify(checks, reference, digest)
        static = self.drive(self.build(durable=False))
        checks.expect("reshard + crash + recover == uninterrupted static run",
                      digest_records(static.records) == digest,
                      f"{static.delivered} vs {reference.delivered}")
        fed = sum(len(c) for c in self.chunks[:self.cuts[1]])
        checks.expect("recovery replays exactly the acknowledged ingests",
                      reference.handles.get("recovered_ingests") == fed,
                      f"{reference.handles.get('recovered_ingests')} != {fed}")


class _PhaseClock:
    """Times the reshard phases through the public ``reshard_hooks`` seam."""

    def __init__(self, engine) -> None:
        self.marks: list[tuple[str, float]] = []
        engine.reshard_hooks.append(
            lambda phase: self.marks.append((phase, perf_counter())))

    def durations(self) -> dict[str, float]:
        names = {"quiesce": "quiesce", "align": "align",
                 "snapshot": "snapshot", "restore": "replay",
                 "reroute": "flip"}
        return {f"shard.elastic.{names[phase]}_s": end - begin
                for (phase, begin), (_, end) in zip(self.marks,
                                                    self.marks[1:])}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (StatefulPlan, StatelessChain, SparseUnionEts,
                              ShardedJoin, ElasticDurable)}
