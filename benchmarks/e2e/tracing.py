"""The traced run: spans at every layer boundary, recorded from outside.

End-to-end numbers come with tracing off.  ``--trace 1`` adds one drive in
which :class:`Tracer` wraps — from this file, never touching ``src/`` — the
public callables where one layer hands work to the next, and records for
each call a span: label, start, end, parent span and chunk id.  Spans live
in memory (``array`` columns) and are written out when the drive ends.

A layer's **self time** is its spans' duration minus the part their child
spans cover, so self times over all labels sum to the root span exactly
and every second of the drive is attributed to one layer.  Counts come from
where the work happens: :class:`~repro.api.EngineStats`, the buffer
registry, ``ReshardReport`` / recovery reports, and the wrapped calls'
own arguments and results.

Metric names are ``<module>.<metric>`` after the module a layer lives in;
:func:`layer_values` is the one place that maps span labels onto them.
"""

from __future__ import annotations

import json
import statistics
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from repro.api import (
    CheckpointStore,
    ElasticShardedEngine,
    EtsPolicy,
    ExecutionEngine,
    FrontierMerge,
    HashPartitioner,
    IdleTracker,
    Observer,
    OnDemandEts,
    RecoveryManager,
    Reorder,
    ShardedEngine,
    Simulation,
    SinkNode,
    SourceNode,
    Union,
    WindowJoin,
    WriteAheadLog,
)
from repro.core.buffers import StreamBuffer
from repro.core.columnar import ColumnarBlock
from repro.core.operators.base import Operator
from repro.core.operators.stateless import StatelessOperator
from repro.shard.backends import (
    EngineShard,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)

from layers import bus_dispatch_ns
from workloads import OUT_DIR

__all__ = ["Tracer", "layer_values", "timed_calls", "traced_metrics"]

ROOT_LABEL = "driver.drive"
CHUNK_LABEL = "driver.chunk"
#: Raw spans written per traced drive; the summary always covers them all.
MAX_SPANS_WRITTEN = 100_000
#: Drives with a no-op observer attached (``obs.bus.overhead_ratio``).
OBSERVED_DRIVES = 2

_OPERATOR_KINDS = ((WindowJoin, "join"), (Union, "union"),
                   (Reorder, "reorder"), (SinkNode, "sink"),
                   (StatelessOperator, "stateless"))


class Tracer:
    """In-memory span recorder plus the class patches that feed it."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.chunk = array("i")
        self.stack = [-1]
        self.chunk_id = -1
        #: Counts and sums taken inside the wrappers (rows, bytes, calls).
        self.counts: Counter = Counter()
        self._op_depth = 0
        self._op_labels: dict[type, int] = {}
        self._chunk_span = -1
        #: Spans of the drive (set by :meth:`end_drive`).
        self.spans = 0
        self._patched: list[tuple[object, str, object]] = []
        #: Seconds one span adds to its own duration / to its parent's self
        #: time; measured by :meth:`calibrate`, netted out by
        #: :meth:`summarize`.
        self.inside_s = 0.0
        self.outside_s = 0.0

    # ------------------------------------------------------------------ #
    # Recording

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def open(self, label: str) -> int:
        """Start a driver-level span; returns its index for :meth:`close`."""
        index = len(self.start)
        self.label.append(self.label_id(label))
        self.parent.append(self.stack[-1])
        self.chunk.append(self.chunk_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def calibrate(self, calls: int = 20_000) -> None:
        """Measure the recorder's own cost per span on this machine.

        An empty function is called ``calls`` times bare and ``calls`` times
        through a span wrapper under one parent: the children's mean
        duration is what a span adds *inside* itself, and the parent's
        remaining self time (less the bare loop) is what it adds *outside*.
        The calibration spans are discarded.
        """
        def nothing() -> None:
            return None

        mark = len(self.start)
        t0 = perf_counter()
        for _ in range(calls):
            nothing()
        bare = perf_counter() - t0
        probe = self._span(nothing, "driver.calibrate")
        parent = self.open("driver.calibrate")
        for _ in range(calls):
            probe()
        self.close(parent)
        inside = sum(self.end[i] - self.start[i]
                     for i in range(parent + 1, len(self.start)))
        whole = self.end[parent] - self.start[parent]
        self.inside_s = inside / calls
        self.outside_s = max(0.0, (whole - inside - bare) / calls)
        for column in (self.label, self.start, self.end, self.parent,
                       self.chunk):
            del column[mark:]

    def begin_drive(self) -> None:
        """The root span: opened and closed by the driver exactly where it
        starts and stops its own wall clock.  Spans recorded before it
        (plan construction under the installed tracer) are dropped, spans
        after it (teardown) are ignored: the tree is the drive alone."""
        for column in (self.label, self.start, self.end, self.parent,
                       self.chunk):
            del column[:]
        self.open(ROOT_LABEL)

    def end_drive(self) -> None:
        self.close(0)
        self.spans = len(self.start)

    def begin_chunk(self, chunk_id: int) -> None:
        self.chunk_id = chunk_id
        self._chunk_span = self.open(CHUNK_LABEL)

    def end_chunk(self) -> None:
        self.close(self._chunk_span)

    def _span(self, fn, label: str, after=None):
        """Wrap ``fn`` so every call records one span.

        The clock is read last before the call and first after it, so the
        wrapper's own cost lands in the *parent's* self time, not the
        layer's.  ``after(counts, args, result)`` takes counts off a call.
        """
        lid = self.label_id(label)
        labels, starts, ends = self.label, self.start, self.end
        parents, chunks, stack = self.parent, self.chunk, self.stack
        counts, tracer = self.counts, self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            labels.append(lid)
            parents.append(stack[-1])
            chunks.append(tracer.chunk_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _operator_span(self, fn):
        """Span wrapper for ``execute_*``: labelled by the operator's kind,
        counting rows and calls on the outermost dispatch only (the default
        ``execute_batch`` loops over ``execute_step``)."""
        labels, starts, ends = self.label, self.start, self.end
        parents, chunks, stack = self.parent, self.chunk, self.stack
        counts, tracer, op_labels = self.counts, self, self._op_labels

        @wraps(fn)
        def wrapper(op, *args, **kwargs):
            lid = op_labels.get(type(op))
            if lid is None:
                kind = next((name for cls, name in _OPERATOR_KINDS
                             if isinstance(op, cls)), "other")
                lid = op_labels[type(op)] = tracer.label_id(
                    f"core.operators.{kind}")
            index = len(starts)
            labels.append(lid)
            parents.append(stack[-1])
            chunks.append(tracer.chunk_id)
            ends.append(0.0)
            stack.append(index)
            tracer._op_depth += 1
            starts.append(perf_counter())
            try:
                result = fn(op, *args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
                tracer._op_depth -= 1
            if not tracer._op_depth:
                name = tracer.labels[lid]
                consumed = getattr(result, "consumed_data", None)
                if consumed is None:  # a scalar StepResult
                    consumed = int(result.consumed is not None
                                   and not result.consumed_punctuation)
                counts[name + ".calls"] += 1
                counts[name + ".rows_in"] += consumed
                counts[name + ".rows_out"] += (
                    consumed if isinstance(op, SinkNode)
                    else result.emitted_data)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        """Count calls without a span (the time stays in the caller)."""
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    # Patching

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span(self, owner, attrs, label: str, after=None) -> None:
        """Wrap the methods ``owner`` itself defines among ``attrs``."""
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            if attr in owner.__dict__:
                self._replace(owner, attr,
                              self._span(owner.__dict__[attr], label, after))

    def install(self) -> "Tracer":
        """Patch every layer boundary; undo with :meth:`uninstall`."""
        span = self.span
        # core.operators: every execute_* any operator class defines.
        seen: set[type] = set()
        classes = [Operator]
        while classes:
            cls = classes.pop()
            if cls in seen or cls is SourceNode:
                continue
            seen.add(cls)
            classes.extend(cls.__subclasses__())
            for attr in ("execute_step", "execute_batch", "execute_block"):
                if attr in cls.__dict__:
                    self._replace(cls, attr,
                                  self._operator_span(cls.__dict__[attr]))
        span(SourceNode, "ingest", "core.operators.source.ingest")
        # core.buffers: block / batch transport and the scalar push / pop.
        span(StreamBuffer, "push", "core.buffers.push")
        span(StreamBuffer, "pop", "core.buffers.pop")
        span(StreamBuffer, "push_block", "core.buffers.push_block",
             lambda c, a, r: c.update({"buffers.block_rows": a[1].count}))
        span(StreamBuffer, "push_batch", "core.buffers.push_batch",
             lambda c, a, r: c.update({"buffers.batch_rows": len(a[1])}))
        span(StreamBuffer, ("drain_block", "drain_batch"),
             "core.buffers.drain")
        for attr in ("split_at", "split_below"):
            self._replace(ColumnarBlock, attr, self._counted(
                ColumnarBlock.__dict__[attr], "columnar.split_calls"))
        self._replace(ColumnarBlock, "to_tuples", self._counted(
            ColumnarBlock.__dict__["to_tuples"], "columnar.to_tuples_calls"))
        # core.execution / core.ets / sim.kernel / metrics.idle.
        span(ExecutionEngine, "wakeup", "core.execution.wakeup")
        for policy in (EtsPolicy, OnDemandEts):
            span(policy, "on_source_stalled", "core.ets.generate")
        span(Simulation, "run", "sim.kernel.run")
        span(IdleTracker, "refresh", "metrics.idle.refresh")
        # shard.*: route -> exchange -> apply -> merge, and the facades.
        span(HashPartitioner, "shard_for_payload", "shard.partition.route")
        for backend in (SerialBackend, ThreadBackend, ProcessBackend):
            span(backend, ("apply_all", "apply_each", "apply_one"),
                 "shard.backends.apply")
            span(backend, ("checkpoint_all", "recover_all", "summaries",
                           "close"), "shard.backends.control")
        span(EngineShard, "apply", "shard.backends.shard_apply")
        span(FrontierMerge, ("offer", "flush"), "shard.frontier.offer")
        span(FrontierMerge, "release", "shard.frontier.release",
             lambda c, a, r: c.__setitem__(
                 "frontier.held_peak",
                 max(c["frontier.held_peak"], a[0].pending)))
        for facade in (ShardedEngine, ElasticShardedEngine):
            span(facade, ("ingest", "inject_punctuation", "wakeup", "close"),
                 "shard.engine.facade")
        span(ElasticShardedEngine, "reshard", "shard.elastic.reshard")
        span(ElasticShardedEngine, "recover", "shard.elastic.recover")
        self._patch_pickler()
        # recovery.*: the write side.
        span(WriteAheadLog, "append", "recovery.wal.append")
        span(CheckpointStore, "save", "recovery.checkpoint.save",
             lambda c, a, r: c.update(
                 {"checkpoint.bytes": r.bytes_written}))
        span(RecoveryManager, "checkpoint", "recovery.checkpoint.assemble")
        span(RecoveryManager, "recover", "recovery.manager.recover",
             lambda c, a, r: c.update(
                 {"manager.replayed": r.replayed,
                  "manager.suppressed": r.total_suppressed}))
        return self

    def _patch_pickler(self) -> None:
        """Time the parent side of the process exchange: ``Connection.send``
        pickles through ``_ForkingPickler.dumps`` and ``recv`` unpickles
        through ``.loads``.  The name is private to the stdlib, so its
        absence only zeroes ``shard.backends.pickle_s``."""
        from multiprocessing import connection
        pickler = getattr(connection, "_ForkingPickler", None)
        if pickler is None:
            return

        class Shim:
            dumps = staticmethod(self._span(
                pickler.dumps, "shard.backends.pickle",
                lambda c, a, r: c.update({"exchange.bytes": len(r)})))
            loads = staticmethod(self._span(
                pickler.loads, "shard.backends.pickle",
                lambda c, a, r: c.update({"exchange.bytes": len(a[0])})))

        self._replace(connection, "_ForkingPickler", Shim)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Summaries

    def summarize(self) -> dict:
        """Per-label calls and seconds, raw and net of the recorder's cost.

        ``self_s`` / ``total_s`` are as recorded: a span minus its children,
        and a span whole; raw self times sum to the root span exactly.
        ``net_self_s`` / ``net_total_s`` subtract the calibrated recorder
        cost (``inside_s`` per span, ``outside_s`` per direct child), so
        they estimate what the untraced drive spends per layer.
        """
        n = self.spans
        start, end, parent, label = (self.start, self.end, self.parent,
                                     self.label)
        covered = [0.0] * n
        children = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += end[i] - start[i]
                children[parent[i]] += 1
        size = len(self.labels)
        calls, total, own = [0] * size, [0.0] * size, [0.0] * size
        net_own, net_total = [0.0] * size, [0.0] * size
        inside, outside = self.inside_s, self.outside_s
        below = [0.0] * n  # net inclusive seconds, filled children-first
        for i in range(n - 1, -1, -1):
            lid = label[i]
            duration = end[i] - start[i]
            net = max(0.0, duration - covered[i] - inside
                      - outside * children[i])
            below[i] += net
            if parent[i] >= 0:
                below[parent[i]] += below[i]
            calls[lid] += 1
            total[lid] += duration
            own[lid] += duration - covered[i]
            net_own[lid] += net
            net_total[lid] += below[i]
        layers = {name: {"calls": calls[i], "total_s": total[i],
                         "self_s": own[i], "net_self_s": net_own[i],
                         "net_total_s": net_total[i]}
                  for i, name in enumerate(self.labels) if calls[i]}
        root = layers.get(ROOT_LABEL, {})
        return {"wall_s": root.get("total_s", 0.0),
                "net_wall_s": root.get("net_total_s", 0.0),
                "spans": n, "span_inside_s": inside,
                "span_outside_s": outside, "layers": layers}

    def write_spans(self, path) -> int:
        """Raw spans as JSON lines (capped at MAX_SPANS_WRITTEN)."""
        written = min(self.spans, MAX_SPANS_WRITTEN)
        origin = self.start[0] if written else 0.0
        with open(path, "w") as fp:
            for i in range(written):
                fp.write(
                    f'{{"span":{i},"name":"{self.labels[self.label[i]]}",'
                    f'"start":{self.start[i] - origin:.9f},'
                    f'"end":{self.end[i] - origin:.9f},'
                    f'"parent":{self.parent[i]},"chunk":{self.chunk[i]}}}\n')
        return written


@contextmanager
def timed_calls(owner, attr: str):
    """Accumulate the seconds spent in ``owner.attr`` (yields a 1-list)."""
    original = owner.__dict__[attr]
    spent = [0.0]

    @wraps(original)
    def wrapper(*args, **kwargs):
        started = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spent[0] += perf_counter() - started

    setattr(owner, attr, wrapper)
    try:
        yield spent
    finally:
        setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# Span labels -> per-layer metric names


def layer_values(summary: dict, counts: Counter, drive) -> dict[str, float]:
    """Every per-layer metric one traced drive can give."""
    layers = summary["layers"]

    def own(*labels: str) -> float:
        return sum(layers[l]["net_self_s"] for l in labels if l in layers)

    def total(label: str) -> float:
        return layers.get(label, {}).get("net_total_s", 0.0)

    def calls(*labels: str) -> int:
        return sum(layers[l]["calls"] for l in labels if l in layers)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    v: dict[str, float] = {}
    for kind in ("join", "union", "reorder", "stateless", "sink"):
        label = f"core.operators.{kind}"
        v[f"{label}.busy_s"] = own(label)
        for counter in ("rows_in", "rows_out", "calls"):
            v[f"{label}.{counter}"] = counts[f"{label}.{counter}"]

    handles = drive.handles
    stats = [e.stats for e in handles.get("engines", ())]
    graphs = handles.get("graphs", ())
    facade = handles.get("facade")
    # Shard engines live behind the backend; their summaries carry the same
    # EngineStats as dicts (process workers answer over the pipe).
    shard_stats = [s.stats for s in handles.get("summaries", ())]

    def stat(name: str) -> float:
        return (sum(getattr(s, name) for s in stats)
                + sum(s.get(name, 0) for s in shard_stats))

    v["core.operators.reorder.late_dropped"] = sum(
        op.late_dropped for g in graphs for op in g.operators
        if isinstance(op, Reorder))
    v["core.windows.probes_examined"] = stat("probes")
    v["core.windows.probes_emitted"] = stat("probes_emitted")
    v["core.windows.probe_hit_ratio"] = ratio(stat("probes_emitted"),
                                              stat("probes"))
    v["core.operators.source.ingest_s"] = own("core.operators.source.ingest")
    v["core.operators.source.ingest_calls"] = calls(
        "core.operators.source.ingest")

    v["core.buffers.push_s"] = own("core.buffers.push",
                                   "core.buffers.push_block",
                                   "core.buffers.push_batch")
    v["core.buffers.drain_s"] = own("core.buffers.drain", "core.buffers.pop")
    v["core.buffers.push_calls"] = calls("core.buffers.push_block",
                                         "core.buffers.push_batch")
    v["core.buffers.drain_calls"] = calls("core.buffers.drain")
    v["core.buffers.scalar_push_calls"] = calls("core.buffers.push")
    v["core.buffers.scalar_pop_calls"] = calls("core.buffers.pop")
    v["core.buffers.rows_moved"] = (calls("core.buffers.push")
                                    + counts["buffers.block_rows"]
                                    + counts["buffers.batch_rows"])
    v["core.buffers.peak_occupancy"] = max(
        [g.registry.peak for g in graphs], default=0)
    v["core.columnar.blocks"] = stat("blocks")
    v["core.columnar.block_rows"] = stat("block_rows")
    v["core.columnar.block_fallbacks"] = stat("block_fallbacks")
    v["core.columnar.split_calls"] = counts["columnar.split_calls"]
    v["core.columnar.to_tuples_calls"] = counts["columnar.to_tuples_calls"]

    dispatches = sum(counts[f"core.operators.{k}.calls"]
                     for k in ("join", "union", "reorder", "stateless",
                               "sink", "other"))
    v["core.execution.wakeup_s"] = total("core.execution.wakeup")
    v["core.execution.walk_self_s"] = own("core.execution.wakeup")
    v["core.execution.rounds"] = stat("rounds")
    v["core.execution.steps"] = stat("steps")
    v["core.execution.punct_steps"] = stat("punct_steps")
    v["core.execution.steps_per_tuple"] = ratio(dispatches, drive.arrivals)
    v["core.ets.generate_s"] = own("core.ets.generate")
    v["core.ets.offered"] = stat("ets_offers")
    v["core.ets.injected"] = stat("ets_injected")
    v["core.ets.useful_ratio"] = ratio(stat("ets_injected"),
                                       stat("ets_offers"))
    v["sim.kernel.self_s"] = own("sim.kernel.run")
    sim = handles.get("sim")
    if sim is not None:
        v["sim.kernel.events"] = (sim.arrivals_delivered
                                  + sim.heartbeats_delivered)
        v["sim.kernel.virtual_s_per_wall_s"] = ratio(
            drive.extras["virtual_s"], summary["net_wall_s"])
    v["metrics.idle.refresh_s"] = own("metrics.idle.refresh")
    v["metrics.idle.refresh_calls"] = calls("metrics.idle.refresh")

    v["shard.partition.route_s"] = own("shard.partition.route")
    v["shard.partition.routed"] = calls("shard.partition.route")
    v["shard.backends.apply_s"] = own("shard.backends.apply",
                                      "shard.backends.shard_apply",
                                      "shard.backends.control")
    v["shard.backends.pickle_s"] = own("shard.backends.pickle")
    v["shard.backends.exchange_bytes"] = counts["exchange.bytes"]
    v["shard.frontier.offer_s"] = own("shard.frontier.offer")
    v["shard.frontier.release_s"] = own("shard.frontier.release")
    v["shard.frontier.held_peak"] = counts["frontier.held_peak"]
    v["shard.engine.facade_self_s"] = own("shard.engine.facade")
    if facade is not None:
        v["shard.frontier.released"] = facade.merge.released_count
        v["shard.frontier.spread"] = facade.tracker.spread()
        per_shard = [s.ingested for s in handles.get("summaries", ())]
        if per_shard and sum(per_shard):
            v["shard.partition.skew_max_over_mean"] = (
                max(per_shard) * len(per_shard) / sum(per_shard))

    v["recovery.wal.append_s"] = own("recovery.wal.append")
    v["recovery.wal.appends"] = calls("recovery.wal.append")
    v["recovery.wal.fsyncs"] = handles.get("fsyncs", 0)
    v["recovery.checkpoint.save_s"] = own("recovery.checkpoint.save",
                                          "recovery.checkpoint.assemble")
    v["recovery.checkpoint.saves"] = calls("recovery.checkpoint.save")
    v["recovery.checkpoint.bytes"] = counts["checkpoint.bytes"]
    v["recovery.manager.recover_s"] = total("recovery.manager.recover")
    v["recovery.manager.replayed_records"] = counts["manager.replayed"]
    v["recovery.manager.suppressed"] = counts["manager.suppressed"]
    root = handles.get("root")
    if root is not None:
        wals = list(root.rglob("wal.log"))
        v["recovery.wal.bytes"] = sum(p.stat().st_size for p in wals)
        facade_wal = root / "facade" / "wal.log"
        v["shard.elastic.facade_wal_bytes"] = facade_wal.stat().st_size
        v["shard.elastic.facade_log_records"] = len(
            WriteAheadLog(facade_wal).replay())
    report = handles.get("reshard")
    if report is not None:
        v["shard.elastic.replayed_ingests"] = report.replayed_ingests
        v["shard.elastic.migrated_keys"] = report.migrated_keys
        v["shard.elastic.migrated_fraction"] = ratio(report.migrated_keys,
                                                     report.total_keys)
    v.update({k: x for k, x in drive.extras.items()
              if k.startswith("shard.elastic.")})

    driver = own(ROOT_LABEL, CHUNK_LABEL)
    v["driver.layer_coverage"] = 1.0 - ratio(driver, summary["net_wall_s"])
    return v


# ---------------------------------------------------------------------- #
# The traced run itself


def traced_metrics(workload, drives, *, seed: int) -> dict[str, float]:
    """Drives with a no-op observer, one traced drive, and (sharded
    workloads) the reference topologies; returns per-layer values and
    writes ``.out/trace-<workload>-<seed>.json`` plus the raw spans."""
    baseline = statistics.median(d.wall_s for d in drives)

    def reference_wall(drive) -> float:
        return sum(drive.probe.reference())

    observed = statistics.median(
        reference_wall(workload.drive(workload.build(
            observers=(Observer(),)))) for _ in range(OBSERVED_DRIVES))
    values = {"obs.bus.overhead_ratio": observed / statistics.median(
                  reference_wall(d) for d in drives),
              "obs.bus.dispatch_ns_per_event": bus_dispatch_ns(1)}

    tracer = Tracer()
    tracer.calibrate()
    try:
        if workload.trace_after_build:
            plan = workload.build()
            tracer.install()
        else:
            tracer.install()
            plan = workload.build()
        drive = workload.drive(plan, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summarize()
    values.update(layer_values(summary, tracer.counts, drive))
    values["driver.trace_overhead_ratio"] = summary["wall_s"] / baseline
    values.update(workload.topologies(
        summary["layers"].get("shard.backends.apply", {})))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-{seed}"
    written = tracer.write_spans(OUT_DIR / f"spans-{stem}.jsonl")
    summary.update(workload=workload.name, seed=seed, arrivals=drive.arrivals,
                   untraced_wall_s=baseline, spans_written=written,
                   metrics=values)
    (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(summary, indent=1))
    return values
