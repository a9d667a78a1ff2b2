"""Unified metrics: counters, gauges, histograms over the event bus.

The paper's evaluation is a metrics story — idle-waiting fractions
(Section 6), latency (Fig. 7), peak queue size (Fig. 8), punctuation
overhead.  A :class:`MetricsRegistry` is the one place those numbers are
exported from: it *observes* the event bus for everything that can be
counted live (steps, NOS decisions, ETS consultations, punctuation, buffer
depth, faults, checkpoints, recoveries, run lengths) and *absorbs* the
remaining end-of-run aggregates from the engine and the simulation —
producing one ``snake_case`` ``as_dict()`` snapshot and one Prometheus
text rendering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .bus import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.kernel import Simulation

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelValues = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, object]) -> LabelValues:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelValues) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


def _flat_name(name: str, key: LabelValues) -> str:
    if not key:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class _Metric:
    """Shared naming/labeling machinery of the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def samples(self) -> Iterable[tuple[str, LabelValues, float]]:
        """Yield ``(suffix, labels, value)`` rows for rendering."""
        raise NotImplementedError

    def as_dict(self) -> dict[str, float]:
        return {_flat_name(self.name + suffix, key): value
                for suffix, key, value in self.samples()}


class Counter(_Metric):
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelValues, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _labels_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def set_total(self, value: float, **labels) -> None:
        """Absolute assignment for absorbed end-of-run totals.

        A counter fed from an aggregate snapshot would double on every
        re-absorb under :meth:`inc`; assignment keeps repeated absorbs
        idempotent, and monotonicity is still enforced so the series
        remains a valid Prometheus counter.
        """
        key = _labels_key(labels)
        if value < self._values.get(key, 0):
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._values[key] = value

    def value(self, **labels) -> float:
        return self._values.get(_labels_key(labels), 0)

    @property
    def total(self) -> float:
        return sum(self._values.values())

    def samples(self) -> Iterable[tuple[str, LabelValues, float]]:
        for key in sorted(self._values):
            yield "", key, self._values[key]


class Gauge(_Metric):
    """A point-in-time value that can move both ways, with a high-water mark."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 *, track_max: bool = False) -> None:
        super().__init__(name, help)
        self.track_max = track_max
        self._values: dict[LabelValues, float] = {}
        self._max: dict[LabelValues, float] = {}

    def set(self, value: float, **labels) -> None:
        key = _labels_key(labels)
        self._values[key] = value
        if self.track_max and value > self._max.get(key, float("-inf")):
            self._max[key] = value

    def value(self, **labels) -> float:
        return self._values.get(_labels_key(labels), 0)

    def high_water(self, **labels) -> float:
        return self._max.get(_labels_key(labels), 0)

    def samples(self) -> Iterable[tuple[str, LabelValues, float]]:
        for key in sorted(self._values):
            yield "", key, self._values[key]
        if self.track_max:
            for key in sorted(self._max):
                yield "_high_water", key, self._max[key]


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics: ``le`` bounds)."""

    DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] | None = None) -> None:
        super().__init__(name, help)
        bounds = tuple(buckets) if buckets is not None else self.DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} buckets must be sorted")
        self.buckets = bounds
        self._counts: dict[LabelValues, list[int]] = {}
        self._sum: dict[LabelValues, float] = {}
        self._n: dict[LabelValues, int] = {}

    def observe(self, value: float, **labels) -> None:
        key = _labels_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * len(self.buckets)
            self._sum[key] = 0.0
            self._n[key] = 0
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        self._sum[key] += value
        self._n[key] += 1

    def count(self, **labels) -> int:
        return self._n.get(_labels_key(labels), 0)

    def sum(self, **labels) -> float:
        return self._sum.get(_labels_key(labels), 0.0)

    def mean(self, **labels) -> float:
        n = self.count(**labels)
        return self.sum(**labels) / n if n else 0.0

    def samples(self) -> Iterable[tuple[str, LabelValues, float]]:
        for key in sorted(self._counts):
            cumulative = 0
            for bound, count in zip(self.buckets, self._counts[key]):
                cumulative += count
                yield "_bucket", key + (("le", f"{bound:g}"),), cumulative
            yield "_bucket", key + (("le", "+Inf"),), self._n[key]
            yield "_sum", key, self._sum[key]
            yield "_count", key, self._n[key]


class MetricsRegistry(Observer):
    """The one metrics surface: live bus-fed series plus absorbed aggregates.

    Use it two ways, usually together::

        registry = MetricsRegistry()
        sim = Simulation(graph, observers=[registry])   # live event series
        sim.run(until=120.0)
        registry.absorb_simulation(sim)                 # end-of-run gauges
        print(registry.render_prometheus())

    The live hooks maintain: engine step counters (split data/punctuation,
    per operator), NOS-decision counts, ETS consultations split
    injected/declined, punctuation injections by origin, fault-path actions
    by kind, the buffer-depth gauge with its high-water mark, and a
    histogram of run lengths (1 per ``batch_size=1`` step, up to
    ``batch_size`` per ``kind="block"`` step).  :meth:`absorb_engine_stats` and
    :meth:`absorb_simulation` fold in what only exists as an end-of-run
    aggregate: :class:`EngineStats` counters, per-operator idle-wait time,
    and the buffer-occupancy summary.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        c, g, h = self.counter, self.gauge, self.histogram
        # Live, bus-fed series.
        self.steps = c("repro_engine_steps_total",
                       "Execution steps by consumed-element kind")
        self.operator_steps = c("repro_operator_steps_total",
                                "Execution steps per operator")
        self.nos_decisions = c("repro_nos_decisions_total",
                               "Forward/Encore/Backtrack transitions")
        self.ets_consultations = c(
            "repro_ets_consultations_total",
            "ETS policy consultations at stalled sources, by outcome")
        self.punctuation_injected = c(
            "repro_punctuation_injected_total",
            "Punctuation injected at sources, by origin")
        self.emitted = c("repro_emitted_total",
                         "Elements appended to output buffers, by kind")
        self.faults = c("repro_fault_actions_total",
                        "Fault-path actions (quarantine/violation/...)")
        self.rounds = c("repro_engine_rounds_total", "Engine wake-up rounds")
        self.arrivals = c("repro_arrivals_total",
                          "Workload tuples delivered to sources")
        self.buffer_depth = g("repro_buffer_depth",
                              "Graph-wide live buffered elements",
                              track_max=True)
        self.batch_run_length = h("repro_batch_run_length",
                                  "Elements consumed per execution step")
        self.join_probes = c(
            "repro_join_probes_total",
            "Join-window candidates, examined vs emitted (result label)")
        self.busy_time = c("repro_engine_busy_seconds_total",
                           "Simulated CPU seconds charged to steps")
        self.checkpoints = c("repro_checkpoint_total",
                             "Checkpoints written durably")
        self.checkpoint_bytes = c("repro_checkpoint_bytes_total",
                                  "Bytes written across all checkpoints")
        self.checkpoint_duration = c(
            "repro_checkpoint_seconds_total",
            "Wall-clock seconds spent writing checkpoints")
        self.checkpoint_last = g("repro_checkpoint_last",
                                 "Figures of the most recent checkpoint")
        self.recoveries = c("repro_recovery_total",
                            "Recoveries from disk, by outcome label")
        self.recovery_last = g("repro_recovery_last",
                               "Figures of the most recent recovery")
        self.shard_ingest = c("repro_shard_ingest_total",
                              "Tuples routed to each shard by the shuffle")
        self.shard_outputs = c("repro_shard_outputs_total",
                               "Records delivered by each shard's sinks")
        self.shard_wakeups = c("repro_shard_wakeups_total",
                               "Per-shard wake-ups run by the backend")
        self.shard_released = c(
            "repro_shard_released_total",
            "Records released downstream by the frontier merge")
        self.shard_frontier = g("repro_shard_frontier",
                                "Advertised frontier per shard "
                                "(shard=global is the min gate)")
        self.shard_recoveries = c("repro_shard_recoveries_total",
                                  "Per-shard recoveries from disk")
        self.shard_retries = c("repro_shard_retries_total",
                               "Backoff retries on shard operation timeouts")
        self.shard_retry_backoff = h(
            "repro_shard_retry_backoff_seconds",
            "Backoff waited before re-polling a timed-out shard op",
            buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0))
        self.shard_reshards = c("repro_shard_reshards_total",
                                "Live topology changes, by direction label")
        self.shard_migrated = c(
            "repro_shard_migrated_keys_total",
            "Keys whose route changed across a reshard")
        self.feedback_waves = c("repro_feedback_waves_total",
                                "Feedback waves propagated upstream, by kind")
        self.feedback_pressure = g("repro_feedback_pressure",
                                   "Last feedback pressure emitted [0, 1]",
                                   track_max=True)
        self.feedback_depth = g("repro_feedback_depth",
                                "Buffer depth sampled by the last wave",
                                track_max=True)
        self.feedback_drop_budget = g(
            "repro_feedback_drop_budget",
            "Drop budget carried by the last wave", track_max=True)
        # Absorbed end-of-run aggregates.
        self.idle_wait = g("repro_idle_wait_seconds",
                           "Idle-waiting time per IWP operator")
        self.idle_fraction = g("repro_idle_wait_fraction",
                               "Idle-waiting share of elapsed time")
        self.engine_stat = g("repro_engine_stat",
                             "EngineStats counters, one label per field")
        self.queue = g("repro_queue", "Buffer-occupancy summary figures")

    # ------------------------------------------------------------------ #
    # Metric creation / lookup

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}")
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named counter."""
        return self._register(Counter(name, help))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              *, track_max: bool = False) -> Gauge:
        """Get or create the named gauge."""
        return self._register(Gauge(name, help, track_max=track_max))  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] | None = None) -> Histogram:
        """Get or create the named histogram."""
        return self._register(Histogram(name, help, buckets))  # type: ignore[return-value]

    def __iter__(self):
        return iter(self._metrics.values())

    def __getitem__(self, name: str) -> _Metric:
        return self._metrics[name]

    # ------------------------------------------------------------------ #
    # Live bus hooks

    def on_wakeup(self, *, round_id, time, entry=None) -> None:
        self.rounds.inc()

    def on_step(self, *, operator, round_id, time, kind, steps=1, probes=0,
                probes_emitted=0, emitted_data=0, emitted_punctuation=0,
                duration=0.0) -> None:
        self.steps.inc(steps, kind=kind)
        self.operator_steps.inc(steps, operator=operator)
        # Only join steps report probes; skip the labels entirely for
        # joinless runs so the counter does not appear with zero series.
        if probes:
            self.join_probes.inc(probes, result="examined")
        if probes_emitted:
            self.join_probes.inc(probes_emitted, result="emitted")
        if emitted_data:
            self.emitted.inc(emitted_data, kind="data")
        if emitted_punctuation:
            self.emitted.inc(emitted_punctuation, kind="punctuation")
        if duration:
            self.busy_time.inc(duration)
        self.batch_run_length.observe(steps)

    def on_nos_decision(self, *, decision, operator, round_id, time,
                        detail="") -> None:
        self.nos_decisions.inc(decision=decision)

    def on_ets(self, *, operator, round_id, time, injected,
               offered=True) -> None:
        self.ets_consultations.inc(
            operator=operator,
            outcome="injected" if injected else "declined")

    def on_punctuation(self, *, operator, round_id, time, origin,
                       ts=None) -> None:
        self.punctuation_injected.inc(operator=operator, origin=origin)

    def on_arrival(self, *, operator, time, external_ts=None) -> None:
        self.arrivals.inc(source=operator)

    def on_buffer_change(self, *, total, time) -> None:
        self.buffer_depth.set(total)

    def on_fault(self, *, kind, operator, round_id, time, detail="") -> None:
        self.faults.inc(kind=kind, operator=operator)

    def on_checkpoint(self, *, number, time, duration=0.0, bytes_written=0,
                      wal_records=0) -> None:
        self.checkpoints.inc()
        if bytes_written:
            self.checkpoint_bytes.inc(bytes_written)
        if duration:
            self.checkpoint_duration.inc(duration)
        self.checkpoint_last.set(number, field="number")
        self.checkpoint_last.set(bytes_written, field="bytes")
        self.checkpoint_last.set(wal_records, field="wal_records")

    def on_recovery(self, *, checkpoint, time, replayed=0, suppressed=0,
                    duration=0.0, fallback=False, detail="") -> None:
        self.recoveries.inc(
            outcome="fallback" if fallback else "latest")
        self.recovery_last.set(checkpoint, field="checkpoint")
        self.recovery_last.set(replayed, field="replayed")
        self.recovery_last.set(suppressed, field="suppressed")
        self.recovery_last.set(duration, field="duration_seconds")

    def on_shard(self, *, kind, shard, time, frontier=None, count=0,
                 value=0.0, detail="") -> None:
        if kind == "ingest":
            self.shard_ingest.inc(count, shard=shard)
        elif kind == "wakeup":
            self.shard_wakeups.inc(shard=shard)
            if count:
                self.shard_outputs.inc(count, shard=shard)
            if frontier is not None and frontier == frontier \
                    and frontier != float("-inf"):
                self.shard_frontier.set(frontier, shard=shard)
        elif kind == "frontier":
            if count:
                self.shard_released.inc(count)
            if frontier is not None and frontier != float("-inf"):
                self.shard_frontier.set(frontier, shard="global")
        elif kind == "retry":
            self.shard_retries.inc(shard=shard)
            if value:
                self.shard_retry_backoff.observe(value)
        elif kind == "recovery":
            self.shard_recoveries.inc(shard=shard)
        elif kind == "reshard":
            self.shard_reshards.inc(direction=detail or "reshard")
            if count:
                self.shard_migrated.inc(count)

    def on_feedback(self, *, kind, round_id, time, pressure=0.0, depth=0,
                    drop_budget=0.0, sink_latency=0.0, frontier_lag=0.0,
                    origin="") -> None:
        self.feedback_waves.inc(kind=kind)
        self.feedback_pressure.set(pressure)
        self.feedback_depth.set(depth)
        self.feedback_drop_budget.set(drop_budget)

    # ------------------------------------------------------------------ #
    # Derived figures

    def punctuation_to_data_ratio(self) -> float:
        """Injected/emitted punctuation per emitted data tuple (overhead)."""
        data = self.emitted.value(kind="data")
        punct = self.emitted.value(kind="punctuation")
        return punct / data if data else 0.0

    # ------------------------------------------------------------------ #
    # Absorbing the end-of-run aggregates

    def absorb_engine_stats(self, stats) -> "MetricsRegistry":
        """Fold an :class:`EngineStats` snapshot in, one field per label.

        The columnar counters are skipped while zero, so an engine that
        never stepped exports no ``blocks`` / ``block_rows`` sample, and
        ``block_fallbacks`` (always 0) none at all.
        """
        for field_name, value in stats.as_dict().items():
            if field_name == "per_operator_steps":
                for op, steps in value.items():
                    self.engine_stat.set(steps, field="per_operator_steps",
                                         operator=op)
            elif (field_name in ("blocks", "block_rows", "block_fallbacks")
                    and not value):
                continue
            else:
                self.engine_stat.set(value, field=field_name)
        return self

    def absorb_simulation(self, sim: "Simulation") -> "MetricsRegistry":
        """Fold every end-of-run aggregate a simulation holds in one call:
        the engine stats, each IWP operator's idle-wait time and fraction,
        and the buffer occupancy (the Fig.-8 peak, the current total, each
        buffer's depth, punctuation enqueued)."""
        self.absorb_engine_stats(sim.engine.stats)
        tracker, now = sim.idle_tracker, sim.clock.now()
        if tracker is not None:
            for op in tracker.operators:
                self.idle_wait.set(tracker.idle_time(op.name, now),
                                   operator=op.name)
                self.idle_fraction.set(tracker.idle_fraction(op.name, now),
                                       operator=op.name)
        buffers = sim.graph.buffers
        self.queue.set(sim.graph.registry.peak, field="peak_total")
        self.queue.set(sim.graph.registry.total, field="current_total")
        for buf in buffers:
            self.queue.set(len(buf), field="depth", buffer=buf.name)
        self.queue.set(sum(buf.punctuation_count for buf in buffers),
                       field="punctuation_enqueued")
        self.queue.set(sim.arrivals_delivered, field="arrivals_delivered")
        self.queue.set(sim.heartbeats_delivered, field="heartbeats_delivered")
        return self

    # ------------------------------------------------------------------ #
    # Export

    def as_dict(self) -> dict[str, float]:
        """One flat ``name{label=value,...} -> value`` snapshot."""
        out: dict[str, float] = {}
        for metric in self._metrics.values():
            out.update(metric.as_dict())
        out["repro_punctuation_to_data_ratio"] = \
            self.punctuation_to_data_ratio()
        return out

    def rows(self) -> list[tuple[str, float]]:
        """``(name, value)`` rows for :func:`repro.obs.report.format_table`."""
        return sorted(self.as_dict().items())

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            samples = list(metric.samples())
            if not samples:
                continue
            # A gauge's high-water samples form their own metric family.
            main = [s for s in samples if s[0] == "" or metric.kind == "histogram"]
            extra = [s for s in samples if s not in main]
            if main:
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                for suffix, key, value in main:
                    lines.append(
                        f"{metric.name}{suffix}{_render_labels(key)} {value:g}")
            for suffix, key, value in extra:
                family = metric.name + suffix
                if not any(line == f"# TYPE {family} gauge" for line in lines):
                    lines.append(f"# TYPE {family} gauge")
                lines.append(f"{family}{_render_labels(key)} {value:g}")
        lines.append("# TYPE repro_punctuation_to_data_ratio gauge")
        lines.append("repro_punctuation_to_data_ratio "
                     f"{self.punctuation_to_data_ratio():g}")
        return "\n".join(lines) + "\n"
