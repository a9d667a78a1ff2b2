"""Composable, seeded fault specs that wrap arrival schedules.

A :class:`FaultPlan` is a list of :class:`FaultSpec` objects, each targeting
one source by name.  Arrival-level specs transform an
:class:`~repro.sim.kernel.Arrival` iterator — the same lazy shape the
simulation kernel consumes — so any workload in :mod:`repro.workloads` can
be faulted by wrapping it::

    plan = FaultPlan([
        SourceOutage("slow", start=30.0, duration=20.0),
        ClockSkewSpike("fast", start=10.0, duration=5.0, skew=2.0),
    ], seed=7)
    sim.attach_arrivals(slow, plan.wrap("slow", arrivals))

Punctuation-level specs (:class:`PunctuationLoss`, :class:`PunctuationDelay`)
cannot ride the arrival iterator — punctuation is injected directly on
source nodes by heartbeat events and ETS policies — so they are *installed*
on a built simulation with :meth:`FaultPlan.install`, which interposes on
``SourceNode.inject_punctuation``.

Every spec draws randomness from its own :class:`random.Random` seeded from
``(plan seed, spec index)``, so a plan replayed over the same schedule
faults exactly the same tuples — the property the chaos suite's
differential assertions depend on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields as dataclass_fields
from typing import Iterable, Iterator, Sequence

from ..core.errors import WorkloadError
from ..sim.kernel import Arrival, Simulation

__all__ = [
    "ClockSkewSpike",
    "DropTuples",
    "DuplicateTuples",
    "FaultPlan",
    "FaultSpec",
    "FaultStats",
    "LoadSpike",
    "OutOfOrderBurst",
    "ProcessCrash",
    "PunctuationDelay",
    "PunctuationLoss",
    "ReshardCrash",
    "SimulatedCrash",
    "SlowSink",
    "SourceOutage",
]


class SimulatedCrash(Exception):
    """The whole DSMS process 'died' (raised by :class:`ProcessCrash`).

    Deliberately *not* a :class:`~repro.core.errors.ReproError`: a crash is
    not an engine condition to be handled in-stream but the harness's signal
    to abandon the process image and recover from durable state
    (:mod:`repro.recovery`).  Catch it at the driver level only.

    Attributes:
        time: Virtual-clock instant of the crash.
        source: Name of the source whose schedule carried the crash spec.
    """

    def __init__(self, message: str, *, time: float, source: str) -> None:
        super().__init__(message)
        self.time = time
        self.source = source

_INF = float("inf")


@dataclass(slots=True)
class FaultStats:
    """Counters of every fault actually applied (not merely configured).

    The chaos suite's "no silent tuple loss" assertion is
    ``delivered == fed - outage_dropped - dropped`` — injected losses are
    accounted, everything else must come out of the sinks.
    """

    outage_dropped: int = 0
    deferred: int = 0
    skewed: int = 0
    dropped: int = 0
    duplicated: int = 0
    disordered: int = 0
    punctuation_dropped: int = 0
    punctuation_delayed: int = 0
    crashes: int = 0
    spiked: int = 0
    slowed: int = 0
    reshard_crashes: int = 0

    @property
    def data_lost(self) -> int:
        """Data tuples removed from the schedule (drops of all kinds)."""
        return self.outage_dropped + self.dropped

    def reset(self) -> None:
        for f in dataclass_fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


class FaultSpec:
    """Base class: one fault targeting one source.

    Sub-classes override :meth:`wrap` (arrival-level faults) and/or
    :meth:`install` (punctuation-level faults); the defaults are no-ops so
    every spec can be passed through both application points.
    """

    source: str

    def wrap(self, arrivals: Iterator[Arrival], rng: random.Random,
             stats: FaultStats) -> Iterator[Arrival]:
        """Transform the arrival schedule (identity by default)."""
        return arrivals

    def install(self, sim: Simulation, rng: random.Random,
                stats: FaultStats) -> None:
        """Interpose on a built simulation (no-op by default)."""

    def install_sharded(self, engine, rng: random.Random,
                        stats: FaultStats) -> None:
        """Arm a fault on a sharded engine facade (no-op by default)."""


def _check_window(start: float, duration: float) -> None:
    if duration <= 0:
        raise WorkloadError(f"fault duration must be positive, got {duration}")
    if start < 0:
        raise WorkloadError(f"fault start must be non-negative, got {start}")


def _check_probability(probability: float) -> None:
    if not 0.0 <= probability <= 1.0:
        raise WorkloadError(
            f"fault probability must be in [0, 1], got {probability}")


@dataclass(frozen=True)
class SourceOutage(FaultSpec):
    """The source goes silent over ``[start, start + duration)``.

    Args:
        source: Target source name.
        start / duration: The outage window in stream seconds.
        mode: ``"drop"`` — tuples produced during the outage are lost (a
            dead upstream); ``"defer"`` — they are buffered upstream and
            released in a burst at the instant the source recovers (a
            network partition healing).
    """

    source: str
    start: float
    duration: float
    mode: str = "drop"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.mode not in ("drop", "defer"):
            raise WorkloadError(
                f"outage mode must be 'drop' or 'defer', got {self.mode!r}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def wrap(self, arrivals: Iterator[Arrival], rng: random.Random,
             stats: FaultStats) -> Iterator[Arrival]:
        held: list[Arrival] = []
        for arrival in arrivals:
            if self.start <= arrival.time < self.end:
                if self.mode == "drop":
                    stats.outage_dropped += 1
                else:
                    stats.deferred += 1
                    held.append(Arrival(time=self.end,
                                        payload=arrival.payload,
                                        external_ts=arrival.external_ts))
                continue
            if held and arrival.time >= self.end:
                yield from held
                held.clear()
            yield arrival
        yield from held


@dataclass(frozen=True)
class ClockSkewSpike(FaultSpec):
    """Application clocks jump back by ``skew`` over the window.

    External timestamps inside ``[start, start + duration)`` are shifted
    ``skew`` seconds into the past — when ``skew`` exceeds the declared
    ``external_delta``, downstream skew-bound ETS values outrun the data and
    the regressed timestamps land in quarantine.  Internally timestamped
    arrivals (no ``external_ts``) are unaffected.
    """

    source: str
    start: float
    duration: float
    skew: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.skew <= 0:
            raise WorkloadError(f"skew must be positive, got {self.skew}")

    def wrap(self, arrivals: Iterator[Arrival], rng: random.Random,
             stats: FaultStats) -> Iterator[Arrival]:
        end = self.start + self.duration
        for arrival in arrivals:
            if (arrival.external_ts is not None
                    and self.start <= arrival.time < end):
                stats.skewed += 1
                yield Arrival(time=arrival.time, payload=arrival.payload,
                              external_ts=arrival.external_ts - self.skew)
            else:
                yield arrival


@dataclass(frozen=True)
class DropTuples(FaultSpec):
    """Lose each tuple independently with ``probability`` inside the window."""

    source: str
    probability: float
    start: float = 0.0
    end: float = _INF

    def __post_init__(self) -> None:
        _check_probability(self.probability)

    def wrap(self, arrivals: Iterator[Arrival], rng: random.Random,
             stats: FaultStats) -> Iterator[Arrival]:
        for arrival in arrivals:
            if (self.start <= arrival.time < self.end
                    and rng.random() < self.probability):
                stats.dropped += 1
                continue
            yield arrival


@dataclass(frozen=True)
class DuplicateTuples(FaultSpec):
    """Deliver each tuple twice with ``probability`` inside the window.

    The duplicate carries the same arrival time and external timestamp, so
    stream order is preserved — it models at-least-once upstream delivery.
    """

    source: str
    probability: float
    start: float = 0.0
    end: float = _INF

    def __post_init__(self) -> None:
        _check_probability(self.probability)

    def wrap(self, arrivals: Iterator[Arrival], rng: random.Random,
             stats: FaultStats) -> Iterator[Arrival]:
        for arrival in arrivals:
            yield arrival
            if (self.start <= arrival.time < self.end
                    and rng.random() < self.probability):
                stats.duplicated += 1
                yield Arrival(time=arrival.time, payload=arrival.payload,
                              external_ts=arrival.external_ts)


@dataclass(frozen=True)
class OutOfOrderBurst(FaultSpec):
    """External timestamps regress by up to ``max_disorder`` in the window.

    Each affected tuple's ``external_ts`` loses a uniform delay in
    ``[0, max_disorder]`` with no order clamping, so consecutive timestamps
    may regress.  Target sources declared ``out_of_order=True`` (with a
    downstream Reorder), or rely on a quarantine policy to absorb the
    regressions on strictly ordered sources.
    """

    source: str
    start: float
    duration: float
    max_disorder: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.max_disorder <= 0:
            raise WorkloadError(
                f"max_disorder must be positive, got {self.max_disorder}")

    def wrap(self, arrivals: Iterator[Arrival], rng: random.Random,
             stats: FaultStats) -> Iterator[Arrival]:
        end = self.start + self.duration
        for arrival in arrivals:
            if (arrival.external_ts is not None
                    and self.start <= arrival.time < end):
                stats.disordered += 1
                yield Arrival(
                    time=arrival.time, payload=arrival.payload,
                    external_ts=arrival.external_ts
                    - rng.uniform(0.0, self.max_disorder))
            else:
                yield arrival


@dataclass(frozen=True)
class LoadSpike(FaultSpec):
    """An arrival-rate burst: the window's tuples land ``factor``× faster.

    Arrival times inside ``[start, start + duration)`` are compressed
    toward the window's start (``t' = start + (t - start) / factor``), so
    the same tuples arrive in ``1/factor`` of the time — the overload
    shape that exercises backpressure (:mod:`repro.feedback`).  External
    timestamps are untouched (the *data* did not change, only its arrival
    rate) and compression preserves arrival order, so the spec composes
    with strictly ordered sources.
    """

    source: str
    start: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.factor < 1.0:
            raise WorkloadError(
                f"spike factor must be >= 1, got {self.factor}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def wrap(self, arrivals: Iterator[Arrival], rng: random.Random,
             stats: FaultStats) -> Iterator[Arrival]:
        for arrival in arrivals:
            if self.start <= arrival.time < self.end:
                stats.spiked += 1
                yield Arrival(
                    time=self.start + (arrival.time - self.start) / self.factor,
                    payload=arrival.payload,
                    external_ts=arrival.external_ts)
            else:
                yield arrival


class _SlowSinkCostModel:
    """Cost-model interposition that inflates one operator's step costs."""

    def __init__(self, inner, spec: "SlowSink", clock,
                 stats: FaultStats) -> None:
        self.inner = inner
        self.spec = spec
        self.clock = clock
        self.stats = stats
        self.per_probe = inner.per_probe
        self.ets_generation = inner.ets_generation
        self.heartbeat_injection = inner.heartbeat_injection
        self.scheduling_overhead = inner.scheduling_overhead

    def _inflate(self, op, cost: float, count: int) -> float:
        now = self.clock.now()
        if op.name == self.spec.source and self.spec.start <= now < self.spec.end:
            self.stats.slowed += count
            return cost * self.spec.factor + self.spec.extra * count
        return cost

    def batch_cost(self, op, batch) -> float:
        count = batch.consumed_data + batch.consumed_punctuation
        return self._inflate(op, self.inner.batch_cost(op, batch),
                             count if count else 1)


@dataclass(frozen=True)
class SlowSink(FaultSpec):
    """The named operator's per-tuple cost inflates inside the window.

    ``source`` names the *operator* to slow — conventionally a sink
    (consumer backpressure: a congested downstream client), though any
    operator name works.  During ``[start, start + duration)`` each of
    its steps costs ``cost * factor + extra`` simulated seconds.  An
    install-level spec: it interposes on the simulation engine's cost
    model, so the simulation must run with one
    (``cost_model=None`` raises).
    """

    source: str
    start: float
    duration: float
    factor: float = 1.0
    extra: float = 0.0

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.factor < 1.0:
            raise WorkloadError(
                f"slowdown factor must be >= 1, got {self.factor}")
        if self.extra < 0.0:
            raise WorkloadError(
                f"extra cost must be non-negative, got {self.extra}")
        if self.factor == 1.0 and self.extra == 0.0:
            raise WorkloadError(
                "SlowSink needs factor > 1 or extra > 0 to slow anything")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def install(self, sim: Simulation, rng: random.Random,
                stats: FaultStats) -> None:
        model = sim.engine.cost_model
        if model is None:
            raise WorkloadError(
                "SlowSink interposes on the cost model; the simulation "
                "runs with cost_model=None (purely logical time)")
        sim.engine.cost_model = _SlowSinkCostModel(
            model, self, sim.clock, stats)


@dataclass(frozen=True)
class ProcessCrash(FaultSpec):
    """The process crash-stops when the schedule reaches instant ``at``.

    An arrival-level spec: the first arrival at or past ``at`` raises
    :class:`SimulatedCrash` *instead of* being delivered — exactly the
    shape of a crash-stop failure (the tuple never reached the DSMS, so it
    is not in the WAL and must be re-fed after recovery).  The driver
    catches the exception, abandons the simulation object, rebuilds the
    graph from its factory, and runs
    :meth:`repro.recovery.RecoveryManager.recover`; the crashed arrival and
    everything after it are re-attached with
    ``attach_arrivals(..., skip=report.ingests_by_source[...])``.
    """

    source: str
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise WorkloadError(
                f"crash instant must be non-negative, got {self.at}")

    def wrap(self, arrivals: Iterator[Arrival], rng: random.Random,
             stats: FaultStats) -> Iterator[Arrival]:
        for arrival in arrivals:
            if arrival.time >= self.at:
                stats.crashes += 1
                raise SimulatedCrash(
                    f"simulated process crash at t={self.at:g} "
                    f"(source {self.source!r})",
                    time=self.at, source=self.source)
            yield arrival


@dataclass(frozen=True)
class PunctuationLoss(FaultSpec):
    """Punctuation injections on the source are lost inside the window.

    Installed on a built simulation: every ``inject_punctuation`` call —
    periodic heartbeats and on-demand ETS alike — during ``[start, end)`` is
    dropped with ``probability``.  This is the fault that turns scenario
    B's liveness guarantee into a lie; on-demand ETS simply asks again at
    the next wake-up that backtracks to the source.
    """

    source: str
    start: float = 0.0
    end: float = _INF
    probability: float = 1.0

    def __post_init__(self) -> None:
        _check_probability(self.probability)

    def install(self, sim: Simulation, rng: random.Random,
                stats: FaultStats) -> None:
        source = sim.graph[self.source]
        original = source.inject_punctuation
        spec = self

        def faulted(ts: float, *, origin: str = "",
                    periodic: bool = False) -> bool:
            now = sim.clock.now()
            if spec.start <= now < spec.end and rng.random() < spec.probability:
                stats.punctuation_dropped += 1
                return False
            return original(ts, origin=origin, periodic=periodic)

        source.inject_punctuation = faulted  # type: ignore[method-assign]


@dataclass(frozen=True)
class PunctuationDelay(FaultSpec):
    """Punctuation injections are delayed by ``delay`` inside the window.

    The delayed punctuation is re-injected through the simulation's event
    queue; by then the watermark may have moved past it, in which case the
    (now stale) punctuation is discarded by the source — exactly the
    at-most-once semantics real progress messages have.
    """

    source: str
    delay: float
    start: float = 0.0
    end: float = _INF

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise WorkloadError(f"delay must be positive, got {self.delay}")

    def install(self, sim: Simulation, rng: random.Random,
                stats: FaultStats) -> None:
        source = sim.graph[self.source]
        original = source.inject_punctuation
        spec = self

        def faulted(ts: float, *, origin: str = "",
                    periodic: bool = False) -> bool:
            now = sim.clock.now()
            if spec.start <= now < spec.end:
                stats.punctuation_delayed += 1
                sim.events.schedule(
                    now + spec.delay,
                    lambda: original(ts, origin=origin, periodic=periodic))
                return False
            return original(ts, origin=origin, periodic=periodic)

        source.inject_punctuation = faulted  # type: ignore[method-assign]


#: Phase names of :data:`repro.shard.elastic.RESHARD_PHASES`, duplicated
#: here (a literal, asserted equal in the test suite) so the fault layer
#: never imports the shard layer.
_RESHARD_PHASES = ("quiesce", "align", "snapshot", "restore",
                   "reroute", "resume")


@dataclass(frozen=True)
class ReshardCrash(FaultSpec):
    """The facade 'dies' as a reshard reaches ``phase``.

    Installed as a hook on ``engine.reshard_hooks`` (an
    :class:`~repro.shard.elastic.ElasticShardedEngine`); raises
    :class:`SimulatedCrash` when the coordinator announces the phase, so
    the crash-matrix suite can kill a migration before the snapshot,
    between snapshot and restore, or during the re-route — and then
    demand exactly-once recovery from the epoch manifest.  Fires ``times``
    times (later reshards of a recovered run proceed normally).
    """

    phase: str = "snapshot"
    times: int = 1
    source: str = ""

    def __post_init__(self) -> None:
        if self.phase not in _RESHARD_PHASES:
            raise WorkloadError(
                f"reshard phase must be one of {_RESHARD_PHASES}, "
                f"got {self.phase!r}")
        if self.times < 1:
            raise WorkloadError(f"times must be >= 1, got {self.times}")

    def install_sharded(self, engine, rng: random.Random,
                        stats: FaultStats) -> None:
        remaining = [self.times]

        def hook(phase: str) -> None:
            if phase == self.phase and remaining[0] > 0:
                remaining[0] -= 1
                stats.reshard_crashes += 1
                raise SimulatedCrash(
                    f"injected crash at reshard phase {phase!r}",
                    time=engine._drive_now, source="reshard")

        engine.reshard_hooks.append(hook)


class FaultPlan:
    """An ordered, seeded composition of fault specs.

    Args:
        specs: The faults; arrival-level specs compose in list order (an
            outage wrapping a duplicator sees the duplicates, and vice
            versa).
        seed: Root seed; each spec derives an independent deterministic
            stream from ``(seed, spec index)``, so the same plan over the
            same schedule always faults the same tuples.

    Attributes:
        stats: Aggregate :class:`FaultStats` across every wrap/install this
            plan performed (reset with ``plan.stats.reset()`` between
            differential runs).
    """

    def __init__(self, specs: Sequence[FaultSpec], *, seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = seed
        self.stats = FaultStats()

    def _rng_for(self, index: int) -> random.Random:
        return random.Random(f"faultplan:{self.seed}:{index}")

    def specs_for(self, source_name: str) -> list[FaultSpec]:
        return [s for s in self.specs if s.source == source_name]

    def wrap(self, source_name: str,
             arrivals: Iterable[Arrival]) -> Iterator[Arrival]:
        """Apply every arrival-level spec targeting ``source_name``.

        Each call re-derives the per-spec RNGs, so wrapping the same
        schedule twice faults the same tuples (stats, however, accumulate).
        """
        wrapped = iter(arrivals)
        for index, spec in enumerate(self.specs):
            if spec.source != source_name:
                continue
            wrapped = spec.wrap(wrapped, self._rng_for(index), self.stats)
        return wrapped

    def install(self, sim: Simulation) -> "FaultPlan":
        """Apply every punctuation-level spec to a built simulation."""
        for index, spec in enumerate(self.specs):
            if spec.source in sim.graph:
                spec.install(sim, self._rng_for(index), self.stats)
        return self

    def install_sharded(self, engine) -> "FaultPlan":
        """Arm every shard-level spec on a sharded engine facade."""
        for index, spec in enumerate(self.specs):
            spec.install_sharded(engine, self._rng_for(index), self.stats)
        return self

    def wrap_feeds(self, feeds: Sequence) -> list:
        """Fault a deterministic per-tuple feed schedule (oracle workloads).

        Accepts any sequence of Feed-like records (``source``, ``time``,
        ``payload``, ``external_ts`` attributes — e.g. the differential
        oracle's ``Feed``), applies the arrival-level specs per source, and
        re-merges the faulted per-source schedules into one time-ordered
        list of the same record type.
        """
        if not feeds:
            return []
        feed_type = type(feeds[0])
        per_source: dict[str, list[Arrival]] = {}
        for feed in feeds:
            per_source.setdefault(feed.source, []).append(
                Arrival(time=feed.time, payload=feed.payload,
                        external_ts=feed.external_ts))
        merged: list = []
        for name in sorted(per_source):
            merged.extend(
                feed_type(source=name, time=a.time, payload=a.payload,
                          external_ts=a.external_ts)
                for a in self.wrap(name, iter(per_source[name])))
        merged.sort(key=lambda f: f.time)
        return merged
