"""The simulation kernel: wires clock, events, wrappers, and the engine.

The kernel plays the roles that surround the Stream Mill engine in the
paper's testbed:

* the **input wrappers** — arrival processes push tuples into source-node
  buffers at their event times;
* the **heartbeat generators** of scenario B — a
  :class:`~repro.core.ets.PeriodicEtsSchedule` becomes a train of injection
  events per punctuated source;
* the **machine** — a single CPU shared by everything: the engine advances
  the virtual clock as it works, and arrivals that become due while it is
  busy are delivered mid-round through the engine's ``deliver_due`` hook, so
  queueing under load is modelled faithfully (this is what bends scenario
  B's memory curve back up at high punctuation rates, Figure 8).

Typical use::

    sim = Simulation(graph, ets_policy=OnDemandEts())
    sim.attach_arrivals(src, poisson_process(rate=50).events(rng, payloads))
    sim.run(until=600.0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..core.config import EngineConfig
from ..core.ets import PeriodicEtsSchedule
from ..core.errors import WorkloadError
from ..core.execution import ExecutionEngine
from ..core.graph import QueryGraph
from ..core.operators.source import SourceNode
from ..obs.bus import NULL_BUS
from ..obs.idle import IdleTracker
from .clock import VirtualClock
from .cost import CostModel
from .events import EventQueue

__all__ = ["Arrival", "Simulation"]


@dataclass(frozen=True, slots=True)
class Arrival:
    """One tuple arrival produced by a workload.

    Attributes:
        time: Virtual-clock instant at which the tuple reaches the DSMS.
        payload: The record.
        external_ts: Application timestamp, required for externally
            timestamped sources and forbidden otherwise.
    """

    time: float
    payload: Any = None
    external_ts: float | None = None


class Simulation:
    """Owns one query graph and everything needed to run it through time.

    Args:
        graph: The query to execute (validated on first run).
        periodic: Heartbeat schedule for scenario B; None for no heartbeats.
        cost_model: CPU pricing; defaults to the calibrated
            :class:`CostModel`.  Pass ``CostModel.zero()`` for logical runs.
        start_time: Initial virtual-clock value.
        track_idle: Maintain an :class:`IdleTracker` over the IWP operators.
        offer_ets_always: Forwarded to the engine (fidelity ablation).
        quarantine: Optional
            :class:`~repro.faults.degrade.QuarantinePolicy` attached to
            every source; decides drop/clamp/raise for regressed external
            timestamps, with counters mirrored into the engine stats.
        monitor: Optional
            :class:`~repro.faults.monitors.InvariantMonitor`; installed on
            the graph here and checked by the engine each wake-up.
        engine_cls: Alternative engine class (the round-robin scheduling
            ablation X4), constructed exactly like the default one.
        config / **knobs: The shared knobs, declared and documented on
            :class:`~repro.core.config.EngineConfig` (``ets_policy``,
            ``batch_size``, ``observers``, ``feedback``,
            ``checkpoint_every``, ``max_steps_per_round``, ``recovery``):
            ``config`` carries them, keywords are ``config.replace``.
    """

    def __init__(self, graph: QueryGraph, *,
                 periodic: PeriodicEtsSchedule | None = None,
                 cost_model: CostModel | None = None,
                 start_time: float = 0.0,
                 track_idle: bool = True,
                 offer_ets_always: bool = False,
                 quarantine=None,
                 monitor=None,
                 engine_cls: type[ExecutionEngine] = ExecutionEngine,
                 config: EngineConfig | None = None, **knobs) -> None:
        config = (config or EngineConfig()).replace(**knobs)
        self.graph = graph
        if not graph.is_validated:
            graph.validate()
        self.clock = VirtualClock(start_time)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.events = EventQueue()
        self.idle_tracker = (IdleTracker(graph.iwp_operators(), start_time)
                             if track_idle else None)
        if monitor is not None:
            monitor.install(graph)
        self.engine = engine_cls(
            graph, self.clock,
            cost_model=self.cost_model,
            idle_tracker=self.idle_tracker,
            deliver_due=self._deliver_due,
            offer_ets_always=offer_ets_always,
            monitor=monitor,
            config=config,
        )
        #: The engine's event bus (or the shared no-op bus): the kernel's
        #: own events — arrivals and heartbeat trains — are published here
        #: so every observer sees one unified stream.
        self._bus = self.engine.bus if self.engine.bus is not None \
            else NULL_BUS
        self.periodic = periodic
        self.monitor = monitor
        self.quarantine = quarantine
        if quarantine is not None:
            quarantine.bind(stats=self.engine.stats, bus=self.engine.bus)
            for source in graph.sources():
                source.quarantine = quarantine
        #: The feedback controller (if any) — the same object the engine
        #: samples each wake-up; its counters join :meth:`summary`.
        self.feedback = self.engine.feedback
        self._arrival_iters: dict[str, Iterator[Arrival]] = {}
        self._horizon = float("inf")
        self._started = False
        self.arrivals_delivered = 0
        self.heartbeats_delivered = 0
        #: Optional :class:`~repro.recovery.RecoveryManager`: binding it
        #: here interposes WAL logging on every source ingest, harness
        #: punctuation, and engine wake-up, and wires the engine's
        #: ``checkpoint_hook`` — everything the simulation does from now on
        #: is durable and crash-recoverable.
        self.recovery = config.recovery
        if self.recovery is not None:
            self.recovery.bind(graph, self.engine, self.clock, sim=self)

    # ------------------------------------------------------------------ #
    # Configuration

    def attach_arrivals(self, source: SourceNode,
                        arrivals: Iterator[Arrival],
                        *, faults=None, skip: int = 0) -> None:
        """Feed ``source`` from an iterator of time-ordered arrivals.

        Args:
            source: The source node receiving the tuples.
            arrivals: Lazy, time-ordered arrival schedule.
            faults: Optional :class:`~repro.faults.plan.FaultPlan`; its
                arrival-level specs targeting this source wrap the schedule
                before it is attached.
            skip: Drop this many (post-fault) arrivals before the first one
                is scheduled.  Crash recovery re-attaches the original
                schedule with ``skip=report.ingests_by_source[name]`` —
                everything the WAL already replayed is not fed twice.
        """
        if source.name not in self.graph or self.graph[source.name] is not source:
            raise WorkloadError(
                f"source {source.name!r} is not in graph {self.graph.name!r}"
            )
        if source.name in self._arrival_iters:
            raise WorkloadError(
                f"source {source.name!r} already has an arrival process"
            )
        if skip < 0:
            raise WorkloadError(f"skip must be non-negative, got {skip}")
        if faults is not None:
            arrivals = faults.wrap(source.name, arrivals)
        iterator = iter(arrivals)
        for _ in range(skip):
            if next(iterator, None) is None:
                break
        self._arrival_iters[source.name] = iterator
        self._schedule_next_arrival(source)

    def schedule_arrival(self, source: SourceNode, arrival: Arrival) -> None:
        """Schedule a single ad-hoc arrival (tests and examples)."""
        self.events.schedule(arrival.time,
                             lambda: self._fire_arrival(source, arrival))

    # ------------------------------------------------------------------ #
    # Event actions

    def _schedule_next_arrival(self, source: SourceNode) -> None:
        iterator = self._arrival_iters.get(source.name)
        if iterator is None:
            return
        arrival = next(iterator, None)
        if arrival is None:
            return

        def fire() -> SourceNode:
            self._fire_arrival(source, arrival)
            self._schedule_next_arrival(source)
            return source

        self.events.schedule(arrival.time, fire)

    def _fire_arrival(self, source: SourceNode, arrival: Arrival) -> SourceNode:
        # If the engine is busy, the tuple enters the DSMS when the wrapper
        # next gets the CPU: it is stamped with the (later) entry time but
        # its latency is measured from the physical arrival instant.
        self.clock.advance_to(arrival.time)
        source.ingest(arrival.payload, now=self.clock.now(),
                      ts=arrival.external_ts, arrival=arrival.time)
        self.arrivals_delivered += 1
        self._bus.arrival(operator=source.name, time=self.clock.now(),
                          external_ts=arrival.external_ts)
        return source

    def _start_heartbeats(self) -> None:
        if self.periodic is None:
            return
        self.periodic.bind(self.graph)
        for source in self.graph.sources():
            if not self.periodic.applies_to(source):
                continue
            period = self.periodic.period_for(source.name)
            first = self.clock.now() + period * self.periodic.phase
            self._schedule_heartbeat(source, first)

    def _schedule_heartbeat(self, source: SourceNode, when: float) -> None:
        def fire() -> SourceNode:
            self.clock.advance_to(when)
            cost = self.cost_model.heartbeat_injection
            if cost:
                self.clock.advance(cost)
            ts = self.clock.now()
            if source.inject_punctuation(ts,
                                         origin=f"heartbeat:{source.name}",
                                         periodic=True):
                self.heartbeats_delivered += 1
                self._bus.punctuation(operator=source.name,
                                      round_id=self.engine.round_id,
                                      time=self.clock.now(),
                                      origin="heartbeat", ts=ts)
            # The schedule decides the next gap (fixed schedules keep their
            # grid; adaptive ones re-estimate from observed traffic), dated
            # from the nominal fire time even when delivered late.
            next_period = self.periodic.next_period(source, self.clock.now())
            self._schedule_heartbeat(source, when + next_period)
            return source

        self.events.schedule(when, fire)

    # ------------------------------------------------------------------ #
    # Driving time

    def _deliver_due(self, now: float) -> None:
        """Engine hook: fire every event due at or before ``now``."""
        events = self.events
        next_t = events.next_time()
        if next_t is None or next_t > now or next_t > self._horizon:
            return
        limit = min(now, self._horizon)
        while (due := events.pop_due(limit)) is not None:
            due[1]()

    def run(self, until: float) -> "Simulation":
        """Advance the simulation to virtual time ``until``; returns self."""
        if until < self.clock.now():
            raise WorkloadError(
                f"cannot run backwards: until={until} < now={self.clock.now()}"
            )
        self._horizon = until
        if not self._started:
            self._start_heartbeats()
            self._started = True
        while True:
            next_t = self.events.next_time()
            if next_t is None or next_t > until:
                break
            popped = self.events.pop_next()
            assert popped is not None
            time, action = popped
            self.clock.advance_to(time)
            entry = action()
            self.engine.wakeup(entry if isinstance(entry, SourceNode) else None)
        self.clock.advance_to(until)
        self.engine.wakeup()  # final drain + idle-tracker refresh at horizon
        self._horizon = float("inf")
        return self

    # ------------------------------------------------------------------ #
    # Convenience metrics

    def idle_fraction(self, op_name: str) -> float:
        """Idle-waiting fraction of a tracked IWP operator so far."""
        if self.idle_tracker is None:
            raise WorkloadError("simulation was created with track_idle=False")
        return self.idle_tracker.idle_fraction(op_name, self.clock.now())

    @property
    def peak_queue_size(self) -> int:
        """Peak total number of elements across the graph's buffers."""
        return self.graph.registry.peak

    @property
    def cpu_utilization(self) -> float:
        """Fraction of elapsed virtual time the engine spent executing."""
        elapsed = self.clock.now()
        if elapsed <= 0:
            return 0.0
        return self.engine.stats.busy_time / elapsed

    def summary(self) -> dict[str, object]:
        """Headline metrics of the run so far, as a plain dict.

        Combines clock, delivery, queueing, punctuation, and idle-waiting
        figures — the numbers every experiment reports — without the caller
        having to know which subsystem owns each one.
        """
        stats = self.engine.stats
        sinks = self.graph.sinks()
        idle = (self.idle_tracker.snapshot(self.clock.now())
                if self.idle_tracker is not None else {})
        return {
            "now": self.clock.now(),
            "arrivals": self.arrivals_delivered,
            "heartbeats": self.heartbeats_delivered,
            "delivered": sum(s.delivered for s in sinks),
            "mean_latency": (
                sum(s.latency_sum for s in sinks)
                / max(1, sum(s.latency_count for s in sinks))
            ),
            "peak_queue": self.peak_queue_size,
            "current_queue": self.graph.registry.total,
            "engine_steps": stats.steps,
            "punctuation_steps": stats.punct_steps,
            "ets_injected": stats.ets_injected,
            "cpu_utilization": self.cpu_utilization,
            "idle_fractions": idle,
            "quarantine_dropped": stats.quarantine_dropped,
            "quarantine_clamped": stats.quarantine_clamped,
            "invariant_violations": stats.invariant_violations,
            "throttled": sum(s.throttled_count
                             for s in self.graph.sources()),
            **(self.feedback.summary() if self.feedback is not None else {}),
        }
