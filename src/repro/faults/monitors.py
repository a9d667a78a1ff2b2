"""Runtime invariant monitors: watchdogs over the engine's safety properties.

Fault injection is only trustworthy if something independent checks that
the faulted run stayed *sound*.  An :class:`InvariantMonitor` installs three
watchdogs over a query graph:

* **sink-watermark monotonicity** — delivered timestamps at every sink must
  be non-decreasing (checked inline on every delivery);
* **TSM-register monotonicity** — consumer-side registers only ever move
  forward (checked per engine round against the previous snapshot);
* **bounded buffer growth** — the graph-wide live-tuple count stays under a
  configured ceiling (a stalled-but-still-ingesting engine grows without
  bound; liveness regained means the ceiling holds).

Violations either **halt** (raise :class:`InvariantViolation`, for tests
and strict deployments) or **degrade** (count, remember, and publish a
``"violation"`` fault event, for chaos runs that must keep going).  The
monitor is an ordinary :class:`~repro.obs.bus.Observer`: the engine hands
it the event bus on construction so violations reach every exporter and
metrics collector.  It also doubles as the bridge for ingest/buffer
violations: it registers itself as the buffer registry's ``on_violation``
observer, so out-of-order and schema rejections are published *before*
their error unwinds the stack.
"""

from __future__ import annotations

from ..core.errors import InvariantViolation, PolicyError
from ..core.graph import QueryGraph
from ..core.tuples import LATENT_TS
from ..obs.bus import EventBus, Observer

__all__ = ["InvariantMonitor"]


class InvariantMonitor(Observer):
    """Watchdog asserting engine invariants at runtime.

    Args:
        max_total_buffered: Ceiling on the graph-wide live-tuple count;
            None disables the bounded-growth check.
        mode: ``"halt"`` raises :class:`InvariantViolation` on the first
            violation; ``"degrade"`` counts and publishes but keeps running.
        max_recorded: Cap on remembered violation messages.

    Attributes:
        bus: Event bus the ``"violation"`` fault events are published on;
            set by the engine when it constructs its bus.
    """

    MODES = ("halt", "degrade")

    def __init__(self, *, max_total_buffered: int | None = None,
                 mode: str = "halt", max_recorded: int = 100) -> None:
        if mode not in self.MODES:
            raise PolicyError(
                f"monitor mode must be one of {self.MODES}, got {mode!r}")
        if max_total_buffered is not None and max_total_buffered <= 0:
            raise PolicyError(
                f"max_total_buffered must be positive, got "
                f"{max_total_buffered}")
        self.max_total_buffered = max_total_buffered
        self.mode = mode
        self.bus: EventBus | None = None
        self.max_recorded = max_recorded
        self.violations = 0
        self.ingest_violations = 0
        self.recorded: list[str] = []
        self._graph: QueryGraph | None = None
        self._register_floor: dict[int, float] = {}
        self._sink_last_ts: dict[str, float] = {}
        self._last_now = 0.0

    # ------------------------------------------------------------------ #
    # Installation

    def install(self, graph: QueryGraph) -> "InvariantMonitor":
        """Attach the watchdogs to ``graph`` (idempotent per graph)."""
        self._graph = graph
        self._register_floor = {
            id(buf): buf.register.value for buf in graph.buffers
        }
        for sink in graph.sinks():
            self._wrap_sink(sink)
        graph.registry.on_violation = self._on_ingest_violation
        return self

    def _wrap_sink(self, sink) -> None:
        self._sink_last_ts[sink.name] = LATENT_TS
        previous = sink.on_output

        def watched(tup, latency) -> None:
            last = self._sink_last_ts[sink.name]
            ts = tup.ts
            if ts != LATENT_TS:
                if last != LATENT_TS and ts < last:
                    self._violation(
                        f"sink {sink.name!r}: non-monotone delivery "
                        f"({ts} after {last})",
                        operator=sink.name, offending_ts=ts, last_seen_ts=last)
                elif ts > last:
                    self._sink_last_ts[sink.name] = ts
            if previous is not None:
                previous(tup, latency)

        sink.on_output = watched

    # ------------------------------------------------------------------ #
    # Checking

    def check(self, now: float) -> int:
        """Run the per-round checks; returns new violations (degrade mode)."""
        if self._graph is None:
            return 0
        self._last_now = now
        before = self.violations
        registry = self._graph.registry
        if (self.max_total_buffered is not None
                and registry.total > self.max_total_buffered):
            self._violation(
                f"buffer growth: {registry.total} live tuples exceed the "
                f"{self.max_total_buffered} ceiling at t={now:g}",
                total=registry.total, limit=self.max_total_buffered)
        for buf in self._graph.buffers:
            floor = self._register_floor.get(id(buf), LATENT_TS)
            value = buf.register.value
            if value < floor:
                self._violation(
                    f"TSM register of {buf.name!r} regressed "
                    f"({value} below {floor})",
                    operator=buf.consumer_name, port=buf.consumer_port,
                    offending_ts=value, last_seen_ts=floor)
            else:
                self._register_floor[id(buf)] = value
        return self.violations - before

    def _publish(self, operator: str, message: str) -> None:
        """Publish one violation on the bus, if one is attached."""
        if self.bus is not None:
            self.bus.fault(kind="violation", operator=operator,
                           round_id=0, time=self._last_now, detail=message)

    def _violation(self, message: str, **fields) -> None:
        self.violations += 1
        if len(self.recorded) < self.max_recorded:
            self.recorded.append(message)
        self._publish(str(fields.get("operator", "-")), message)
        if self.mode == "halt":
            raise InvariantViolation(message, **fields)

    def _on_ingest_violation(self, **fields) -> None:
        """Registry hook: publish ingest violations before they raise."""
        self.ingest_violations += 1
        self._publish(
            str(fields.get("operator", "-")),
            f"{fields.get('kind', 'ingest')} ts="
            f"{fields.get('offending_ts')} last="
            f"{fields.get('last_seen_ts')}")
