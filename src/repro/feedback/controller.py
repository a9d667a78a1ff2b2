"""The feedback controller: closed-loop backpressure over the query graph.

The paper's on-demand ETS flows *downstream*: a stalled IWP operator
backtracks to a source and asks for a punctuation.  This module reuses the
same graph walk in the other direction — after Fernández-Moctezuma & Tufte,
punctuation generalizes to *upstream feedback assertions*: observed sink
latency, buffer pressure, frontier lag, and a drop budget, traveling
predecessor-ward so that shedders, reorder buffers, and source throttles
can react before overload turns into unbounded queues.

Three pieces:

* :func:`propagate_feedback` — delivers one
  :class:`~repro.core.tuples.FeedbackPunctuation` through the graph in
  reverse topological order.  Each operator receives the element-wise
  *max-combine* of the assertions its live successors forwarded (an
  operator feeding two congested paths reacts to the worse one), reacts
  via :meth:`Operator.on_feedback`, and its return value continues toward
  the predecessors.  Feedback never enters a stream buffer: the data path,
  the ordered-stream invariant, and every differential oracle are
  untouched by construction.
* :class:`FeedbackController` — per-engine sampler.  Once per wake-up it
  reads the buffer registry's interval peak and applies a hysteresis
  deadband: crossing ``high_watermark`` activates an overload episode
  (waves every ``refresh_every`` wake-ups), falling back through
  ``low_watermark`` deactivates it and starts a bounded train of *relief*
  beats that let AIMD throttles and shed budgets unwind gradually.
* The pressure view (:attr:`FeedbackController.pressure`) that
  :meth:`summary` exposes.  It is one engine's: a sharded engine refuses a
  controller, since feedback asserts something of a stream, not of the
  rows one shard was routed.

Everything the controller does is a pure function of engine state and the
virtual clock, and its own state is versioned via ``snapshot_state`` —
recovery replays controller decisions deterministically.
"""

from __future__ import annotations

from ..core.errors import PolicyError
from ..core.tuples import LATENT_TS, FeedbackPunctuation

__all__ = ["FeedbackController", "propagate_feedback"]


def propagate_feedback(graph, feedback: FeedbackPunctuation,
                       now: float) -> dict[str, FeedbackPunctuation]:
    """Deliver ``feedback`` predecessor-ward through ``graph``.

    Sink-level operators (no live successors) are seeded with the
    controller's assertion; every other operator receives the max-combine
    of whatever its live successors chose to forward.  Returns the map of
    operator name → assertion *received*, for tests and tracing.
    """
    outgoing: dict[str, FeedbackPunctuation] = {}
    delivered: dict[str, FeedbackPunctuation] = {}
    for op in reversed(graph.topological_order()):
        successors = graph.live_successors(op)
        incoming: FeedbackPunctuation | None = None
        if successors:
            for succ in successors:
                fwd = outgoing.get(succ.name)
                if fwd is None:
                    continue
                incoming = (fwd if incoming is None
                            else incoming.combined_with(fwd))
        else:
            incoming = feedback
        if incoming is None:
            continue
        delivered[op.name] = incoming
        forwarded = op.on_feedback(incoming, now)
        if forwarded is not None:
            outgoing[op.name] = forwarded
    return delivered


class FeedbackController:
    """Hysteresis sampler that turns buffer pressure into feedback waves.

    Args:
        high_watermark: Total buffered elements (interval peak) at which an
            overload episode begins.
        low_watermark: Depth at which an active episode ends.  Defaults to
            ``high_watermark // 4``.  The gap is the hysteresis deadband —
            the controller never flaps between emit and relief on small
            oscillations around one threshold.
        overload_depth: Depth mapped to pressure 1.0 (and the full drop
            budget).  Defaults to ``2 * high_watermark``.
        max_drop_budget: Ceiling on the drop budget carried by a wave.
        refresh_every: Wake-ups between waves while an episode is active
            (and between relief beats while unwinding).
        relief_beats: Relief waves emitted after an episode deactivates —
            the bounded unwind train for AIMD increase and budget decay.
        origin: Name stamped on emitted assertions.

    Attributes:
        episodes: Overload episodes entered so far.
        emitted / reliefs: Pressure and relief waves delivered.
    """

    def __init__(self, *, high_watermark: int = 256,
                 low_watermark: int | None = None,
                 overload_depth: int | None = None,
                 max_drop_budget: float = 0.9,
                 refresh_every: int = 1,
                 relief_beats: int = 8,
                 origin: str = "feedback-controller") -> None:
        if high_watermark < 1:
            raise PolicyError(
                f"high_watermark must be >= 1, got {high_watermark}")
        self.high_watermark = int(high_watermark)
        self.low_watermark = (int(low_watermark) if low_watermark is not None
                              else self.high_watermark // 4)
        if not 0 <= self.low_watermark < self.high_watermark:
            raise PolicyError(
                f"low_watermark must be in [0, high_watermark), got "
                f"{self.low_watermark} vs {self.high_watermark}")
        self.overload_depth = (int(overload_depth)
                               if overload_depth is not None
                               else 2 * self.high_watermark)
        if self.overload_depth <= self.low_watermark:
            raise PolicyError("overload_depth must exceed low_watermark")
        if not 0.0 <= max_drop_budget <= 1.0:
            raise PolicyError(
                f"max_drop_budget must be in [0, 1], got {max_drop_budget}")
        if refresh_every < 1:
            raise PolicyError(
                f"refresh_every must be >= 1, got {refresh_every}")
        self.max_drop_budget = float(max_drop_budget)
        self.refresh_every = int(refresh_every)
        self.relief_beats = int(relief_beats)
        self.origin = origin

        self.graph = None
        self.engine = None
        self._active = False
        self._beats_left = 0
        self._last_wave_round = -1
        self.last_pressure = 0.0
        self.last_depth = 0
        self.episodes = 0
        self.emitted = 0
        self.reliefs = 0

    # ------------------------------------------------------------------ #
    # Wiring

    def bind(self, graph, engine) -> "FeedbackController":
        """Attach to one engine/graph pair (done by the engine ctor)."""
        self.graph = graph
        self.engine = engine
        graph.registry.mark()
        return self

    @property
    def pressure(self) -> float:
        """Live pressure view ``[0, 1]``: the last wave's while an episode
        is active, else 0."""
        return self.last_pressure if self._active else 0.0

    @property
    def active(self) -> bool:
        """True while an overload episode is in progress."""
        return self._active

    # ------------------------------------------------------------------ #
    # Sampling (called once per engine wake-up)

    def sample(self, now: float, round_id: int) -> None:
        """Read occupancy, apply the hysteresis deadband, maybe emit."""
        registry = self.graph.registry
        depth = registry.peak_since_mark
        registry.mark()
        self.last_depth = depth

        if self._active:
            if depth <= self.low_watermark:
                self._active = False
                self.last_pressure = 0.0
                self._beats_left = self.relief_beats
                self._wave(now, round_id, depth, relief=True)
            elif round_id - self._last_wave_round >= self.refresh_every:
                self._wave(now, round_id, depth, relief=False)
        elif depth >= self.high_watermark:
            self._active = True
            self.episodes += 1
            self._beats_left = 0
            self._wave(now, round_id, depth, relief=False)
        elif (self._beats_left > 0
              and round_id - self._last_wave_round >= self.refresh_every):
            self._beats_left -= 1
            self._wave(now, round_id, depth, relief=True)

    # ------------------------------------------------------------------ #
    # Wave assembly

    def _pressure_of(self, depth: int) -> float:
        """Map a depth to normalized pressure over the deadband ramp."""
        span = self.overload_depth - self.low_watermark
        return min(1.0, max(0.0, (depth - self.low_watermark) / span))

    def _drop_budget_of(self, depth: int) -> float:
        """Budget ramps from 0 at the high watermark to max at overload."""
        span = self.overload_depth - self.high_watermark
        if span <= 0:
            return self.max_drop_budget if depth >= self.high_watermark else 0.0
        over = (depth - self.high_watermark) / span
        return self.max_drop_budget * min(1.0, max(0.0, over))

    def _observe_sinks(self) -> tuple[float, float]:
        """(worst sink latency, frontier lag) at this instant."""
        latency = 0.0
        for sink in self.graph.sinks():
            if sink.latency_max > latency:
                latency = sink.latency_max
        newest = LATENT_TS
        for source in self.graph.sources():
            if source.watermark > newest:
                newest = source.watermark
        oldest = None
        for buf in self.graph.buffers:
            head = buf.head_ts()
            if head is not None and head != LATENT_TS:
                if oldest is None or head < oldest:
                    oldest = head
        lag = 0.0
        if oldest is not None and newest != LATENT_TS and newest > oldest:
            lag = newest - oldest
        return latency, lag

    def _wave(self, now: float, round_id: int, depth: int,
              *, relief: bool) -> None:
        pressure = 0.0 if relief else self._pressure_of(depth)
        budget = 0.0 if relief else self._drop_budget_of(depth)
        if relief:
            self.reliefs += 1
        else:
            self.emitted += 1
            self.last_pressure = pressure
        latency, lag = self._observe_sinks()
        wave = FeedbackPunctuation(
            ts=now, origin=self.origin, pressure=pressure,
            buffer_depth=depth, sink_latency=latency, frontier_lag=lag,
            drop_budget=budget)
        self._last_wave_round = round_id
        propagate_feedback(self.graph, wave, now)
        bus = self.engine.bus if self.engine is not None else None
        if bus is not None:
            bus.feedback(kind="relief" if relief else "pressure",
                         round_id=round_id, time=now,
                         pressure=pressure, depth=depth, drop_budget=budget,
                         sink_latency=latency, frontier_lag=lag,
                         origin=self.origin)

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot_state(self) -> dict:
        """Versioned snapshot of the hysteresis state and counters."""
        return {
            "version": 1,
            "active": self._active,
            "beats_left": self._beats_left,
            "last_wave_round": self._last_wave_round,
            "last_pressure": self.last_pressure,
            "last_depth": self.last_depth,
            "episodes": self.episodes,
            "emitted": self.emitted,
            "reliefs": self.reliefs,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise PolicyError(
                f"unsupported FeedbackController state: {state!r}")
        self._active = state["active"]
        self._beats_left = state["beats_left"]
        self._last_wave_round = state["last_wave_round"]
        self.last_pressure = state["last_pressure"]
        self.last_depth = state["last_depth"]
        self.episodes = state["episodes"]
        self.emitted = state["emitted"]
        self.reliefs = state["reliefs"]

    def summary(self) -> dict:
        """Counters under canonical snake_case names (for reports)."""
        return {
            "feedback_episodes": self.episodes,
            "feedback_waves": self.emitted,
            "feedback_reliefs": self.reliefs,
            "feedback_pressure": self.pressure,
            "feedback_depth": self.last_depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FeedbackController(high={self.high_watermark}, "
                f"low={self.low_watermark}, active={self._active})")
