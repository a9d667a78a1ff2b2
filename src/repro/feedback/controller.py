"""The feedback controller: closed-loop backpressure at the sources.

The paper's on-demand ETS flows *downstream*: a stalled IWP operator
backtracks to a source and asks for a punctuation.  The controller closes
the other loop.  Once per wake-up it reads the buffer registry's interval
peak and applies a hysteresis deadband: crossing ``high_watermark``
activates an overload episode (a pressure wave every ``refresh_every``
wake-ups), falling back through ``low_watermark`` deactivates it and
starts a bounded train of *relief* beats that let the AIMD throttles
unwind gradually.

A wave is one bool — pressure or relief — and its only reaction is one
AIMD step on the ``throttle`` of every source that has one
(:class:`~repro.feedback.TokenBucketThrottle`).  Nothing enters a stream
buffer and no operator is visited, so the data path and the
ordered-stream invariant are untouched by construction.  The controller
is one engine's: a sharded engine refuses it, since feedback asserts
something of a stream, not of the rows one shard was routed.

Everything the controller does is a pure function of engine state and the
virtual clock, and its own state is versioned via ``snapshot_state`` —
recovery replays controller decisions deterministically.
"""

from __future__ import annotations

from ..core.errors import PolicyError

__all__ = ["FeedbackController"]


class FeedbackController:
    """Hysteresis sampler that turns buffer pressure into AIMD steps.

    Args:
        high_watermark: Total buffered elements (interval peak) at which an
            overload episode begins.
        low_watermark: Depth at which an active episode ends.  Defaults to
            ``high_watermark // 4``.  The gap is the hysteresis deadband —
            the controller never flaps between emit and relief on small
            oscillations around one threshold.
        refresh_every: Wake-ups between waves while an episode is active
            (and between relief beats while unwinding).
        relief_beats: Relief waves emitted after an episode deactivates —
            the bounded unwind train for the AIMD increase.

    Attributes:
        episodes: Overload episodes entered so far.
        emitted / reliefs: Pressure and relief waves delivered.
    """

    def __init__(self, *, high_watermark: int = 256,
                 low_watermark: int | None = None,
                 refresh_every: int = 1,
                 relief_beats: int = 8) -> None:
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
        if refresh_every < 1:
            raise PolicyError(
                f"refresh_every must be >= 1, got {refresh_every}")
        self.refresh_every = int(refresh_every)
        self.relief_beats = int(relief_beats)

        self.graph = None
        self.engine = None
        self._active = False
        self._beats_left = 0
        self._last_wave_round = -1
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
                self._beats_left = self.relief_beats
                self._wave(now, round_id, depth, pressure=False)
            elif round_id - self._last_wave_round >= self.refresh_every:
                self._wave(now, round_id, depth, pressure=True)
        elif depth >= self.high_watermark:
            self._active = True
            self.episodes += 1
            self._beats_left = 0
            self._wave(now, round_id, depth, pressure=True)
        elif (self._beats_left > 0
              and round_id - self._last_wave_round >= self.refresh_every):
            self._beats_left -= 1
            self._wave(now, round_id, depth, pressure=False)

    def _wave(self, now: float, round_id: int, depth: int,
              *, pressure: bool) -> None:
        """One AIMD step on every throttled source, then the bus event."""
        if pressure:
            self.emitted += 1
        else:
            self.reliefs += 1
        self._last_wave_round = round_id
        for source in self.graph.sources():
            if source.throttle is not None:
                source.throttle.step(pressure)
        bus = self.engine.bus if self.engine is not None else None
        if bus is not None:
            bus.feedback(kind="pressure" if pressure else "relief",
                         round_id=round_id, time=now, depth=depth)

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot_state(self) -> dict:
        """Versioned snapshot of the hysteresis state and counters."""
        return {
            "version": 1,
            "active": self._active,
            "beats_left": self._beats_left,
            "last_wave_round": self._last_wave_round,
            "last_depth": self.last_depth,
            "episodes": self.episodes,
            "emitted": self.emitted,
            "reliefs": self.reliefs,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state` (a
        ``last_pressure`` key from an older snapshot is ignored)."""
        if state.get("version") != 1:
            raise PolicyError(
                f"unsupported FeedbackController state: {state!r}")
        self._active = state["active"]
        self._beats_left = state["beats_left"]
        self._last_wave_round = state["last_wave_round"]
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
            "feedback_depth": self.last_depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FeedbackController(high={self.high_watermark}, "
                f"low={self.low_watermark}, active={self._active})")
