"""ETS policies: how (and whether) stalled sources produce punctuation.

The experiments compare four scenarios (paper Section 6); the first three
map onto policy objects plugged into the execution engine, the fourth is a
property of the streams themselves:

* **A — no ETS**: :class:`NoEts`; idle-waiting runs its course.
* **B — periodic ETS**: :class:`NoEts` at the engine plus a
  :class:`PeriodicEtsSchedule` that the simulation kernel turns into
  heartbeat-injection events at fixed rates (the Gigascope approach of
  Johnson et al., reference [9]).
* **C — on-demand ETS**: :class:`OnDemandEts`; the engine's Backtrack rule
  invokes the policy when it reaches a source with an empty buffer, and the
  generated punctuation rides down exactly the path that was backtracked.
* **D — latent timestamps**: no policy involved; latent streams never gate.

On-demand ETS is also what keeps a query live when a source dies: the
next wake-up backtracks to the silent source and punctuates it, so the
other inputs keep flowing (claim X8; DESIGN.md §4c).  A clock that spikes
past the skew bound is a different fault, absorbed at ingest by
:class:`~repro.faults.degrade.QuarantinePolicy`.
"""

from __future__ import annotations

from math import isfinite
from typing import Mapping

from .errors import PolicyError
from .operators.source import SourceNode
from .tuples import LATENT_TS, TimestampKind

__all__ = ["AdaptiveHeartbeatSchedule", "EtsPolicy", "NoEts",
           "OnDemandEts", "PeriodicEtsSchedule"]

_INTERNAL = TimestampKind.INTERNAL
_EXTERNAL = TimestampKind.EXTERNAL


class EtsPolicy:
    """Engine-side hook invoked when backtracking reaches a stalled source."""

    def on_source_stalled(self, source: SourceNode, now: float,
                          round_id: int) -> bool:
        """Try to produce an ETS at ``source``.

        Args:
            source: The source whose buffer the Backtrack rule found empty.
            now: Current virtual-clock time.
            round_id: The engine wake-up round; policies may rate-limit per
                round to bound work per wake-up.

        Returns:
            True when a punctuation was injected into the source's stream
            (the engine then moves Forward down that path).
        """
        return False

    def state_floor(self) -> float:
        """As :meth:`Operator.state_floor`: ``-inf`` for a policy that may
        decide from history (the safe default for subclasses)."""
        return float("-inf")

    def snapshot_state(self) -> dict:
        """Versioned snapshot; the base policy carries no mutable state."""
        return {"version": 1}

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`.  Other
        keys are ignored: a version-1 :class:`OnDemandEts` snapshot that
        still carries the ``generated``/``declined`` counters it once kept
        restores unchanged."""
        if state.get("version") != 1:
            raise PolicyError(
                f"unsupported {type(self).__name__} state: {state!r}")


class NoEts(EtsPolicy):
    """Scenario A (and the engine half of scenario B): never generate."""

    def state_floor(self) -> float:
        return float("inf")


class OnDemandEts(EtsPolicy):
    """Scenario C: generate an ETS exactly when backtracking needs one.

    The value is paper Section 5's rule, one line per timestamp kind of the
    stalled source:

    * **internal**: the current clock ``now`` — internal stamps are assigned
      on entry from the same clock, so every later tuple is stamped ≥ now;
    * **external**: the skew bound ``t + τ − δ`` (Srivastava & Widom, PODS
      2004, quoted by the paper): ``t`` the last tuple's timestamp, ``τ``
      the time elapsed since it arrived, ``δ`` = ``external_delta``.  A
      source with no data yet gives ``t`` no value, so it declines and its
      IWP consumer keeps waiting for the first tuple;
    * **latent**: nothing — latent streams never idle-wait.

    A source generates at most once per engine wake-up round — the
    termination argument for the backtracking loop and the paper's intent
    ("generate a *new* ETS value ... on the path on which backtracking just
    occurred") — and a value that would not advance its watermark is
    skipped.  The engine counts offers and injections
    (``EngineStats.ets_offers`` / ``ets_injected``).

    Args:
        external_delta: ``δ``, the maximum skew (stream seconds) between an
            external timestamp and its arrival; finite and ≥ 0.  Larger is
            safer but unblocks less.
    """

    def __init__(self, *, external_delta: float = 0.0) -> None:
        if not (isfinite(external_delta) and external_delta >= 0):
            raise PolicyError("external_delta must be finite and >= 0, "
                              f"got {external_delta}")
        self.external_delta = float(external_delta)

    def state_floor(self) -> float:
        """Proposals read the clock and the source's own frontier only."""
        return float("inf")

    def on_source_stalled(self, source: SourceNode, now: float,
                          round_id: int) -> bool:
        if source.last_ets_round == round_id:
            return False
        kind = source.timestamp_kind
        if kind is _INTERNAL:
            ts = now
        elif kind is _EXTERNAL and source.last_data_ts != LATENT_TS:
            ts = (source.last_data_ts + (now - source.last_arrival_wall)
                  - self.external_delta)
        else:
            return False
        if not source.inject_punctuation(ts, origin=f"ets:{source.name}"):
            return False
        source.last_ets_round = round_id
        return True


class PeriodicEtsSchedule:
    """Scenario B: fixed-rate heartbeat punctuation per source.

    This object is *declarative*; the simulation kernel reads it and creates
    the periodic injection events (the engine never generates anything in
    scenario B).  Rates are punctuation tuples per stream second.

    Args:
        rates: Mapping from source name to injection rate, finite and
            positive; sources absent from the map get no heartbeats,
            matching the paper's setup where only the sparse stream is
            punctuated.  The first heartbeat comes one full period after
            the run starts.
    """

    def __init__(self, rates: Mapping[str, float]) -> None:
        for name, rate in rates.items():
            if not (isfinite(rate) and rate > 0):
                raise PolicyError(
                    f"periodic ETS rate for {name!r} must be finite and "
                    f"positive, got {rate}"
                )
        self.rates = dict(rates)

    def period_for(self, source_name: str) -> float | None:
        rate = self.rates.get(source_name)
        if rate is None:
            return None
        return 1.0 / rate

    def bind(self, graph) -> None:
        """Called once by the kernel before the first injection.

        The fixed schedule needs no context; adaptive subclasses use this to
        look up the streams they track.
        """

    def next_period(self, source: SourceNode, now: float) -> float:
        """Period until the next heartbeat on ``source`` (fixed by default)."""
        period = self.period_for(source.name)
        assert period is not None
        return period

    def applies_to(self, source: SourceNode) -> bool:
        return (source.name in self.rates
                and source.timestamp_kind is not TimestampKind.LATENT)

    def snapshot_state(self) -> dict:
        """Versioned snapshot; the fixed schedule is purely declarative."""
        return {"version": 1}

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise PolicyError(
                f"unsupported {type(self).__name__} state: {state!r}")


class AdaptiveHeartbeatSchedule(PeriodicEtsSchedule):
    """Heartbeats whose rate tracks the traffic they must unblock.

    The paper observes that the right periodic rate "largely depends on the
    load conditions of the various streams": punctuation on the sparse
    stream A should match the frequency of tuples on the busy stream B.
    This schedule is the natural adaptive baseline between fixed-rate
    heartbeats (scenario B) and on-demand ETS (scenario C): each punctuated
    source re-estimates, at every injection, the recent arrival rate of a
    designated *driver* stream and sets the next period to match it.

    Args:
        drivers: Mapping from punctuated source name to the name of the
            stream whose rate it should match (the busy stream).
        min_rate / max_rate: Clamp for the adapted rate, in heartbeats per
            second, finite with ``0 < min_rate <= max_rate``; the minimum
            also serves as the cold-start rate.

    Even adapted this way, heartbeats remain reactive-with-lag: they match
    the *recent past* rate, so the first tuples of a burst still wait about
    one (pre-burst) period — which is exactly what the X6 and X7
    ablations show and on-demand ETS avoids.
    """

    #: Minimum span (stream seconds) over which the driver rate is
    #: measured; shorter gaps reuse the previous estimate.  Without this
    #: floor, a fast adapted rate would shrink its own observation window
    #: until single-tuple noise whipsaws the estimate.
    ESTIMATION_WINDOW = 1.0

    def __init__(self, drivers: Mapping[str, str], *,
                 min_rate: float = 0.1, max_rate: float = 1000.0) -> None:
        if not (0 < min_rate <= max_rate and isfinite(max_rate)):
            raise PolicyError(
                f"need finite 0 < min_rate <= max_rate, got {min_rate}, "
                f"{max_rate}"
            )
        super().__init__({name: min_rate for name in drivers})
        self.drivers = dict(drivers)
        self.min_rate = min_rate
        self.max_rate = max_rate
        self._graph = None
        self._last_counts: dict[str, tuple[float, int]] = {}
        self._current_rate: dict[str, float] = {}

    def bind(self, graph) -> None:
        for name, driver in self.drivers.items():
            if driver not in graph:
                raise PolicyError(
                    f"adaptive heartbeat for {name!r}: driver stream "
                    f"{driver!r} is not in the graph"
                )
        self._graph = graph

    def _observed_rate(self, source_name: str, now: float) -> float:
        assert self._graph is not None, "bind() must run before injections"
        driver = self._graph[self.drivers[source_name]]
        count = driver.ingested_count
        last = self._last_counts.get(source_name)
        if last is None:
            self._last_counts[source_name] = (now, count)
            return self.min_rate
        last_t, last_count = last
        elapsed = now - last_t
        if elapsed < self.ESTIMATION_WINDOW:
            # Too little evidence since the last estimate: hold the rate.
            return self._current_rate.get(source_name, self.min_rate)
        self._last_counts[source_name] = (now, count)
        return (count - last_count) / elapsed

    def next_period(self, source: SourceNode, now: float) -> float:
        rate = self._observed_rate(source.name, now)
        rate = min(self.max_rate, max(self.min_rate, rate))
        self._current_rate[source.name] = rate
        return 1.0 / rate

    def snapshot_state(self) -> dict:
        """Versioned snapshot of the rate-estimation state.

        The graph binding itself is wiring, not state; ``bind`` re-runs on
        the rebuilt graph before injections resume.
        """
        return {
            "version": 1,
            "last_counts": dict(self._last_counts),
            "current_rate": dict(self._current_rate),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise PolicyError(
                f"unsupported AdaptiveHeartbeatSchedule state: {state!r}")
        self._last_counts = dict(state["last_counts"])
        self._current_rate = dict(state["current_rate"])
