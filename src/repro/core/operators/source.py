"""Source nodes: where streams enter the query graph.

A source node owns the input buffer(s) of the query (the arcs leaving it).
In Stream Mill these buffers are filled by external wrappers; in this
reproduction the simulation kernel plays the wrapper role by calling
:meth:`SourceNode.ingest` at each arrival event.

The source is also where timestamps are *assigned* (paper Section 5):

* ``INTERNAL`` — the tuple is stamped with the system (virtual) clock on
  entry;
* ``EXTERNAL`` — the application already stamped it; the source validates
  per-stream order and remembers arrival statistics for the skew-bound ETS
  generator;
* ``LATENT`` — the tuple enters unstamped.

Finally, the source is where on-demand ETS values materialize: when the
engine's backtracking reaches a source whose buffer is empty, the configured
ETS policy asks the source to :meth:`inject_punctuation`.
"""

from __future__ import annotations

from .. import tuples as _tuples
from ..errors import SchemaError, TimestampError
from ..tuples import LATENT_TS, Punctuation, TimestampKind
from .base import Operator

__all__ = ["SourceNode"]

#: The stamping modes as module constants: the per-row and per-ETS paths
#: compare against these instead of loading an Enum member each time.
_EXTERNAL = TimestampKind.EXTERNAL
_INTERNAL = TimestampKind.INTERNAL
_LATENT = TimestampKind.LATENT


class SourceNode(Operator):
    """Entry point of a stream into the query graph.

    Attributes:
        timestamp_kind: How tuples of this stream are stamped.
        last_data_ts: Timestamp of the most recent *data* tuple ingested
            (``LATENT_TS`` before the first one).
        last_arrival_wall: Virtual-clock time of the most recent data-tuple
            arrival (``nan`` before the first one); the external skew-bound
            ETS generator uses this together with ``last_data_ts``.
        watermark: Largest timestamp ever emitted on this stream, data or
            punctuation; ETS generation never goes below it.
    """

    is_iwp = False
    arity: int | None = 0

    def __init__(self, name: str,
                 timestamp_kind: TimestampKind = TimestampKind.INTERNAL,
                 *, out_of_order: bool = False, output_schema=None,
                 validate_schema: bool = False) -> None:
        """Create a source.

        Args:
            name: Node name within the graph.
            timestamp_kind: How this stream's tuples are stamped.
            out_of_order: Allow externally timestamped tuples to arrive out
                of timestamp order (bounded-disorder feeds); the graph
                disables order enforcement on this source's arcs, and a
                downstream :class:`~repro.core.operators.reorder.Reorder`
                is expected to restore order before any IWP operator.
            output_schema: Optional schema of the stream's records.
            validate_schema: When True (and ``output_schema`` is set),
                :meth:`ingest` validates every payload against the schema
                and rejects non-conforming records with a structured
                :class:`SchemaError` instead of letting them corrupt
                downstream operators.
        """
        super().__init__(name)
        self.output_schema = output_schema
        self.timestamp_kind = timestamp_kind
        self.validate_schema = validate_schema
        #: Optional :class:`~repro.faults.degrade.QuarantinePolicy` (or any
        #: object with its ``handle`` signature) deciding what happens to
        #: externally timestamped tuples whose timestamp regressed below the
        #: stream's frontier — e.g. after a clock-skew fault outran the
        #: declared ``external_delta``.  None keeps the strict raise.
        self.quarantine = None
        #: Optional admission throttle (any object with the
        #: :class:`~repro.feedback.TokenBucketThrottle` ``admit``/
        #: ``on_feedback`` signature).  None — the default — admits
        #: everything, keeping the healthy path byte-identical.
        self.throttle = None
        if out_of_order and timestamp_kind is not TimestampKind.EXTERNAL:
            raise TimestampError(
                f"source {name!r}: only externally timestamped streams can "
                "be out of order (internal/latent stamps are assigned in "
                "arrival order)"
            )
        self.out_of_order = out_of_order
        self.last_data_ts = LATENT_TS
        self.last_arrival_wall = float("nan")
        self.watermark = LATENT_TS
        self.ingested_count = 0
        self.punctuation_injected = 0
        #: Records refused admission by the installed throttle.
        self.throttled_count = 0
        #: Engine round in which this source last generated an on-demand ETS;
        #: bounds generation to once per wake-up (see execution module).
        self.last_ets_round = -1

    def _notify_violation(self, **fields) -> None:
        """Announce an ingest violation on the graph's registry hook.

        Runs *before* the error is raised (or the quarantine decision is
        made), so monitors and tracers see the event even when the caller's
        stack unwinds.  Standalone sources (no wired outputs) skip silently.
        """
        for buf in self.outputs:
            registry = buf.registry
            if registry is not None:
                registry.notify_violation(**fields)
                return

    def _invalid_ts(self, ts: float, what: str) -> TimestampError:
        """Build (and pre-announce) the error for a NaN stamp: it compares
        neither below nor above anything, so downstream no TSM gate could
        ever open past it."""
        fields = dict(operator=self.name, port=0, offending_ts=ts,
                      kind="invalid-ts")
        self._notify_violation(**fields)
        return TimestampError(
            f"source {self.name!r}: {what} {ts}, not a timestamp", **fields)

    # ------------------------------------------------------------------ #
    # Wrapper-facing API

    def ingest(self, payload, now: float, ts: float | None = None,
               arrival: float | None = None) -> float | None:
        """Admit one application record into the stream at wall time ``now``.

        The one place a source row is stamped and enqueued.  No tuple object
        is built: after the admission checks the row draws one ``seq`` and
        is appended, column by column, to the open tail block of every
        output buffer (:meth:`StreamBuffer.append_row`), which the first
        ``drain_block`` receives as it lies.

        Args:
            payload: The record carried by the tuple.
            now: Current virtual-clock time — the instant the tuple *enters*
                the DSMS; internal timestamps are assigned from it.
            ts: Application timestamp; required for external streams and
                forbidden otherwise.
            arrival: Physical arrival instant for latency accounting; when
                the engine was busy, this precedes ``now``.  Defaults to
                ``now``.

        Returns:
            The timestamp the row was stamped with (:data:`LATENT_TS` on a
            latent stream), or None when an installed quarantine policy
            dropped the record or the admission throttle refused it.
        """
        if self.throttle is not None and not self.throttle.admit(now):
            self.throttled_count += 1
            return None
        if self.validate_schema and self.output_schema is not None:
            try:
                self.output_schema.validate(payload)
            except SchemaError as exc:
                fields = dict(operator=self.name, port=0,
                              offending_ts=ts, last_seen_ts=self.last_data_ts,
                              kind="schema")
                self._notify_violation(**fields)
                raise SchemaError(
                    f"source {self.name!r}: payload rejected by schema "
                    f"({exc})", **fields,
                ) from exc
        kind = self.timestamp_kind
        if kind is _EXTERNAL:
            if ts is None:
                raise TimestampError(
                    f"source {self.name!r} is externally timestamped; "
                    "ingest() requires ts",
                    operator=self.name, port=0, kind="missing-ts",
                )
            stamped_ts = float(ts)
            if stamped_ts != stamped_ts:
                raise self._invalid_ts(stamped_ts, "ingest() got ts")
            if not self.out_of_order:
                # The stream frontier a new timestamp must not regress
                # below: the last data tuple, and — when a quarantine policy
                # is judging admission — any punctuation-advanced watermark
                # (an ETS value may have outrun a clock that spiked past δ).
                floor = self.last_data_ts
                if self.quarantine is not None and self.watermark > floor:
                    floor = self.watermark
                if floor != LATENT_TS and stamped_ts < floor:
                    fields = dict(operator=self.name, port=0,
                                  offending_ts=stamped_ts, last_seen_ts=floor,
                                  kind="out-of-order")
                    self._notify_violation(**fields)
                    if self.quarantine is not None:
                        admitted = self.quarantine.handle(
                            source_name=self.name, ts=stamped_ts,
                            floor=floor, now=now)
                        if admitted is None:
                            return None
                        stamped_ts = admitted
                    else:
                        raise TimestampError(
                            f"source {self.name!r}: external timestamps must "
                            f"be non-decreasing ({stamped_ts} after {floor})",
                            **fields,
                        )
        elif kind is _INTERNAL:
            if ts is not None:
                raise TimestampError(
                    f"source {self.name!r} is internally timestamped; "
                    "ingest() must not pass ts"
                )
            stamped_ts = now
        else:  # LATENT
            if ts is not None:
                raise TimestampError(
                    f"source {self.name!r} is latent; ingest() must not pass ts"
                )
            stamped_ts = LATENT_TS

        if arrival is None:
            arrival = now
        seq = next(_tuples._SEQ)
        for buf in self._ports.outputs:
            buf.append_row(stamped_ts, seq, kind, arrival, payload)
        self.ingested_count += 1
        if stamped_ts != LATENT_TS and stamped_ts >= self.last_data_ts:
            # On out-of-order streams, track the frontier tuple: the
            # skew-bound ETS generator extrapolates from the largest
            # timestamp seen and its arrival instant.
            self.last_data_ts = stamped_ts
            if stamped_ts > self.watermark:
                self.watermark = stamped_ts
        self.last_arrival_wall = now
        return stamped_ts

    def inject_punctuation(self, ts: float, *, origin: str = "",
                           periodic: bool = False) -> bool:
        """Push an ETS punctuation with timestamp ``ts`` into the stream.

        The injection is skipped (returning False) when ``ts`` would not
        advance the stream's watermark: such a punctuation could violate the
        ordered-stream invariant downstream and could not unblock anything
        the previous watermark did not already unblock.
        """
        if self.timestamp_kind is _LATENT:
            return False
        if self.watermark != LATENT_TS and ts <= self.watermark:
            return False
        if ts != ts:
            raise self._invalid_ts(ts, "inject_punctuation() got")
        punct = Punctuation(ts=ts, origin=origin or self.name, periodic=periodic)
        self.emit(punct)
        self.watermark = ts
        self.punctuation_injected += 1
        return True

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def state_floor(self) -> float:
        """A source holds no rows and its watermark is a maximum — unless a
        throttle or a quarantine policy judges admission from history."""
        if self.throttle is not None or self.quarantine is not None:
            return float("-inf")
        return float("inf")

    def state_reach(self) -> float:
        """A source's outputs *are* the history."""
        return 0.0

    def snapshot_state(self) -> dict:
        """Versioned snapshot of the stream frontier and counters."""
        state = {
            "version": 1,
            "last_data_ts": self.last_data_ts,
            "last_arrival_wall": self.last_arrival_wall,
            "watermark": self.watermark,
            "ingested_count": self.ingested_count,
            "punctuation_injected": self.punctuation_injected,
            "last_ets_round": self.last_ets_round,
            "throttled_count": self.throttled_count,
        }
        if self.throttle is not None:
            state["throttle"] = self.throttle.snapshot_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise TimestampError(f"unsupported SourceNode state: {state!r}")
        self.last_data_ts = state["last_data_ts"]
        self.last_arrival_wall = state["last_arrival_wall"]
        self.watermark = state["watermark"]
        self.ingested_count = state["ingested_count"]
        self.punctuation_injected = state["punctuation_injected"]
        self.last_ets_round = state["last_ets_round"]
        self.throttled_count = state.get("throttled_count", 0)
        throttle_state = state.get("throttle")
        if throttle_state is not None and self.throttle is not None:
            self.throttle.restore_state(throttle_state)

    # ------------------------------------------------------------------ #
    # Upstream feedback

    def on_feedback(self, feedback, now: float):
        """Forward feedback to the admission throttle (AIMD endpoint).

        Sources terminate the upstream propagation, so the return value is
        the unchanged assertion (nothing lies further upstream to receive
        it).
        """
        if self.throttle is not None:
            self.throttle.on_feedback(feedback)
        return feedback

    # ------------------------------------------------------------------ #
    # Operator contract (sources never execute)

    def more(self) -> bool:
        return False
