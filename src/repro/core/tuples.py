"""Tuple model: data tuples and punctuation tuples.

The paper distinguishes two kinds of stream elements:

* **data tuples** carry a payload (a record) plus a timestamp whose *kind*
  (external / internal / latent) determines how the engine treats ordering;
* **punctuation tuples** carry only a timestamp and exist to transport
  Enabling Time-Stamps (ETS) to idle-waiting operators.  They are consumed by
  IWP operators to advance their TSM registers, passed through non-IWP
  operators unchanged, and eliminated at sink nodes.

Timestamps are floats in *stream time* (simulated seconds in the DES
substrate).  ``LATENT_TS`` marks a tuple that has not been stamped yet; such
tuples bypass all ordering checks until an operator that needs a timestamp
stamps them on the fly (paper Section 5, "latent timestamps").
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = [
    "TimestampKind",
    "LATENT_TS",
    "StreamElement",
    "DataTuple",
    "Punctuation",
    "is_data",
    "is_punctuation",
    "ensure_seq_above",
]

#: Sentinel timestamp for tuples that have not been stamped yet.
LATENT_TS = float("-inf")

#: The one sequence-number seam: always a bare ``itertools.count``, drawn
#: with ``next(_SEQ)`` by the element constructors here and — reading the
#: module attribute at call time, because :func:`ensure_seq_above` rebinds
#: it — by the two producers that fill block columns without building
#: elements (``SourceNode.ingest``, ``WindowJoin.execute_block``).
_SEQ = itertools.count()


def ensure_seq_above(seq: int) -> None:
    """Advance the global sequence counter past ``seq``.

    Recovery restores stream elements with their original sequence numbers;
    elements created after a restore must sort *after* every restored one so
    tie-breaking (reorder heaps, event queues) matches the uninterrupted run.
    Idempotent: a counter already past ``seq`` resumes at the same number.
    Either way the counter is replaced by a fresh ``count`` — never wrapped
    — so the cost of a draw does not grow with the number of restores.
    """
    global _SEQ
    probe = next(_SEQ)
    _SEQ = itertools.count(probe if probe > seq else seq + 1)


class TimestampKind(enum.Enum):
    """How a stream's tuples acquire their timestamps (paper Section 5).

    EXTERNAL
        The producing application stamped the tuple before it entered the
        DSMS.  Ordering holds per stream but cross-stream skew is bounded
        only by an application-level constant ``delta``.
    INTERNAL
        The DSMS stamps the tuple with the system (virtual) clock when it
        enters an input buffer.
    LATENT
        The tuple is unstamped; any operator that requires a timestamp stamps
        it with the clock on first touch.  Latent streams never idle-wait.
    """

    EXTERNAL = "external"
    INTERNAL = "internal"
    LATENT = "latent"


@dataclass(frozen=True, slots=True)
class StreamElement:
    """Common base for everything that travels through a stream buffer.

    Attributes:
        ts: The element's timestamp in stream time, or :data:`LATENT_TS`.
        seq: A globally unique, monotonically increasing sequence number used
            only to break ties deterministically; it has no semantic meaning.
    """

    ts: float
    seq: int = field(default_factory=lambda: next(_SEQ))

    @property
    def is_punctuation(self) -> bool:
        raise NotImplementedError

    @property
    def is_latent(self) -> bool:
        """True when the element has not been stamped yet."""
        return self.ts == LATENT_TS


@dataclass(frozen=True, slots=True, init=False)
class DataTuple(StreamElement):
    """A data tuple: a payload record plus timestamp metadata.

    Like :class:`Punctuation`, its constructor writes the slots directly
    (rows are materialized one tuple each); frozen, ``eq``, ``hash``,
    ``replace`` and pickling are the dataclass's.

    Attributes:
        payload: The record carried by the tuple.  Treated as opaque by the
            engine; operators interpret it through their stream's schema.
        kind: How the timestamp was (or will be) assigned.
        arrival_ts: Virtual-clock time at which the tuple entered the DSMS.
            Used by sinks to compute output latency; ``nan`` until set by a
            source node.
    """

    payload: Mapping[str, Any] | tuple | Any = None
    kind: TimestampKind = TimestampKind.INTERNAL
    arrival_ts: float = float("nan")

    def __init__(self, ts: float, seq: int | None = None,
                 payload: Mapping[str, Any] | tuple | Any = None,
                 kind: TimestampKind = TimestampKind.INTERNAL,
                 arrival_ts: float = float("nan")) -> None:
        _set_ts(self, ts)
        _set_seq(self, next(_SEQ) if seq is None else seq)
        _set_payload(self, payload)
        _set_kind(self, kind)
        _set_arrival(self, arrival_ts)

    @property
    def is_punctuation(self) -> bool:
        return False

    def stamped(self, ts: float, kind: TimestampKind | None = None) -> "DataTuple":
        """Return a copy of this tuple carrying timestamp ``ts``.

        Used by source nodes (internal timestamping on entry) and by
        operators stamping latent tuples on the fly.
        """
        return replace(self, ts=ts, kind=kind if kind is not None else self.kind)

    def with_arrival(self, arrival_ts: float) -> "DataTuple":
        """Return a copy recording when the tuple entered the DSMS."""
        return replace(self, arrival_ts=arrival_ts)

    def with_payload(self, payload: Any) -> "DataTuple":
        """Return a copy carrying a new payload but the same timestamps."""
        return replace(self, payload=payload)


@dataclass(frozen=True, slots=True, init=False)
class Punctuation(StreamElement):
    """A punctuation tuple carrying an Enabling Time-Stamp.

    A punctuation with timestamp ``ts`` asserts that no future element on the
    carrying stream will have a timestamp smaller than ``ts``.

    Every punctuation hop builds one (the ETS, each re-attribution, each
    IWP emission), so the constructor writes the four slots directly
    instead of going through the frozen dataclass's ``__setattr__`` guard
    and a default-factory call; the default ``seq`` is drawn from the
    counter bound at call time.  Frozen, ``eq``, ``hash``, ``replace`` and
    pickling are the dataclass's, unchanged.

    Attributes:
        origin: Name of the source node (or operator) that generated the
            punctuation; useful for tracing propagation in tests and debug
            output.
        periodic: True when generated by a periodic heartbeat injector
            (scenario B), False when generated on demand (scenario C) or by
            an operator propagating ETS downstream.
    """

    origin: str = ""
    periodic: bool = False

    def __init__(self, ts: float, seq: int | None = None, origin: str = "",
                 periodic: bool = False) -> None:
        _set_ts(self, ts)
        _set_seq(self, next(_SEQ) if seq is None else seq)
        _set_origin(self, origin)
        _set_periodic(self, periodic)

    @property
    def is_punctuation(self) -> bool:
        return True

    def reformatted(self, origin: str | None = None) -> "Punctuation":
        """Return a copy, optionally re-attributed to a downstream operator.

        Non-IWP operators pass punctuation through "unchanged except for
        possible reformatting" (paper Section 4.2); schema-changing operators
        use this to keep provenance readable.  The copy keeps the class,
        ``ts``, ``seq`` and ``periodic``.
        """
        if origin is None:
            return self
        return type(self)(ts=self.ts, seq=self.seq, origin=origin,
                          periodic=self.periodic)


#: The slot writers the two constructors use: member descriptors bypass
#: the frozen ``__setattr__``, as the generated init's ``object.__setattr__``
#: does.  ``_SEQ`` is read at call time (ensure_seq_above rebinds it).
_set_ts, _set_seq = StreamElement.ts.__set__, StreamElement.seq.__set__
_set_payload, _set_kind, _set_arrival = (DataTuple.payload.__set__,
                                         DataTuple.kind.__set__,
                                         DataTuple.arrival_ts.__set__)
_set_origin, _set_periodic = (Punctuation.origin.__set__,
                              Punctuation.periodic.__set__)


def is_data(element: StreamElement) -> bool:
    """True when ``element`` is a data tuple."""
    return not element.is_punctuation


def is_punctuation(element: StreamElement) -> bool:
    """True when ``element`` is a punctuation tuple."""
    return element.is_punctuation

