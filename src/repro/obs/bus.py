"""The instrumentation event bus: one dispatch point for engine observability.

Every interesting decision the system takes — an operator execution step, a
Next-Operator-Selection transition, an ETS consultation, a punctuation
injection, a buffer-occupancy change, a fault-path action — is published to
an :class:`EventBus` as a *typed hook*: a named method with keyword-only
fields.  Anything that wants to watch the engine subclasses
:class:`Observer`, overrides the hooks it cares about, and registers on the
bus; tracing, metrics, exporters, and fault monitors are all ordinary
observers of the same stream of events.

Design constraints, in order:

1. **Zero overhead when nobody is listening.**  The engine stores ``None``
   instead of a bus when no observer is attached, so every emission site is
   a single local-variable ``is None`` test; with observers attached, the
   hot sites hold :func:`bound_emitters`, ``None`` for a hook no observer
   overrides, so an unheard event is never built.
   ``tests/test_obs_bus.py`` pins it deterministically: no bus, no buffer
   observer, and no frame of this module entered from the engine.
2. **Observer isolation.**  A failing observer must never kill the engine
   walk: exceptions raised by hooks are caught, counted, and remembered on
   :attr:`EventBus.errors`; remaining observers still receive the event.
3. **Deterministic ordering.**  Observers are invoked in registration
   order, for every event.
4. **Subscription is decided once.**  :meth:`EventBus.attach` and
   :meth:`~EventBus.detach` work out, per hook, which observers' *classes*
   override it; an event reaches only those.  An instance attribute that
   happens to share a hook's name is never called.
"""

from __future__ import annotations

from types import MethodType
from typing import Iterable

__all__ = ["HOOKS", "Observer", "EventBus"]

#: The typed hook points, in the vocabulary used across the system.
HOOKS = (
    "on_wakeup",
    "on_step",
    "on_nos_decision",
    "on_ets",
    "on_punctuation",
    "on_arrival",
    "on_buffer_change",
    "on_fault",
    "on_quiesce",
    "on_checkpoint",
    "on_recovery",
    "on_shard",
    "on_feedback",
)


class Observer:
    """Base observer: every hook is a no-op; override what you need.

    Hook fields are keyword-only and stable — they are the instrumentation
    contract exporters and metrics build on:

    * :meth:`on_wakeup` — an engine wake-up round began.
    * :meth:`on_step` — one execution step ran: one kernel call over a run
      of elements.  ``kind`` is ``"data"`` or ``"punct"`` on a
      ``batch_size=1`` engine (a run of one element), ``"block"`` on a
      wider one, with ``steps`` the run length; ``duration`` is the
      simulated CPU seconds charged.
    * :meth:`on_nos_decision` — a Forward / Encore / Backtrack transition
      (``decision``), with ``operator`` the transition target.
    * :meth:`on_ets` — a stalled source consulted the ETS policy
      (``injected`` tells whether a punctuation resulted).
    * :meth:`on_punctuation` — a punctuation entered the graph at a source
      (``origin`` is ``"ets"`` or ``"heartbeat"``; ``ts`` is its timestamp
      when the caller knows it).
    * :meth:`on_buffer_change` — the graph-wide live-element total moved.
    * :meth:`on_fault` — a fault-path action (``kind`` is
      ``"quarantine"``, ``"violation"``, ``"checkpoint-corrupt"``, …).
    * :meth:`on_quiesce` — the wake-up round ran out of work.
    """

    def on_wakeup(self, *, round_id: int, time: float,
                  entry: str | None = None) -> None:
        """An engine wake-up round began."""

    def on_step(self, *, operator: str, round_id: int, time: float,
                kind: str, steps: int = 1, probes: int = 0,
                probes_emitted: int = 0,
                emitted_data: int = 0, emitted_punctuation: int = 0,
                duration: float = 0.0) -> None:
        """One execution step (a kernel call over ``steps`` elements) completed.

        ``probes`` counts window tuples *examined*; ``probes_emitted`` the
        subset that passed the join condition — the gap between the two is
        the wasted scan work an indexed join removes.
        """

    def on_nos_decision(self, *, decision: str, operator: str,
                        round_id: int, time: float, detail: str = "") -> None:
        """The engine took a Forward / Encore / Backtrack transition."""

    def on_ets(self, *, operator: str, round_id: int, time: float,
               injected: bool, offered: bool = True) -> None:
        """A backtracked-to source consulted the ETS policy."""

    def on_punctuation(self, *, operator: str, round_id: int, time: float,
                       origin: str, ts: float | None = None) -> None:
        """A punctuation was injected into a source's output stream."""

    def on_arrival(self, *, operator: str, time: float,
                   external_ts: float | None = None) -> None:
        """A workload tuple arrived at a source (kernel-side event)."""

    def on_buffer_change(self, *, total: int, time: float) -> None:
        """The graph-wide buffered-element total changed."""

    def on_fault(self, *, kind: str, operator: str, round_id: int,
                 time: float, detail: str = "") -> None:
        """A fault-path action happened (quarantine, violation, …)."""

    def on_quiesce(self, *, round_id: int, time: float) -> None:
        """The engine's wake-up round reached quiescence."""

    def on_checkpoint(self, *, number: int, time: float, duration: float = 0.0,
                      bytes_written: int = 0, wal_records: int = 0) -> None:
        """A checkpoint was written durably (``number`` is its sequence).

        ``duration`` is wall-clock seconds spent writing; ``wal_records`` is
        the WAL position the checkpoint covers (records before it need no
        replay).
        """

    def on_recovery(self, *, checkpoint: int, time: float,
                    replayed: int = 0, suppressed: int = 0,
                    duration: float = 0.0, fallback: bool = False,
                    detail: str = "") -> None:
        """Recovery from disk completed (``checkpoint`` is the one used).

        ``fallback`` is True when the latest checkpoint was corrupt and an
        older one was used — always accompanied by an ``on_fault`` event per
        corrupted file.
        """

    def on_shard(self, *, kind: str, shard: int, time: float,
                 frontier: float | None = None, count: int = 0,
                 value: float = 0.0, detail: str = "") -> None:
        """A sharded-engine event (:mod:`repro.shard`).

        ``kind`` is ``"ingest"`` (``count`` tuples routed to ``shard``),
        ``"wakeup"`` (``shard`` quiesced advertising ``frontier``, having
        delivered ``count`` records), ``"frontier"`` (``shard`` is ``-1``:
        the global min frontier moved and ``count`` records were released
        by the merge), ``"recovery"`` (``shard`` was restored to
        ``frontier`` after replaying ``count`` ingests), or ``"reshard"``
        (``shard`` is ``-1``: the topology changed, migrating ``count``
        keys at quiesce frontier ``frontier``, pausing for ``value``
        simulated seconds; ``detail`` is the direction, e.g. ``"4->5"``).
        """

    def on_feedback(self, *, kind: str, round_id: int, time: float,
                    depth: int = 0) -> None:
        """A feedback-controller wave (:mod:`repro.feedback`).

        ``kind`` is ``"pressure"`` (an overload wave: one AIMD decrease at
        every throttled source) or ``"relief"`` (a deactivation/unwind
        beat: one AIMD increase); ``depth`` is the buffer depth the wave
        was sampled at.  A single engine's controller emits them; a
        sharded engine runs none.
        """


class EventBus:
    """Fans events out to registered observers, isolating their failures.

    Args:
        observers: Initial observers, invoked in this order for every event.
        max_errors: Cap on remembered ``(observer, hook, exception)``
            records; failures beyond the cap are still counted in
            :attr:`error_count`.
    """

    __slots__ = ("observers", "errors", "error_count", "max_errors",
                 "_subscribers")

    def __init__(self, observers: Iterable[Observer] = (),
                 *, max_errors: int = 100) -> None:
        self.observers: list[Observer] = list(observers)
        self.errors: list[tuple[Observer, str, Exception]] = []
        self.error_count = 0
        self.max_errors = max_errors
        self._subscribe()

    def attach(self, observer: Observer) -> "EventBus":
        """Register ``observer`` (appended: it sees events last)."""
        self.observers.append(observer)
        self._subscribe()
        return self

    def detach(self, observer: Observer) -> None:
        """Unregister ``observer`` (no-op when not registered)."""
        if observer in self.observers:
            self.observers.remove(observer)
            self._subscribe()

    def listens(self, hook: str) -> bool:
        """Does any attached observer override ``hook``?"""
        return bool(self._subscribers[hook])

    def __len__(self) -> int:
        return len(self.observers)

    def _subscribe(self) -> None:
        """Per hook, ``(observer, bound hook)`` for every observer whose
        class overrides it, in registration order."""
        self._subscribers: dict[str, tuple] = {
            hook: tuple(
                (observer, MethodType(getattr(type(observer), hook), observer))
                for observer in self.observers
                if getattr(type(observer), hook, None)
                not in (None, getattr(Observer, hook)))
            for hook in HOOKS}

    # ------------------------------------------------------------------ #
    # Dispatch

    def _emit(self, hook: str, kw: dict) -> None:
        for observer, method in self._subscribers[hook]:
            try:
                method(**kw)
            except Exception as exc:  # noqa: BLE001 - isolation by contract
                self.error_count += 1
                if len(self.errors) < self.max_errors:
                    self.errors.append((observer, hook, exc))

    def wakeup(self, **kw) -> None:
        self._emit("on_wakeup", kw)

    def step(self, **kw) -> None:
        self._emit("on_step", kw)

    def nos_decision(self, **kw) -> None:
        self._emit("on_nos_decision", kw)

    def ets(self, **kw) -> None:
        self._emit("on_ets", kw)

    def punctuation(self, **kw) -> None:
        self._emit("on_punctuation", kw)

    def arrival(self, **kw) -> None:
        self._emit("on_arrival", kw)

    def buffer_change(self, **kw) -> None:
        self._emit("on_buffer_change", kw)

    def fault(self, **kw) -> None:
        self._emit("on_fault", kw)

    def quiesce(self, **kw) -> None:
        self._emit("on_quiesce", kw)

    def checkpoint(self, **kw) -> None:
        self._emit("on_checkpoint", kw)

    def recovery(self, **kw) -> None:
        self._emit("on_recovery", kw)

    def shard(self, **kw) -> None:
        self._emit("on_shard", kw)

    def feedback(self, **kw) -> None:
        self._emit("on_feedback", kw)


def bound_emitters(bus: EventBus | None, *names: str) -> tuple:
    """Per name, ``bus``'s emitter for hook ``on_<name>`` — or None when no
    observer overrides that hook, or there is no bus.

    Hot call sites (the engine's walk, its wake-up edges, the kernel's
    arrivals and heartbeats) hold these and test for None, so an event
    nobody hears is never built.  They re-bind when the bus's subscription
    table is no longer the one they were bound from (attach / detach
    replace it).
    """
    table = bus._subscribers if bus is not None else None
    return tuple(getattr(bus, name) if table and table["on_" + name]
                 else None for name in names)
