"""Every engine-construction knob, said once.

:class:`EngineConfig` is the only place a shared knob is declared,
defaulted, validated and documented.  The four constructors that build
engines — ``ExecutionEngine``, ``Simulation``, ``ShardedEngine``,
``EngineShard`` — declare none of them: each takes ``config`` plus keyword
overrides and starts with ``(config or EngineConfig()).replace(**knobs)``.
So: **``config`` is the carrier; keywords are ``replace``; a passed value
always wins** — because it was passed, whatever it equals — and a name that
is not a field here is a ``TypeError``::

    cfg = EngineConfig(batch_size=64, checkpoint_every=16)
    sim = Simulation(graph, config=cfg)                  # takes both
    eng = ExecutionEngine(graph, clock, config=cfg,
                          batch_size=1)                  # batch_size=1 wins

Each constructor reads the fields it understands off the merged object and
ignores the rest (``recovery`` means nothing to a bare engine, ``state_dir``
nothing to a ``Simulation``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields as dataclass_fields
from typing import Any

from .errors import ExecutionError

__all__ = ["EngineConfig"]


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """The engine-construction knobs, shareable across constructors.

    Attributes:
        batch_size: Run width.  Every execution step is one call of the
            operator's kernel, :meth:`Operator.execute_block`, which
            consumes a run of up to N elements and produces struct-of-arrays
            :class:`~repro.core.columnar.ColumnarBlock` runs.  1 (the
            default) is the paper's tuple-at-a-time execution: a run of one
            element.  Runs never cross a punctuation and the cost model
            still charges simulated CPU per tuple, so the width changes
            wall-clock throughput, never output or ETS semantics; under a :class:`~repro.sim.kernel.Simulation`
            the ``deliver_due`` hook then runs once per run rather than
            once per tuple, which is exactly the amortization being bought
            (the :class:`~repro.api.Pipeline` default is 64).
        checkpoint_every: Checkpoint cadence; None disables.  A single
            engine counts its wake-up rounds and a bound
            :class:`~repro.recovery.RecoveryManager` (``recovery``) writes
            the image; a sharded facade with a ``state_dir`` counts its own
            wake-ups and checkpoints every shard at the wake-up's logged
            ``marks`` (its shard engines get None).  Without either,
            nothing fires.
        observers: Instrumentation observers (see :mod:`repro.obs`).  When
            empty the engine stores no event bus at all and every emission
            site reduces to one ``is None`` test — the fast path
            ``tests/test_obs_bus.py`` pins.  A ``Simulation`` publishes its
            own events (arrivals, heartbeat punctuation) on the same bus;
            a sharded engine hands them ``on_shard`` events and nothing
            else (per-shard engine events stay inside their shard).
        feedback: A :class:`~repro.feedback.FeedbackController` sampled at
            the end of every wake-up, or a zero-argument factory of them;
            None keeps the engine feedback-free.  Sharded engines refuse it
            (an :class:`~repro.core.errors.ExecutionError`): a shard's
            pressure view covers the rows routed to it, not a stream, so
            every shard engine runs without a controller.
        ets_policy: What stalled sources do — an
            :class:`~repro.core.ets.EtsPolicy` or a zero-argument factory
            (see :meth:`per_engine`; a shard needs the factory form); None
            means :class:`~repro.core.ets.NoEts` (the paper's scenarios A/B;
            scenario C is :class:`~repro.core.ets.OnDemandEts`).
        recovery: A :class:`~repro.recovery.RecoveryManager` a
            ``Simulation`` binds to its graph/engine/clock, making every
            ingest and wake-up WAL-logged and crash-recoverable.  Sharded
            runs take ``state_dir`` instead: their facade logs the input
            and no shard engine has a manager.
        state_dir: Root directory of a sharded run's durable state: the
            facade's one input log (``facade/wal.log``) and each shard's
            checkpoints (``shard-NN/``, or ``epoch-NNNN/shard-NN/`` for
            an elastic root; shards write no log).  None disables
            durability.  Read by the sharded constructors only.
        max_steps_per_round: Livelock safety valve for logical-mode loops;
            None means unbounded (the cost model plus event horizon bound
            real runs).

    ``block_mode`` is accepted at construction only, as a consistency check
    for callers that still spell the transport out: it is not a field, and
    a value contradicting ``batch_size > 1`` raises.
    """

    batch_size: int = 1
    checkpoint_every: int | None = None
    observers: tuple = ()
    feedback: Any = None
    ets_policy: Any = None
    recovery: Any = None
    state_dir: Any = None
    max_steps_per_round: int | None = None
    block_mode: InitVar[bool | None] = None

    def __post_init__(self, block_mode: bool | None) -> None:
        if self.batch_size < 1:
            raise ExecutionError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if block_mode is not None and block_mode != (self.batch_size > 1):
            raise ExecutionError(
                "batch_size alone picks the run width (1 = one element "
                f"per step, > 1 = runs); block_mode={block_mode} contradicts "
                f"batch_size={self.batch_size}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ExecutionError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if not isinstance(self.observers, tuple):
            # Accept any iterable (or None) at construction; store a tuple
            # so one config can parameterize many runs without shared-list
            # aliasing.
            object.__setattr__(self, "observers", tuple(self.observers or ()))

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with ``changes`` applied — the one merge rule."""
        if not changes:
            return self
        current = {f.name: getattr(self, f.name)
                   for f in dataclass_fields(self)}
        unknown = sorted(changes.keys() - current.keys())
        if unknown:
            raise TypeError(f"unknown engine knob(s) {unknown}; EngineConfig "
                            f"declares {sorted(current)}")
        current.update(changes)
        return EngineConfig(**current)

    def per_engine(self, name: str, *, sharded: bool = False) -> Any:
        """The ``ets_policy`` / ``feedback`` object for one engine.

        Policies and controllers are plain objects, never callable, so a
        callable — a lambda, a partial, the class itself — is a
        zero-argument factory and is called; anything else is the instance.
        A policy holds state, so a shard (``sharded=True``) rejects an
        instance.
        """
        knob = getattr(self, name)
        if knob is None:
            return None
        if callable(knob):
            return knob()
        if sharded:
            raise ExecutionError(
                f"sharded engines need a zero-argument {name} factory (one "
                f"instance per shard, since it holds state); got an "
                f"instance: {knob!r}")
        return knob
