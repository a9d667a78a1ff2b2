"""One canonical spelling for every engine-construction knob.

Three constructors accept overlapping execution knobs — ``ExecutionEngine``,
``Simulation``, ``ShardedEngine`` — and before this
module each spelled them slightly differently (``feedback`` vs
``feedback_factory``, ``observers`` lists vs None, per-ctor defaults).
:class:`EngineConfig` is the single source of truth: build one, hand it to
any of the three via their ``config=`` parameter, and each constructor takes
exactly the knobs it understands under its canonical name.

Explicit keyword arguments always win over the config — a config is a
bundle of *defaults*, not an override layer — so call sites can share one
config and still specialize individual runs::

    cfg = EngineConfig(batch_size=64, checkpoint_every=16)
    sim = Simulation(graph, config=cfg)                  # takes both
    eng = ExecutionEngine(graph, clock, config=cfg,
                          batch_size=8)                  # batch_size=8 wins

Factory-shaped knobs (the sharded constructors need one ETS policy and one
feedback controller *per shard*, because both hold state) reuse the same
field names: when :attr:`ets_policy` or :attr:`feedback` is a zero-argument
callable it is treated as the per-shard factory, and the single-engine
constructors call it once.  Instances are passed through unchanged by the
single-engine constructors and rejected by the sharded ones.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields as dataclass_fields
from typing import Any, Iterable

from .errors import ExecutionError

__all__ = ["EngineConfig"]


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Canonical engine-construction knobs, shareable across constructors.

    Attributes:
        batch_size: Run width, and with it the transport: 1 is the
            paper's tuple-at-a-time scalar path, N > 1 the columnar path
            consuming up to N rows per step (see
            :class:`~repro.core.execution.ExecutionEngine`).
        checkpoint_every: Checkpoint cadence in engine rounds; None
            disables.
        observers: Instrumentation observers attached to the run (see
            :mod:`repro.obs`).
        feedback: A :class:`~repro.feedback.FeedbackController` instance,
            or a zero-argument factory of them.  Sharded constructors
            require the factory form (one controller per shard); the
            single-engine constructors accept either and call a factory
            once.
        ets_policy: An :class:`~repro.core.ets.EtsPolicy` instance or a
            zero-argument factory, with the same instance-vs-factory rules
            as :attr:`feedback`.
        recovery: A bound-able :class:`~repro.recovery.RecoveryManager`
            (single-engine constructors) — sharded runs take
            :attr:`state_dir` instead, since each shard owns its manager.
        state_dir: Root directory for durable state (WAL + checkpoints);
            consumed by the sharded constructors.
        max_steps_per_round: Livelock safety valve; None = unbounded.

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
                "batch_size alone picks the transport (1 = scalar, > 1 = "
                f"columnar blocks); block_mode={block_mode} contradicts "
                f"batch_size={self.batch_size}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ExecutionError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if not isinstance(self.observers, tuple):
            # Accept any iterable at construction; store a tuple so one
            # config can parameterize many runs without shared-list aliasing.
            object.__setattr__(self, "observers", tuple(self.observers))

    # ------------------------------------------------------------------ #
    # Resolution helpers used by the three constructors

    def resolve(self, overrides: dict[str, Any],
                defaults: dict[str, Any]) -> dict[str, Any]:
        """Merge explicit kwargs over this config over ctor defaults.

        ``overrides`` maps knob name to the value the caller passed;
        ``defaults`` maps the same names to the constructor's defaults.
        A knob equal to its default falls back to the config's value
        (explicit kwargs win; re-passing the default is indistinguishable
        from omitting it, which is the documented contract).
        """
        out: dict[str, Any] = {}
        for name, default in defaults.items():
            value = overrides.get(name, default)
            if value == default:
                value = getattr(self, name)
            out[name] = value
        return out

    def resolved_observers(self,
                           explicit: Iterable | None) -> list:
        """Explicit observers win; otherwise the config's (as a list)."""
        if explicit:
            return list(explicit)
        return list(self.observers)

    def feedback_instance(self) -> Any:
        """The feedback controller for a single engine (factory called)."""
        return _instantiate(self.feedback)

    def feedback_factory(self) -> Any:
        """The per-shard feedback factory (instances are rejected)."""
        return _require_factory(self.feedback, "feedback")

    def ets_policy_instance(self) -> Any:
        """The ETS policy for a single engine (factory called)."""
        return _instantiate(self.ets_policy)

    def ets_policy_factory(self) -> Any:
        """The per-shard ETS policy factory (instances are rejected)."""
        return _require_factory(self.ets_policy, "ets_policy")

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with ``changes`` applied (dataclasses.replace spelling)."""
        current = {f.name: getattr(self, f.name)
                   for f in dataclass_fields(self)}
        current.update(changes)
        return EngineConfig(**current)


def _instantiate(knob: Any) -> Any:
    # Policies and controllers are plain objects (never callable); the
    # factory form is anything callable — a lambda, a partial, or the
    # class itself.
    if knob is not None and callable(knob):
        return knob()
    return knob


def _require_factory(knob: Any, name: str) -> Any:
    if knob is None or callable(knob):
        return knob
    raise ExecutionError(
        f"sharded engines need a zero-argument {name} factory (one "
        f"instance per shard, since both hold state); got an instance: "
        f"{knob!r}")
