"""The paper's experimental setups, packaged as reusable builders.

Section 6 of the paper evaluates one query graph (its Fig. 4): two input
streams, each filtered by a selection with 95 % selectivity, merged by a
union, delivered to a sink.  Stream 1 averages 50 tuples/s, stream 2 only
0.05 tuples/s — the rate diversity that makes the fast stream's tuples
idle-wait at the union.

Four scenarios are compared:

====  ===========================  =======================================
name  timestamps                   ETS
====  ===========================  =======================================
A     internal                     none
B     internal                     periodic heartbeats on the sparse stream
C     internal                     on-demand (engine Backtrack hook)
D     latent                       n/a (latent streams never idle-wait)
====  ===========================  =======================================

:func:`build_union_scenario` assembles graph + simulation + metrics for a
scenario; :func:`build_join_scenario` does the same with a window join in
place of the union (ablation X2).  Both are one
:class:`~repro.query.pipeline.Pipeline`-built body that differs only in the
IWP combinator: heartbeats (scenario B) go through ``Pipeline.heartbeat``,
the ETS policy and every other knob through ``Pipeline.engine``, the
arrival schedules through ``Pipeline.feed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from ..core.ets import EtsPolicy, NoEts, OnDemandEts
from ..core.errors import WorkloadError
from ..core.graph import QueryGraph
from ..core.operators import SinkNode, SourceNode, Union, WindowJoin
from ..core.tuples import TimestampKind
from ..core.windows import WindowSpec
from ..obs.latency import LatencyRecorder
from ..query.pipeline import Pipeline
from ..sim.cost import CostModel
from ..sim.kernel import Arrival, Simulation
from .arrival import poisson_arrivals, with_external_timestamps
from .datagen import uniform_value_payloads

__all__ = ["SCENARIOS", "ScenarioConfig", "ScenarioHandles",
           "build_union_scenario", "build_join_scenario", "scenario_streams"]

#: The scenario labels of paper Section 6.
SCENARIOS = ("A", "B", "C", "D")


@dataclass(slots=True)
class ScenarioConfig:
    """Everything that parameterizes one run of the paper's experiment.

    Attributes:
        scenario: One of ``"A"``, ``"B"``, ``"C"``, ``"D"``.
        rate_fast / rate_slow: Poisson arrival rates (tuples per second).
        selectivity: Fraction of tuples the selections pass (paper: 0.95).
        heartbeat_rate: Periodic-ETS injection rate on the sparse stream;
            required for scenario B, ignored otherwise.
        heartbeat_both: Also punctuate the fast stream in scenario B.
        duration: Simulated seconds to run.
        seed: Workload RNG seed.
        strict_iwp: Use the original Fig.-1 gating in the IWP operator
            (X1 ablation).
        external: Use externally timestamped streams plus the skew-bound
            ETS (ablation X3); ``external_skew`` is the workload's max
            timestamp lag and ``ets_delta`` the ETS's skew bound ``δ``.
        cost_model: CPU pricing; None selects the calibrated default.
        batch_size: Run width of the execution engine (1 = the paper's
            tuple-at-a-time execution, one element per step; N > 1 takes
            runs of up to N elements per step).
        engine_cls: Alternative execution engine (e.g.
            :class:`~repro.core.scheduling.RoundRobinEngine`) for the X4
            scheduling ablation; None selects the paper's DFS engine.
        observers: Instrumentation observers (see :mod:`repro.obs`)
            registered on the engine's event bus; None (the default) keeps
            the zero-overhead uninstrumented path.
    """

    scenario: str = "C"
    rate_fast: float = 50.0
    rate_slow: float = 0.05
    selectivity: float = 0.95
    heartbeat_rate: float | None = None
    heartbeat_both: bool = False
    duration: float = 600.0
    seed: int = 42
    strict_iwp: bool = False
    external: bool = False
    external_skew: float = 0.0
    ets_delta: float = 0.0
    cost_model: CostModel | None = None
    batch_size: int = 1
    engine_cls: type | None = None
    observers: list | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise WorkloadError(
                f"unknown scenario {self.scenario!r}; expected one of "
                f"{SCENARIOS}"
            )
        if self.scenario == "B" and not self.heartbeat_rate:
            raise WorkloadError("scenario B requires heartbeat_rate")
        if self.external and self.scenario == "D":
            raise WorkloadError("scenario D (latent) cannot be external")

    @property
    def timestamp_kind(self) -> TimestampKind:
        if self.scenario == "D":
            return TimestampKind.LATENT
        if self.external:
            return TimestampKind.EXTERNAL
        return TimestampKind.INTERNAL

    def make_policy(self) -> EtsPolicy:
        if self.scenario == "C":
            return OnDemandEts(external_delta=self.ets_delta)
        return NoEts()


@dataclass(slots=True)
class ScenarioHandles:
    """The live objects of a built scenario, ready to run and inspect."""

    config: ScenarioConfig
    sim: Simulation
    graph: QueryGraph
    fast_source: SourceNode
    slow_source: SourceNode
    iwp: Union | WindowJoin
    sink: SinkNode
    recorder: LatencyRecorder = field(default_factory=LatencyRecorder)

    def run(self) -> "ScenarioHandles":
        """Run the configured duration; returns self for chaining."""
        self.sim.run(until=self.config.duration)
        return self


def scenario_streams(config: ScenarioConfig) -> dict[str, Iterator[Arrival]]:
    """Fresh arrival iterators of the paper scenario, keyed by source name.

    The one statement of the recipe: Poisson gaps from ``Random(seed)`` /
    ``seed + 1``, payload values from ``seed + 2`` / ``seed + 3``, external
    timestamp skew from ``seed + 4`` / ``seed + 5``.  Same seeds every
    call, so crash recovery can re-attach the schedule with ``skip=``.
    """
    streams = {}
    for offset, (name, rate) in enumerate((("fast", config.rate_fast),
                                           ("slow", config.rate_slow))):
        arrivals = poisson_arrivals(
            rate, random.Random(config.seed + offset),
            payloads=uniform_value_payloads(
                random.Random(config.seed + 2 + offset)))
        if config.external:
            arrivals = with_external_timestamps(
                arrivals, random.Random(config.seed + 4 + offset),
                max_skew=config.external_skew)
        streams[name] = arrivals
    return streams


def _build(config: ScenarioConfig, label: str, combine, faults,
           attach: bool, sim_kwargs: dict) -> ScenarioHandles:
    """The Fig.-4 plan with ``combine(filter_fast, filter_slow)`` as its
    IWP operator, built and simulated through a :class:`Pipeline`."""
    recorder = LatencyRecorder()
    p = Pipeline(f"paper-{label}-{config.scenario}")
    fast = p.source("fast", config.timestamp_kind)
    slow = p.source("slow", config.timestamp_kind)
    sel = config.selectivity
    iwp = combine(fast.select(lambda t: t["value"] < sel, name="filter_fast"),
                  slow.select(lambda t: t["value"] < sel, name="filter_slow"))
    iwp.sink("sink", on_output=recorder)

    p.engine(ets_policy=config.make_policy(), cost_model=config.cost_model,
             batch_size=config.batch_size,
             observers=list(config.observers or ()))
    if config.engine_cls is not None:
        p.engine(engine_cls=config.engine_cls)
    p.engine(**sim_kwargs)
    if config.scenario == "B":
        p.heartbeat(slow, float(config.heartbeat_rate))
        if config.heartbeat_both:
            p.heartbeat(fast, float(config.heartbeat_rate))
    if attach:
        for name, arrivals in scenario_streams(config).items():
            p.feed(name, arrivals, faults=faults)
    sim = p.build_simulation()
    if faults is not None:
        faults.install(sim)
    return ScenarioHandles(config=config, sim=sim, graph=p.graph,
                           fast_source=fast.source_node,
                           slow_source=slow.source_node,
                           iwp=iwp.op, sink=p.sinks["sink"],
                           recorder=recorder)


def build_union_scenario(config: ScenarioConfig, *, faults=None,
                         attach: bool = True,
                         **sim_kwargs) -> ScenarioHandles:
    """Assemble the paper's Fig.-4 union query under ``config``.

    Args:
        faults: Optional :class:`~repro.faults.plan.FaultPlan`, installed on
            the simulation and wrapped around both arrival schedules.
        attach: Attach :func:`scenario_streams` (the default).  Crash
            recovery passes False: it must call ``recover()`` on the bound
            simulation first and then attaches the streams itself with the
            WAL's ``skip=`` counts.
        **sim_kwargs: Extra :class:`~repro.sim.kernel.Simulation` keywords
            (``quarantine``, ``feedback``, ``monitor``,
            ``recovery``, ``checkpoint_every``, or an ``ets_policy`` that
            replaces the scenario's own).
    """
    return _build(config, "union",
                  lambda f1, f2: f1.union(f2, name="union",
                                          strict=config.strict_iwp),
                  faults, attach, sim_kwargs)


def build_join_scenario(config: ScenarioConfig, *,
                        window_seconds: float = 60.0, faults=None,
                        attach: bool = True,
                        **sim_kwargs) -> ScenarioHandles:
    """Same skewed-streams setup with a window join as the IWP operator.

    The join matches tuples whose ``value`` fields fall in the same decile,
    keeping output volume moderate at the paper's rates.  ``faults``,
    ``attach`` and ``**sim_kwargs`` as in :func:`build_union_scenario`.
    """
    return _build(
        config, "join",
        lambda f1, f2: f1.join(
            f2, WindowSpec.time(window_seconds),
            predicate=lambda a, b: int(a["value"] * 10) == int(b["value"] * 10),
            name="join", strict=config.strict_iwp),
        faults, attach, sim_kwargs)
