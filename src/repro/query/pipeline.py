"""The fluent pipeline surface: build, configure, and run in one chain.

:class:`Pipeline` is the front door of :mod:`repro.api`.  It owns the
:class:`~repro.core.graph.QueryGraph` under construction, an
:class:`~repro.core.config.EngineConfig`, and the
:class:`~repro.sim.kernel.Simulation` drive loop behind a single chainable
object, so the common case needs no manual graph wiring, no engine
construction, and no separate workload attachment::

    from repro.api import Pipeline, OnDemandEts
    from repro.workloads import poisson_arrivals
    import random

    p = Pipeline("netmon")
    packets = p.source("packets")
    alarms = p.source("alarms")
    (packets.select(lambda t: t["bytes"] > 1200)
            .union(alarms)
            .sink("analyst", keep_outputs=True))
    sim = (p.engine(ets_policy=OnDemandEts, batch_size=64)
            .feed("packets", poisson_arrivals(200.0, random.Random(1)))
            .feed("alarms", poisson_arrivals(0.05, random.Random(2)))
            .run(until=120.0))
    print(p.sinks["analyst"].delivered, sim.peak_queue_size)

Every combinator returns a :class:`PipelineStream` — a cursor over the
operator whose output the next combinator will consume.  This module is the
one place outside ``repro.core`` that constructs operators or wires a graph:
the query language (:mod:`.language`), the paper scenarios and the
experiments all build through it.  Operator names are generated
(``select_1``, ``join_1``, ...) unless given, and a generated name skips any
name the graph already holds, so it never collides with a declared one.

Pipelines default to 64-element runs (``batch_size=64``); results are
identical to one-element runs (``batch_size=1``) by the kernel contract
(see DESIGN.md §4i), so the default is purely a throughput choice.
``.engine()`` overrides any knob.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Iterable, Mapping

from ..core.config import EngineConfig
from ..core.errors import GraphError, WorkloadError
from ..core.graph import QueryGraph
from ..core.operators import (
    AggSpec,
    FlatMap,
    Map,
    Project,
    Reorder,
    Select,
    Shed,
    SinkNode,
    SourceNode,
    TumblingAggregate,
    Union,
    WindowJoin,
)
from ..core.operators.base import Operator
from ..core.schema import Schema
from ..core.tuples import TimestampKind
from ..core.windows import WindowSpec

__all__ = ["Pipeline", "PipelineStream"]

# EngineConfig fields settable through Pipeline.engine(); everything else
# passed there is forwarded to the Simulation constructor (cost_model,
# periodic, start_time, quarantine, ...).
_CONFIG_KNOBS = frozenset(f.name for f in dataclass_fields(EngineConfig))


class Pipeline:
    """A query pipeline: graph construction + engine config + drive loop.

    Args:
        name: Graph name (also the default :class:`Simulation` label).
        config: Optional :class:`EngineConfig` seed; defaults to the
            columnar fast path (``batch_size=64``).
    """

    def __init__(self, name: str = "pipeline", *,
                 config: EngineConfig | None = None) -> None:
        self._graph = QueryGraph(name)
        self._frozen = False
        self._counters: dict[str, int] = {}
        self.config = config if config is not None else EngineConfig(
            batch_size=64)
        self.sinks: dict[str, SinkNode] = {}
        self.simulation = None
        self._sim_kwargs: dict[str, Any] = {}
        self._feeds: list[tuple[str, Iterable, Any, int]] = []
        self._heartbeats: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Build

    def source(self, name: str | None = None,
               kind: TimestampKind = TimestampKind.INTERNAL,
               *, out_of_order: bool = False,
               schema: Schema | None = None) -> "PipelineStream":
        """Declare an input stream; returns its :class:`PipelineStream`.

        ``schema`` becomes the source's ``output_schema`` (what a
        ``STREAM`` statement's field list declares).
        """
        self._mutable("source")
        node = self._graph.add_source(self._auto_name("source", name), kind,
                                      out_of_order=out_of_order,
                                      output_schema=schema)
        return PipelineStream(self, node)

    @classmethod
    def from_program(cls, program: str, name: str = "pipeline", *,
                     config: EngineConfig | None = None) -> "Pipeline":
        """Build a pipeline from a mini-language program (see ``repro run``).

        The program's statements build into the returned pipeline, which
        comes back compiled: sinks declared with ``SINK`` are registered in
        :attr:`sinks` under their declared names, and :meth:`feed` targets
        streams by their declared names.
        """
        from .language import _compile_into

        pipeline = cls(name, config=config)
        _compile_into(pipeline, program)
        return pipeline

    def compile(self) -> QueryGraph:
        """Validate and return the graph (idempotent — cached)."""
        if not self._frozen:
            self._graph.validate()
            self._frozen = True
        return self._graph

    @property
    def graph(self) -> QueryGraph:
        """The validated graph (compiles on first access)."""
        return self.compile()

    def _mutable(self, what: str) -> None:
        if self._frozen:
            raise GraphError(
                f"cannot add {what}: pipeline {self._graph.name!r} is "
                "already compiled")

    def _auto_name(self, prefix: str, name: str | None) -> str:
        """``name``, or the next free ``{prefix}_{n}`` in the graph."""
        if name is not None:
            return name
        n = self._counters.get(prefix, 0) + 1
        while f"{prefix}_{n}" in self._graph:
            n += 1
        self._counters[prefix] = n
        return f"{prefix}_{n}"

    # ------------------------------------------------------------------ #
    # Run

    def engine(self, **knobs: Any) -> "Pipeline":
        """Set engine / simulation knobs; returns ``self``.

        :class:`EngineConfig` fields (``batch_size``, ``checkpoint_every``,
        ``observers``, ``feedback``, ``ets_policy``, ``recovery``,
        ``state_dir``, ``max_steps_per_round``) update the
        pipeline's config; anything else (``cost_model``, ``periodic``,
        ``start_time``, ``quarantine``, ...) is forwarded to the
        :class:`Simulation` constructor verbatim.
        """
        config_updates = {k: v for k, v in knobs.items()
                          if k in _CONFIG_KNOBS}
        if config_updates:
            self.config = self.config.replace(**config_updates)
        for key, value in knobs.items():
            if key not in _CONFIG_KNOBS:
                self._sim_kwargs[key] = value
        return self

    def feed(self, source: "str | PipelineStream | SourceNode",
             arrivals: Iterable, *, faults=None, skip: int = 0) -> "Pipeline":
        """Bind an arrival schedule to a source; returns ``self``."""
        self._feeds.append((self._source_name(source), arrivals,
                            faults, skip))
        return self

    def heartbeat(self, source: "str | PipelineStream | SourceNode",
                  rate: float) -> "Pipeline":
        """Periodic-ETS injection on ``source`` at ``rate`` per second."""
        self._heartbeats[self._source_name(source)] = rate
        return self

    def _source_name(self,
                     source: "str | PipelineStream | SourceNode") -> str:
        if isinstance(source, PipelineStream):
            source = source.source_node
        if isinstance(source, SourceNode):
            return source.name
        return source

    def build_simulation(self):
        """Construct (but do not run) the :class:`Simulation`.

        Compiles the graph, applies the config, and attaches every feed
        registered with :meth:`feed` / :meth:`heartbeat`.  Exposed for
        callers that need the simulation before driving it (custom
        horizons, incremental ``run()`` calls, fault orchestration).
        """
        # Local import: keeps repro.query importable without the sim stack.
        from ..core.ets import PeriodicEtsSchedule
        from ..sim.kernel import Simulation

        graph = self.compile()
        sources = {s.name for s in graph.sources()}
        for what, names in (("feed", [f[0] for f in self._feeds]),
                            ("heartbeat", self._heartbeats)):
            for name in names:
                if name not in sources:
                    raise WorkloadError(
                        f"{what} targets unknown source {name!r} "
                        f"(graph has {sorted(sources)})")
        kwargs = dict(self._sim_kwargs)
        if self._heartbeats and "periodic" not in kwargs:
            kwargs["periodic"] = PeriodicEtsSchedule(dict(self._heartbeats))
        sim = Simulation(graph, config=self.config, **kwargs)
        for name, arrivals, faults, skip in self._feeds:
            sim.attach_arrivals(graph[name], arrivals,
                                faults=faults, skip=skip)
        self.simulation = sim
        return sim

    def run(self, until: float):
        """Build the simulation (first call) and run it to ``until``.

        Returns the :class:`Simulation`; sinks stay reachable through
        :attr:`sinks`.  Subsequent calls resume the same simulation, so
        ``p.run(60).run(120)`` style incremental driving works.
        """
        sim = self.simulation
        if sim is None:
            sim = self.build_simulation()
        return sim.run(until=until)

    def summary(self) -> dict:
        """Headline metrics of the run so far (see ``Simulation.summary``)."""
        if self.simulation is None:
            raise WorkloadError("pipeline has not run yet")
        return self.simulation.summary()


class PipelineStream:
    """A cursor over one operator's output stream inside a :class:`Pipeline`.

    Every combinator adds an operator fed by this stream and returns the
    new operator's :class:`PipelineStream`; ``sink`` registers the sink on
    the pipeline and returns the pipeline for fluent chaining into
    ``.engine(...).feed(...).run(...)``.
    """

    def __init__(self, pipeline: Pipeline, op: Operator) -> None:
        self.pipeline = pipeline
        self.op = op

    @property
    def source_node(self) -> SourceNode:
        """The underlying source node (only valid on source streams)."""
        if not isinstance(self.op, SourceNode):
            raise GraphError(f"{self.op.name!r} is not a source")
        return self.op

    def _then(self, prefix: str, name: str | None, make,
              others: tuple = ()) -> "PipelineStream":
        """Add ``make(op_name)`` fed by this stream, then by ``others``."""
        p = self.pipeline
        for other in others:
            if other.pipeline is not p:
                raise GraphError(
                    f"cannot {prefix} streams from different pipelines")
        op = make(p._auto_name(prefix, name))
        p._mutable(f"operator {op.name!r}")
        p._graph.add(op)
        for upstream in (self, *others):
            p._graph.connect(upstream.op, op)
        return PipelineStream(p, op)

    # ------------------------------------------------------------------ #
    # Stateless combinators

    def select(self, predicate: Callable[[Any], bool],
               name: str | None = None) -> "PipelineStream":
        """Filter: keep payloads satisfying ``predicate``."""
        return self._then("select", name, lambda n: Select(n, predicate))

    def project(self, fields: Iterable[str],
                name: str | None = None) -> "PipelineStream":
        """Keep only the named payload fields."""
        return self._then("project", name, lambda n: Project(n, fields))

    def map(self, fn: Callable[[Any], Any],
            name: str | None = None) -> "PipelineStream":
        """Transform each payload with ``fn``."""
        return self._then("map", name, lambda n: Map(n, fn))

    def flat_map(self, fn: Callable[[Any], Iterable[Any]],
                 name: str | None = None) -> "PipelineStream":
        """Expand each payload into zero or more payloads."""
        return self._then("flatmap", name, lambda n: FlatMap(n, fn))

    def shed(self, probability: float, *, seed: int = 0,
             name: str | None = None) -> "PipelineStream":
        """Random load shedding: drop each payload with ``probability``."""
        return self._then("shed", name,
                          lambda n: Shed(n, probability, seed=seed))

    def reorder(self, slack: float, name: str | None = None,
                late: str = "drop") -> "PipelineStream":
        """Restore timestamp order over a bounded-disorder stream."""
        return self._then("reorder", name,
                          lambda n: Reorder(n, slack, late=late))

    # ------------------------------------------------------------------ #
    # IWP combinators

    def union(self, *others: "PipelineStream", name: str | None = None,
              strict: bool = False) -> "PipelineStream":
        """Order-preserving merge of this stream with ``others``."""
        if not others:
            raise GraphError("union needs at least one other stream")
        return self._then("union", name,
                          lambda n: Union(n, strict=strict), others)

    def join(self, other: "PipelineStream", window: WindowSpec, *,
             predicate: Callable[[Any, Any], bool] | None = None,
             key: str | tuple[str, str] | None = None,
             name: str | None = None, strict: bool = False,
             **join_kwargs) -> "PipelineStream":
        """Symmetric window join of this stream (left) with ``other``."""
        return self._then(
            "join", name,
            lambda n: WindowJoin(n, window, predicate=predicate, key=key,
                                 strict=strict, **join_kwargs),
            (other,))

    # ------------------------------------------------------------------ #
    # Aggregates

    def tumbling(self, width: float, aggs: Mapping[str, AggSpec], *,
                 group_by: str | None = None, emit_empty: bool = False,
                 name: str | None = None) -> "PipelineStream":
        """Tumbling-window aggregate of the given width (seconds)."""
        return self._then(
            "tumbling", name,
            lambda n: TumblingAggregate(n, width, aggs, group_by=group_by,
                                        emit_empty=emit_empty))

    # ------------------------------------------------------------------ #
    # Terminals

    def sink(self, name: str | None = None,
             on_output: Callable | None = None,
             keep_outputs: bool = False) -> Pipeline:
        """Terminate the stream in a sink; returns the :class:`Pipeline`.

        The sink node itself is registered under its name in
        ``pipeline.sinks`` (auto-named sinks get ``sink_1``, ``sink_2``,
        ...), keeping the chain fluent without losing the node.
        """
        node = self._then(
            "sink", name,
            lambda n: SinkNode(n, on_output, keep_outputs=keep_outputs)).op
        self.pipeline.sinks[node.name] = node
        return self.pipeline
