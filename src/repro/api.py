"""The stable public API of :mod:`repro`: the engine a pipeline author
builds and runs.

Everything a pipeline needs lives in this one module::

    from repro.api import Pipeline, OnDemandEts, Arrival

The harness around the engine has its own packages and is not
re-exported here: the arrival processes, payload generators and paper
scenarios are :mod:`repro.workloads`, the fault specs, quarantine and
invariant monitor are :mod:`repro.faults`, and the paper-figure
experiments, claim catalogue and ablation baselines (round-robin
scheduling, adaptive heartbeats) are :mod:`repro.experiments`.

**Stability contract.**  Names listed in :data:`__all__` are the supported
surface: they keep their signatures and semantics across minor versions,
and every retired spelling gets a row in the README's migration table
naming its replacement.  A name is listed only while a claim, a benchmark
workload, an example or a CLI command reaches it — or while it is
vocabulary those paths speak (errors, records, types):
``tests/test_api_surface.py`` holds the rule and the reasoned
exceptions.  Anything imported from a submodule
directly (``repro.core.execution``, ``repro.sim.kernel``, …) is internal
and may change without notice.  The repo's own examples and CLI import
the engine only from this facade, which is what keeps the contract honest.

The surface is grouped into five sections:

* **Build** — declare what the query computes: the fluent
  :class:`Pipeline` front door, the :class:`QueryGraph` it builds, the
  operator library, schemas, windows, timestamp
  kinds, the mini-language's :func:`compile_query`, and the errors the
  build surface raises;
* **Run** — drive data through an engine: :class:`ExecutionEngine`,
  :class:`Simulation`, the shared :class:`EngineConfig` knob bundle, the
  ETS policies of the paper's scenarios, and the clock, cost and arrival
  primitives;
* **Observe** — watch it happen: the :mod:`repro.obs` event bus,
  exporters, tracing, the metrics registry, and report formatting;
* **Recover** — survive faults: closed-loop backpressure and
  checkpoint/WAL crash recovery;
* **Scale** — go faster and wider: the columnar block layer
  (:class:`ColumnarBlock`, :class:`FieldPredicate`) and the
  key-partitioned :class:`ShardedEngine` with its frontier machinery.
"""

from __future__ import annotations

# ======================================================================== #
# Build — pipelines, graphs, operators, schemas, the query language
# ======================================================================== #
from .query import (
    CompiledQuery,
    Pipeline,
    PipelineStream,
    compile_query,
)
from .core.graph import QueryGraph
from .core.operators import (
    AggSpec,
    Avg,
    Count,
    FlatMap,
    Map,
    Max,
    Min,
    Project,
    Reorder,
    Select,
    Shed,
    SinkNode,
    SourceNode,
    Sum,
    TumblingAggregate,
    Union,
    WindowJoin,
)
from .core.schema import Field, Schema
from .core.windows import CountWindow, TimeWindow, WindowSpec
from .core.tuples import (
    LATENT_TS,
    DataTuple,
    FeedbackPunctuation,
    Punctuation,
    StreamElement,
    TimestampKind,
    is_data,
    is_feedback,
    is_punctuation,
)
from .core.errors import (
    ExecutionError,
    GraphError,
    InvariantViolation,
    PolicyError,
    QueryLanguageError,
    RecoveryError,
    ReproError,
    SchemaError,
    TimestampError,
    WorkloadError,
)

# ======================================================================== #
# Run — engines, simulation, ETS policies
# ======================================================================== #
from .core.config import EngineConfig
from .core.execution import EngineStats, ExecutionEngine
from .sim import Arrival, CostModel, Simulation, VirtualClock
from .core.ets import (
    EtsPolicy,
    NoEts,
    OnDemandEts,
    PeriodicEtsSchedule,
)

# ======================================================================== #
# Observe — event bus, exporters, tracing, metrics, reporting
# ======================================================================== #
from .obs import (
    ChromeTraceExporter,
    EventBus,
    JsonlExporter,
    MetricsRegistry,
    Observer,
    TraceEvent,
    Tracer,
    summarize,
)
from .obs.idle import IdleTracker
from .obs.latency import LatencyRecorder
from .obs.profile import format_profile, profile_simulation
from .obs.recovery import RecoveryTracker
from .obs.report import format_series, format_table

# ======================================================================== #
# Recover — backpressure, crash recovery
# ======================================================================== #
from .feedback import FeedbackController, TokenBucketThrottle
from .recovery import (
    CheckpointInfo,
    CheckpointStore,
    RecoveryManager,
    RecoveryReport,
    WriteAheadLog,
)

# ======================================================================== #
# Scale — columnar blocks and the sharded engine
# ======================================================================== #
from .core.columnar import (
    ColumnarBlock,
    FieldPredicate,
    set_numpy,
)
from .shard import (
    ElasticShardedEngine,
    FrontierMerge,
    HashPartitioner,
    ReshardReport,
    ShardError,
    ShardTimeoutError,
    ShardedEngine,
    ShardedRecoveryReport,
)

__all__ = [
    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    # pipelines & query construction
    "CompiledQuery", "Pipeline", "PipelineStream", "compile_query",
    # graphs & operators
    "AggSpec", "Avg", "Count", "FlatMap", "Map", "Max", "Min", "Project",
    "QueryGraph", "Reorder", "Select", "Shed", "SinkNode", "SourceNode",
    "Sum", "TumblingAggregate", "Union", "WindowJoin",
    # schema & windows
    "CountWindow", "Field", "Schema", "TimeWindow", "WindowSpec",
    # tuples & timestamp kinds
    "DataTuple", "FeedbackPunctuation", "LATENT_TS", "Punctuation",
    "StreamElement", "TimestampKind", "is_data", "is_feedback",
    "is_punctuation",
    # errors
    "ExecutionError", "GraphError", "InvariantViolation", "PolicyError",
    "QueryLanguageError", "RecoveryError", "ReproError", "SchemaError",
    "TimestampError", "WorkloadError",
    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    # engines & simulation
    "Arrival", "CostModel", "EngineConfig", "EngineStats",
    "ExecutionEngine", "Simulation", "VirtualClock",
    # ETS policies
    "EtsPolicy", "NoEts", "OnDemandEts", "PeriodicEtsSchedule",
    # ------------------------------------------------------------------ #
    # Observe
    # ------------------------------------------------------------------ #
    # event bus, exporters & tracing
    "ChromeTraceExporter", "EventBus", "JsonlExporter", "MetricsRegistry",
    "Observer", "TraceEvent", "Tracer", "summarize",
    # metrics & reporting
    "IdleTracker", "LatencyRecorder", "RecoveryTracker", "format_profile",
    "format_series", "format_table", "profile_simulation",
    # ------------------------------------------------------------------ #
    # Recover
    # ------------------------------------------------------------------ #
    # feedback (closed-loop backpressure)
    "FeedbackController", "TokenBucketThrottle",
    # recovery
    "CheckpointInfo", "CheckpointStore", "RecoveryManager",
    "RecoveryReport", "WriteAheadLog",
    # ------------------------------------------------------------------ #
    # Scale
    # ------------------------------------------------------------------ #
    # columnar blocks
    "ColumnarBlock", "FieldPredicate", "set_numpy",
    # sharding
    "ElasticShardedEngine", "FrontierMerge", "HashPartitioner",
    "ReshardReport", "ShardError", "ShardTimeoutError", "ShardedEngine",
    "ShardedRecoveryReport",
]
