"""The stable public API of :mod:`repro` — import from here.

Everything a user-facing program needs lives in this one module::

    from repro.api import Pipeline, OnDemandEts, poisson_arrivals

**Stability contract.**  Names listed in :data:`__all__` are the supported
surface: they keep their signatures and semantics across minor versions,
and removals go through a deprecation cycle: a shim plus a
:class:`DeprecationWarning` for at least one release, then deletion (the
README's migration table records each retired spelling and its
replacement).  Anything imported from a submodule
directly (``repro.core.execution``, ``repro.sim.kernel``, …) is internal
and may change without notice.  The repo's own examples and CLI import
only from this facade, which is what keeps the contract honest.

The surface is grouped into five sections:

* **Build** — declare what the query computes: the fluent
  :class:`Pipeline` front door, the lower-level :class:`Query` builder and
  :class:`QueryGraph`, the operator library, schemas, windows, timestamp
  kinds, the mini-language's :func:`compile_query`, and the errors the
  build surface raises;
* **Run** — drive data through an engine: :class:`ExecutionEngine`,
  :class:`Simulation`, the shared :class:`EngineConfig` knob bundle, the
  ETS policies of the paper's scenarios, clock/cost primitives, arrival
  processes, scenario builders, and the paper-figure experiment harnesses;
* **Observe** — watch it happen: the :mod:`repro.obs` event bus,
  exporters, tracing, the metrics registry, and report formatting;
* **Recover** — survive faults: fault plans, the degradation ladder,
  closed-loop backpressure, and checkpoint/WAL crash recovery;
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
    Query,
    StreamHandle,
    compile_query,
)
from .core.graph import QueryGraph, chain_joins
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
    SlidingAggregate,
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
# Run — engines, simulation, ETS policies, workloads, experiments
# ======================================================================== #
from .core.config import EngineConfig
from .core.execution import EngineStats, ExecutionEngine
from .sim import Arrival, CostModel, EventQueue, Simulation, VirtualClock
from .core.ets import (
    AdaptiveHeartbeatSchedule,
    EtsPolicy,
    NoEts,
    OnDemandEts,
    PeriodicEtsSchedule,
)
from .core.timestamps import (
    InternalClockEts,
    SkewBoundEts,
    default_generator_for,
)
from .workloads import (
    SCENARIOS,
    ScenarioConfig,
    ScenarioHandles,
    build_join_scenario,
    build_union_scenario,
    bursty_arrivals,
    constant_arrivals,
    packet_payloads,
    poisson_arrivals,
    sensor_payloads,
    scenario_streams,
    sequence_payloads,
    trace_arrivals,
    uniform_value_payloads,
    with_external_timestamps,
    with_out_of_order_timestamps,
)
from .experiments import (
    ChaosConfig,
    ChaosReport,
    ClaimResult,
    CrashConfig,
    CrashReport,
    DEFAULT_HEARTBEAT_RATES,
    ExperimentResult,
    SweepResult,
    figure7,
    figure8,
    format_claims,
    format_figure7,
    format_figure8,
    format_idle_table,
    idle_waiting_table,
    OverloadConfig,
    OverloadReport,
    result_from_handles,
    run_ablations,
    run_chaos_experiment,
    run_crash_experiment,
    run_join_experiment,
    run_overload_experiment,
    run_sweep,
    run_union_experiment,
    run_validation,
    validate_ablation_claims,
    validate_paper_claims,
)

# ======================================================================== #
# Observe — event bus, exporters, tracing, metrics, reporting
# ======================================================================== #
from .core.tracing import TraceEvent, Tracer, summarize
from .obs import (
    ChromeTraceExporter,
    EventBus,
    JsonlExporter,
    MetricsRegistry,
    Observer,
    PrometheusExporter,
    TraceObserver,
)
from .metrics import (
    CheckpointTracker,
    IdleTracker,
    LatencyRecorder,
    QueueSampler,
    RecoveryTracker,
    format_profile,
    profile_simulation,
    queue_summary,
)
from .metrics.report import format_series, format_table

# ======================================================================== #
# Recover — faults, degradation, backpressure, crash recovery
# ======================================================================== #
from .faults import (
    ClockSkewSpike,
    DropTuples,
    DuplicateTuples,
    FallbackHeartbeat,
    FaultPlan,
    FaultSpec,
    InvariantMonitor,
    LoadSpike,
    OutOfOrderBurst,
    ProcessCrash,
    PunctuationDelay,
    PunctuationLoss,
    QuarantinePolicy,
    ReshardCrash,
    ShardCrash,
    ShardHang,
    SimulatedCrash,
    SlowSink,
    SourceOutage,
    StallDetector,
)
from .feedback import (
    FeedbackController,
    TokenBucketThrottle,
    propagate_feedback,
)
from .recovery import (
    CheckpointInfo,
    CheckpointStore,
    CheckpointWriter,
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
    Autoscaler,
    ElasticShardedEngine,
    FrontierMerge,
    FrontierTracker,
    HashPartitioner,
    ReshardReport,
    ShardError,
    ShardSupervisor,
    ShardTimeoutError,
    ShardedEngine,
    ShardedRecoveryReport,
    ShardedSimulation,
)

__all__ = [
    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    # pipelines & query construction
    "CompiledQuery", "Pipeline", "PipelineStream", "Query", "StreamHandle",
    "compile_query",
    # graphs & operators
    "AggSpec", "Avg", "Count", "FlatMap", "Map", "Max", "Min", "Project",
    "QueryGraph", "Reorder", "Select", "Shed", "SinkNode",
    "SlidingAggregate", "SourceNode", "Sum", "TumblingAggregate", "Union",
    "WindowJoin", "chain_joins",
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
    "Arrival", "CostModel", "EngineConfig", "EngineStats", "EventQueue",
    "ExecutionEngine", "Simulation", "VirtualClock",
    # ETS policies & timestamp generators
    "AdaptiveHeartbeatSchedule", "EtsPolicy", "InternalClockEts", "NoEts",
    "OnDemandEts", "PeriodicEtsSchedule", "SkewBoundEts",
    "default_generator_for",
    # workloads
    "SCENARIOS", "ScenarioConfig", "ScenarioHandles",
    "build_join_scenario", "build_union_scenario", "bursty_arrivals",
    "constant_arrivals", "packet_payloads", "poisson_arrivals",
    "scenario_streams", "sensor_payloads", "sequence_payloads",
    "trace_arrivals",
    "uniform_value_payloads", "with_external_timestamps",
    "with_out_of_order_timestamps",
    # experiments
    "ChaosConfig", "ChaosReport", "ClaimResult", "CrashConfig",
    "CrashReport", "DEFAULT_HEARTBEAT_RATES", "ExperimentResult",
    "SweepResult", "figure7", "figure8",
    "format_claims", "format_figure7", "format_figure8",
    "format_idle_table", "idle_waiting_table", "OverloadConfig",
    "OverloadReport", "result_from_handles", "run_ablations",
    "run_chaos_experiment", "run_crash_experiment", "run_join_experiment",
    "run_overload_experiment", "run_sweep", "run_union_experiment",
    "run_validation", "validate_ablation_claims",
    "validate_paper_claims",
    # ------------------------------------------------------------------ #
    # Observe
    # ------------------------------------------------------------------ #
    # event bus, exporters & tracing
    "ChromeTraceExporter", "EventBus", "JsonlExporter", "MetricsRegistry",
    "Observer", "PrometheusExporter", "TraceEvent", "TraceObserver",
    "Tracer", "summarize",
    # metrics & reporting
    "CheckpointTracker", "IdleTracker", "LatencyRecorder", "QueueSampler",
    "RecoveryTracker", "format_profile", "format_series", "format_table",
    "profile_simulation", "queue_summary",
    # ------------------------------------------------------------------ #
    # Recover
    # ------------------------------------------------------------------ #
    # faults & degradation
    "ClockSkewSpike", "DropTuples", "DuplicateTuples", "FallbackHeartbeat",
    "FaultPlan", "FaultSpec", "InvariantMonitor", "LoadSpike",
    "OutOfOrderBurst", "ProcessCrash", "PunctuationDelay",
    "PunctuationLoss", "QuarantinePolicy", "ReshardCrash", "ShardCrash",
    "ShardHang", "SimulatedCrash", "SlowSink", "SourceOutage",
    "StallDetector",
    # feedback (closed-loop backpressure)
    "FeedbackController", "TokenBucketThrottle", "propagate_feedback",
    # recovery
    "CheckpointInfo", "CheckpointStore", "CheckpointWriter",
    "RecoveryManager", "RecoveryReport", "WriteAheadLog",
    # ------------------------------------------------------------------ #
    # Scale
    # ------------------------------------------------------------------ #
    # columnar blocks
    "ColumnarBlock", "FieldPredicate", "set_numpy",
    # sharding
    "Autoscaler", "ElasticShardedEngine", "FrontierMerge",
    "FrontierTracker", "HashPartitioner", "ReshardReport", "ShardError",
    "ShardSupervisor", "ShardTimeoutError", "ShardedEngine",
    "ShardedRecoveryReport", "ShardedSimulation",
]
