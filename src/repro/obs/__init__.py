"""repro.obs: the hook-based instrumentation subsystem.

One event bus (:class:`EventBus`) carries every observable decision the
engine and kernel take; everything else is an :class:`Observer` of it:

* :class:`MetricsRegistry` — unified counters / gauges / histograms with
  ``as_dict()`` and Prometheus text rendering;
* :class:`JsonlExporter` / :class:`ChromeTraceExporter` — the event
  stream in standard external formats (``python -m repro trace``; the
  registry renders its own Prometheus text for ``python -m repro
  metrics``);
* :class:`TraceObserver` — the adapter that feeds the legacy
  :class:`~repro.core.tracing.Tracer` vocabulary from the bus.

Attach observers with ``ExecutionEngine(..., observers=[...])`` or
``Simulation(..., observers=[...])``; with no observers attached the engine
stores no bus at all and instrumentation costs nothing.
"""

from .adapters import TraceObserver
from .bus import HOOKS, NULL_BUS, EventBus, NullBus, Observer
from .exporters import ChromeTraceExporter, JsonlExporter
from .registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "HOOKS",
    "NULL_BUS",
    "ChromeTraceExporter",
    "Counter",
    "EventBus",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "MetricsRegistry",
    "NullBus",
    "Observer",
    "TraceObserver",
]
