"""repro.obs: the one observability package.

One event bus (:class:`EventBus`) carries every observable decision the
engine and kernel take; the live consumers are observers of it:

* :class:`MetricsRegistry` — unified counters / gauges / histograms with
  ``as_dict()`` and Prometheus text rendering;
* :class:`JsonlExporter` / :class:`ChromeTraceExporter` — the event
  stream in standard external formats (``python -m repro trace``; the
  registry renders its own Prometheus text for ``python -m repro
  metrics``);
* :class:`Tracer` — the NOS-decision record the Fig.-2 rule tests assert.

Beside them live the figures no hook carries: the idle-waiting tracker
(:mod:`.idle`), sink latency (:mod:`.latency`) and liveness
(:mod:`.recovery`) recorders, the operator profile (:mod:`.profile`) and
the plain-text report formatting (:mod:`.report`).

Attach observers with ``ExecutionEngine(..., observers=[...])`` or
``Simulation(..., observers=[...])``; with no observers attached the engine
stores no bus at all and instrumentation costs nothing.
"""

from .bus import HOOKS, EventBus, Observer
from .exporters import ChromeTraceExporter, JsonlExporter
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import TraceEvent, Tracer, summarize

__all__ = [
    "HOOKS",
    "ChromeTraceExporter",
    "Counter",
    "EventBus",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "MetricsRegistry",
    "Observer",
    "TraceEvent",
    "Tracer",
    "summarize",
]
