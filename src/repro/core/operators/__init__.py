"""Query operators: sources, sinks, stateless transforms, and IWP operators."""

from .aggregate import (
    AggSpec,
    Aggregator,
    Avg,
    Count,
    Max,
    Min,
    Sum,
    TumblingAggregate,
)
from .base import BatchResult, Clock, OpContext, Operator
from .join import WindowJoin, merge_payloads
from .map import FlatMap, Map
from .project import Project
from .reorder import Reorder
from .select import Select
from .shed import Shed
from .sink import SinkNode
from .source import SourceNode
from .stateless import StatelessOperator
from .union import Union

__all__ = [
    "AggSpec",
    "Aggregator",
    "Avg",
    "BatchResult",
    "Clock",
    "Count",
    "FlatMap",
    "Map",
    "Max",
    "Min",
    "OpContext",
    "Operator",
    "Project",
    "Reorder",
    "Select",
    "Shed",
    "SinkNode",
    "SourceNode",
    "StatelessOperator",
    "Sum",
    "TumblingAggregate",
    "Union",
    "WindowJoin",
    "merge_payloads",
]
