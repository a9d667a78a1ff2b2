"""Query graphs: operators (nodes) connected by stream buffers (arcs).

A query graph is a DAG whose nodes are query operators plus source and sink
nodes, and whose arcs are FIFO buffers (paper Section 3).  Each weakly
connected component is a scheduling unit; the execution engine runs one
component at a time.

The graph object owns the :class:`BufferRegistry`, so the "peak total queue
size" metric of Figure 8 covers exactly the buffers of this query.
"""

from __future__ import annotations

from typing import Callable

from .buffers import BufferRegistry, StreamBuffer
from .errors import GraphError
from .operators.base import Operator
from .operators.sink import SinkNode
from .operators.source import SourceNode
from .tuples import TimestampKind

__all__ = ["QueryGraph"]


class QueryGraph:
    """A DAG of operators; the unit handed to the execution engine.

    Typical construction::

        g = QueryGraph("monitor")
        s1 = g.add_source("fast")
        s2 = g.add_source("slow")
        f1 = g.add(Select("filter1", predicate))
        f2 = g.add(Select("filter2", predicate))
        u = g.add(Union("union"))
        out = g.add_sink("out")
        g.connect(s1, f1); g.connect(s2, f2)
        g.connect(f1, u); g.connect(f2, u)
        g.connect(u, out)
        g.validate()
    """

    def __init__(self, name: str = "query") -> None:
        self.name = name
        self.registry = BufferRegistry()
        self._operators: dict[str, Operator] = {}
        self._buffers: list[StreamBuffer] = []
        self._validated = False
        #: Live-successor / live-predecessor lookup tables, keyed by
        #: operator name and frozen by :meth:`validate`.  Graph traversals
        #: (cycle check, components, topological order) read these instead
        #: of re-filtering ``op.successors`` / ``op.predecessors`` on every
        #: visit.
        self._succ_table: dict[str, tuple[Operator, ...]] = {}
        self._pred_table: dict[str, tuple[Operator, ...]] = {}

    # ------------------------------------------------------------------ #
    # Construction

    def add(self, operator: Operator) -> Operator:
        """Register ``operator`` as a node of this graph."""
        if operator.name in self._operators:
            raise GraphError(
                f"graph {self.name!r} already has an operator named "
                f"{operator.name!r}"
            )
        self._operators[operator.name] = operator
        self._validated = False
        self._succ_table.clear()
        self._pred_table.clear()
        return operator

    def add_source(self, name: str,
                   timestamp_kind: TimestampKind = TimestampKind.INTERNAL,
                   *, out_of_order: bool = False,
                   output_schema=None,
                   validate_schema: bool = False) -> SourceNode:
        """Create and register a source node."""
        source = SourceNode(name, timestamp_kind, out_of_order=out_of_order,
                            output_schema=output_schema,
                            validate_schema=validate_schema)
        self.add(source)
        return source

    def add_sink(self, name: str, on_output: Callable | None = None,
                 *, keep_outputs: bool = False) -> SinkNode:
        """Create and register a sink node."""
        sink = SinkNode(name, on_output, keep_outputs=keep_outputs)
        self.add(sink)
        return sink

    def connect(self, producer: Operator, consumer: Operator,
                *, enforce_order: bool = True) -> StreamBuffer:
        """Add an arc (a FIFO buffer) from ``producer`` to ``consumer``."""
        for op in (producer, consumer):
            if self._operators.get(op.name) is not op:
                raise GraphError(
                    f"operator {op.name!r} is not part of graph {self.name!r}"
                )
        # Out-of-order sources legitimately push regressing timestamps; a
        # downstream Reorder operator restores the invariant.
        if getattr(producer, "out_of_order", False):
            enforce_order = False
        buf = StreamBuffer(
            name=f"{producer.name}->{consumer.name}",
            registry=self.registry,
            enforce_order=enforce_order,
            consumer_name=consumer.name,
            consumer_port=len(consumer.inputs),
        )
        producer.attach_output(buf, consumer)
        consumer.attach_input(buf, producer)
        self._buffers.append(buf)
        self._validated = False
        self._succ_table.clear()
        self._pred_table.clear()
        return buf

    # ------------------------------------------------------------------ #
    # Introspection

    def __contains__(self, name: str) -> bool:
        return name in self._operators

    def __getitem__(self, name: str) -> Operator:
        try:
            return self._operators[name]
        except KeyError:
            raise GraphError(
                f"graph {self.name!r} has no operator {name!r}"
            ) from None

    @property
    def operators(self) -> list[Operator]:
        return list(self._operators.values())

    @property
    def buffers(self) -> list[StreamBuffer]:
        return list(self._buffers)

    def sources(self) -> list[SourceNode]:
        return [op for op in self._operators.values()
                if isinstance(op, SourceNode)]

    def sinks(self) -> list[SinkNode]:
        return [op for op in self._operators.values()
                if isinstance(op, SinkNode)]

    def iwp_operators(self) -> list[Operator]:
        """Operators subject to idle-waiting (union, join)."""
        return [op for op in self._operators.values() if op.is_iwp]

    def total_buffered(self) -> int:
        """Current total number of elements across the graph's buffers."""
        return self.registry.total

    def state_floor(self) -> float:
        """Smallest *source* timestamp that can still influence this graph's
        output.  Read it at quiescence.

        Each operator and arc answers in the stamps it holds
        (:meth:`Operator.state_floor`); what sits behind a join is derived,
        and an element stamped ``t`` there was shaped by source rows as far
        back as ``t`` minus the reach of every operator on the way
        (:meth:`Operator.state_reach`: in ``a.join(b, w).join(c, w)`` the
        second window's entry stamped 14 may carry an ``a`` row stamped
        ``14 - w``).  So each holder's floor is lowered by the longest
        reach upstream of it before the minimum is taken.
        """
        inf = float("inf")
        floor = inf
        reach: dict[str, float] = {}  # operator -> its outputs' total reach
        for op in self.topological_order():
            behind = 0.0
            for buf, producer in zip(op.inputs, op.predecessors):
                lag = reach[producer.name] if producer is not None else 0.0
                behind = max(behind, lag)
                head = buf.state_floor()
                if head < inf:
                    floor = min(floor, head - lag)
            own = op.state_floor()
            if own < inf:
                floor = min(floor, own - behind)
            reach[op.name] = behind + op.state_reach()
        return floor

    # ------------------------------------------------------------------ #
    # Validation and structure

    def validate(self) -> "QueryGraph":
        """Check wiring, acyclicity, and terminal roles; returns self."""
        if not self._operators:
            raise GraphError(f"graph {self.name!r} is empty")
        for op in self._operators.values():
            op.validate_wiring()
            if isinstance(op, SourceNode) and op.inputs:
                raise GraphError(f"source {op.name!r} must not have inputs")
            if not isinstance(op, SourceNode) and not op.inputs:
                raise GraphError(
                    f"operator {op.name!r} has no inputs and is not a source"
                )
            if isinstance(op, SinkNode) and op.outputs:
                raise GraphError(f"sink {op.name!r} must not have outputs")
            if not isinstance(op, SinkNode) and not op.outputs:
                raise GraphError(
                    f"operator {op.name!r} has no outputs and is not a sink"
                )
        self._rebuild_tables()
        self._check_acyclic()
        self._validated = True
        return self

    def _rebuild_tables(self) -> None:
        """Freeze the successor/predecessor lookup tables (and each
        operator's Forward-rule ``forward_pairs``) from the current wiring."""
        self._succ_table = {}
        self._pred_table = {}
        for name, op in self._operators.items():
            op.rebuild_forward_pairs()
            self._succ_table[name] = tuple(
                s for s in op.successors if s is not None)
            self._pred_table[name] = tuple(
                p for p in op.predecessors if p is not None)

    def live_successors(self, op: Operator) -> tuple[Operator, ...]:
        """Non-None successors of ``op`` (precomputed after validation)."""
        table = self._succ_table.get(op.name)
        if table is None:
            return tuple(s for s in op.successors if s is not None)
        return table

    def live_predecessors(self, op: Operator) -> tuple[Operator, ...]:
        """Non-None predecessors of ``op`` (precomputed after validation)."""
        table = self._pred_table.get(op.name)
        if table is None:
            return tuple(p for p in op.predecessors if p is not None)
        return table

    @property
    def is_validated(self) -> bool:
        return self._validated

    def _check_acyclic(self) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._operators}

        def visit(op: Operator) -> None:
            color[op.name] = GREY
            stack = [(op, iter(self.live_successors(op)))]
            while stack:
                node, successors = stack[-1]
                advanced = False
                for succ in successors:
                    c = color[succ.name]
                    if c == GREY:
                        raise GraphError(
                            f"graph {self.name!r} has a cycle through "
                            f"{succ.name!r}"
                        )
                    if c == WHITE:
                        color[succ.name] = GREY
                        stack.append((succ, iter(self.live_successors(succ))))
                        advanced = True
                        break
                if not advanced:
                    color[node.name] = BLACK
                    stack.pop()

        for op in self._operators.values():
            if color[op.name] == WHITE:
                visit(op)

    def components(self) -> list[list[Operator]]:
        """Weakly connected components — the DSMS scheduling units."""
        parent: dict[str, str] = {name: name for name in self._operators}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for op in self._operators.values():
            for succ in self.live_successors(op):
                union(op.name, succ.name)
        groups: dict[str, list[Operator]] = {}
        for name, op in self._operators.items():
            groups.setdefault(find(name), []).append(op)
        return list(groups.values())

    def topological_order(self) -> list[Operator]:
        """Operators in a producer-before-consumer order."""
        indegree = {name: len(self.live_predecessors(op))
                    for name, op in self._operators.items()}
        ready = [op for name, op in self._operators.items() if not indegree[name]]
        order: list[Operator] = []
        while ready:
            op = ready.pop()
            order.append(op)
            for succ in self.live_successors(op):
                indegree[succ.name] -= 1
                if not indegree[succ.name]:
                    ready.append(succ)
        if len(order) != len(self._operators):
            raise GraphError(f"graph {self.name!r} is cyclic")
        return order

    def describe(self) -> str:
        """Multi-line human-readable dump of nodes and arcs."""
        lines = [f"QueryGraph {self.name!r}:"]
        for op in self.topological_order():
            succs = ", ".join(s.name for s in op.successors if s is not None)
            role = type(op).__name__
            lines.append(f"  {op.name} [{role}] -> {succs or '(terminal)'}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the query graph.

        Sources render as houses, sinks as inverted houses, IWP operators
        (the paper's protagonists) as double circles, everything else as
        boxes.  Arc labels show current buffer occupancy, so a dump taken
        mid-run doubles as a queue-pressure snapshot.
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for op in self._operators.values():
            if isinstance(op, SourceNode):
                shape = "house"
            elif isinstance(op, SinkNode):
                shape = "invhouse"
            elif op.is_iwp:
                shape = "doublecircle"
            else:
                shape = "box"
            label = f"{op.name}\\n{type(op).__name__}"
            lines.append(f'  "{op.name}" [shape={shape}, label="{label}"];')
        for op in self._operators.values():
            for buf, succ in zip(op.outputs, op.successors):
                if succ is None:
                    continue
                lines.append(
                    f'  "{op.name}" -> "{succ.name}" [label="{len(buf)}"];'
                )
        lines.append("}")
        return "\n".join(lines)
