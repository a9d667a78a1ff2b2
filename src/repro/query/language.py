"""The mini continuous-query language: statements compiled to query graphs.

A program is a sequence of semicolon-terminated statements (keywords are
case-insensitive, ``--`` starts a line comment)::

    STREAM fast (seq int, value float) TIMESTAMP INTERNAL;
    STREAM slow (seq int, value float);

    s1 = SELECT * FROM fast WHERE value < 0.95;
    s2 = SELECT seq, value FROM slow WHERE value < 0.95;

    merged = UNION s1, s2;
    pairs  = JOIN s1, s2 WINDOW 60s ON left.seq == right.seq;
    rates  = AGGREGATE merged WINDOW 10s GROUP BY seq
             COMPUTE n = count(), total = sum(value);

    SINK merged AS out;

Durations accept unit suffixes (``ms``, ``s``, ``min``, ``h``; bare numbers
are seconds).  Out-of-order external feeds are declared with
``STREAM ticks (..) TIMESTAMP EXTERNAL UNORDERED;`` and repaired with
``fixed = REORDER ticks SLACK 500ms [LATE DROP|ERROR];``.

The language is a serialisation of :class:`~repro.query.pipeline.Pipeline`:
each name is bound to a :class:`~repro.query.pipeline.PipelineStream` and
each statement is one combinator call, so operators, defaults and generated
node names are the pipeline's.  Compilation produces a
:class:`CompiledQuery`: the validated graph plus name→node maps for sources
and sinks, ready to hand to a :class:`~repro.sim.kernel.Simulation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import QueryLanguageError
from ..core.graph import QueryGraph
from ..core.operators import (AggSpec, Avg, Count, Max, Min, SinkNode,
                              SourceNode, Sum)
from ..core.operators.base import Operator
from ..core.schema import Field, Schema
from ..core.tuples import TimestampKind
from ..core.windows import WindowSpec
from .parser import Evaluator, ExpressionParser, Token, tokenize
from .pipeline import Pipeline, PipelineStream

__all__ = ["CompiledQuery", "compile_query"]

_TIMESTAMP_KINDS = {
    "internal": TimestampKind.INTERNAL,
    "external": TimestampKind.EXTERNAL,
    "latent": TimestampKind.LATENT,
}

_AGG_FACTORIES = {
    "count": Count,
    "sum": Sum,
    "avg": Avg,
    "min": Min,
    "max": Max,
}


@dataclass(slots=True)
class CompiledQuery:
    """Result of compiling a program: graph plus named entry/exit points."""

    graph: QueryGraph
    sources: dict[str, SourceNode] = field(default_factory=dict)
    sinks: dict[str, SinkNode] = field(default_factory=dict)
    streams: dict[str, Operator] = field(default_factory=dict)


class _Compiler:
    """Statement-level recursive-descent compiler into a :class:`Pipeline`."""

    def __init__(self, tokens: list[Token], pipeline: Pipeline) -> None:
        self.parser = ExpressionParser(tokens)
        self.pipeline = pipeline
        self.sources: dict[str, SourceNode] = {}
        self.sinks: dict[str, SinkNode] = {}
        self.streams: dict[str, PipelineStream] = {}

    # ------------------------------------------------------------------ #
    # Utilities

    def _resolve(self, name: str) -> PipelineStream:
        stream = self.streams.get(name)
        if stream is None:
            raise QueryLanguageError(f"unknown stream {name!r}")
        return stream

    def _bind(self, name: str, stream: PipelineStream) -> None:
        if name in self.streams:
            raise QueryLanguageError(f"stream {name!r} is already defined")
        self.streams[name] = stream

    def _end_statement(self) -> None:
        self.parser.expect("punct", ";")

    _DURATION_UNITS = {"ms": 1e-3, "s": 1.0, "sec": 1.0, "secs": 1.0,
                       "m": 60.0, "min": 60.0, "mins": 60.0,
                       "h": 3600.0, "hr": 3600.0, "hours": 3600.0}

    def _parse_duration(self) -> float:
        """NUMBER with an optional unit suffix: ``60``, ``60s``, ``5 min``."""
        value = float(self.parser.expect("number").text)
        unit = self.parser.accept("ident")
        if unit is not None:
            factor = self._DURATION_UNITS.get(unit.text.lower())
            if factor is None:
                raise QueryLanguageError(
                    f"unknown duration unit {unit.text!r} at position "
                    f"{unit.pos}; expected one of "
                    f"{sorted(set(self._DURATION_UNITS))}"
                )
            value *= factor
        return value

    # ------------------------------------------------------------------ #
    # Program

    def compile(self) -> CompiledQuery:
        while self.parser.peek() is not None:
            token = self.parser.peek()
            assert token is not None
            if token.is_kw("stream"):
                self._stream_decl()
            elif token.is_kw("sink"):
                self._sink_stmt()
            elif token.kind == "ident":
                self._assignment()
            else:
                raise QueryLanguageError(
                    f"unexpected {token.text!r} at position {token.pos}; "
                    "expected STREAM, SINK, or an assignment"
                )
        if not self.sinks:
            raise QueryLanguageError("program declares no SINK")
        self.pipeline.sinks.update(self.sinks)
        return CompiledQuery(
            graph=self.pipeline.compile(), sources=self.sources,
            sinks=self.sinks,
            streams={name: s.op for name, s in self.streams.items()})

    # ------------------------------------------------------------------ #
    # Statements

    def _stream_decl(self) -> None:
        self.parser.expect("keyword", "stream")
        name = self.parser.expect("ident").text
        schema = None
        if self.parser.accept("punct", "("):
            fields: list[Field] = []
            while True:
                fname = self.parser.expect("ident").text
                ftype = self.parser.next()
                if ftype.kind != "keyword" or ftype.text not in (
                        "int", "float", "str", "bool", "any"):
                    raise QueryLanguageError(
                        f"bad field type {ftype.text!r} at position {ftype.pos}"
                    )
                fields.append(Field(fname, ftype.text))
                if not self.parser.accept("punct", ","):
                    break
            self.parser.expect("punct", ")")
            schema = Schema(tuple(fields), name=name)
        kind = TimestampKind.INTERNAL
        if self.parser.accept("keyword", "timestamp"):
            kind_token = self.parser.next()
            if kind_token.text not in _TIMESTAMP_KINDS:
                raise QueryLanguageError(
                    f"unknown timestamp kind {kind_token.text!r}"
                )
            kind = _TIMESTAMP_KINDS[kind_token.text]
        out_of_order = bool(self.parser.accept("keyword", "unordered"))
        self._end_statement()
        source = self.pipeline.source(name, kind, out_of_order=out_of_order,
                                      schema=schema)
        self.sources[name] = source.source_node
        self._bind(name, source)

    def _sink_stmt(self) -> None:
        self.parser.expect("keyword", "sink")
        stream = self.parser.expect("ident").text
        sink_name = stream
        if self.parser.accept("keyword", "as"):
            sink_name = self.parser.expect("ident").text
        self._end_statement()
        upstream = self._resolve(stream)
        if sink_name in self.sinks:
            raise QueryLanguageError(f"sink {sink_name!r} is already defined")
        upstream.sink()
        # The pipeline registers the sink under its generated node name;
        # the program names it by the declared one.
        self.sinks[sink_name] = self.pipeline.sinks.popitem()[1]

    def _assignment(self) -> None:
        name = self.parser.expect("ident").text
        self.parser.expect("op", "=")
        head = self.parser.peek()
        if head is None:
            raise QueryLanguageError("unexpected end of input after '='")
        if head.is_kw("select"):
            stream = self._select_stmt()
        elif head.is_kw("union"):
            stream = self._union_stmt()
        elif head.is_kw("join"):
            stream = self._join_stmt()
        elif head.is_kw("aggregate"):
            stream = self._aggregate_stmt()
        elif head.is_kw("reorder"):
            stream = self._reorder_stmt()
        else:
            raise QueryLanguageError(
                "expected SELECT/UNION/JOIN/AGGREGATE/REORDER at position "
                f"{head.pos}"
            )
        self._end_statement()
        self._bind(name, stream)

    def _select_stmt(self) -> PipelineStream:
        self.parser.expect("keyword", "select")
        fields: list[str] | None
        if self.parser.accept("op", "*"):
            fields = None
        else:
            fields = [self.parser.expect("ident").text]
            while self.parser.accept("punct", ","):
                fields.append(self.parser.expect("ident").text)
        self.parser.expect("keyword", "from")
        upstream = self._resolve(self.parser.expect("ident").text)
        predicate: Evaluator | None = None
        if self.parser.accept("keyword", "where"):
            predicate = self.parser.parse_expression()
        current = upstream
        if predicate is not None:
            current = current.select(predicate)
        if fields is not None:
            current = current.project(fields)
        if current is upstream:
            # SELECT * FROM s with no WHERE: identity projection keeps the
            # assignment a distinct named stream without copying payloads.
            current = current.select(lambda payload: True)
        return current

    def _union_stmt(self) -> PipelineStream:
        self.parser.expect("keyword", "union")
        inputs = [self._resolve(self.parser.expect("ident").text)]
        while self.parser.accept("punct", ","):
            inputs.append(self._resolve(self.parser.expect("ident").text))
        if len(inputs) < 2:
            raise QueryLanguageError("UNION needs at least two streams")
        return inputs[0].union(*inputs[1:])

    def _join_stmt(self) -> PipelineStream:
        self.parser.expect("keyword", "join")
        left = self._resolve(self.parser.expect("ident").text)
        self.parser.expect("punct", ",")
        right = self._resolve(self.parser.expect("ident").text)
        self.parser.expect("keyword", "window")
        width = self._parse_duration()
        predicate = None
        if self.parser.accept("keyword", "on"):
            expr = self.parser.parse_expression()
            predicate = (lambda e: lambda lp, rp: bool(
                e({"left": lp, "right": rp})))(expr)
        return left.join(right, WindowSpec.time(width), predicate=predicate)

    def _reorder_stmt(self) -> PipelineStream:
        self.parser.expect("keyword", "reorder")
        upstream = self._resolve(self.parser.expect("ident").text)
        self.parser.expect("keyword", "slack")
        slack = self._parse_duration()
        late = "drop"
        if self.parser.accept("keyword", "late"):
            token = self.parser.next()
            if token.is_kw("drop"):
                late = "drop"
            elif token.is_kw("error"):
                late = "error"
            else:
                raise QueryLanguageError(
                    f"LATE must be DROP or ERROR, got {token.text!r}"
                )
        return upstream.reorder(slack, late=late)

    def _aggregate_stmt(self) -> PipelineStream:
        self.parser.expect("keyword", "aggregate")
        upstream = self._resolve(self.parser.expect("ident").text)
        self.parser.expect("keyword", "window")
        width = self._parse_duration()
        group_by = None
        if self.parser.accept("keyword", "group"):
            self.parser.expect("keyword", "by")
            group_by = self.parser.expect("ident").text
        self.parser.expect("keyword", "compute")
        aggs: dict[str, AggSpec] = {}
        while True:
            out = self.parser.expect("ident").text
            self.parser.expect("op", "=")
            fn_token = self.parser.expect("ident")
            factory = _AGG_FACTORIES.get(fn_token.text.lower())
            if factory is None:
                raise QueryLanguageError(
                    f"unknown aggregate {fn_token.text!r}; expected one of "
                    f"{sorted(_AGG_FACTORIES)}"
                )
            self.parser.expect("punct", "(")
            agg_field = None
            ident = self.parser.accept("ident")
            if ident is not None:
                agg_field = ident.text
            self.parser.expect("punct", ")")
            aggs[out] = AggSpec(factory, agg_field)
            if not self.parser.accept("punct", ","):
                break
        return upstream.tumbling(width, aggs, group_by=group_by)


def _compile_into(pipeline: Pipeline, text: str) -> CompiledQuery:
    """Build a program's statements into ``pipeline`` and compile it.

    The pipeline's :attr:`~Pipeline.sinks` end up keyed by the names the
    program's ``SINK`` statements declare.
    """
    return _Compiler(tokenize(text), pipeline).compile()


def compile_query(text: str, name: str = "query") -> CompiledQuery:
    """Compile a program in the mini language to a validated query graph."""
    return _compile_into(Pipeline(name), text)
