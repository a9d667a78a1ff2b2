"""Tests for the mini query language: statements through compiled graphs."""

import pytest

from repro.core.errors import QueryLanguageError
from repro.core.operators import (
    Project,
    Select,
    SourceNode,
    TumblingAggregate,
    Union,
    WindowJoin,
)
from repro.core.tuples import TimestampKind
from repro.query.language import compile_query
from repro.sim.cost import CostModel
from repro.sim.kernel import Arrival, Simulation

PAPER_QUERY = """
STREAM fast (seq int, value float) TIMESTAMP INTERNAL;
STREAM slow (seq int, value float);
s1 = SELECT * FROM fast WHERE value < 0.95;
s2 = SELECT * FROM slow WHERE value < 0.95;
merged = UNION s1, s2;
SINK merged AS out;
"""


class TestStreamDeclaration:
    def test_sources_created(self):
        cq = compile_query(PAPER_QUERY)
        assert set(cq.sources) == {"fast", "slow"}
        assert all(isinstance(s, SourceNode) for s in cq.sources.values())

    def test_schema_attached(self):
        cq = compile_query(PAPER_QUERY)
        assert cq.sources["fast"].output_schema.field_names() == (
            "seq", "value")

    def test_timestamp_kinds(self):
        cq = compile_query("""
            STREAM a TIMESTAMP EXTERNAL;
            STREAM b TIMESTAMP LATENT;
            STREAM c;
            u = UNION a, b, c;
            SINK u;
        """)
        assert cq.sources["a"].timestamp_kind is TimestampKind.EXTERNAL
        assert cq.sources["b"].timestamp_kind is TimestampKind.LATENT
        assert cq.sources["c"].timestamp_kind is TimestampKind.INTERNAL

    def test_bad_field_type(self):
        with pytest.raises(QueryLanguageError):
            compile_query("STREAM a (x decimal); SINK a;")


class TestSelectStatement:
    def test_where_builds_select(self):
        cq = compile_query(PAPER_QUERY)
        selects = [op for op in cq.graph.operators if isinstance(op, Select)]
        assert len(selects) == 2

    def test_projection_builds_project(self):
        cq = compile_query("""
            STREAM s (a int, b int);
            p = SELECT a FROM s;
            SINK p;
        """)
        projects = [op for op in cq.graph.operators
                    if isinstance(op, Project)]
        assert len(projects) == 1 and projects[0].fields == ("a",)

    def test_select_star_without_where_is_identity(self):
        cq = compile_query("""
            STREAM s;
            t = SELECT * FROM s;
            SINK t;
        """)
        cq.graph.validate()

    def test_unknown_stream(self):
        with pytest.raises(QueryLanguageError, match="unknown stream"):
            compile_query("x = SELECT * FROM nope; SINK x;")

    def test_redefinition_rejected(self):
        with pytest.raises(QueryLanguageError, match="already defined"):
            compile_query("""
                STREAM s;
                s = SELECT * FROM s;
                SINK s;
            """)


class TestUnionJoinAggregate:
    def test_union_statement(self):
        cq = compile_query(PAPER_QUERY)
        unions = [op for op in cq.graph.operators if isinstance(op, Union)]
        assert len(unions) == 1 and len(unions[0].inputs) == 2

    def test_union_needs_two(self):
        with pytest.raises(QueryLanguageError):
            compile_query("STREAM s; u = UNION s; SINK u;")

    def test_join_statement(self):
        cq = compile_query("""
            STREAM a (k int);
            STREAM b (k int);
            j = JOIN a, b WINDOW 30 ON left.k == right.k;
            SINK j;
        """)
        joins = [op for op in cq.graph.operators
                 if isinstance(op, WindowJoin)]
        assert len(joins) == 1
        assert joins[0].windows[0].span == 30.0
        assert joins[0].predicate({"k": 1}, {"k": 1})
        assert not joins[0].predicate({"k": 1}, {"k": 2})

    def test_aggregate_statement(self):
        cq = compile_query("""
            STREAM s (k str, v float);
            a = AGGREGATE s WINDOW 10 GROUP BY k
                COMPUTE n = count(), total = sum(v);
            SINK a;
        """)
        aggs = [op for op in cq.graph.operators
                if isinstance(op, TumblingAggregate)]
        assert len(aggs) == 1
        assert aggs[0].group_by == "k"
        assert set(aggs[0].aggs) == {"n", "total"}

    def test_unknown_aggregate_function(self):
        with pytest.raises(QueryLanguageError, match="unknown aggregate"):
            compile_query("""
                STREAM s;
                a = AGGREGATE s WINDOW 10 COMPUTE x = median(v);
                SINK a;
            """)


class TestSinkStatement:
    def test_sink_required(self):
        with pytest.raises(QueryLanguageError, match="SINK"):
            compile_query("STREAM s;")

    def test_sink_as_rename(self):
        cq = compile_query("STREAM s; SINK s AS renamed;")
        assert "renamed" in cq.sinks

    @pytest.mark.parametrize("program, sink", [
        ("STREAM __select1; x = SELECT * FROM __select1 WHERE v < 1; SINK x;",
         "x"),
        ("STREAM sink_out; STREAM b; u = UNION sink_out, b; SINK u AS out;",
         "out"),
    ])
    def test_generated_names_skip_declared_streams(self, program, sink):
        cq = compile_query(program)
        assert set(cq.sinks) == {sink}
        for name, source in cq.sources.items():
            assert cq.graph[name] is source

    @pytest.mark.parametrize("program", [
        "STREAM a; STREAM a; SINK a AS out;",
        "STREAM a; x = SELECT * FROM a WHERE v > 1; STREAM select_1; "
        "y = UNION x, select_1; SINK y AS out;",
    ], ids=["declared-twice", "declared-after-generated"])
    def test_stream_name_collision_is_a_language_error(self, program):
        """A ``STREAM`` whose name is taken — by another declaration or by
        a name an earlier statement generated — is a language error naming
        the stream, not a graph error from the builder underneath."""
        with pytest.raises(QueryLanguageError, match="stream 'a'|'select_1'"):
            compile_query(program)

    def test_duplicate_sink_name_rejected(self):
        with pytest.raises(QueryLanguageError,
                           match="sink 'x' is already defined"):
            compile_query("STREAM a; STREAM b; SINK a AS x; SINK b AS x;")


class TestCompiledQueryRuns:
    def test_end_to_end_with_simulation(self):
        """A program compiled from text must run in the kernel unchanged."""
        cq = compile_query(PAPER_QUERY)
        from repro.core.ets import OnDemandEts
        sim = Simulation(cq.graph, ets_policy=OnDemandEts(),
                         cost_model=CostModel.zero())
        fast = cq.sources["fast"]
        sim.attach_arrivals(fast, iter([
            Arrival(float(t), {"seq": t, "value": 0.5})
            for t in range(1, 6)
        ]))
        sim.run(until=10.0)
        assert cq.sinks["out"].delivered == 5

    def test_filter_applies(self):
        cq = compile_query("""
            STREAM s (seq int, value float);
            keep = SELECT * FROM s WHERE value < 0.5;
            SINK keep;
        """)
        sim = Simulation(cq.graph, cost_model=CostModel.zero())
        sim.attach_arrivals(cq.sources["s"], iter([
            Arrival(1.0, {"seq": 0, "value": 0.1}),
            Arrival(2.0, {"seq": 1, "value": 0.9}),
        ]))
        sim.run(until=5.0)
        assert cq.sinks["keep"].delivered == 1
