"""Unit tests for query-graph construction and validation."""

import pytest

from repro.core.errors import GraphError
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union, WindowJoin
from repro.core.tuples import TimestampKind
from repro.core.windows import WindowSpec
from repro.query.pipeline import Pipeline


def simple_path() -> QueryGraph:
    g = QueryGraph("path")
    src = g.add_source("src")
    sel = g.add(Select("sel", lambda p: True))
    sink = g.add_sink("sink")
    g.connect(src, sel)
    g.connect(sel, sink)
    return g


def union_graph() -> QueryGraph:
    g = QueryGraph("union")
    s1 = g.add_source("s1")
    s2 = g.add_source("s2")
    u = g.add(Union("u"))
    sink = g.add_sink("sink")
    g.connect(s1, u)
    g.connect(s2, u)
    g.connect(u, sink)
    return g


class TestConstruction:
    def test_simple_path_validates(self):
        g = simple_path()
        g.validate()
        assert g.is_validated

    def test_duplicate_names_rejected(self):
        g = QueryGraph()
        g.add(Select("x", lambda p: True))
        with pytest.raises(GraphError):
            g.add(Select("x", lambda p: True))

    def test_connect_foreign_operator_rejected(self):
        g = QueryGraph()
        inside = g.add(Select("in", lambda p: True))
        outside = Select("out", lambda p: True)
        with pytest.raises(GraphError):
            g.connect(inside, outside)

    def test_lookup(self):
        g = simple_path()
        assert g["sel"].name == "sel"
        assert "sel" in g and "nope" not in g
        with pytest.raises(GraphError):
            g["nope"]

    def test_buffers_track_arcs(self):
        g = simple_path()
        assert [b.name for b in g.buffers] == ["src->sel", "sel->sink"]

    def test_wiring_sets_neighbors(self):
        g = simple_path()
        sel = g["sel"]
        assert sel.predecessors[0].name == "src"
        assert sel.successors[0].name == "sink"


class TestValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            QueryGraph().validate()

    def test_operator_without_input_rejected(self):
        g = QueryGraph()
        g.add(Select("sel", lambda p: True))
        g.add_sink("sink")
        g.connect(g["sel"], g["sink"])
        with pytest.raises(GraphError, match="input"):
            g.validate()

    def test_operator_without_output_rejected(self):
        g = QueryGraph()
        src = g.add_source("src")
        sel = g.add(Select("sel", lambda p: True))
        g.connect(src, sel)
        with pytest.raises(GraphError, match="no outputs"):
            g.validate()

    def test_union_arity_enforced(self):
        g = QueryGraph()
        s1 = g.add_source("s1")
        u = g.add(Union("u"))
        sink = g.add_sink("sink")
        g.connect(s1, u)
        g.connect(u, sink)
        with pytest.raises(GraphError):
            g.validate()

    def test_join_arity_enforced(self):
        g = QueryGraph()
        s1 = g.add_source("s1")
        j = g.add(WindowJoin("j", WindowSpec.time(10)))
        sink = g.add_sink("sink")
        g.connect(s1, j)
        g.connect(u := j, sink)
        with pytest.raises(GraphError):
            g.validate()

    def test_mutation_invalidates(self):
        g = simple_path()
        g.validate()
        g.add_source("extra")
        assert not g.is_validated


class TestStructure:
    def test_sources_sinks_iwp(self):
        g = union_graph()
        assert {s.name for s in g.sources()} == {"s1", "s2"}
        assert {s.name for s in g.sinks()} == {"sink"}
        assert [op.name for op in g.iwp_operators()] == ["u"]

    def test_topological_order(self):
        g = union_graph()
        order = [op.name for op in g.topological_order()]
        assert order.index("s1") < order.index("u") < order.index("sink")
        assert order.index("s2") < order.index("u")

    def test_components_single(self):
        g = union_graph()
        comps = g.components()
        assert len(comps) == 1 and len(comps[0]) == 4

    def test_components_multiple(self):
        g = QueryGraph()
        for i in (1, 2):
            src = g.add_source(f"src{i}")
            sink = g.add_sink(f"sink{i}")
            g.connect(src, sink)
        assert len(g.components()) == 2

    def test_describe_mentions_every_operator(self):
        g = union_graph()
        text = g.describe()
        for name in ("s1", "s2", "u", "sink"):
            assert name in text

    def test_fan_out_is_allowed(self):
        g = QueryGraph()
        src = g.add_source("src")
        a = g.add(Select("a", lambda p: True))
        b = g.add(Select("b", lambda p: True))
        sink_a = g.add_sink("sink_a")
        sink_b = g.add_sink("sink_b")
        g.connect(src, a)
        g.connect(src, b)
        g.connect(a, sink_a)
        g.connect(b, sink_b)
        g.validate()
        assert len(src.outputs) == 2


class TestChainJoins:
    def test_three_way_cascade(self):
        p = Pipeline()
        s0, s1, s2 = (p.source(f"s{i}") for i in range(3))
        window = WindowSpec.time(10.0)
        s0.join(s1, window).join(s2, window).sink("sink")
        joins = [op for op in p.compile().operators
                 if isinstance(op, WindowJoin)]
        assert [j.name for j in joins] == ["join_1", "join_2"]
        assert joins[1].predecessors[0] is joins[0]


class TestSourceSinkRoles:
    def test_source_kind_stored(self):
        g = QueryGraph()
        src = g.add_source("s", TimestampKind.LATENT)
        assert src.timestamp_kind is TimestampKind.LATENT

    def test_total_buffered(self):
        g = simple_path()
        g.validate()
        g["src"].ingest({"v": 1}, now=1.0)
        assert g.total_buffered() == 1
