"""Structured error context on ingest/buffer failure paths.

Every timestamp/schema rejection must carry machine-readable context —
operator name, input port, offending timestamp, last-seen timestamp — as
structured fields on :class:`ReproError`, and announce itself on the buffer
registry's violation hook *before* raising, so monitors and tracers observe
the event even though the caller's stack unwinds.
"""

from __future__ import annotations

import pytest

from repro.core.buffers import BufferRegistry, StreamBuffer
from repro.core.columnar import ColumnarBlock
from repro.core.errors import ReproError, SchemaError, TimestampError
from repro.core.graph import QueryGraph
from repro.core.operators import Union
from repro.core.schema import Field, Schema
from repro.core.tuples import DataTuple, TimestampKind


def data(ts):
    return DataTuple(ts=ts, payload=None, kind=TimestampKind.INTERNAL,
                     arrival_ts=ts)


class TestReproErrorFields:
    def test_fields_default_empty(self):
        err = ReproError("plain")
        assert err.fields == {}
        assert err.operator is None
        assert err.offending_ts is None

    def test_fields_accessible_by_property_and_dict(self):
        err = ReproError("msg", operator="union", port=1,
                         offending_ts=2.0, last_seen_ts=3.0, extra="x")
        assert err.operator == "union"
        assert err.port == 1
        assert err.offending_ts == 2.0
        assert err.last_seen_ts == 3.0
        assert err.fields["extra"] == "x"
        assert str(err) == "msg"

    def test_subclasses_carry_fields(self):
        err = TimestampError("late", operator="src", offending_ts=1.0)
        assert isinstance(err, ReproError)
        assert err.operator == "src"


class TestBufferErrorContext:
    def test_out_of_order_push_carries_context(self):
        registry = BufferRegistry()
        buf = StreamBuffer("src->union", registry,
                           consumer_name="union", consumer_port=1)
        buf.push(data(5.0))
        with pytest.raises(TimestampError) as err:
            buf.push(data(4.0))
        e = err.value
        assert e.operator == "union"
        assert e.port == 1
        assert e.offending_ts == 4.0
        assert e.last_seen_ts == 5.0
        assert e.fields["kind"] == "out-of-order"
        assert e.fields["buffer"] == "src->union"

    def test_push_block_carries_context(self):
        registry = BufferRegistry()
        buf = StreamBuffer("b", registry, consumer_name="sink",
                           consumer_port=0)
        buf.push(data(5.0))
        with pytest.raises(TimestampError) as err:
            buf.push_block(ColumnarBlock.from_tuples([data(4.0), data(6.0)]))
        e = err.value
        assert e.operator == "sink"
        assert e.port == 0
        assert e.offending_ts == 4.0
        assert e.last_seen_ts == 5.0
        assert e.fields["kind"] == "out-of-order"
        assert e.fields["buffer"] == "b"
        assert len(buf) == 1  # the rejected block never entered the buffer

    def test_violation_hook_fires_before_raise(self):
        registry = BufferRegistry()
        seen = []
        registry.on_violation = lambda **fields: seen.append(fields)
        buf = StreamBuffer("b", registry, consumer_name="union",
                           consumer_port=0)
        buf.push(data(5.0))
        with pytest.raises(TimestampError):
            buf.push(data(4.0))
        assert len(seen) == 1
        assert seen[0]["offending_ts"] == 4.0
        assert seen[0]["kind"] == "out-of-order"

    def test_graph_wires_consumer_identity_into_buffers(self):
        graph = QueryGraph("ctx")
        a = graph.add_source("a")
        b = graph.add_source("b")
        union = graph.add(Union("union"))
        sink = graph.add_sink("out")
        graph.connect(a, union)
        graph.connect(b, union)
        graph.connect(union, sink)
        assert a.outputs[0].consumer_name == "union"
        assert a.outputs[0].consumer_port == 0
        assert b.outputs[0].consumer_port == 1
        assert union.outputs[0].consumer_name == "out"


class TestIngestErrorContext:
    def build_external(self):
        graph = QueryGraph("ctx")
        src = graph.add_source("src", TimestampKind.EXTERNAL)
        sink = graph.add_sink("out")
        graph.connect(src, sink)
        return graph, src

    def test_regressed_external_ts_carries_context(self):
        graph, src = self.build_external()
        src.ingest({"v": 1}, now=2.0, ts=2.0)
        with pytest.raises(TimestampError) as err:
            src.ingest({"v": 2}, now=3.0, ts=1.0)
        e = err.value
        assert e.operator == "src"
        assert e.port == 0
        assert e.offending_ts == 1.0
        assert e.last_seen_ts == 2.0
        assert e.fields["kind"] == "out-of-order"

    def test_regression_announced_on_registry_before_raise(self):
        graph, src = self.build_external()
        seen = []
        graph.registry.on_violation = lambda **fields: seen.append(fields)
        src.ingest({"v": 1}, now=2.0, ts=2.0)
        with pytest.raises(TimestampError):
            src.ingest({"v": 2}, now=3.0, ts=1.0)
        assert seen and seen[0]["operator"] == "src"

    def test_schema_rejection_carries_context(self):
        schema = Schema([Field("v", "float")])
        graph = QueryGraph("ctx")
        src = graph.add_source("src", output_schema=schema,
                               validate_schema=True)
        sink = graph.add_sink("out")
        graph.connect(src, sink)
        seen = []
        graph.registry.on_violation = lambda **fields: seen.append(fields)
        with pytest.raises(SchemaError) as err:
            src.ingest({"wrong": "shape"}, now=1.0)
        assert err.value.operator == "src"
        assert err.value.fields["kind"] == "schema"
        assert seen and seen[0]["kind"] == "schema"

    def test_schema_validation_off_by_default(self):
        schema = Schema([Field("v", "float")])
        graph = QueryGraph("ctx")
        src = graph.add_source("src", output_schema=schema)
        sink = graph.add_sink("out")
        graph.connect(src, sink)
        src.ingest({"wrong": "shape"}, now=1.0)  # seed behaviour: no check
