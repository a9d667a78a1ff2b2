"""Unit tests for stateless operators: select, project, map, flatmap."""

from collections import defaultdict
from types import MappingProxyType

import pytest

from repro.core.columnar import ColumnarBlock
from repro.core.errors import SchemaError
from repro.core.operators import FlatMap, Map, Project, Select
from repro.core.tuples import DataTuple

from conftest import OpHarness


class TestSelect:
    def test_passes_matching_payloads(self):
        op = Select("s", lambda p: p["v"] > 5)
        h = OpHarness(op)
        h.feed(0, 1.0, {"v": 10})
        h.feed(0, 2.0, {"v": 3})
        h.feed(0, 3.0, {"v": 7})
        h.run()
        out = h.output_data()
        assert [t.payload["v"] for t in out] == [10, 7]
        assert op.passed == 2 and op.dropped == 1

    def test_timestamps_preserved(self):
        op = Select("s", lambda p: True)
        h = OpHarness(op)
        h.feed(0, 4.5, {"v": 1})
        h.run()
        assert h.output_data()[0].ts == 4.5

    def test_punctuation_passes_through(self):
        """Dropped data must not drop timestamp knowledge (paper 4.2)."""
        op = Select("s", lambda p: False)
        h = OpHarness(op)
        h.feed(0, 1.0, {"v": 1})
        h.feed_punctuation(0, 2.0)
        h.run()
        out = h.drain_output()
        assert len(out) == 1 and out[0].is_punctuation
        assert out[0].ts == 2.0
        assert out[0].origin == "s"  # reformatted to this operator

    def test_observed_selectivity(self):
        op = Select("s", lambda p: p["v"] < 0.5)
        h = OpHarness(op)
        for i in range(10):
            h.feed(0, float(i), {"v": i / 10})
        h.run()
        assert op.observed_selectivity == pytest.approx(0.5)

    def test_selectivity_nan_before_input(self):
        op = Select("s", lambda p: True)
        assert op.observed_selectivity != op.observed_selectivity


class TestProject:
    def test_projects_fields(self):
        op = Project("p", ["a", "c"])
        h = OpHarness(op)
        h.feed(0, 1.0, {"a": 1, "b": 2, "c": 3})
        h.run()
        assert h.output_data()[0].payload == {"a": 1, "c": 3}

    def test_missing_field_raises(self):
        op = Project("p", ["a", "z"])
        h = OpHarness(op)
        h.feed(0, 1.0, {"a": 1})
        with pytest.raises(SchemaError, match="missing"):
            h.run()

    def test_non_mapping_payload_raises(self):
        op = Project("p", ["a"])
        h = OpHarness(op)
        h.feed(0, 1.0, (1, 2))
        with pytest.raises(SchemaError, match="mapping"):
            h.run()

    def test_empty_field_list_rejected(self):
        with pytest.raises(SchemaError):
            Project("p", [])

    @pytest.mark.parametrize("payload, message", [
        ({"a": 1}, "projection 'p': payload missing fields ['z', 'y']"),
        (defaultdict(int, a=1),
         "projection 'p': payload missing fields ['z', 'y']"),
        ((1, 2), "projection 'p': payload must be a mapping, got tuple"),
    ])
    def test_scalar_and_block_paths_raise_the_same_message(self, payload,
                                                           message):
        """The exact-dict fast path finds out from a KeyError, every other
        mapping from a membership test; the caller cannot tell which ran."""
        op = Project("p", ["a", "z", "y"])
        with pytest.raises(SchemaError) as scalar:
            op.apply(DataTuple(ts=1.0, payload=payload), None)
        block = ColumnarBlock.from_tuples(
            [DataTuple(ts=1.0, payload={"a": 0, "z": 0, "y": 0}),
             DataTuple(ts=2.0, payload=payload)])
        with pytest.raises(SchemaError) as columnar:
            op.apply_block(block, None)
        assert str(scalar.value) == str(columnar.value) == message

    def test_defaultdict_payload_never_fabricates_a_field(self):
        payload = defaultdict(int, a=1)
        with pytest.raises(SchemaError, match="missing"):
            Project("p", ["a", "z"]).apply(
                DataTuple(ts=1.0, payload=payload), None)
        assert "z" not in payload

    def test_non_dict_mapping_is_projected(self):
        op = Project("p", ["a"])
        payload = MappingProxyType({"a": 1, "b": 2})
        block = ColumnarBlock.from_tuples([DataTuple(ts=1.0, payload=payload)])
        assert op.apply_block(block, None).payloads == [{"a": 1}]
        assert op.apply(block.row(0), None)[0].payload == {"a": 1}

    def test_punctuation_passes_through(self):
        op = Project("p", ["a"])
        h = OpHarness(op)
        h.feed_punctuation(0, 3.0)
        h.run()
        assert h.drain_output()[0].is_punctuation


class TestMap:
    def test_transforms_payload(self):
        op = Map("m", lambda p: {"double": p["v"] * 2})
        h = OpHarness(op)
        h.feed(0, 1.0, {"v": 21})
        h.run()
        assert h.output_data()[0].payload == {"double": 42}

    def test_one_to_one(self):
        op = Map("m", lambda p: p)
        h = OpHarness(op)
        for i in range(5):
            h.feed(0, float(i), {"v": i})
        h.run()
        assert len(h.output_data()) == 5


class TestFlatMap:
    def test_expands_payloads(self):
        op = FlatMap("f", lambda p: [p["v"]] * p["n"])
        h = OpHarness(op)
        h.feed(0, 1.0, {"v": "x", "n": 3})
        h.feed(0, 2.0, {"v": "y", "n": 0})
        h.run()
        out = h.output_data()
        assert [t.payload for t in out] == ["x", "x", "x"]

    def test_outputs_share_input_timestamp(self):
        op = FlatMap("f", lambda p: [1, 2])
        h = OpHarness(op)
        h.feed(0, 9.0, {})
        h.run()
        assert all(t.ts == 9.0 for t in h.output_data())

    def test_punctuation_passes_through(self):
        op = FlatMap("f", lambda p: [p])
        h = OpHarness(op)
        h.feed_punctuation(0, 1.0)
        h.run()
        assert h.drain_output()[0].is_punctuation


class TestMoreCondition:
    def test_more_reflects_input(self):
        op = Select("s", lambda p: True)
        h = OpHarness(op)
        assert not op.more()
        h.feed(0, 1.0, {})
        assert op.more()
        h.run()
        assert not op.more()

    def test_yield_reflects_output(self):
        op = Select("s", lambda p: True)
        h = OpHarness(op)
        h.feed(0, 1.0, {})
        h.run()
        assert op.has_yield()
        h.drain_output()
        assert not op.has_yield()
