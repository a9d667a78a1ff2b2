"""Unit tests for the symmetric window join (paper Figs. 1 and 6 semantics)."""

import pytest

from repro.core.errors import ExecutionError
from repro.core.operators import WindowJoin, merge_payloads
from repro.core.operators.join import _EmptyWindow
from repro.core.tuples import LATENT_TS, DataTuple, TimestampKind
from repro.core.windows import TimeWindow, WindowProtocol, WindowSpec

from conftest import OpHarness, data


def make_join(window: float = 10.0, **kwargs) -> tuple[WindowJoin, OpHarness]:
    op = WindowJoin("j", WindowSpec.time(window), **kwargs)
    return op, OpHarness(op, n_inputs=2)



def release(h: OpHarness, ts: float = 100.0) -> None:
    """Feed punctuation on both inputs so gated tuples can flow.

    In unit tests there is no engine (and hence no ETS policy) to unblock
    the join; an explicit punctuation plays that role.
    """
    h.feed_punctuation(0, ts)
    h.feed_punctuation(1, ts)
    h.run()

class TestMergePayloads:
    def test_disjoint_keys(self):
        assert merge_payloads({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}

    def test_colliding_keys_get_prefixes(self):
        merged = merge_payloads({"k": 1}, {"k": 2})
        assert merged == {"l_k": 1, "r_k": 2}

    def test_equal_colliding_values_kept_once(self):
        """The equi-join key survives unprefixed when both sides agree."""
        merged = merge_payloads({"k": 7, "a": 1}, {"k": 7, "b": 2})
        assert merged == {"k": 7, "a": 1, "b": 2}

    def test_non_mapping_payloads_wrapped(self):
        merged = merge_payloads(1, 2)
        assert merged == {"l": 1, "r": 2}


class TestBasicJoin:
    def test_cross_product_within_window(self):
        op, h = make_join()
        h.feed(0, 1.0, {"a": 1})
        h.feed(1, 2.0, {"b": 2})
        h.feed(0, 3.0, {"a": 3})
        h.feed(1, 4.0, {"b": 4})
        h.run()
        release(h)
        out = h.output_data()
        # 2.0 probes W(A)={1.0}; 3.0 probes W(B)={2.0}; 4.0 probes W(A)={1,3}
        assert len(out) == 4
        assert all(set(t.payload) == {"a", "b"} for t in out)

    def test_result_timestamp_is_probing_tuples(self):
        """Output tuples take their timestamps from the arriving tuple."""
        op, h = make_join()
        h.feed(0, 1.0, {"a": 1})
        h.feed(1, 5.0, {"b": 2})
        h.run()
        release(h)
        out = h.output_data()
        assert out and all(t.ts == 5.0 for t in out)

    def test_window_expiry_limits_matches(self):
        op, h = make_join(window=2.0)
        h.feed(0, 1.0, {"a": 1})
        h.feed(1, 10.0, {"b": 2})  # a@1.0 is long expired
        h.run()
        assert h.output_data() == []

    def test_equi_join_key(self):
        op, h = make_join(key="k")
        h.feed(0, 1.0, {"k": 1, "x": "a"})
        h.feed(0, 1.0, {"k": 2, "x": "b"})
        h.feed(1, 2.0, {"k": 1, "y": "c"})
        h.run()
        release(h)
        out = h.output_data()
        assert len(out) == 1
        assert out[0].payload["x"] == "a" and out[0].payload["y"] == "c"

    def test_per_side_keys(self):
        op, h = make_join(key=("ka", "kb"))
        h.feed(0, 1.0, {"ka": 7})
        h.feed(1, 2.0, {"kb": 7})
        h.feed(1, 2.0, {"kb": 8})
        h.run()
        release(h)
        assert len(h.output_data()) == 1

    def test_predicate(self):
        op, h = make_join(predicate=lambda a, b: a["v"] < b["v"])
        h.feed(0, 1.0, {"v": 5})
        h.feed(1, 2.0, {"v": 9})
        h.feed(1, 2.0, {"v": 1})
        h.run()
        release(h)
        assert len(h.output_data()) == 1

    def test_custom_combiner(self):
        op, h = make_join(combiner=lambda a, b: a["v"] + b["v"])
        h.feed(0, 1.0, {"v": 1})
        h.feed(1, 2.0, {"v": 2})
        h.run()
        release(h)
        assert h.output_data()[0].payload == 3

    def test_combiner_argument_order_is_left_right(self):
        """Left payload comes first regardless of which side probed."""
        op, h = make_join(combiner=lambda a, b: (a["side"], b["side"]))
        h.feed(1, 1.0, {"side": "R"})
        h.feed(0, 2.0, {"side": "L"})  # left side probes second
        h.run()
        release(h)
        assert h.output_data()[0].payload == ("L", "R")

    def test_needs_some_window(self):
        with pytest.raises(ExecutionError):
            WindowJoin("j")


class TestGating:
    def test_blocks_on_unknown_input(self):
        op, h = make_join()
        h.feed(0, 1.0, {})
        assert not op.more()

    def test_simultaneous_tuples_both_process(self):
        op, h = make_join()
        h.feed(0, 5.0, {"a": 1})
        h.feed(1, 5.0, {"b": 1})
        h.run()
        # one of them probes the other's window after insertion
        assert len(h.output_data()) == 1

    def test_stalled_input_index(self):
        op, h = make_join()
        h.feed(0, 1.0, {})
        assert op.stalled_input_index() == 1

    def test_strict_mode_needs_both(self):
        op, h = make_join(strict=True)
        h.feed(0, 1.0, {})
        assert not op.more()
        h.feed(1, 2.0, {})
        assert op.more()


class TestPunctuation:
    def test_punctuation_unblocks_and_propagates(self):
        op, h = make_join()
        h.feed(0, 1.0, {"a": 1})
        h.feed_punctuation(1, 5.0)
        h.run()
        out = h.drain_output()
        # data tuple at 1.0 probes empty W(B) -> no data out; but a
        # punctuation must be produced for IWP operators down the path
        assert out and all(e.is_punctuation for e in out)
        assert out[-1].ts <= 5.0

    def test_punctuation_expires_windows(self):
        """ETS shrinks join state — the memory benefit (paper Section 6)."""
        op, h = make_join(window=2.0)
        h.feed(0, 1.0, {"a": 1})
        h.feed_punctuation(1, 1.5)
        h.run()
        assert op.window_size_total == 1
        h.feed_punctuation(1, 50.0)
        h.feed_punctuation(0, 50.0)
        h.run()
        assert op.window_size_total == 0

    def test_no_data_at_tau_emits_punctuation(self):
        op, h = make_join()
        h.feed_punctuation(0, 3.0)
        h.feed_punctuation(1, 4.0)
        h.run()
        out = h.drain_output()
        assert [e.ts for e in out] == [3.0]
        assert out[0].is_punctuation

    def test_empty_join_result_still_advances_downstream(self):
        """Fig. 6: when no data tuple is produced, produce punctuation."""
        op, h = make_join(predicate=lambda a, b: False)
        h.feed(0, 1.0, {})
        h.feed(1, 2.0, {})
        h.run()
        out = h.drain_output()
        assert out and all(e.is_punctuation for e in out)


class TestLatentStamping:
    def test_latent_tuples_stamped_by_join(self):
        """Operators that require timestamps stamp latent tuples on the fly."""
        op, h = make_join()
        h.clock.t = 42.0
        h.inputs[0].push(DataTuple(ts=LATENT_TS, payload={"a": 1},
                                   kind=TimestampKind.LATENT))
        assert op.more()
        h.step()
        assert len(op.windows[0]) == 1
        stored = next(iter(op.windows[0]))
        assert stored.ts == 42.0


class TestEmptyWindow:
    def test_implements_the_full_window_protocol(self):
        w = _EmptyWindow()
        assert isinstance(w, WindowProtocol)
        assert len(w) == 0 and list(w) == []
        w.insert(data(1.0, {"a": 1}))        # writes are no-ops
        assert len(w) == 0
        assert w.expire(100.0) == 0
        assert list(w.matches(5.0)) == []    # scan-path read
        assert list(w.probe("k")) == []      # indexed-path read


class TestIndexedFastPath:
    def test_keyed_join_auto_selects_indexed_windows(self):
        op, _ = make_join(key="k")
        assert op.indexed
        assert all(isinstance(w, TimeWindow) and w.key_fn is not None
                   for w in op.windows)

    def test_indexed_false_forces_scan_layout(self):
        op, _ = make_join(key="k", indexed=False)
        assert not op.indexed
        assert all(isinstance(w, TimeWindow) and w.key_fn is None
                   for w in op.windows)

    def test_unkeyed_strict_and_asymmetric_joins_stay_scan(self):
        assert not make_join()[0].indexed
        assert not make_join(key="k", strict=True)[0].indexed
        asym = WindowJoin("j", window_left=WindowSpec.time(10.0),
                          window_right=None, key="k")
        assert not asym.indexed

    def test_indexed_true_demands_eligibility(self):
        with pytest.raises(ExecutionError):
            make_join(indexed=True)                  # no key
        with pytest.raises(ExecutionError):
            make_join(key="k", strict=True, indexed=True)
        op, _ = make_join(key="k", indexed=True)
        assert op.indexed

    def test_indexed_probes_only_the_matching_bucket(self):
        """StepResult.probes counts examined candidates: bucket vs window."""
        outputs = {}
        for mode in (False, None):
            op, h = make_join(key="k", indexed=mode)
            for i in range(8):
                h.feed(0, float(i), {"k": i % 4, "x": i})
            h.feed(1, 8.0, {"k": 2, "y": "probe"})
            h.run()
            release(h)
            outputs[mode] = [(t.ts, t.payload) for t in h.output_data()]
            # scan examines all 8 stored tuples; indexed only bucket k=2
            assert op.tuples_processed == 9
        assert outputs[False] == outputs[None]

    def test_probe_counts_differ_but_emissions_match(self):
        probes = {}
        for indexed in (False, True, None):
            _, h = make_join(key="k", indexed=indexed)
            for i in range(8):
                h.feed(0, float(i), {"k": i % 4})
            h.feed(1, 8.0, {"k": 2})
            h.feed_punctuation(0, 9.0)  # ungate the right-side probe
            probes[indexed] = []
            while h.op.more():
                r = h.step()
                if r.probes:
                    probes[indexed].append((r.probes, r.probes_emitted))
        assert probes[False] == [(8, 2)]  # whole window examined, 2 matched
        assert probes[True] == [(2, 2)]   # only the k=2 bucket examined
        assert probes[None] == [(2, 2)]   # the auto layout is that probe

    def test_residual_predicate_composes_with_key(self):
        op, h = make_join(key="k", predicate=lambda a, b: a["v"] < b["v"])
        assert op.indexed
        h.feed(0, 1.0, {"k": 1, "v": 5})
        h.feed(0, 2.0, {"k": 1, "v": 9})
        h.feed(1, 3.0, {"k": 1, "v": 7})
        h.run()
        release(h)
        out = h.output_data()
        assert len(out) == 1 and out[0].payload["l_v"] == 5


class TestAsymmetricJoin:
    def test_one_sided_window(self):
        op = WindowJoin("j", window_left=WindowSpec.time(10.0),
                        window_right=None)
        h = OpHarness(op, n_inputs=2)
        h.feed(0, 1.0, {"a": 1})   # stored in W(left)
        h.feed(1, 2.0, {"b": 2})   # probes W(left), not stored
        h.feed(0, 3.0, {"a": 3})   # probes W(right) which is empty
        h.run()
        out = h.output_data()
        assert len(out) == 1
        assert len(op.windows[1]) == 0

    def test_count_window_join(self):
        op = WindowJoin("j", WindowSpec.count(1))
        h = OpHarness(op, n_inputs=2)
        h.feed(0, 1.0, {"a": 1})
        h.feed(0, 2.0, {"a": 2})
        h.feed(1, 3.0, {"b": 1})  # W(left) holds only a@2.0
        h.run()
        release(h)
        out = h.output_data()
        assert len(out) == 1 and out[0].payload["a"] == 2


def test_block_join_materializes_no_rows(monkeypatch):
    """The stateful plan's shape — out-of-order source → Reorder → indexed
    join → strict Union with a control stream, ``batch_size`` 64: the join
    drains its inputs as columns and keeps its windows as columns, so no
    ``ColumnarBlock.to_tuples`` call is ever made on its behalf."""
    import random
    import sys

    from repro.api import (ExecutionEngine, OnDemandEts, Pipeline,
                           TimestampKind, VirtualClock)
    from repro.core.columnar import ColumnarBlock

    p = Pipeline("no-materialization")
    a = p.source("a", TimestampKind.EXTERNAL, out_of_order=True)
    b, c = p.source("b"), p.source("c")
    (a.reorder(0.05, name="reorder")
      .join(b, WindowSpec.time(0.1), key="k", indexed=True, name="join")
      .union(c, strict=True, name="strict")
      .sink("sink"))
    graph = p.compile()
    clock = VirtualClock()
    engine = ExecutionEngine(graph, clock, ets_policy=OnDemandEts(),
                             config=p.config.replace(batch_size=64))
    from_join = []
    real = ColumnarBlock.to_tuples

    def counted(block):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_filename.endswith("join.py"):
                from_join.append(block.count)
                break
            frame = frame.f_back
        return real(block)

    monkeypatch.setattr(ColumnarBlock, "to_tuples", counted)
    rng = random.Random(7)
    sources = {name: graph[name] for name in "abc"}
    for chunk in range(16):
        for i in range(chunk * 64, chunk * 64 + 64):
            when = i * 0.001
            name = "c" if i % 16 == 15 else "ab"[i % 2]
            ets = when - rng.random() * 0.02 if name == "a" else None
            clock.advance_to(when)
            sources[name].ingest({"k": rng.randrange(8), "uid": i},
                                 now=when, ts=ets, arrival=when)
        engine.wakeup()
    assert graph["join"].matches_emitted > 1000
    assert engine.stats.blocks > 0
    assert from_join == []
