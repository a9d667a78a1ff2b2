"""Tests for the unified metrics registry: primitives, live counting over
the bus, absorbed end-of-run aggregates, and the Prometheus rendering."""

from __future__ import annotations

import pytest

from repro.core.ets import OnDemandEts
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.clock import VirtualClock
from repro.workloads.scenarios import ScenarioConfig, build_union_scenario


# --------------------------------------------------------------------- #
# Primitives


class TestCounter:
    def test_inc_value_total(self):
        c = Counter("hits")
        c.inc()
        c.inc(2, kind="data")
        assert c.value() == 1
        assert c.value(kind="data") == 2
        assert c.total == 3

    def test_counters_cannot_decrease(self):
        c = Counter("hits")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_unseen_labels_read_zero(self):
        assert Counter("hits").value(kind="nope") == 0


class TestGauge:
    def test_set_moves_both_ways(self):
        g = Gauge("depth")
        g.set(5)
        g.set(2)
        assert g.value() == 2

    def test_high_water_tracks_max(self):
        g = Gauge("depth", track_max=True)
        for v in (3, 9, 4):
            g.set(v)
        assert g.value() == 4
        assert g.high_water() == 9
        # the high-water samples form their own suffixed family
        suffixes = {suffix for suffix, _, _ in g.samples()}
        assert suffixes == {"", "_high_water"}


class TestHistogram:
    def test_cumulative_buckets_sum_count(self):
        h = Histogram("runs", buckets=(1, 4, 16))
        for v in (1, 1, 3, 20):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == 25
        assert h.mean() == 25 / 4
        rows = {(suffix, key): value for suffix, key, value in h.samples()}
        assert rows[("_bucket", (("le", "1"),))] == 2
        assert rows[("_bucket", (("le", "4"),))] == 3  # cumulative
        assert rows[("_bucket", (("le", "16"),))] == 3  # 20 overflows
        assert rows[("_bucket", (("le", "+Inf"),))] == 4

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(4, 1))


class TestRegistryLookup:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("my_total")
        assert reg.counter("my_total") is a
        assert reg["my_total"] is a

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")


# --------------------------------------------------------------------- #
# Live counting over the bus


def union_graph():
    g = QueryGraph("reg-union")
    fast = g.add_source("fast")
    slow = g.add_source("slow")
    u = g.add(Union("u"))
    sink = g.add_sink("sink")
    g.connect(fast, u)
    g.connect(slow, u)
    g.connect(u, sink)
    return g, fast, slow


class TestLiveCounting:
    def test_live_series_match_engine_stats(self):
        g, fast, slow = union_graph()
        reg = MetricsRegistry()
        engine = ExecutionEngine(g, VirtualClock(), ets_policy=OnDemandEts(),
                                 observers=[reg])
        engine.clock.advance_to(1.0)
        for i in range(4):
            fast.ingest({"v": i}, now=1.0)
        engine.wakeup(entry=fast)
        stats = engine.stats
        assert reg.rounds.total == stats.rounds == 1
        assert reg.steps.total == stats.steps
        assert reg.steps.value(kind="data") == stats.data_steps
        assert reg.steps.value(kind="punct") == stats.punct_steps
        assert reg.emitted.value(kind="data") == stats.emitted_data
        assert reg.ets_consultations.value(
            operator="slow", outcome="injected") == stats.ets_injected
        assert reg.punctuation_injected.value(
            operator="slow", origin="ets") == stats.ets_injected
        assert reg.nos_decisions.value(decision="backtrack") > 0
        assert reg.buffer_depth.high_water() > 0
        assert reg.buffer_depth.value() == 0  # drained at quiescence

    def test_per_operator_steps_match(self):
        g, fast, _slow = union_graph()
        reg = MetricsRegistry()
        engine = ExecutionEngine(g, VirtualClock(), observers=[reg])
        fast.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=fast)
        for op, steps in engine.stats.per_operator_steps.items():
            assert reg.operator_steps.value(operator=op) == steps

    def test_batch_run_lengths_recorded(self):
        g = QueryGraph("reg-path")
        src = g.add_source("src")
        keep = g.add(Select("keep", lambda p: True))
        sink = g.add_sink("sink")
        g.connect(src, keep)
        g.connect(keep, sink)
        reg = MetricsRegistry()
        engine = ExecutionEngine(g, VirtualClock(), batch_size=64,
                                 observers=[reg])
        for i in range(10):
            src.ingest({"v": i}, now=0.0)
        engine.wakeup(entry=src)
        assert reg.batch_run_length.count() > 0
        assert reg.batch_run_length.sum() == engine.stats.steps
        # one run step, one kind: every step of a batch_size > 1 engine
        # is published as kind="block"
        assert reg.steps.value(kind="block") == engine.stats.steps
        # a run of 10 landed in the (8, 16] bucket
        assert reg.batch_run_length.mean() > 1


# --------------------------------------------------------------------- #
# Absorbed aggregates


def _run_scenario(**over) -> tuple[MetricsRegistry, object]:
    reg = MetricsRegistry()
    config = ScenarioConfig(scenario="C", duration=8.0, seed=42,
                            rate_fast=40.0, rate_slow=0.5,
                            observers=[reg], **over)
    handles = build_union_scenario(config).run()
    return reg, handles


class TestAbsorb:
    def test_absorb_simulation_folds_every_aggregate(self):
        reg, handles = _run_scenario()
        reg.absorb_simulation(handles.sim)
        snap = reg.as_dict()
        stats = handles.sim.engine.stats
        assert snap["repro_engine_stat{field=steps}"] == stats.steps
        assert snap["repro_engine_stat{field=ets_injected}"] == \
            stats.ets_injected
        assert "repro_idle_wait_fraction{operator=union}" in snap
        assert snap["repro_queue{field=arrivals_delivered}"] == \
            handles.sim.arrivals_delivered
        assert "repro_punctuation_to_data_ratio" in snap

    def test_live_arrivals_match_kernel_count(self):
        reg, handles = _run_scenario()
        assert reg.arrivals.total == handles.sim.arrivals_delivered


# --------------------------------------------------------------------- #
# Rendering


class TestPrometheusRendering:
    def test_exposition_format_parses(self):
        """Every non-comment line is ``name{labels} value`` with the name
        matching its preceding TYPE family."""
        reg, handles = _run_scenario()
        reg.absorb_simulation(handles.sim)
        text = reg.render_prometheus()
        assert text.endswith("\n")
        typed: dict[str, str] = {}
        for line in text.strip().splitlines():
            if line.startswith("# HELP "):
                continue
            if line.startswith("# TYPE "):
                _, _, family, kind = line.split(" ")
                assert kind in ("counter", "gauge", "histogram")
                assert family not in typed, f"duplicate TYPE for {family}"
                typed[family] = kind
                continue
            name, _, value = line.partition(" ")
            float(value)  # must parse
            bare = name.partition("{")[0]
            family = bare
            for suffix in ("_bucket", "_sum", "_count"):
                if bare.endswith(suffix) and bare[:-len(suffix)] in typed:
                    family = bare[:-len(suffix)]
                    break
            assert family in typed, f"sample {name} has no TYPE"

    def test_histogram_rendering_shape(self):
        reg = MetricsRegistry()
        reg.batch_run_length.observe(3)
        text = reg.render_prometheus()
        assert "# TYPE repro_batch_run_length histogram" in text
        assert 'repro_batch_run_length_bucket{le="4"} 1' in text
        assert 'repro_batch_run_length_bucket{le="+Inf"} 1' in text
        assert "repro_batch_run_length_count 1" in text

    def test_rows_are_sorted_name_value_pairs(self):
        reg = MetricsRegistry()
        reg.rounds.inc()
        rows = reg.rows()
        assert rows == sorted(rows)
        assert ("repro_engine_rounds_total", 1) in rows
