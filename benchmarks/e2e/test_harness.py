"""Tests of the benchmark harness itself (not collected by tier-1).

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_harness.py -q

* schema — ``BENCHMARK.json`` is well-formed, names what the harness has,
  and a run emits every metric it names with its unit;
* determinism — the same seed gives the same feed, digests and exact
  counts; another seed gives another feed;
* span tree — children nest inside their parents and self times sum to
  the root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run._import_harness()

from check import Checks, Digest, digest_records  # noqa: E402
from tracing import CHUNK_LABEL, ROOT_LABEL, Tracer, layer_values  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def small(name: str, seed: int = 3):
    return workloads.WORKLOADS[name](seed, run.SMOKE_SCALE)


# ---------------------------------------------------------------------- #
# Schema


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOAD_NAMES
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(run.SPEC_PATH.read_bytes()) <= 64 * 1024


def test_spec_names_the_harness_workloads():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def smoke_results():
    """One smoke run per workload and trace mode, each in its own process
    exactly as the driver starts it."""
    return {(name, trace): run._run_subprocess(name, 2, trace=trace,
                                               smoke=True)
            for name in WORKLOAD_NAMES for trace in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_named_metric_is_emitted(smoke_results, name, trace, section):
    result = smoke_results[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for metric, body in result["metrics"].items():
        assert set(body) == {"value", "unit"}
        assert body["unit"] == expected[metric]
        assert isinstance(body["value"], (int, float))
        if trace == 0:
            assert body["value"] > 0, f"{metric} must never be 0"


def test_traced_run_exercises_the_predicted_layers(smoke_results):
    """Each workload's own layers are busy; the others' report 0."""
    def value(name, metric):
        return smoke_results[name, 1]["metrics"][metric]["value"]

    assert value("stateful-plan", "core.operators.join.busy_s") > 0
    assert value("stateful-plan", "shard.backends.apply_s") == 0
    assert value("stateless-chain", "core.operators.join.busy_s") == 0
    assert value("stateless-chain", "core.operators.source.ingest_s") > 0
    assert value("sparse-union-ets", "sim.kernel.self_s") > 0
    assert value("sparse-union-ets", "sim_latency_ms_mean") > 0
    assert value("sparse-union-ets", "core.ets.injected") > 0
    assert value("sharded-join", "shard.backends.pickle_s") > 0
    assert value("sharded-join", "shard.engine.serial_p1_tuples_per_s") > 0
    assert value("elastic-durable", "recovery.wal.appends") > 0
    assert value("elastic-durable", "reshard_pause_ms") > 0
    assert value("elastic-durable", "recover_ms") > 0
    assert value("elastic-durable", "shard.elastic.replay_s") > 0
    for name in WORKLOAD_NAMES:
        assert value(name, "failed_fraction") == 0
        assert value(name, "driver.trace_overhead_ratio") > 0


def test_harness_refuses_to_run_without_the_library(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files: non-zero exit, no result line."""
    import shutil
    import subprocess
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "stateful-plan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ---------------------------------------------------------------------- #
# Determinism


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_digest_and_counts(name):
    results = []
    for _ in range(2):
        workload = small(name)
        capture = Digest()
        drive = workload.drive(workload.build(capture=capture))
        digest = Checks().drive("drive", drive, capture)
        results.append((workload.chunks, drive.fingerprint, digest,
                        drive.delivered))
    assert results[0] == results[1]
    assert results[0][3] > 0
    assert small(name, seed=4).chunks != results[0][0]


def test_checks_catch_a_wrong_answer():
    workload = small("sharded-join")
    drive = workload.drive(workload.build())
    checks = Checks()
    good = checks.drive("drive", drive)
    assert not checks.failed
    tampered = list(drive.records)
    tampered[0], tampered[-1] = tampered[-1], tampered[0]
    assert digest_records(tampered) == good  # canonical: order-free
    drive.records = tampered
    checks.drive("tampered order", drive)
    assert any("timestamp-ordered" in f for f in checks.failed)
    assert digest_records(tampered[1:]) != good


# ---------------------------------------------------------------------- #
# Span tree


@pytest.mark.parametrize("name", ["stateful-plan", "elastic-durable"])
def test_span_tree_nests_and_self_times_sum_to_root(name):
    workload = small(name)
    tracer = Tracer()
    tracer.calibrate(2_000)
    assert len(tracer.start) == 0, "calibration spans must be discarded"
    tracer.install()
    try:
        drive = workload.drive(workload.build(), tracer)
    finally:
        tracer.uninstall()
    n, root = tracer.spans, 0
    assert n > 1_000 and tracer.stack == [-1]
    assert tracer.labels[tracer.label[root]] == ROOT_LABEL
    for i in range(n):
        parent = tracer.parent[i]
        assert tracer.end[i] >= tracer.start[i]
        if i != root:
            assert 0 <= parent < i
            assert tracer.start[parent] <= tracer.start[i]
            assert tracer.end[i] <= tracer.end[parent]
    summary = tracer.summarize()
    layers = summary["layers"]
    own = sum(row["self_s"] for row in layers.values())
    assert own == pytest.approx(summary["wall_s"], rel=0.01)
    assert layers[CHUNK_LABEL]["calls"] == len(drive.chunk_s)
    assert summary["net_wall_s"] <= summary["wall_s"]
    values = layer_values(summary, tracer.counts, drive)
    assert 0.5 < values["driver.layer_coverage"] <= 1.0


def test_uninstall_restores_every_patched_callable():
    from repro.core.buffers import StreamBuffer
    before = StreamBuffer.__dict__["push"]
    tracer = Tracer().install()
    assert StreamBuffer.__dict__["push"] is not before
    tracer.uninstall()
    assert StreamBuffer.__dict__["push"] is before
