"""Bench X5: raw engine throughput of the Python implementation.

Not a paper artefact — this measures the reproduction itself: how many
tuples per wall-clock second the DFS engine pushes through the paper's
query graph (filters + union + sink, on-demand ETS, full metrics).  It uses
pytest-benchmark's normal multi-round machinery since each run is short.
"""

from __future__ import annotations

from repro.sim.cost import CostModel
from repro.workloads.scenarios import ScenarioConfig, build_union_scenario

from record import record_bench

TUPLES_TARGET = 3000
# 100 tuples/s for 30 simulated seconds ≈ 3000 tuples per run
CFG = dict(scenario="C", duration=30.0, rate_fast=100.0, rate_slow=1.0,
           seed=42, cost_model=CostModel.zero())


def run_once() -> int:
    handles = build_union_scenario(ScenarioConfig(**CFG)).run()
    return handles.sink.delivered


def test_engine_throughput(benchmark):
    delivered = benchmark(run_once)
    assert delivered > TUPLES_TARGET * 0.8
    mean_s = benchmark.stats.stats.mean
    print(f"\nX5 — engine throughput: {delivered / mean_s:,.0f} "
          f"delivered tuples per wall second "
          f"({delivered} tuples in {mean_s * 1e3:.1f} ms)")
    record_bench(
        "throughput",
        {"delivered_tuples": delivered, "mean_run_s": round(mean_s, 4),
         "delivered_per_s": round(delivered / mean_s)},
        workload=CFG | {"cost_model": "zero"})

