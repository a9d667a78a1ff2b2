"""Command-line interface: run scenarios, figures, and query programs.

Examples::

    python -m repro scenario C --duration 120
    python -m repro scenario B --heartbeat-rate 100 --join
    python -m repro figure 7 --sweep-duration 40
    python -m repro idle --heartbeat-rate 100
    python -m repro trace --format chrome --out trace.json
    python -m repro metrics --format prometheus
    python -m repro recover --crash-at 30 --checkpoint-every 50
    python -m repro run query.esl --until 60 --source fast:poisson:50 \\
        --source slow:poisson:0.05 --ets on-demand

The CLI is a thin veneer over the :mod:`repro.api` facade — everything it
prints can be produced programmatically with the same public names.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Sequence

from .api import (
    SCENARIOS,
    ChromeTraceExporter,
    ExperimentResult,
    JsonlExporter,
    MetricsRegistry,
    NoEts,
    OnDemandEts,
    Pipeline,
    QueryGraph,
    ElasticShardedEngine,
    ShardedEngine,
    TimestampKind,
    WindowJoin,
    WindowSpec,
    ReproError,
    ScenarioConfig,
    build_join_scenario,
    build_union_scenario,
    compile_query,
    constant_arrivals,
    format_figure7,
    format_figure8,
    format_idle_table,
    format_table,
    idle_waiting_table,
    poisson_arrivals,
    run_join_experiment,
    run_sweep,
    run_union_experiment,
    uniform_value_payloads,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Optimizing Timestamp Management in "
                    "Data Stream Management Systems' (ICDE 2007)")
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser(
        "scenario", help="run one of the paper's scenarios A/B/C/D")
    scenario.add_argument("name", choices=SCENARIOS)
    scenario.add_argument("--duration", type=float, default=120.0,
                          help="simulated seconds (default 120)")
    scenario.add_argument("--rate-fast", type=float, default=50.0)
    scenario.add_argument("--rate-slow", type=float, default=0.05)
    scenario.add_argument("--heartbeat-rate", type=float, default=None,
                          help="periodic-ETS rate (required for scenario B)")
    scenario.add_argument("--seed", type=int, default=42)
    scenario.add_argument("--join", action="store_true",
                          help="use the window-join variant of the query")
    scenario.add_argument("--strict", action="store_true",
                          help="use the strict Fig.-1 IWP gating (ablation)")

    figure = sub.add_parser(
        "figure", help="regenerate paper figure 7 or 8")
    figure.add_argument("number", type=int, choices=(7, 8))
    figure.add_argument("--duration", type=float, default=120.0)
    figure.add_argument("--sweep-duration", type=float, default=40.0)
    figure.add_argument("--seed", type=int, default=42)
    figure.add_argument("--rates", type=str,
                        default="0.1,1,10,100,1000",
                        help="comma-separated periodic-ETS rates for line B")

    idle = sub.add_parser(
        "idle", help="regenerate the Section-6 idle-waiting table")
    idle.add_argument("--duration", type=float, default=120.0)
    idle.add_argument("--heartbeat-rate", type=float, default=100.0)
    idle.add_argument("--seed", type=int, default=42)

    profile = sub.add_parser(
        "profile", help="run a scenario and print the operator load profile")
    profile.add_argument("name", choices=SCENARIOS)
    profile.add_argument("--duration", type=float, default=60.0)
    profile.add_argument("--rate-fast", type=float, default=50.0)
    profile.add_argument("--rate-slow", type=float, default=0.05)
    profile.add_argument("--heartbeat-rate", type=float, default=None)
    profile.add_argument("--seed", type=int, default=42)

    dot = sub.add_parser(
        "dot", help="compile a query-language program and print Graphviz DOT")
    dot.add_argument("program", help="path to the .esl program file")

    validate = sub.add_parser(
        "validate",
        help="regenerate the full evaluation and check every paper (E) and "
             "ablation (X) claim EXPERIMENTS.md states; exit 1 on any FAIL",
        description="The options size the Section-6 sweep behind the E "
                    "rows; the ablations behind the X rows always run the "
                    "fixed workloads EXPERIMENTS.md quotes.")
    validate.add_argument("--duration", type=float, default=120.0)
    validate.add_argument("--sweep-duration", type=float, default=40.0)
    validate.add_argument("--seed", type=int, default=42)
    validate.add_argument("--rates", type=str,
                          default="0.1,1,10,100,1000,4000")

    chaos = sub.add_parser(
        "chaos",
        help="fault-inject the union scenario and report recovery metrics")
    chaos.add_argument("--duration", type=float, default=120.0,
                       help="simulated seconds (default 120)")
    chaos.add_argument("--rate-fast", type=float, default=50.0)
    chaos.add_argument("--rate-slow", type=float, default=0.5)
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument("--external", action="store_true",
                       help="externally timestamped streams + skew-bound ETS")
    chaos.add_argument("--outage-start", type=float, default=30.0)
    chaos.add_argument("--outage-duration", type=float, default=30.0)
    chaos.add_argument("--outage-mode", choices=("drop", "defer"),
                       default="drop")
    chaos.add_argument("--skew-spike", type=float, default=0.0,
                       help="clock-skew spike magnitude in seconds (0 = off)")
    chaos.add_argument("--drop-probability", type=float, default=0.0)
    chaos.add_argument("--stall-timeout", type=float, default=2.0,
                       help="silence before a source is degraded")
    chaos.add_argument("--heartbeat-period", type=float, default=0.5,
                       help="fallback heartbeat period once degraded")
    chaos.add_argument("--quarantine", choices=("raise", "drop", "clamp"),
                       default="clamp")
    chaos.add_argument("--base-ets", choices=("on-demand", "none"),
                       default="on-demand",
                       help="healthy-path ETS policy under the ladder")
    chaos.add_argument("--no-degrade", action="store_true",
                       help="baseline: on-demand ETS without the fallback "
                            "ladder")
    chaos.add_argument("--batch-size", type=int, default=1,
                       help="engine run width: 1 = scalar path, N > 1 = "
                            "columnar blocks of up to N rows")
    chaos.add_argument("--crash-at", type=float, default=None,
                       help="crash-stop the process at this instant and "
                            "recover from durable state instead of running "
                            "the outage plan (see 'repro recover')")
    chaos.add_argument("--checkpoint-every", type=int, default=50,
                       help="with --crash-at: checkpoint every N engine "
                            "rounds")
    chaos.add_argument("--state-dir", type=str, default=None,
                       help="with --crash-at: checkpoint/WAL directory "
                            "(default: a temp directory, removed after)")
    chaos.add_argument("--overload", action="store_true",
                       help="run the overload squeeze (load spike + slow "
                            "sink) instead of the outage plan, comparing "
                            "open- vs closed-loop backpressure")
    chaos.add_argument("--spike-start", type=float, default=10.0)
    chaos.add_argument("--spike-duration", type=float, default=20.0)
    chaos.add_argument("--spike-factor", type=float, default=6.0,
                       help="arrival-rate multiplier during the spike")
    chaos.add_argument("--sink-extra", type=float, default=0.004,
                       help="extra seconds per sink step during the spike")
    chaos.add_argument("--high-watermark", type=int, default=48,
                       help="buffer depth activating the feedback "
                            "controller (closed-loop run)")
    chaos.add_argument("--open-loop-only", action="store_true",
                       help="with --overload: skip the closed-loop run")

    recover = sub.add_parser(
        "recover",
        help="crash-stop + recovery demonstration: run the union scenario, "
             "kill it mid-run, recover from checkpoint + WAL, and verify "
             "the combined output is byte-identical to an uncrashed run")
    recover.add_argument("--duration", type=float, default=60.0)
    recover.add_argument("--crash-at", type=float, default=30.0,
                         help="virtual-clock instant of the crash")
    recover.add_argument("--checkpoint-every", type=int, default=50,
                         help="checkpoint every N engine rounds")
    recover.add_argument("--rate-fast", type=float, default=50.0)
    recover.add_argument("--rate-slow", type=float, default=0.5)
    recover.add_argument("--seed", type=int, default=42)
    recover.add_argument("--batch-size", type=int, default=1,
                         help="engine run width: 1 = scalar path, N > 1 = "
                              "columnar blocks of up to N rows")
    recover.add_argument("--base-ets", choices=("on-demand", "none"),
                         default="on-demand")
    recover.add_argument("--state-dir", type=str, default=None,
                         help="checkpoint/WAL directory (default: a temp "
                              "directory, removed after)")
    recover.add_argument("--corrupt-latest", action="store_true",
                         help="corrupt the newest checkpoint before "
                              "recovering, demonstrating the loud fallback")
    recover.add_argument("--no-fsync", action="store_true",
                         help="skip fsync on WAL appends (faster, less "
                              "durable tail)")

    shard = sub.add_parser(
        "shard",
        help="run a keyed window-join workload on the sharded engine and "
             "verify its merged output against a single-engine run")
    shard.add_argument("--shards", type=int, default=4)
    shard.add_argument("--backend", choices=("serial", "thread", "process"),
                       default="serial")
    shard.add_argument("--tuples", type=int, default=4000,
                       help="total tuples fed across both join inputs")
    shard.add_argument("--rate", type=float, default=100.0,
                       help="arrivals per stream-second")
    shard.add_argument("--cardinality", type=int, default=64,
                       help="distinct join keys")
    shard.add_argument("--span", type=float, default=2.0,
                       help="join window span in stream seconds")
    shard.add_argument("--batch-size", type=int, default=8,
                       help="per-shard engine run width: 1 = scalar path, "
                            "N > 1 = columnar blocks of up to N rows")
    shard.add_argument("--chunk", type=int, default=32,
                       help="arrivals routed between engine wake-ups")
    shard.add_argument("--ets", choices=("none", "on-demand"),
                       default="none")
    shard.add_argument("--seed", type=int, default=42)
    shard.add_argument("--no-verify", action="store_true",
                       help="skip the single-engine differential check")
    shard.add_argument("--timeout", type=float, default=60.0,
                       help="per-shard operation timeout in seconds")
    shard.add_argument("--reshard", action="store_true",
                       help="exercise live resharding: grow to P+1 a third "
                            "of the way in, shrink back to P at two thirds, "
                            "and verify the merged output still equals the "
                            "single-engine run")

    def _add_obs_scenario_args(p: argparse.ArgumentParser,
                               default_duration: float) -> None:
        p.add_argument("name", nargs="?", choices=SCENARIOS, default="C",
                       help="scenario to instrument (default C)")
        p.add_argument("--duration", type=float, default=default_duration)
        p.add_argument("--rate-fast", type=float, default=50.0)
        p.add_argument("--rate-slow", type=float, default=0.05)
        p.add_argument("--heartbeat-rate", type=float, default=None)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--join", action="store_true",
                       help="instrument the window-join variant of the "
                            "query (exposes the join-probe counters)")
        p.add_argument("--out", type=str, default=None,
                       help="write to this path instead of stdout")

    trace = sub.add_parser(
        "trace",
        help="run a scenario with the event bus attached and export the "
             "event stream")
    _add_obs_scenario_args(trace, default_duration=5.0)
    trace.add_argument("--format", choices=("jsonl", "chrome"),
                       default="jsonl",
                       help="jsonl = one event per line; chrome = "
                            "chrome://tracing / Perfetto trace_event JSON")
    trace.add_argument("--limit", type=int, default=None,
                       help="cap on recorded events (jsonl only); hitting "
                            "it appends a terminal 'truncated' record")

    metrics = sub.add_parser(
        "metrics",
        help="run a scenario with the metrics registry attached and "
             "export the unified metrics snapshot")
    _add_obs_scenario_args(metrics, default_duration=30.0)
    metrics.add_argument("--format", choices=("table", "prometheus", "json"),
                         default="table")

    run = sub.add_parser(
        "run", help="compile and run a query-language program")
    run.add_argument("program", help="path to the .esl program file")
    run.add_argument("--until", type=float, required=True,
                     help="simulated seconds to run")
    run.add_argument("--source", action="append", default=[],
                     metavar="NAME:KIND:RATE",
                     help="arrival process per declared stream, e.g. "
                          "fast:poisson:50 or slow:constant:0.1")
    run.add_argument("--ets", choices=("on-demand", "none"),
                     default="on-demand")
    run.add_argument("--heartbeat", action="append", default=[],
                     metavar="NAME:RATE",
                     help="periodic-ETS injection on a stream")
    run.add_argument("--seed", type=int, default=42)
    return parser


def _print_result(result: ExperimentResult) -> None:
    print(format_table(ExperimentResult.row_headers(), [result.as_row()]))
    print(f"engine steps: {result.engine_steps} "
          f"(data {result.data_steps}, punctuation {result.punct_steps}); "
          f"ETS injected: {result.ets_injected}; "
          f"CPU utilization: {result.cpu_utilization:.3%}")


def _cmd_scenario(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        scenario=args.name, duration=args.duration, seed=args.seed,
        rate_fast=args.rate_fast, rate_slow=args.rate_slow,
        heartbeat_rate=args.heartbeat_rate, strict_iwp=args.strict)
    if args.join:
        result = run_join_experiment(config)
    else:
        result = run_union_experiment(config)
    _print_result(result)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    rates = tuple(float(r) for r in args.rates.split(",") if r)
    sweep = run_sweep(duration=args.duration,
                      sweep_duration=args.sweep_duration,
                      seed=args.seed, heartbeat_rates=rates)
    if args.number == 7:
        print(format_figure7(sweep))
    else:
        print(format_figure8(sweep))
    return 0


def _cmd_idle(args: argparse.Namespace) -> int:
    results = idle_waiting_table(duration=args.duration, seed=args.seed,
                                 heartbeat_rate=args.heartbeat_rate)
    print(format_idle_table(results))
    return 0


def _parse_rate_spec(flag: str, spec: str,
                     kinds: tuple[str, ...] = ()) -> tuple[str, str, float]:
    """Parse ``NAME[:KIND]:RATE``; ``KIND`` is part of the spec iff
    ``kinds`` names the allowed ones (returned as ``""`` otherwise)."""
    shape = "NAME:KIND:RATE" if kinds else "NAME:RATE"
    parts = spec.split(":")
    if len(parts) != (3 if kinds else 2) or not parts[0]:
        raise ReproError(f"bad {flag} spec {spec!r}; expected {shape}")
    kind = parts[1] if kinds else ""
    if kinds and kind not in kinds:
        raise ReproError(
            f"bad {flag} kind {kind!r} in {spec!r}; "
            f"expected {' or '.join(kinds)}")
    try:
        rate = float(parts[-1])
    except ValueError:
        raise ReproError(
            f"bad {flag} spec {spec!r}; RATE must be a number") from None
    return parts[0], kind, rate


def _cmd_profile(args: argparse.Namespace) -> int:
    from .api import format_profile, profile_simulation

    config = ScenarioConfig(
        scenario=args.name, duration=args.duration, seed=args.seed,
        rate_fast=args.rate_fast, rate_slow=args.rate_slow,
        heartbeat_rate=args.heartbeat_rate)
    handles = build_union_scenario(config).run()
    print(format_profile(
        profile_simulation(handles.sim),
        title=f"operator profile — scenario {args.name}, "
              f"{args.duration:g}s simulated"))
    print(f"union idle-waiting: "
          f"{handles.sim.idle_fraction('union'):.2%}; "
          f"peak queue {handles.sim.peak_queue_size} tuples")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    with open(args.program) as f:
        compiled = compile_query(f.read(), name=args.program)
    print(compiled.graph.to_dot())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .api import format_claims, run_validation

    rates = tuple(float(r) for r in args.rates.split(",") if r)
    results = run_validation(duration=args.duration,
                             sweep_duration=args.sweep_duration,
                             seed=args.seed, heartbeat_rates=rates)
    print(format_claims(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .api import ChaosConfig, run_chaos_experiment

    if args.overload:
        return _run_overload(args)

    if args.crash_at is not None:
        return _run_crash(
            duration=args.duration, crash_at=args.crash_at,
            checkpoint_every=args.checkpoint_every,
            rate_fast=args.rate_fast, rate_slow=args.rate_slow,
            seed=args.seed, batch_size=args.batch_size,
            base_ets=args.base_ets, state_dir=args.state_dir,
            corrupt_latest=False, fsync=True)

    config = ChaosConfig(
        duration=args.duration, rate_fast=args.rate_fast,
        rate_slow=args.rate_slow, seed=args.seed, external=args.external,
        outage_start=args.outage_start, outage_duration=args.outage_duration,
        outage_mode=args.outage_mode, skew_spike=args.skew_spike,
        drop_probability=args.drop_probability,
        stall_timeout=args.stall_timeout,
        heartbeat_period=args.heartbeat_period,
        quarantine_mode=args.quarantine, degrade=not args.no_degrade,
        base_ets=args.base_ets, batch_size=args.batch_size)
    report = run_chaos_experiment(config)
    base = ("on-demand ETS" if config.base_ets == "on-demand" else "no ETS")
    ladder = (f"{base} + fallback heartbeats"
              if config.degrade else f"{base} only (baseline)")
    print(format_table(
        ["metric", "value"], [list(r) for r in report.rows()],
        title=f"chaos: fast-stream outage "
              f"[{config.outage_start:g}s, "
              f"{config.outage_start + config.outage_duration:g}s) — "
              f"{ladder}"))
    return 0


def _run_overload(args: argparse.Namespace) -> int:
    from .api import OverloadConfig, run_overload_experiment

    def run(feedback: bool):
        config = OverloadConfig(
            duration=args.duration, rate_fast=args.rate_fast,
            rate_slow=args.rate_slow, seed=args.seed,
            base_ets=args.base_ets, batch_size=args.batch_size,
            spike_start=args.spike_start,
            spike_duration=args.spike_duration,
            spike_factor=args.spike_factor, sink_extra=args.sink_extra,
            high_watermark=args.high_watermark, feedback=feedback)
        report = run_overload_experiment(config)
        loop = "closed loop (feedback)" if feedback else "open loop"
        print(format_table(
            ["metric", "value"], [list(r) for r in report.rows()],
            title=f"overload: {args.spike_factor:g}x spike "
                  f"[{args.spike_start:g}s, "
                  f"{args.spike_start + args.spike_duration:g}s) — {loop}"))
        return report

    run(False)
    if not args.open_loop_only:
        run(True)
    return 0


def _run_crash(**kwargs) -> int:
    from .api import CrashConfig, run_crash_experiment

    config = CrashConfig(**kwargs)
    report = run_crash_experiment(config)
    print(format_table(
        ["metric", "value"], [list(r) for r in report.rows()],
        title=f"crash-stop at t={config.crash_at:g}s, recovery, resume to "
              f"t={config.duration:g}s (checkpoint every "
              f"{config.checkpoint_every} rounds)"))
    return 0 if report.identical else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    return _run_crash(
        duration=args.duration, crash_at=args.crash_at,
        checkpoint_every=args.checkpoint_every,
        rate_fast=args.rate_fast, rate_slow=args.rate_slow,
        seed=args.seed, batch_size=args.batch_size, base_ets=args.base_ets,
        state_dir=args.state_dir, corrupt_latest=args.corrupt_latest,
        fsync=not args.no_fsync)


def _cmd_shard(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    dt = 1.0 / args.rate
    feeds = []
    for i in range(args.tuples):
        t = (i + 1) * dt
        payload = {"key": rng.randrange(args.cardinality), "seq": i}
        feeds.append(("L" if i % 2 == 0 else "R", t, payload, t))

    def build() -> QueryGraph:
        graph = QueryGraph("sharded-join")
        left = graph.add_source("L", TimestampKind.EXTERNAL)
        right = graph.add_source("R", TimestampKind.EXTERNAL)
        join = graph.add(WindowJoin(
            "join", WindowSpec.time(args.span), key="key"))
        graph.connect(left, join)
        graph.connect(right, join)
        graph.connect(join, graph.add_sink("out"))
        return graph

    def policy():
        return OnDemandEts() if args.ets == "on-demand" else NoEts()

    def drive(shards: int, backend: str, observers=None, reshards=None):
        cls = ElasticShardedEngine if reshards else ShardedEngine
        engine = cls(
            build, shards=shards, key="key", backend=backend,
            ets_policy=policy, batch_size=args.batch_size,
            observers=observers, op_timeout=args.timeout)
        schedule = dict(reshards or {})
        started = time.perf_counter()
        records = []
        for index, (source, t, payload, ts) in enumerate(feeds):
            if index in schedule:
                report = engine.reshard(schedule.pop(index), reason="cli")
                records.extend(report.released)
            engine.ingest(source, payload, time=t, ts=ts)
            if (index + 1) % args.chunk == 0:
                records.extend(engine.wakeup())
        final_ts = feeds[-1][1] + 1.0
        for name in ("L", "R"):
            engine.inject_punctuation(name, final_ts, origin=f"eos:{name}")
        records.extend(engine.wakeup())
        wall = time.perf_counter() - started
        summary = engine.summary()
        reports = list(getattr(engine, "reshards", ()))
        records.extend(engine.close(flush=True))
        return records, wall, summary, reports

    reshards = None
    if args.reshard:
        # Grow at the first chunk boundary past 1/3, shrink back at 2/3.
        reshards = {int(len(feeds) * f) // args.chunk * args.chunk: target
                    for f, target in ((1 / 3, args.shards + 1),
                                      (2 / 3, args.shards))}

    registry = MetricsRegistry()
    records, wall, summary, reports = drive(args.shards, args.backend,
                                            observers=[registry],
                                            reshards=reshards)
    print(f"sharded run: P={args.shards} backend={args.backend} "
          f"ets={args.ets} batch={args.batch_size}")
    print(f"  {args.tuples} tuples in {wall:.3f}s wall "
          f"({args.tuples / wall:,.0f} tuples/s), "
          f"{len(records)} records merged, "
          f"frontier spread {summary['frontier_spread']:.3f}")
    print(f"  {'shard':>5} {'ingested':>9} {'delivered':>10} "
          f"{'frontier':>9}")
    for row in summary["per_shard"]:
        print(f"  {row['shard']:>5} {row['ingested']:>9} "
              f"{row['delivered']:>10} {row['frontier']:>9.2f}")
    released = registry.shard_released.total
    print(f"  repro_shard_released_total {released:g}")
    # The first chunk is the first wake-up segment: once its last row is
    # stamped below a reshard's floor, that reshard must have cut it.
    first_segment_ts = feeds[min(args.chunk, len(feeds)) - 1][3]
    unbounded = 0
    for report in reports:
        print(f"  reshard {report.direction}: epoch {report.epoch}, "
              f"{report.migrated_keys}/{report.total_keys} keys migrated, "
              f"replayed {report.replayed_ingests} of "
              f"{report.logged_ingests} logged ingests "
              f"(floor {report.floor:.2f}), "
              f"pause {report.pause_seconds * 1e3:.1f}ms")
        if (first_segment_ts < report.floor
                and report.replayed_ingests >= report.logged_ingests):
            unbounded += 1
    if unbounded:
        print(f"UNBOUNDED REPLAY: {unbounded} reshard(s) replayed the whole "
              f"history although rows lay below the floor", file=sys.stderr)
        return 1
    if args.no_verify:
        return 0
    reference, ref_wall, _, _ = drive(1, "serial")

    def canonical(rows):
        return sorted((r[3], r[0], repr(r[4])) for r in rows)

    if canonical(records) != canonical(reference):
        print(f"DIVERGED: sharded produced {len(records)} records, "
              f"single engine {len(reference)}", file=sys.stderr)
        return 1
    print(f"  verified: merged output equals single-engine run "
          f"({len(reference)} records; single-engine wall {ref_wall:.3f}s)")
    return 0


def _obs_config(args: argparse.Namespace, observers: list) -> ScenarioConfig:
    return ScenarioConfig(
        scenario=args.name, duration=args.duration, seed=args.seed,
        rate_fast=args.rate_fast, rate_slow=args.rate_slow,
        heartbeat_rate=args.heartbeat_rate, observers=observers)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(out, "w") as f:
            f.write(text)
        print(f"wrote {out}")


def _observer_status(sim) -> int:
    """Exit status of an export: 1 when the bus swallowed an observer
    exception, since the exported stream may then be partial."""
    errors = sim.engine.bus.error_count
    if errors:
        print(f"observer errors: {errors}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.format == "chrome":
        exporter = ChromeTraceExporter()
    else:
        exporter = JsonlExporter(capacity=args.limit)
    build = build_join_scenario if args.join else build_union_scenario
    handles = build(_obs_config(args, [exporter])).run()
    if args.format == "chrome":
        _emit(exporter.to_json(), args.out)
    else:
        _emit("\n".join(exporter.lines()) + "\n", args.out)
    sim = handles.sim
    print(f"# {sim.arrivals_delivered} arrivals, "
          f"{sim.engine.stats.steps} engine steps, "
          f"{sim.engine.stats.rounds} rounds in "
          f"{args.duration:g}s simulated", file=sys.stderr)
    return _observer_status(sim)


def _cmd_metrics(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    build = build_join_scenario if args.join else build_union_scenario
    handles = build(_obs_config(args, [registry])).run()
    registry.absorb_simulation(handles.sim)
    if args.format == "prometheus":
        _emit(registry.render_prometheus(), args.out)
    elif args.format == "json":
        _emit(json.dumps(registry.as_dict(), indent=2, sort_keys=True)
              + "\n", args.out)
    else:
        _emit(format_table(
            ["metric", "value"], [list(r) for r in registry.rows()],
            title=f"metrics — scenario {args.name}, "
                  f"{args.duration:g}s simulated") + "\n", args.out)
    return _observer_status(handles.sim)


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.program) as f:
        text = f.read()
    pipeline = Pipeline.from_program(text, name=args.program)
    pipeline.engine(
        ets_policy=OnDemandEts() if args.ets == "on-demand" else NoEts())
    declared = pipeline.compiled.sources

    def check_declared(flag: str, name: str) -> None:
        if name not in declared:
            raise ReproError(
                f"{flag} {name!r}: program declares no such stream "
                f"(has {sorted(declared)})")

    for spec in args.heartbeat:
        name, _, rate = _parse_rate_spec("--heartbeat", spec)
        check_declared("--heartbeat", name)
        pipeline.heartbeat(name, rate)

    seed = args.seed
    for spec in args.source:
        name, kind, rate = _parse_rate_spec(
            "--source", spec, kinds=("poisson", "constant"))
        check_declared("--source", name)
        payloads = uniform_value_payloads(random.Random(seed + 1))
        if kind == "poisson":
            arrivals = poisson_arrivals(rate, random.Random(seed),
                                        payloads=payloads)
        else:
            arrivals = constant_arrivals(rate, payloads=payloads)
        pipeline.feed(name, arrivals)
        seed += 2

    sim = pipeline.run(until=args.until)

    rows = [[name, sink.delivered,
             sink.mean_latency * 1e3, sink.punctuation_eliminated]
            for name, sink in pipeline.sinks.items()]
    print(format_table(
        ["sink", "delivered", "mean latency (ms)", "punctuation absorbed"],
        rows, title=f"{args.program} after {args.until:g} simulated seconds"))
    print(f"peak total queue size: {sim.peak_queue_size}; "
          f"ETS injected: {sim.engine.stats.ets_injected}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "scenario": _cmd_scenario,
        "figure": _cmd_figure,
        "idle": _cmd_idle,
        "profile": _cmd_profile,
        "dot": _cmd_dot,
        "validate": _cmd_validate,
        "chaos": _cmd_chaos,
        "recover": _cmd_recover,
        "shard": _cmd_shard,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "run": _cmd_run,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
