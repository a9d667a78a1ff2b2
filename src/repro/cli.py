"""Command-line interface: run scenarios, the claim catalogue, and query
programs.

Examples::

    python -m repro scenario C --duration 120
    python -m repro scenario B --heartbeat-rate 100 --join
    python -m repro validate
    python -m repro trace --format chrome --out trace.json
    python -m repro metrics --format prometheus
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
    ReproError,
    ScenarioConfig,
    build_join_scenario,
    build_union_scenario,
    compile_query,
    constant_arrivals,
    format_table,
    poisson_arrivals,
    run_join_experiment,
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
        help="regenerate the full evaluation, print Figures 7 and 8 and the "
             "idle-waiting table, and check every paper (E), guarantee (R, "
             "S) and ablation (X) claim EXPERIMENTS.md states; exit 1 on "
             "any FAIL",
        description="The options size the Section-6 sweep behind the "
                    "figures and the E rows; the R, S and X rows always run "
                    "the fixed workloads EXPERIMENTS.md quotes.")
    validate.add_argument("--duration", type=float, default=120.0)
    validate.add_argument("--sweep-duration", type=float, default=40.0)
    validate.add_argument("--seed", type=int, default=42)
    validate.add_argument("--rates", type=str,
                          default="0.1,1,10,100,1000,4000")

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
                             seed=args.seed, heartbeat_rates=rates,
                             show=print)
    print(format_claims(results))
    return 0 if all(r.passed for r in results) else 1


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
    declared = [source.name for source in pipeline.graph.sources()]

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
        "profile": _cmd_profile,
        "dot": _cmd_dot,
        "validate": _cmd_validate,
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
