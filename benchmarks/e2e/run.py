"""The repo's benchmark: feed -> sink, five workloads, one JSON line.

    python3 benchmarks/e2e/run.py --workload stateful-plan --seed 1 \
        --seconds 14 --trace 0

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric named
in ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Other entry points:

    run.py --layers                 isolated per-layer microbenches
    run.py set OUT.json             a full set (every workload x seeds)
    run.py compare A.json B.json    two sets -> better/same/worse/unresolved
    run.py summarize                traced summaries -> markdown

See README.md for the protocol, the metric glossary and the noise rules.
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Timed drives per run: at least MIN_REPEATS, then until ``--seconds`` of
#: measuring have passed, never more than MAX_REPEATS.
MIN_REPEATS = 5
MAX_REPEATS = 12
#: Untraced drives a ``--trace 1`` run times as the tracer's baseline.
TRACE_BASELINE_REPEATS = 3
SMOKE_SCALE = 1 / 16


def _import_harness():
    """Import the library and the harness modules; fails (non-zero exit, no
    result line) where the checkout holds no ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.api import set_numpy
    import workloads
    # The one engine knob the benchmark pins, recorded here: pure-Python
    # column layout, so numbers do not depend on whether numpy is present.
    set_numpy(False)
    return workloads


def percentile(values: list[float], q: float) -> float:
    """The q-quantile by linear interpolation (q in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Largest resident set of any process of the workload, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def quiet_drive(drives) -> list[float]:
    """The run's *quiet drive*: per chunk, the lower quartile over the timed
    drives of its time in reference seconds.

    Disturbances on a shared machine only ever add time, so of the handful
    of times each chunk was driven the low ones are the program's own; the
    lower quartile (not the minimum) leaves room for one lucky outlier.
    All three time metrics are read off this one series.
    """
    series = [drive.probe.reference() for drive in drives]
    rank = (len(series) - 1) // 4
    return [sorted(times)[rank] for times in zip(*series)]


def timed_repeats(workload, checks, reference, digest, *, seconds: float,
                  min_repeats: int, max_repeats: int):
    """The timed drives: fresh plan each, GC off inside, collect between."""
    drives, build_s = [], []
    first_ingest = None
    measured = 0.0
    gc_was_enabled = gc.isenabled()
    try:
        while len(drives) < min_repeats or (
                measured < seconds and len(drives) < max_repeats):
            gc.enable()
            gc.collect()
            gc.disable()
            started = perf_counter()
            plan = workload.build()
            built = perf_counter()
            build_s.append(built - started)
            if first_ingest is None:
                first_ingest = built
            drive = workload.drive(plan)
            measured += perf_counter() - started
            checks.repeat(len(drives), drive, reference, digest)
            # Checked.  Keep the measurements, drop the outputs and the
            # live engine: peak RSS must not grow with the number of drives.
            drive.records = None
            drive.handles = {"compile_s": drive.handles["compile_s"]}
            drives.append(drive)
    finally:
        if gc_was_enabled:
            gc.enable()
    return drives, build_s, first_ingest


def _spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """One run of one workload: the result object of the last stdout line."""
    workloads = _import_harness()
    imported = perf_counter()
    workload = workloads.WORKLOADS[name](seed, SMOKE_SCALE if smoke else 1.0)
    generated = perf_counter()
    try:
        return _measure(workload, seconds, trace, imported, generated)
    finally:
        # Durable workloads keep their state under .out/state/<pid>.
        shutil.rmtree(workloads.OUT_DIR / "state" / str(os.getpid()),
                      ignore_errors=True)


def _measure(workload, seconds: float, trace: bool, imported: float,
             generated: float) -> dict:
    from check import Checks, Digest
    from workloads import PROBE_NOMINAL_S
    name, seed = workload.name, workload.seed
    checks = Checks()
    values: dict[str, float] = {}

    # Warm-up drive, which is also the fully verified one: the sink hands
    # every delivery to a streaming digest.
    capture = Digest()
    reference = workload.drive(workload.build(capture=capture))
    digest = checks.drive("verified drive", reference, capture)
    reference.records = None
    reference.handles = {k: v for k, v in reference.handles.items()
                         if k == "recovered_ingests"}
    warm = perf_counter()

    drives, build_s, first_ingest = timed_repeats(
        workload, checks, reference, digest, seconds=seconds,
        min_repeats=TRACE_BASELINE_REPEATS if trace else MIN_REPEATS,
        max_repeats=TRACE_BASELINE_REPEATS if trace else MAX_REPEATS)
    workload.verify(checks, reference, digest)

    def median_of(get) -> float:
        return statistics.median(get(d) for d in drives)

    quiet = quiet_drive(drives)
    values["tuples_per_s"] = drives[0].arrivals / sum(quiet)
    values["chunk_ms_p50"] = percentile(quiet, 0.50) * 1e3
    values["chunk_ms_p95"] = percentile(quiet, 0.95) * 1e3
    # Process start to first timed ingest, with the part a run repeats (plan
    # compile + engine construction) taken as the median over its repeats.
    values["setup_s"] = ((first_ingest - _PROCESS_START) - build_s[0]
                         + statistics.median(build_s))
    for extra in ("sim_latency_ms_mean", "reshard_pause_ms", "recover_ms"):
        if extra in drives[0].extras:
            values[extra] = median_of(lambda d: d.extras[extra])
    if "sim_latency_ms_mean" in values:
        checks.expect("sim_latency_ms_mean repeats exactly",
                      len({d.extras["sim_latency_ms_mean"]
                           for d in drives}) == 1)

    chunks = sum(len(d.chunk_s) for d in drives) + len(reference.chunk_s)
    attempted = chunks + checks.attempted
    values["failed_fraction"] = len(checks.failed) / attempted

    if trace:
        from tracing import traced_metrics
        values.update(traced_metrics(workload, drives, seed=seed))
        values["driver.chunk_ms_p99"] = percentile(quiet, 0.99) * 1e3
        values["driver.raw_tuples_per_s"] = median_of(
            lambda d: d.arrivals / d.wall_s)
        values["driver.speed_factor"] = statistics.median(
            sample / PROBE_NOMINAL_S
            for d in drives for sample in d.probe.samples)
        values["query.compile_s"] = median_of(
            lambda d: d.handles["compile_s"])
    values["peak_rss_mb"] = peak_rss_mb()

    timeline = {"import_s": imported - _PROCESS_START,
                "feed_s": generated - imported,
                "warmup_s": warm - generated,
                "repeats": len(drives),
                "total_s": perf_counter() - _PROCESS_START}
    print(f"# {name} seed={seed} {timeline}", file=sys.stderr)
    for failure in checks.failed:
        print(f"# FAILED {failure}", file=sys.stderr)

    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for metric in _spec()[section]:
        if metric["name"] not in values and not trace:
            raise SystemExit(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0.0),
                                   "unit": metric["unit"]}
    return {"correct": not checks.failed, "attempted": attempted,
            "failed": len(checks.failed), "metrics": metrics}


def _run_subprocess(workload: str, seed: int, *, seconds: float | None = None,
                    trace: int = 0, smoke: bool = False) -> dict:
    """One benchmark run in a process of its own (set-up time and peak RSS
    are per-process metrics); returns its parsed result line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_result(workload: str, result: dict) -> None:
    """Every metric by name with its unit, one per line (stderr)."""
    status = "ok" if result["correct"] else "FAILED"
    print(f"{workload}: {status} ({result['failed']} of "
          f"{result['attempted']} failed)", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)


def run_smoke(seed: int, trace: int) -> int:
    """Every workload at 1/16 size, minimum repeats."""
    ok = True
    for workload in _spec()["workloads"]:
        result = _run_subprocess(workload["name"], seed, trace=trace,
                                 smoke=True)
        print_result(workload["name"], result)
        print(json.dumps({"workload": workload["name"], **result}))
        ok = ok and result["correct"]
    return 0 if ok else 1


def parse_seeds(text: str) -> list[int]:
    """``1-10`` or ``1,2,5``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_set(out: Path, seeds: list[int], names: list[str],
            seconds: float | None) -> int:
    """A full set: every workload on every seed, seed-major so that slow
    drift of the machine spreads over all workloads alike."""
    runs = []
    for seed in seeds:
        for name in names:
            started = perf_counter()
            result = _run_subprocess(name, seed, seconds=seconds)
            runs.append({"workload": name, "seed": seed, "result": result})
            print(f"# {name} seed={seed} {perf_counter() - started:.1f}s "
                  f"correct={result['correct']}", file=sys.stderr)
            out.write_text(json.dumps({"runs": runs}, indent=1))
    return 0 if all(r["result"]["correct"] for r in runs) else 1


def _series(path: Path) -> dict[tuple[str, str], list[float]]:
    series: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(path.read_text())["runs"]:
        for name, metric in run["result"]["metrics"].items():
            series.setdefault((run["workload"], name), []).append(
                metric["value"])
    return series


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def compare(base_path: Path, new_path: Path) -> int:
    """One row per workload x end-to-end metric; non-zero on a regression.

    ``worse``: the new median is worse than the base's by more than the
    metric's bound.  ``unresolved``: either set's spread exceeds the bound,
    so the sets cannot say.  ``better``: improved by more than the base's
    own spread.  Ratios are new / base.
    """
    spec = _spec()
    base, new = _series(base_path), _series(new_path)
    print(f"{'workload':18s} {'metric':14s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s} {'new/base':>9s} {'spread':>13s} "
          f"verdict")
    bad = 0
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (workload["name"], metric["name"])
            if key not in base or key not in new:
                continue
            a, b = quartiles(base[key]), quartiles(new[key])
            noise_a, noise_b = spread(base[key]), spread(new[key])
            ratio = b[1] / a[1]
            worsening = (ratio - 1.0) if metric["better"] == "lower" \
                else (1.0 - ratio)
            if max(noise_a, noise_b) > metric["bound"] \
                    and metric["name"] != "setup_s":
                verdict = "unresolved"
            elif worsening > metric["bound"]:
                verdict = "worse"
            elif -worsening > noise_a:
                verdict = "better"
            else:
                verdict = "same"
            bad += verdict in ("worse", "unresolved")
            print(f"{key[0]:18s} {key[1]:14s} "
                  f"{a[1]:>12.5g} [{a[0]:>9.5g}, {a[2]:>9.5g}] "
                  f"{b[1]:>12.5g} [{b[0]:>9.5g}, {b[2]:>9.5g}] "
                  f"{ratio:>9.4f} {noise_a:>6.1%}/{noise_b:<6.1%} {verdict}")
    return 1 if bad else 0


def summarize(paths: list[Path]) -> int:
    """Render traced summaries (``.out/trace-*.json``) as markdown."""
    out_dir = HERE / ".out"
    for path in paths or sorted(out_dir.glob("trace-*.json")):
        doc = json.loads(path.read_text())
        net = doc["net_wall_s"]
        metrics = doc["metrics"]
        print(f"### {doc['workload']} (seed {doc['seed']}, "
              f"{doc['arrivals']:,} arrivals)\n")
        print(f"untraced wall {doc['untraced_wall_s']:.3f} s, traced "
              f"{doc['wall_s']:.3f} s (`driver.trace_overhead_ratio` "
              f"{metrics['driver.trace_overhead_ratio']:.2f}), "
              f"{doc['spans']:,} spans, layer self times cover "
              f"{metrics['driver.layer_coverage']:.1%} of the net wall.\n")
        print("| span | calls | self s (net) | share | inclusive s (net) |")
        print("|---|---:|---:|---:|---:|")
        rows = sorted(doc["layers"].items(),
                      key=lambda item: -item[1]["net_self_s"])
        for label, row in rows:
            print(f"| `{label}` | {row['calls']:,} | "
                  f"{row['net_self_s']:.3f} | "
                  f"{row['net_self_s'] / net:.1%} | "
                  f"{row['net_total_s']:.3f} |")
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if argv and argv[0] == "summarize":
        return summarize([Path(p) for p in argv[1:]])
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    if argv and argv[0] == "set":
        parser.add_argument("out", type=Path)
        parser.add_argument("--seeds", type=parse_seeds, default="1-10")
        parser.add_argument("--workloads", nargs="+", choices=names,
                            default=names)
        parser.add_argument("--seconds", type=float, default=None)
        args = parser.parse_args(argv[1:])
        return run_set(args.out, args.seeds, args.workloads, args.seconds)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/16-size feeds, minimum repeats; without "
                             "--workload, every workload")
    parser.add_argument("--layers", action="store_true",
                        help="isolated per-layer microbenches (ns/op)")
    args = parser.parse_args(argv)
    if args.layers:
        _import_harness()
        from layers import run_layers
        rows = run_layers()
        for name, value in rows.items():
            print(f"  {name:48s} {value:>14.1f} ns/op", file=sys.stderr)
        print(json.dumps(rows))
        return 0
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required (or --smoke for all)")
        return run_smoke(args.seed, args.trace)
    seconds = args.seconds if args.seconds is not None else (
        0.0 if args.smoke else float(spec["run_seconds"]))
    result = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace), args.smoke)
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
