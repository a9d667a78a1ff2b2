"""Claim validation: the one place a paper, guarantee or ablation claim is
stated.

``python -m repro validate`` (or a notebook) regenerates the paper's
Section-6 evaluation (E1–E5), the repository's crash-recovery and sharding
guarantees of :mod:`.guarantees` (R1–R2, S1–S3) and the ablations of
:mod:`.ablations` (X1–X4, X6–X9) and prints a claim-by-claim verdict with
the measured values EXPERIMENTS.md quotes.  Each claim is a plain
:class:`ClaimResult` row; the ``id`` column is the EXPERIMENTS.md heading it
belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..obs.report import format_table
from .ablations import run_ablations
from .figures import (SweepResult, format_figure7, format_figure8,
                      format_idle_table, idle_waiting_table, run_sweep)
from .guarantees import run_guarantees
from .overload import HIGH_WATERMARK
from .runner import ExperimentResult

__all__ = ["ClaimResult", "validate_paper_claims",
           "validate_guarantee_claims", "validate_ablation_claims",
           "format_claims", "run_validation"]


@dataclass(slots=True)
class ClaimResult:
    """Verdict on one claim of the paper's evaluation or of an ablation."""

    id: str
    claim: str
    passed: bool
    details: str


def validate_paper_claims(sweep: SweepResult,
                          idle: dict[str, ExperimentResult]) -> list[ClaimResult]:
    """Evaluate every Section-6 claim against measured results."""
    results: list[ClaimResult] = []

    def check(id: str, claim: str, passed: bool, details: str) -> None:
        results.append(ClaimResult(id, claim, bool(passed), details))

    a = sweep.baselines["A"]
    c = sweep.baselines["C"]
    d = sweep.baselines["D"]

    # Figure 7 claims ------------------------------------------------- #
    check("E1", "A idle-waits for seconds (latency ≫ 1 s)",
          a.mean_latency > 1.0,
          f"A mean latency {a.mean_latency * 1e3:.0f} ms")
    check("E1", "C is orders of magnitude below A (≥ 10³x)",
          a.mean_latency / c.mean_latency > 1e3,
          f"A/C ratio {a.mean_latency / c.mean_latency:.2e}")
    practical = sorted(r for r in sweep.periodic if r <= 100.0)
    lats = [sweep.periodic[r].mean_latency for r in practical]
    check("E1", "B latency drops regularly with injection rate (0.1-100/s)",
          all(hi > lo for hi, lo in zip(lats, lats[1:])),
          " > ".join(f"{v * 1e3:.3g}ms" for v in lats))
    best_b = min(res.mean_latency for res in sweep.periodic.values())
    check("E1", "periodic ETS cannot match on-demand",
          best_b > 2 * c.mean_latency,
          f"best B {best_b * 1e3:.3f} ms vs C {c.mean_latency * 1e3:.3f} ms")
    gap_ms = (c.mean_latency - d.mean_latency) * 1e3
    check("E2", "C within ~0.1 ms of the latent optimum D",
          0.0 <= gap_ms < 0.3,
          f"C - D = {gap_ms:.4f} ms (paper: ~0.1 ms)")

    # Idle-waiting claims --------------------------------------------- #
    check("E3", "A spends ~99 % of time idle-waiting",
          idle["A"].idle_fraction > 0.90,
          f"measured {idle['A'].idle_fraction:.2%} (paper: 99 %)")
    check("E3", "B@100/s cuts idle-waiting to the ~15 % regime",
          0.05 < idle["B"].idle_fraction < 0.40,
          f"measured {idle['B'].idle_fraction:.2%} (paper: 15 %)")
    check("E3", "C cuts idle-waiting below ~0.1 %-scale",
          idle["C"].idle_fraction < 0.005,
          f"measured {idle['C'].idle_fraction:.3%} (paper: <0.1 %)")

    # Figure 8 claims -------------------------------------------------- #
    check("E4", "A peaks at thousands of buffered tuples",
          a.peak_queue > 1000,
          f"peak {a.peak_queue} tuples")
    check("E4", "C reduces memory by more than two orders of magnitude",
          a.peak_queue / max(1, c.peak_queue) > 100,
          f"A/C peak ratio {a.peak_queue / max(1, c.peak_queue):.0f}x")
    rates = sorted(sweep.periodic)
    peaks = [sweep.periodic[r].peak_queue for r in rates]
    check("E5", "B peak memory is U-shaped in the injection rate",
          min(peaks) < peaks[0] and peaks[-1] > 3 * min(peaks),
          f"peaks over rates {rates}: {peaks}")
    return results


def validate_guarantee_claims(measured: dict[str, object]
                              ) -> list[ClaimResult]:
    """Evaluate the R1–R2, S1–S3 claims against
    :func:`~repro.experiments.guarantees.run_guarantees` measurements."""
    results: list[ClaimResult] = []

    def check(id: str, claim: str, passed: bool, details: str) -> None:
        results.append(ClaimResult(id, claim, bool(passed), details))

    def matches(run: dict) -> bool:
        return bool(run["reference"]) and run["records"] == run["reference"]

    def records(run: dict) -> str:
        return f"{len(run['records'])} of {len(run['reference'])} records"

    # R1: exactly-once across a crash-stop ----------------------------- #
    crashes = measured["R1"]
    check("R1", "crash-stop, recover, resume: output byte-identical to the "
          "uncrashed run (batch 1 and 64)",
          all(r.identical
              and 0 < r.pre_crash_delivered < r.reference_delivered
              for r in crashes.values()),
          "; ".join(f"batch {size}: {r.pre_crash_delivered} before + "
                    f"{r.post_recovery_delivered} after the crash vs "
                    f"{r.reference_delivered} uncrashed"
                    for size, r in crashes.items()))

    # R2: a corrupted newest checkpoint -------------------------------- #
    corrupt = measured["R2"]
    skipped = corrupt.recovery["skipped"]
    check("R2", "a corrupted newest checkpoint is skipped loudly; output "
          "still byte-identical",
          skipped and all(reason for _, reason in skipped)
          and corrupt.identical,
          f"skipped checkpoint(s) {[number for number, _ in skipped]}, "
          f"restored {corrupt.recovery['checkpoint_number']}; "
          f"{len(corrupt.output)} of {len(corrupt.reference)} records")

    # S1: sharded output equals one engine's --------------------------- #
    sharded = measured["S1"]
    check("S1", "P=2 merged output equals the single engine's (serial, "
          "process)",
          all(matches(run) for run in sharded.values()),
          ", ".join(f"{backend}: {records(run)}"
                    for backend, run in sharded.items()))

    # S2/S3: live resharding ------------------------------------------- #
    resharded = measured["S2"]

    def grew_and_shrank(reports) -> bool:
        if len(reports) != 2:
            return False
        grow, shrink = reports
        return (grow.new_shards == grow.old_shards + 1
                and grow.migrated_keys >= 1
                and (shrink.old_shards, shrink.new_shards)
                == (grow.new_shards, grow.old_shards))

    check("S2", "grow to P+1 and shrink back: exactly two reshards, merged "
          "output equals the single engine's",
          all(matches(run) and grew_and_shrank(run["reshards"])
              for run in resharded.values()),
          "; ".join(f"{label}: " + ", ".join(
              f"{r.direction} moved {r.migrated_keys}/{r.total_keys} keys"
              for r in run["reshards"]) + f", {records(run)}"
              for label, run in resharded.items()))
    # A reshard whose floor lies above the first wake-up segment has
    # history it must cut rather than replay.
    cut = {label: [r for r in run["reshards"]
                   if r.floor > run["first_segment_ts"]]
           for label, run in resharded.items()}
    check("S3", "a reshard with history below its floor replays fewer "
          "ingests than it logged",
          any(cut.values())
          and all(r.replayed_ingests < r.logged_ingests
                  for reports in cut.values() for r in reports),
          "; ".join(f"{label}: " + ", ".join(
              f"{r.direction} replayed {r.replayed_ingests} of "
              f"{r.logged_ingests} (floor {r.floor:.2f})" for r in reports)
              for label, reports in cut.items()))
    return results


def validate_ablation_claims(measured: dict[str, dict]) -> list[ClaimResult]:
    """Evaluate the X1–X4, X6–X9 claims against
    :func:`~repro.experiments.ablations.run_ablations` measurements."""
    results: list[ClaimResult] = []

    def check(id: str, claim: str, passed: bool, details: str) -> None:
        results.append(ClaimResult(id, claim, bool(passed), details))

    def ms(seconds: float) -> str:
        value = seconds * 1e3
        return f"{value:,.0f} ms" if value >= 100 else f"{value:.3g} ms"

    # X1: TSM registers vs strict Fig.-1 rules ------------------------- #
    tsm, strict = measured["X1"]["tsm"], measured["X1"]["strict"]
    check("X1", "TSM registers deliver the simultaneous tuples strict "
          "rules strand",
          tsm["delivered"] > strict["delivered"],
          f"delivered {tsm['delivered']} vs {strict['delivered']}, peak "
          f"queue {tsm['peak_queue']} vs {strict['peak_queue']}")
    check("X1", "strict rules make the stranded side wait a tick "
          "(≥ 100x latency)",
          strict["mean_latency"] > 100 * max(tsm["mean_latency"], 1e-9),
          f"TSM {ms(tsm['mean_latency'])} vs strict "
          f"{ms(strict['mean_latency'])}")

    # X2: the scenarios with a window join ----------------------------- #
    a, b, c, d = (measured["X2"][k] for k in "ABCD")
    check("X2", "join latency: A > 50x B, B > 2x C, C within 2 ms of D",
          a.mean_latency > 50 * b.mean_latency > 0
          and b.mean_latency > 2 * c.mean_latency
          and abs(c.mean_latency - d.mean_latency) < 2e-3,
          ", ".join(f"{k} {ms(r.mean_latency)}"
                    for k, r in measured["X2"].items()))
    check("X2", "join idle-waiting: A > 90 %, C < 1 %",
          a.idle_fraction > 0.9 and c.idle_fraction < 0.01,
          ", ".join(f"{k} {r.idle_fraction:.2%}"
                    for k, r in measured["X2"].items()))
    check("X2", "join peak queue: A > 5x C",
          a.peak_queue > 5 * c.peak_queue,
          ", ".join(f"{k} {r.peak_queue}"
                    for k, r in measured["X2"].items()))
    check("X2", "B, C, D deliver the same results; A lags at the horizon",
          b.delivered == c.delivered == d.delivered
          and a.delivered <= c.delivered,
          ", ".join(f"{k} {r.delivered}"
                    for k, r in measured["X2"].items()))

    # X3: skew-bound ETS for external timestamps ----------------------- #
    sweep = dict(measured["X3"])
    baseline = sweep.pop("no-ets").mean_latency
    lats = [r.mean_latency for r in sweep.values()]
    check("X3", "every skew bound δ injects ETS and beats no ETS",
          all(r.mean_latency < baseline and r.ets_injected > 0
              for r in sweep.values()),
          f"no ETS {ms(baseline)}; ETS injected "
          + ", ".join(f"δ={k}: {r.ets_injected}" for k, r in sweep.items()))
    check("X3", "tight bounds (δ ≤ 0.5 s) beat no ETS by ≥ 10x",
          all(r.mean_latency < baseline / 10
              for k, r in sweep.items() if k <= 0.5),
          ", ".join(f"δ={k}: {ms(r.mean_latency)}"
                    for k, r in sweep.items() if k <= 0.5))
    check("X3", "a conservative bound waits longer: latency grows with δ",
          all(hi > lo for lo, hi in zip(lats, lats[1:])),
          " < ".join(ms(v) for v in lats))

    # X4: DFS backtracking vs round-robin ------------------------------ #
    dfs, rr = measured["X4"]["dfs"], measured["X4"]["round-robin"]
    dfs_busy = dfs.cpu_utilization * dfs.duration
    rr_busy = rr.cpu_utilization * rr.duration
    check("X4", "DFS and round-robin deliver the same stream",
          dfs.delivered == rr.delivered,
          f"delivered {dfs.delivered} vs {rr.delivered}")
    check("X4", "DFS is at least as fast and does less work",
          dfs.mean_latency <= rr.mean_latency and dfs_busy < rr_busy,
          f"DFS {ms(dfs.mean_latency)}, {dfs.engine_steps} steps, "
          f"{dfs_busy:.3f} s busy; round-robin {ms(rr.mean_latency)}, "
          f"{rr.engine_steps} steps, {rr_busy:.3f} s busy")
    check("X4", "idle-waiting negligible under both (DFS < 1 %, "
          "round-robin < 5 %)",
          dfs.idle_fraction < 0.01 and rr.idle_fraction < 0.05,
          f"DFS {dfs.idle_fraction:.2%}, round-robin "
          f"{rr.idle_fraction:.2%}")

    # X6: bursty traffic vs periodic tuning ---------------------------- #
    avg, peak, od = (measured["X6"][k]
                     for k in ("average", "peak", "on-demand"))
    check("X6", "tuned to the average rate, heartbeats leave burst "
          "tuples waiting (> 5 ms)",
          avg["mean_latency"] > 5e-3,
          f"latency {ms(avg['mean_latency'])}, punctuation "
          f"{avg['punctuation_enqueued']}, peak queue {avg['peak_queue']}")
    check("X6", "tuned to the peak rate: < 4x better latency for > 5x "
          "punctuation, > 10x queue",
          avg["mean_latency"] / 4 < peak["mean_latency"]
          < avg["mean_latency"]
          and peak["punctuation_enqueued"] > 5 * avg["punctuation_enqueued"]
          and peak["peak_queue"] > 10 * avg["peak_queue"],
          f"latency {ms(peak['mean_latency'])}, punctuation "
          f"{peak['punctuation_enqueued']}, peak queue "
          f"{peak['peak_queue']}")
    check("X6", "on-demand: ≥ 20x below both; less punctuation, ≥ 100x "
          "less queue than peak-tuned",
          od["mean_latency"] < peak["mean_latency"] / 20
          and od["mean_latency"] < avg["mean_latency"] / 20
          and od["punctuation_enqueued"] < peak["punctuation_enqueued"]
          and od["peak_queue"] * 100 < peak["peak_queue"],
          f"latency {ms(od['mean_latency'])}, punctuation "
          f"{od['punctuation_enqueued']}, peak queue {od['peak_queue']}")

    # X7: adaptive heartbeats ------------------------------------------ #
    fixed, adaptive, od = (measured["X7"][k]
                           for k in ("fixed", "adaptive", "on-demand"))
    check("X7", "adaptive heartbeats recover most of the mis-tuning "
          "loss (≥ 2x)",
          adaptive["mean_latency"] < fixed["mean_latency"] / 2,
          f"fixed {ms(fixed['mean_latency'])} "
          f"({fixed['heartbeats_injected']} heartbeats), adaptive "
          f"{ms(adaptive['mean_latency'])} "
          f"({adaptive['heartbeats_injected']})")
    check("X7", "on-demand still wins by ≥ 10x",
          od["mean_latency"] < adaptive["mean_latency"] / 10,
          f"on-demand {ms(od['mean_latency'])} "
          f"({od['heartbeats_injected']} ETS)")
    check("X7", "same stream: delivered fixed ≤ adaptive ≤ on-demand, "
          "within 100 tuples",
          fixed["delivered"] <= adaptive["delivered"] <= od["delivered"]
          and od["delivered"] - fixed["delivered"] < 100,
          f"delivered {fixed['delivered']} / {adaptive['delivered']} / "
          f"{od['delivered']}")

    # X8: liveness through a source outage ---------------------------- #
    x8 = measured["X8"]
    base = x8["no-ets"]
    on_demand = {k: x8[k] for k in ("internal", "external")}
    outage = base.config.outage_duration
    check("X8", "without ETS the sink starves for ≥ 75 % of the outage",
          base.max_sink_gap >= 0.75 * outage,
          f"max sink silence {base.max_sink_gap:.3f} s of a "
          f"{outage:g} s outage")
    check("X8", "on-demand ETS keeps sink silence below half the outage "
          "and the no-ETS baseline",
          all(r.max_sink_gap < outage / 2
              and r.max_sink_gap < base.max_sink_gap
              for r in on_demand.values()),
          ", ".join(f"{k} {r.max_sink_gap:.3f} s"
                    for k, r in on_demand.items()))

    def ttl(report) -> str:
        return ("never" if report.time_to_liveness is None
                else f"{report.time_to_liveness:.3f} s")

    check("X8", "on-demand ETS releases each outage tuple at the first "
          "wake-up its ETS can cover",
          all(r.outage_wakeups is not None and r.outage_wakeups <= 1
              for r in on_demand.values()),
          "; ".join(f"{k}: {r.outage_wakeups} wake-up(s), live after "
                    f"{ttl(r)}" for k, r in x8.items()))
    spiked = x8["external"]
    absorbed = (spiked.summary["quarantine_clamped"]
                + spiked.summary["quarantine_dropped"])
    check("X8", "a skew spike past δ lands in quarantine: none raised, no "
          "invariant violation",
          absorbed > 0 and spiked.quarantine_raised == 0
          and all(r.monitor_violations == 0 for r in x8.values()),
          f"{absorbed} of {spiked.fault_stats['skewed']} skewed tuples "
          f"quarantined, {spiked.quarantine_raised} raised, "
          f"{sum(r.monitor_violations for r in x8.values())} violations")

    # X9: open vs closed loop under an overload squeeze ---------------- #
    open_, closed = measured["X9"]["open"], measured["X9"]["closed"]
    mark = HIGH_WATERMARK
    check("X9", "the squeeze is real: open-loop peak ≥ 2x the high "
          "watermark",
          open_.peak_queue >= 2 * mark,
          f"open-loop peak {open_.peak_queue}, high watermark {mark}")
    check("X9", "closed loop bounds depth: < half the open-loop peak, "
          "≤ 4x the watermark",
          closed.peak_queue < open_.peak_queue / 2
          and closed.peak_queue <= 4 * mark,
          f"closed-loop peak {closed.peak_queue}")
    check("X9", "closed loop holds sink p99 latency to ≤ half of open "
          "loop",
          closed.latency["p99"] <= 0.5 * open_.latency["p99"],
          f"p99 {closed.latency['p99']:.4f} s vs "
          f"{open_.latency['p99']:.4f} s")
    check("X9", "loop closed (episodes, reliefs, throttling); open loop "
          "idle; no violation",
          closed.summary["feedback_episodes"] >= 1
          and closed.summary["feedback_reliefs"] >= 1
          and closed.throttled > 0 and open_.throttled == 0
          and open_.monitor_violations == 0
          and closed.monitor_violations == 0,
          f"{closed.summary['feedback_episodes']} episodes, "
          f"{closed.summary['feedback_reliefs']} reliefs, "
          f"{closed.throttled} throttled (open loop {open_.throttled})")
    return results


def format_claims(results: list[ClaimResult]) -> str:
    rows = [["PASS" if r.passed else "FAIL", r.id, r.claim, r.details]
            for r in results]
    verdict = ("all claims hold"
               if all(r.passed for r in results)
               else "SOME CLAIMS FAILED")
    table = format_table(["verdict", "id", "claim", "measured"], rows,
                         title="Paper Section 6 (E), guarantees (R, S) and "
                               "ablations (X) — claim-by-claim validation")
    return f"{table}\n\n=> {verdict}"


def run_validation(*, duration: float = 120.0, sweep_duration: float = 40.0,
                   seed: int = 42,
                   heartbeat_rates: tuple[float, ...] = (0.1, 1.0, 10.0,
                                                         100.0, 1000.0,
                                                         4000.0),
                   show: Callable[[str], object] | None = None,
                   ) -> list[ClaimResult]:
    """Run the full evaluation and validate every claim (under a minute).

    The sizing arguments shape the Section-6 sweep behind the E rows; the
    R, S and X rows always run the workloads EXPERIMENTS.md quotes.
    ``show``, when given, receives Figure 7, Figure 8 and the idle-waiting
    table rendered from that sweep before any other row is measured.
    """
    sweep = run_sweep(duration=duration, sweep_duration=sweep_duration,
                      seed=seed, heartbeat_rates=heartbeat_rates)
    idle = idle_waiting_table(duration=duration, seed=seed,
                              heartbeat_rate=100.0)
    if show is not None:
        show("\n\n".join([format_figure7(sweep), format_figure8(sweep),
                          format_idle_table(idle)]))
    return (validate_paper_claims(sweep, idle)
            + validate_guarantee_claims(run_guarantees())
            + validate_ablation_claims(run_ablations()))
