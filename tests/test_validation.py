"""Tests for the claim catalogue: paper (E) and ablation (X) validators."""

import copy
import re
from pathlib import Path

import pytest

from repro.experiments import ablations, validation
from repro.experiments.figures import idle_waiting_table, run_sweep
from repro.experiments.validation import (
    ClaimResult,
    format_claims,
    validate_ablation_claims,
    validate_paper_claims,
)

# A short but rate-compressed setup so the claims hold in test time: the
# fast/slow skew ratio matches the paper's spirit (400x) at 8 simulated
# seconds instead of 120.
FAST, SLOW = 40.0, 0.1
DURATION = 12.0


@pytest.fixture(scope="module")
def measured():
    sweep = run_sweep(duration=DURATION, sweep_duration=8.0, seed=11,
                      rate_fast=FAST, rate_slow=SLOW,
                      heartbeat_rates=(0.5, 5.0, 50.0, 500.0, 4000.0))
    idle = idle_waiting_table(duration=DURATION, seed=11, rate_fast=FAST,
                              rate_slow=SLOW, heartbeat_rate=50.0)
    return sweep, idle


@pytest.fixture(scope="module")
def ablated():
    """Every ablation on a fraction of its full-size tuples (~2.5 s): the
    same code and the same thresholds ``python -m repro validate`` uses."""
    return {
        "X1": ablations.tsm_vs_strict(tuples=100),
        "X2": ablations.join_scenarios(duration=30.0, window=15.0,
                                       rate_slow=SLOW),
        "X3": ablations.skew_bound_sweep(duration=30.0,
                                         deltas=(0.05, 0.2, 2.0),
                                         rate_fast=FAST, rate_slow=SLOW),
        "X4": ablations.dfs_vs_round_robin(duration=DURATION, seed=11,
                                           rate_fast=FAST, rate_slow=SLOW),
        "X6": ablations.bursty_traffic(duration=40.0, off_seconds=20.0),
        "X7": ablations.adaptive_heartbeats(duration=16.0, shift_at=8.0,
                                            rate_after=100.0, slow_rate=0.2),
        "X8": ablations.fault_recovery(duration=30.0, outage_start=8.0,
                                       outage_duration=10.0),
        "X9": ablations.backpressure(duration=40.0, spike_start=5.0),
    }


#: One corrupted measurement per ablation, and a fragment of the one claim
#: it must flip.
SABOTAGE = {
    "X1": (lambda m: m["strict"].update(mean_latency=0.0), "wait a tick"),
    "X2": (lambda m: setattr(m["A"], "peak_queue", m["C"].peak_queue),
           "peak queue"),
    "X3": (lambda m: setattr(m[2.0], "ets_injected", 0), "injects ETS"),
    "X4": (lambda m: setattr(m["round-robin"], "delivered", 0),
           "same stream"),
    "X6": (lambda m: m["on-demand"].update(punctuation_enqueued=10**9),
           "on-demand"),
    "X7": (lambda m: m["on-demand"].update(delivered=10**9), "same stream"),
    "X8": (lambda m: setattr(m["ladder"], "monitor_violations", 1),
           "no invariant violation"),
    "X9": (lambda m: setattr(m["open"], "throttled", 1), "loop closed"),
}


class TestValidator:
    def test_returns_all_claims(self, measured, ablated):
        sweep, idle = measured
        paper = validate_paper_claims(sweep, idle)
        extra = validate_ablation_claims(ablated)
        assert len(paper) == 11 and len(extra) == 26
        assert all(isinstance(r, ClaimResult) for r in paper + extra)
        assert {r.id for r in paper} == {"E1", "E2", "E3", "E4", "E5"}
        assert {r.id for r in extra} == set(ablated)
        # (E4's absolute "thousands of tuples" needs the full 120 s.)
        assert all(r.passed for r in extra), format_claims(
            [r for r in extra if not r.passed])

    def test_details_are_populated(self, measured, ablated):
        sweep, idle = measured
        for r in (validate_paper_claims(sweep, idle)
                  + validate_ablation_claims(ablated)):
            assert r.details

    def test_format_renders_verdict(self, measured):
        sweep, idle = measured
        text = format_claims(validate_paper_claims(sweep, idle))
        assert "claim-by-claim" in text
        assert "=>" in text

    def test_detects_failures(self, measured):
        """Corrupting a measurement must flip its claim to FAIL."""
        sweep, idle = measured
        baseline = validate_paper_claims(sweep, idle)
        original = sweep.baselines["A"].mean_latency
        # sabotage: pretend scenario A had no latency problem at all
        sweep.baselines["A"].mean_latency = 1e-6
        try:
            sabotaged = validate_paper_claims(sweep, idle)
        finally:
            sweep.baselines["A"].mean_latency = original
        assert sum(r.passed for r in sabotaged) < sum(
            r.passed for r in baseline)
        text = format_claims(sabotaged)
        assert "FAIL" in text and "SOME CLAIMS FAILED" in text

    @pytest.mark.parametrize("claim_id", sorted(SABOTAGE))
    def test_sabotaged_ablation_flips_exactly_its_claim(self, ablated,
                                                        claim_id):
        sabotage, claim = SABOTAGE[claim_id]
        broken = copy.deepcopy(ablated)
        sabotage(broken[claim_id])
        failed = [r for r in validate_ablation_claims(broken)
                  if not r.passed]
        assert [(r.id, claim in r.claim) for r in failed] \
            == [(claim_id, True)]

    def test_catalogue_is_what_experiments_md_names(self, measured, ablated,
                                                    monkeypatch):
        """Every E/X id in an EXPERIMENTS.md heading is checked by
        ``run_validation()``, and nothing else is."""
        text = (Path(__file__).parent.parent / "EXPERIMENTS.md").read_text()
        named = {claim_id
                 for heading in re.findall(r"^#{2,3} ([EX]\d[\dEX/]*) ",
                                           text, flags=re.MULTILINE)
                 for claim_id in heading.split("/")}
        sweep, idle = measured
        monkeypatch.setattr(validation, "run_sweep", lambda **kw: sweep)
        monkeypatch.setattr(validation, "idle_waiting_table",
                            lambda **kw: idle)
        monkeypatch.setattr(validation, "run_ablations", lambda: ablated)
        results = validation.run_validation()
        assert {r.id for r in results} == named
        assert [r.id for r in results] == sorted(r.id for r in results)
        assert len(results) == 37
