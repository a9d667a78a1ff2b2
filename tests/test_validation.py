"""Tests for the claim catalogue: paper (E), guarantee (R, S) and ablation
(X) validators."""

import copy
import re
from pathlib import Path

import pytest

from repro.experiments import ablations, guarantees, validation
from repro.experiments.figures import idle_waiting_table, run_sweep
from repro.experiments.validation import (
    ClaimResult,
    format_claims,
    validate_ablation_claims,
    validate_guarantee_claims,
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


@pytest.fixture(scope="module")
def guaranteed():
    """Every guarantee on a fraction of its full-size workload (~1 s): the
    same code and the same thresholds ``python -m repro validate`` uses."""
    return {
        "R1": guarantees.crash_recovery(duration=20.0, crash_at=10.0),
        "R2": guarantees.corrupt_checkpoint(duration=20.0, crash_at=10.0),
        "S1": guarantees.sharded_join(tuples=400),
        "S2": guarantees.live_reshard(runs=(("serial", 2, 960),
                                            ("thread", 2, 960))),
    }


def _replay_everything(m):
    """The first reshard re-runs its whole log although its floor lies
    above the first wake-up segment."""
    run = m["S2"]["serial P=2"]
    report = run["reshards"][0]
    assert report.floor > run["first_segment_ts"]
    report.replayed_ingests = report.logged_ingests


#: One corrupted measurement per guarantee or ablation, and a fragment of
#: the one claim it must flip.
SABOTAGE = {
    "R1": (lambda m: m["R1"][64].output.append(m["R1"][64].output[-1]),
           "uncrashed run"),
    "R2": (lambda m: m["R2"].recovery["skipped"].clear(), "skipped loudly"),
    "S1": (lambda m: m["S1"]["process"]["records"].pop(),
           "P=2 merged output"),
    "S2": (lambda m: m["S2"]["thread P=2"]["reshards"].pop(),
           "exactly two reshards"),
    "S3": (_replay_everything, "replays fewer"),
    "X1": (lambda m: m["X1"]["strict"].update(mean_latency=0.0),
           "wait a tick"),
    "X2": (lambda m: setattr(m["X2"]["A"], "peak_queue",
                             m["X2"]["C"].peak_queue), "peak queue"),
    "X3": (lambda m: setattr(m["X3"][2.0], "ets_injected", 0),
           "injects ETS"),
    "X4": (lambda m: setattr(m["X4"]["round-robin"], "delivered", 0),
           "same stream"),
    "X6": (lambda m: m["X6"]["on-demand"].update(
        punctuation_enqueued=10**9), "on-demand"),
    "X7": (lambda m: m["X7"]["on-demand"].update(delivered=10**9),
           "same stream"),
    "X8": (lambda m: setattr(m["X8"]["external"], "monitor_violations", 1),
           "no invariant violation"),
    "X9": (lambda m: setattr(m["X9"]["open"], "throttled", 1),
           "loop closed"),
}


class TestValidator:
    def test_returns_all_claims(self, measured, guaranteed, ablated):
        sweep, idle = measured
        paper = validate_paper_claims(sweep, idle)
        own = validate_guarantee_claims(guaranteed)
        extra = validate_ablation_claims(ablated)
        assert len(paper) == 11 and len(own) == 5 and len(extra) == 26
        assert all(isinstance(r, ClaimResult) for r in paper + own + extra)
        assert {r.id for r in paper} == {"E1", "E2", "E3", "E4", "E5"}
        assert [r.id for r in own] == ["R1", "R2", "S1", "S2", "S3"]
        assert {r.id for r in extra} == set(ablated)
        # (E4's absolute "thousands of tuples" needs the full 120 s.)
        assert all(r.passed for r in own + extra), format_claims(
            [r for r in own + extra if not r.passed])

    def test_details_are_populated(self, measured, guaranteed, ablated):
        sweep, idle = measured
        for r in (validate_paper_claims(sweep, idle)
                  + validate_guarantee_claims(guaranteed)
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
    def test_sabotaged_ablation_flips_exactly_its_claim(self, guaranteed,
                                                        ablated, claim_id):
        """Each planted defect, guarantee or ablation, fails its own row
        and no other."""
        sabotage, claim = SABOTAGE[claim_id]
        broken = copy.deepcopy({**guaranteed, **ablated})
        sabotage(broken)
        failed = [r for r in (validate_guarantee_claims(broken)
                              + validate_ablation_claims(broken))
                  if not r.passed]
        assert [(r.id, claim in r.claim) for r in failed] \
            == [(claim_id, True)]

    @pytest.mark.parametrize("tuples", [40, 90])
    def test_a_reshard_check_that_resharded_nothing_fails(self, guaranteed,
                                                           tuples):
        """At 40 tuples both reshard points floor to chunk 0, leaving one
        no-op P->P reshard; at 90 the grow runs before any ingest and moves
        no key.  Both merged outputs still equal the single engine's."""
        collapsed = guarantees.live_reshard(runs=(("serial", 2, tuples),))
        run = collapsed["serial P=2"]
        assert run["records"] == run["reference"]
        rows = {r.id: r for r in validate_guarantee_claims(
            {**guaranteed, "S2": collapsed})}
        assert not rows["S2"].passed

    def test_catalogue_is_what_experiments_md_names(self, measured,
                                                    guaranteed, ablated,
                                                    monkeypatch):
        """Every E/R/S/X id in an EXPERIMENTS.md heading is checked by
        ``run_validation()``, and nothing else is."""
        text = (Path(__file__).parent.parent / "EXPERIMENTS.md").read_text()
        named = {claim_id
                 for heading in re.findall(r"^#{2,3} ([ERSX]\d[\dERSX/]*) ",
                                           text, flags=re.MULTILINE)
                 for claim_id in heading.split("/")}
        sweep, idle = measured
        monkeypatch.setattr(validation, "run_sweep", lambda **kw: sweep)
        monkeypatch.setattr(validation, "idle_waiting_table",
                            lambda **kw: idle)
        monkeypatch.setattr(validation, "run_guarantees", lambda: guaranteed)
        monkeypatch.setattr(validation, "run_ablations", lambda: ablated)
        results = validation.run_validation()
        assert {r.id for r in results} == named
        assert [r.id for r in results] == sorted(r.id for r in results)
        assert len(results) == 42
