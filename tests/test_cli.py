"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.experiments import validation
from repro.experiments.figures import idle_waiting_table, run_sweep

FAST_ARGS = ["--duration", "6", "--rate-fast", "20", "--rate-slow", "0.5"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_args(self):
        args = build_parser().parse_args(
            ["scenario", "B", "--heartbeat-rate", "10"])
        assert args.name == "B" and args.heartbeat_rate == 10.0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "Z"])


class TestScenarioCommand:
    def test_scenario_c(self, capsys):
        assert main(["scenario", "C", *FAST_ARGS]) == 0
        out = capsys.readouterr().out
        assert "mean latency" in out
        assert "ETS injected" in out

    def test_scenario_b_without_rate_fails_cleanly(self, capsys):
        assert main(["scenario", "B", *FAST_ARGS]) == 2
        assert "error" in capsys.readouterr().err

    def test_scenario_join_variant(self, capsys):
        assert main(["scenario", "D", "--join", *FAST_ARGS]) == 0
        assert "scenario" in capsys.readouterr().out

    def test_scenario_strict_flag(self, capsys):
        assert main(["scenario", "A", "--strict", *FAST_ARGS]) == 0


@pytest.fixture(scope="module")
def small_sweep():
    sweep = run_sweep(duration=6.0, sweep_duration=4.0, rate_fast=20.0,
                      rate_slow=0.5, heartbeat_rates=(1.0, 20.0))
    idle = idle_waiting_table(duration=6.0, rate_fast=20.0,
                              rate_slow=0.5, heartbeat_rate=20.0)
    return sweep, idle


@pytest.fixture
def validate_output(small_sweep, monkeypatch, capsys):
    """Run ``validate`` on a small sweep; return its output."""
    sweep, idle = small_sweep
    monkeypatch.setattr(validation, "run_sweep", lambda **kw: sweep)
    monkeypatch.setattr(validation, "idle_waiting_table", lambda **kw: idle)
    # The R, S and X rows have their own tests in test_validation.py.
    for name in ("run_guarantees", "run_ablations"):
        monkeypatch.setattr(validation, name, dict)
    for name in ("validate_guarantee_claims", "validate_ablation_claims"):
        monkeypatch.setattr(validation, name, lambda measured: [])
    main(["validate"])
    return capsys.readouterr().out


class TestFigureCommand:
    """Figures 7 and 8 are printed by ``validate`` from the sweep behind
    its E rows."""

    def test_figure_7(self, validate_output):
        assert "Figure 7" in validate_output and "line B" in validate_output

    def test_figure_8(self, validate_output):
        assert "Figure 8" in validate_output


class TestIdleCommand:
    """The idle-waiting table is printed by ``validate``."""

    def test_idle_table(self, validate_output):
        """It follows both figures and precedes the verdict table."""
        out = validate_output
        marks = [out.index(mark) for mark in (
            "Figure 7 —", "Figure 8 —", "Idle-waiting share",
            "claim-by-claim")]
        assert marks == sorted(marks)


class TestRunCommand:
    PROGRAM = """
    STREAM fast (seq int, value float);
    STREAM slow (seq int, value float);
    s1 = SELECT * FROM fast WHERE value < 0.9;
    s2 = SELECT * FROM slow WHERE value < 0.9;
    merged = UNION s1, s2;
    SINK merged AS out;
    """

    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "query.esl"
        path.write_text(self.PROGRAM)
        return str(path)

    def test_run_program(self, program_file, capsys):
        code = main(["run", program_file, "--until", "10",
                     "--source", "fast:poisson:20",
                     "--source", "slow:constant:0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "out" in out and "ETS injected" in out

    def test_run_with_heartbeats(self, program_file, capsys):
        code = main(["run", program_file, "--until", "10",
                     "--source", "fast:poisson:20",
                     "--source", "slow:constant:0.5",
                     "--ets", "none", "--heartbeat", "slow:10"])
        assert code == 0

    def test_bad_source_spec(self, program_file, capsys):
        code = main(["run", program_file, "--until", "5",
                     "--source", "fast=poisson=20"])
        assert code == 2
        assert "NAME:KIND:RATE" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, spec, says", [
        ("--source", "fast:poisson:abc", "RATE must be a number"),
        ("--heartbeat", "fast", "NAME:RATE"),
        ("--heartbeat", "nosuch:5", "no such stream"),
    ])
    def test_bad_specs_are_one_error_line(self, program_file, capsys,
                                          flag, spec, says):
        code = main(["run", program_file, "--until", "5", flag, spec])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err and spec.split(":")[0] in err

    def test_unknown_stream(self, program_file, capsys):
        code = main(["run", program_file, "--until", "5",
                     "--source", "nope:poisson:1"])
        assert code == 2

    def test_missing_file(self, capsys):
        code = main(["run", "/does/not/exist.esl", "--until", "5"])
        assert code == 2


class TestProfileCommand:
    def test_profile_scenario(self, capsys):
        code = main(["profile", "C", "--duration", "6",
                     "--rate-fast", "20", "--rate-slow", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "operator profile" in out
        assert "union" in out and "idle-waiting" in out


class TestDotCommand:
    def test_dot_output(self, tmp_path, capsys):
        path = tmp_path / "q.esl"
        path.write_text("""
            STREAM a; STREAM b;
            m = UNION a, b;
            SINK m;
        """)
        assert main(["dot", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "doublecircle" in out  # the union

    def test_dot_missing_file(self, capsys):
        assert main(["dot", "/no/such/file.esl"]) == 2


class TestObserverErrors:
    """An export the bus could not complete must not pass for a good one."""

    @pytest.mark.parametrize("command, exporter",
                             [("trace", "JsonlExporter"),
                              ("metrics", "MetricsRegistry")])
    def test_swallowed_observer_error_fails_the_export(
            self, command, exporter, monkeypatch, capsys):
        import repro.cli

        class Raising(getattr(repro.cli, exporter)):
            def on_quiesce(self, **kw):
                raise RuntimeError("boom")

        monkeypatch.setattr(repro.cli, exporter, Raising)
        assert main([command, "--duration", "2", "--rate-fast", "20"]) == 1
        assert re.search(r"^observer errors: [1-9]\d*$",
                         capsys.readouterr().err, re.MULTILINE)
