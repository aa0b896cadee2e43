"""Command line interface: subcommands, outputs, and exit codes."""

import os

import pytest

import coase_bandits.cli as cli
from coase_bandits.acceptance import CriterionResult
from coase_bandits.runner import read_run_summaries, read_sweep_table

DYADIC_CFG = """\
[game]
mode = no-property
arms = 2
horizon = 64
seeds = 0 1

[instance]
v_up = 1.0 0.5
v_down = 0.0 0.0 ; 0.75 0.0

[upstream]
policy = best_response

[downstream]
policy = best_response
"""

PROPERTY_CFG = """\
[game]
mode = property
arms = 2
horizon = 4096
seeds = 7

[instance]
v_up = 0.9 0.5
v_down = 0.2 0.1 ; 0.8 0.3

[upstream]
c_mode = fixed:1.0
"""


@pytest.fixture
def dyadic_cfg(tmp_path):
    path = tmp_path / "dyadic.cfg"
    path.write_text(DYADIC_CFG + f"\n[output]\ndir = {tmp_path / 'runs'}\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def property_cfg(tmp_path):
    path = tmp_path / "prop.cfg"
    path.write_text(PROPERTY_CFG + f"\n[output]\ndir = {tmp_path / 'runs'}\n", encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_writes_outputs_and_reports_exact_regret(self, dyadic_cfg, tmp_path, capsys):
        out = str(tmp_path / "override")
        assert cli.main(["simulate", dyadic_cfg, "--output-dir", out]) == 0
        captured = capsys.readouterr().out
        assert "seed 0: r_sw=16.0" in captured
        assert f"wrote {os.path.join(out, 'run_summary.csv')}" in captured
        assert len(read_run_summaries(os.path.join(out, "run_summary.csv"))) == 2

    def test_missing_config_file(self, capsys):
        assert cli.main(["simulate", "/nonexistent/path.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(DYADIC_CFG.replace("seeds = 0 1", "seeds = 0 0"), encoding="utf-8")
        assert cli.main(["simulate", str(bad)]) == 1
        assert "distinct" in capsys.readouterr().err


class TestSweep:
    def test_sweep_reports_rates_and_writes_table(self, dyadic_cfg, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COASE_BANDITS_WORKERS", "1")
        out = str(tmp_path / "sweep.csv")
        code = cli.main(["sweep", dyadic_cfg, "--horizons", "64", "128", "--output", out])
        assert code == 0
        captured = capsys.readouterr().out
        assert "T=64: mean r_sw/T = 0.25" in captured
        assert "log-log slope" in captured
        assert [r.horizon for r in read_sweep_table(out)] == [64, 128]

    def test_workers_flag_is_gone(self, dyadic_cfg, capsys):
        # COASE_BANDITS_WORKERS caps every pool; sweep has no flag of its own.
        assert cli.main(["sweep", dyadic_cfg, "--horizons", "64", "--workers", "1"]) == 1
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_missing_horizons_is_usage_error(self, dyadic_cfg, capsys):
        assert cli.main(["sweep", dyadic_cfg]) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_invalid_horizon_for_mode(self, property_cfg, capsys):
        # 64 cannot host the search schedule; must fail before any run
        assert cli.main(["sweep", property_cfg, "--horizons", "64", "4096"]) == 1
        assert "search parameters" in capsys.readouterr().err


class TestOracle:
    def test_prints_exact_quantities(self, dyadic_cfg, capsys):
        assert cli.main(["oracle", dyadic_cfg]) == 0
        captured = capsys.readouterr().out
        assert "welfare optimum: pair (a=1, b=0), welfare* = 1.25" in captured
        assert "mu*_up = 1.0 (arm 0, unique: yes)" in captured
        assert "mu*_down = 0.25" in captured
        assert "tau*:   0.0 0.5" in captured
        assert "misaligned: yes" in captured

    def test_reports_undefined_misalignment(self, tmp_path, capsys):
        path = tmp_path / "tied.cfg"
        path.write_text(
            DYADIC_CFG.replace("v_up = 1.0 0.5", "v_up = 0.5 0.5"), encoding="utf-8"
        )
        assert cli.main(["oracle", str(path)]) == 0
        assert "misaligned: undefined" in capsys.readouterr().out


def test_readme_examples_print_what_the_readme_shows(monkeypatch, capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = fh.read().split("```\n")[1::2]
    examples = [b.split("\n", 1) for b in blocks if b.startswith("$ coase-bandits ")]
    assert [command for command, _ in examples] == [
        "$ coase-bandits oracle configs/breakdown.cfg",
        "$ coase-bandits firm-example",
    ]
    monkeypatch.chdir(root)
    for command, shown in examples:
        assert cli.main(command.split()[2:]) == 0
        assert capsys.readouterr().out == shown, command

class TestFirmExample:
    def test_default_parameters(self, capsys):
        assert cli.main(["firm-example"]) == 0
        out = capsys.readouterr().out
        assert "80" in out and "82" in out

    def test_invalid_externality_rate(self, capsys):
        assert cli.main(["firm-example", "--alpha", "10"]) == 1
        assert "error:" in capsys.readouterr().err


class TestAccept:
    def test_unknown_suite_is_usage_error(self, capsys):
        assert cli.main(["accept", "nonsense"]) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_fast_suite_passes(self, capsys):
        assert cli.main(["accept", "firm"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "acceptance [firm]: 1/1 criteria passed" in out

    def test_failing_criterion_exits_two(self, monkeypatch, capsys):
        def fake_suite(name, report=print):
            results = [CriterionResult(7, "firm level demo", False, "forced failure", 0.0)]
            for r in results:
                report(r.line())
            return results

        monkeypatch.setattr(cli, "run_suite", fake_suite)
        assert cli.main(["accept", "firm"]) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "0/1 criteria passed" in out


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "usage error:" in capsys.readouterr().err
