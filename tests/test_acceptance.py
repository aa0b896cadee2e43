"""Acceptance gate: one test per shipped criterion.

Each test invokes the corresponding check from coase_bandits.acceptance,
prints its single PASS/FAIL line, and fails with the recorded detail if
the criterion does not hold.  Run with -s to see the lines as they land.
"""

import coase_bandits.acceptance as acceptance
import coase_bandits.engine as engine
from coase_bandits import cli
from coase_bandits.acceptance import (
    criterion_1_oracle_identity,
    criterion_2_pathwise_decomposition,
    criterion_3_welfare_breakdown,
    criterion_4_binary_search,
    criterion_5_welfare_efficiency,
    criterion_6_certificate,
    criterion_7_firm_demo,
    criterion_8_determinism,
)


# Every criterion's detail line as the pinned games report it; a change to
# how a criterion builds or drives its games must leave every number as is.
PINNED_DETAIL = {
    1: "split identity exact on 50/50 instances; max |grid - closed form| = 9.29e-07 (tol 2e-06)",
    2: (
        "36 runs / 147456 property-mode rounds, zero violations; "
        "min decomposition slack = -1.11e-16 (floor -1e-12)"
    ),
    3: "welfare floor held on 150/150 paths; mean r_sw/T at T=16384 = 0.1980, needs [0.18, 0.2]",
    4: (
        "bracket contained tau* every batch on 50/50 instances (max width drift 1.11e-16, tol 1e-12); "
        "sandwich failed 0/200 = 0.000 (budget 0.05000)"
    ),
    5: (
        "mean r_sw/T over T=2^10..2^16: 0.0907 0.0700 0.0491 0.0339 0.0251 0.0186 0.0146 "
        "(strictly decreasing); log-log slope 0.547 (cap 0.9); max r_down/bound = 1.00e-03 (cap 1)"
    ),
    6: (
        "envelope scale 61.8; exceedance fractions t=256:0.000 t=1024:0.000 t=4096:0.000 "
        "(cap 0.05) over 200 runs"
    ),
    7: (
        "competitive W = 80 (want 80), efficient W = 82 (want 82), transfer = 2 (want 2), "
        "bargaining == efficient: True; zero-rate collapse: True"
    ),
    8: "2 configs simulated twice; 10 output files compared, byte-identical: True",
}


def _gate(result) -> None:
    print(result.line())
    assert result.passed, result.line()
    assert result.detail == PINNED_DETAIL[result.number]


def test_criterion_1_oracle_identity():
    _gate(criterion_1_oracle_identity())


def test_criterion_2_pathwise_decomposition():
    _gate(criterion_2_pathwise_decomposition())


def test_criterion_3_welfare_breakdown():
    _gate(criterion_3_welfare_breakdown())


def test_criterion_3_reports_a_broken_floor_as_fail(monkeypatch, capsys):
    # Raising the floor by 1.0 breaks it on every path; the criterion must
    # report the engine's error for the first game as a FAIL, and the CLI
    # must exit 2 (a failed criterion), not 1 (an error).
    real = engine.breakdown_lower_bound
    monkeypatch.setattr(engine, "breakdown_lower_bound", lambda *args: real(*args) + 1.0)
    monkeypatch.setenv("COASE_BANDITS_WORKERS", "1")
    monkeypatch.setattr(acceptance, "BREAKDOWN_HORIZONS", (64, 128))
    monkeypatch.setattr(acceptance, "BREAKDOWN_SEEDS", (0, 1))
    monkeypatch.setattr(acceptance, "BREAKDOWN_TOP_T", 128)
    result = criterion_3_welfare_breakdown()
    assert not result.passed
    assert "misaligned run broke the welfare floor" in result.detail
    assert result.detail.endswith("game seed 0, horizon 64")
    assert cli.main(["accept", "breakdown"]) == 2
    assert "FAIL  criterion 3 (welfare-breakdown)" in capsys.readouterr().out


def test_criterion_4_binary_search():
    _gate(criterion_4_binary_search())


def test_criterion_5_welfare_efficiency():
    _gate(criterion_5_welfare_efficiency())


def test_criterion_6_certificate():
    _gate(criterion_6_certificate())


def test_criterion_7_firm_demo():
    _gate(criterion_7_firm_demo())


def test_criterion_8_determinism(tmp_path):
    _gate(criterion_8_determinism(base_dir=str(tmp_path)))


def test_criterion_8_removes_its_temporary_directory(tmp_path, monkeypatch):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    _gate(criterion_8_determinism())
    assert list(tmp_path.iterdir()) == []
