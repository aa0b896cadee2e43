"""Acceptance gate: one test per shipped criterion, and the paper's contrast.

Each criterion test invokes the corresponding check from
coase_bandits.acceptance, prints its single PASS/FAIL line, and fails with
the recorded detail if the criterion does not hold.  Run with -s to see the
lines as they land.  The contrast test plays criterion 3's games with and
without property rights on the same seeds and compares them seed by seed,
and the K = 3, 4, 5 test runs criterion 5's rate and slope checks beyond two
arms.
"""

import dataclasses

import numpy as np
import pytest

import coase_bandits.acceptance as acceptance
import coase_bandits.engine as engine
from coase_bandits import cli
from coase_bandits.acceptance import (
    BREAKDOWN_HORIZONS,
    BREAKDOWN_SEEDS,
    FAST_SCHEDULE,
    SLOPE_CAP,
    breakdown_config,
    criterion_1_oracle_identity,
    criterion_2_pathwise_decomposition,
    criterion_3_welfare_breakdown,
    criterion_4_binary_search,
    criterion_5_welfare_efficiency,
    criterion_6_certificate,
    criterion_7_firm_demo,
    criterion_8_determinism,
    efficiency_config,
)
from coase_bandits.env import random_instance
from coase_bandits.runner import fan_out, play_seed, sweep


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


def test_criterion_8_determinism(tmp_path, monkeypatch):
    # The criterion simulates into a temporary directory and removes it.
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    _gate(criterion_8_determinism())
    assert list(tmp_path.iterdir()) == []


def test_property_rights_lower_welfare_regret_on_every_seed():
    # Criterion 3's instance, seeds and horizons, played without property
    # rights (criterion 3's own config) and with them (Belgic on criterion
    # 5's schedule). Each seed is one task, so its two games share the
    # seed's noise and differ only in the institution. With property rights
    # the welfare regret must be lower on every (seed, horizon).
    none = breakdown_config()
    alpha, beta, scale = FAST_SCHEDULE
    rights = dataclasses.replace(
        none,
        mode="property",
        alpha=alpha,
        beta=beta,
        c_mode=f"fixed:{scale!r}",
        downstream_policy="belgic",
    )
    horizons = list(BREAKDOWN_HORIZONS)
    tasks = [([none, rights], horizons, seed) for seed in BREAKDOWN_SEEDS]
    worse = []
    for played in fan_out(play_seed, tasks):
        without, with_rights = played[: len(horizons)], played[len(horizons) :]
        worse += [(a.seed, a.horizon, b.r_sw, a.r_sw) for a, b in zip(without, with_rights) if not b.r_sw < a.r_sw]
    assert worse == []


@pytest.mark.parametrize("model", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_welfare_efficiency_beyond_two_arms(k, model):
    # Criterion 5's rate and slope checks on K = 3, 4, 5: the misaligned
    # instance random_instance(default_rng(1000 + K)), criterion 5's Belgic
    # schedule and 30 seeds, T = 2^10 .. 2^14. Mean r_sw/T must strictly
    # decrease and the log-log slope stay under criterion 5's cap. The
    # instances, seeds, horizons and a budget of 15 s for all six sweeps on
    # 2 vCPUs were fixed before the outcome was looked at.
    inst = random_instance(np.random.default_rng(1000 + k), k, model, require_misaligned=True)
    cfg = dataclasses.replace(
        efficiency_config(), n_arms=k, v_up=inst.v_up, v_down=inst.v_down, reward_model=model
    )
    rows, slope, _ = sweep(cfg, [2**e for e in range(10, 15)])
    rates = [row.mean_r_sw_per_round for row in rows]
    assert all(b < a for a, b in zip(rates, rates[1:])), rates
    assert slope <= SLOPE_CAP, (slope, rates)
