"""Game engine: round loop, regret ledgers, and path-wise invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scalar_reference import (
    NO_EXPLAIN,
    POLICY_PAIRS,
    assert_same_column,
    build_players,
    game_config,
    instances,
    scalar_fold,
)

from coase_bandits.downstream import (
    Belgic,
    BelgicParams,
    BestResponseDownstream,
    NaiveContextUCB,
    OracleTransferDownstream,
    ZeroTransferDownstream,
)
from coase_bandits.engine import (
    BLOCK,
    DECOMPOSITION_TOL,
    RegretLedger,
    breakdown_lower_bound,
    fold_block,
    per_round_gaps,
    run_no_property,
    run_property,
)
from coase_bandits.env import build_instance, compute_oracle, random_instance
from coase_bandits.upstream import BestResponseUpstream, IncentiveAwareUCB, IncentiveOffer

# dyadic instance: every oracle quantity and per-round gap is a power-of-two
# multiple, so regret sums are exact floats
DYADIC = build_instance((1.0, 0.5), ((0.0, 0.0), (0.75, 0.0)))

REFERENCE = build_instance((1.0, 0.3), ((0.0, 0.0), (0.9, 0.2)))


def belgic_for(instance, horizon, alpha=0.75, beta=0.25, scale=1.0):
    return Belgic(BelgicParams(instance.n_arms, horizon, alpha, beta, scale))


class TestPerRoundGaps:
    def test_no_property_reference_round(self):
        oracle = compute_oracle(REFERENCE)
        gap_sw, gap_up, gap_down = per_round_gaps(REFERENCE, oracle, None, 0, 1)
        assert gap_sw == pytest.approx(0.2, abs=1e-12)
        assert gap_up == 0.0
        assert gap_down == 0.0

    def test_property_exact_transfer_round(self):
        # offer 0.7 on arm 1 makes both players optimal up to one rounding
        oracle = compute_oracle(REFERENCE)
        offer = IncentiveOffer(1, 0.7)
        gap_sw, gap_up, gap_down = per_round_gaps(REFERENCE, oracle, offer, 1, 0)
        assert gap_sw == 0.0
        assert gap_up == pytest.approx(0.0, abs=1e-12)
        assert gap_down == pytest.approx(0.0, abs=1e-12)

    def test_property_zero_offer_on_selfish_arm(self):
        oracle = compute_oracle(REFERENCE)
        gap_sw, gap_up, gap_down = per_round_gaps(
            REFERENCE, oracle, IncentiveOffer(0, 0.0), 0, 0
        )
        assert gap_up == 0.0
        assert gap_sw == gap_down  # upstream optimal, downstream carries it all

    def test_downstream_gap_signed_on_overpay(self):
        oracle = compute_oracle(DYADIC)
        offer = IncentiveOffer(1, 1.0)  # twice the minimal transfer
        _, _, gap_down = per_round_gaps(DYADIC, oracle, offer, 1, 0)
        assert gap_down == 0.5  # mu_star_down 0.25 vs 0.75 - 1.0

    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.tuples(
                st.lists(st.floats(0, 1, allow_nan=False), min_size=k, max_size=k),
                st.lists(
                    st.lists(st.floats(0, 1, allow_nan=False), min_size=k, max_size=k),
                    min_size=k,
                    max_size=k,
                ),
                st.integers(0, k - 1),
                st.integers(0, k - 1),
                st.integers(0, k - 1),
                st.floats(0, 2, allow_nan=False),
            )
        )
    )
    @settings(max_examples=250, deadline=None)
    def test_decomposition_inequality_under_offers(self, draw):
        # holds only when an offer is on the table; without transfers the
        # misalignment breakdown is exactly the failure of this inequality
        v_up, v_down, up_arm, down_arm, offer_arm, amount = draw
        inst = build_instance(tuple(v_up), tuple(map(tuple, v_down)))
        oracle = compute_oracle(inst)
        offer = IncentiveOffer(offer_arm, amount)
        gap_sw, gap_up, gap_down = per_round_gaps(inst, oracle, offer, up_arm, down_arm)
        assert gap_up + gap_down >= gap_sw - DECOMPOSITION_TOL
        assert gap_sw >= 0.0
        assert gap_up >= 0.0

    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.tuples(
                st.lists(st.floats(0, 1, allow_nan=False), min_size=k, max_size=k),
                st.lists(
                    st.lists(st.floats(0, 1, allow_nan=False), min_size=k, max_size=k),
                    min_size=k,
                    max_size=k,
                ),
                st.integers(0, k - 1),
                st.integers(0, k - 1),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_offerless_gaps_are_nonnegative(self, draw):
        v_up, v_down, up_arm, down_arm = draw
        inst = build_instance(tuple(v_up), tuple(map(tuple, v_down)))
        oracle = compute_oracle(inst)
        gap_sw, gap_up, gap_down = per_round_gaps(inst, oracle, None, up_arm, down_arm)
        assert gap_sw >= 0.0
        assert gap_up >= 0.0
        assert gap_down >= 0.0


class TestBreakdownBound:
    def test_closed_form(self):
        oracle = compute_oracle(DYADIC)
        # delta_sw = 0.25, delta_up = 0.5
        assert breakdown_lower_bound(oracle, 1000, 100.0) == 0.25 * (1000 - 200.0)

    def test_zero_upstream_regret_forces_full_deficit(self):
        oracle = compute_oracle(DYADIC)
        assert breakdown_lower_bound(oracle, 512, 0.0) == 128.0


class TestNoPropertyMode:
    def test_best_response_doubles_hit_exact_welfare_deficit(self):
        res = run_no_property(
            DYADIC, BestResponseUpstream(DYADIC), BestResponseDownstream(DYADIC), 512, 0
        )
        assert res.oracle.misaligned
        assert res.ledger.r_sw == 128.0  # 512 rounds x exact deficit 0.25
        assert res.ledger.r_up_n == 0.0
        assert res.ledger.r_down_n == 0.0
        assert res.breakdown_bound == 128.0

    def test_aligned_instance_has_no_deficit(self):
        aligned = build_instance((1.0, 0.5), ((0.75, 0.0), (0.0, 0.0)))
        res = run_no_property(
            aligned, BestResponseUpstream(aligned), BestResponseDownstream(aligned), 512, 0
        )
        assert not res.oracle.misaligned
        assert res.ledger.r_sw == 0.0
        assert res.breakdown_bound is None

    def test_learning_pair_respects_welfare_floor(self):
        inst = build_instance((1.0, 0.3), ((0.0, 0.0), (0.9, 0.85)))
        for seed in range(3):
            res = run_no_property(
                inst, IncentiveAwareUCB(2, 4096), NaiveContextUCB(2, 4096), 4096, seed
            )
            assert res.oracle.misaligned
            # the run itself raises if the floor is broken; check the margin
            assert res.ledger.r_sw >= res.breakdown_bound - 1e-9 * 4096

    def test_broken_welfare_floor_names_the_game(self, monkeypatch):
        # Raising delta_sw tenfold lifts the floor far above any real r_sw.
        import coase_bandits.engine as engine

        real = engine.compute_oracle
        monkeypatch.setattr(
            engine,
            "compute_oracle",
            lambda inst: dataclasses.replace(real(inst), delta_sw=10.0 * real(inst).delta_sw),
        )
        with pytest.raises(
            RuntimeError,
            match=r"^misaligned run broke the welfare floor: .*; game seed 4, horizon 256$",
        ):
            run_no_property(
                DYADIC, BestResponseUpstream(DYADIC), BestResponseDownstream(DYADIC), 256, 4
            )

    @settings(max_examples=50, deadline=None)
    @given(
        mode=st.sampled_from(("property", "no-property")),
        k=st.integers(1, 5),
        model=st.sampled_from(("gaussian", "bernoulli")),
        horizon=st.integers(256, 2 * BLOCK + 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_utilities_sum_to_welfare(self, mode, k, model, horizon, seed):
        """up_utility + down_utility is welfare up to a bound from the horizon.

        Every per-round term is at most M = max v_up + max v_down + the
        largest offer in magnitude, so every partial sum of a ledger total is
        at most T * M, and each of a total's T additions rounds by at most
        half an ulp of T * M. The per-round terms cancel exactly before
        rounding: (up + paid) + (down - paid) = up + down, and rounding
        each of the three moves it by at most half an ulp of M. With the
        final addition, |up_utility + down_utility - welfare| <= 3 * (T / 2)
        ulp(T * M) + 3 * (T / 2) ulp(M) + ulp(T * M) <= (3T + 1) ulp(T * M).
        """
        inst = random_instance(np.random.default_rng(seed), k, model)
        if mode == "property":
            params = BelgicParams(k, horizon, 0.5, 0.2, 0.5)
            res = run_property(
                inst, IncentiveAwareUCB(k, horizon), Belgic(params), horizon, seed, record_trajectory=True
            )
            largest_offer = float(np.max(np.abs(res.records.tau)))
        else:
            res = run_no_property(inst, IncentiveAwareUCB(k, horizon), NaiveContextUCB(k, horizon), horizon, seed)
            largest_offer = 0.0
        m = max(inst.v_up) + max(map(max, inst.v_down)) + largest_offer
        bound = (3 * horizon + 1) * math.ulp(horizon * m)
        ledger = res.ledger
        assert abs(ledger.up_utility + ledger.down_utility - ledger.welfare) <= bound

    def test_trajectory_records(self):
        res = run_no_property(
            DYADIC,
            BestResponseUpstream(DYADIC),
            BestResponseDownstream(DYADIC),
            16,
            0,
            record_trajectory=True,
        )
        records = res.records
        assert len(records) == 16
        # no offer columns and no search rounds: every row's phase is "-"
        assert records.offered_arm is None and records.tau is None
        assert records.search_rounds == 0
        assert (records.up_arm[0], records.down_arm[0]) == (0, 0)
        assert records.gap_sw[0] == 0.25


class TestPropertyMode:
    def test_oracle_transfer_double_is_first_best(self):
        oracle = compute_oracle(DYADIC)
        oracle_res, zero_res = (
            run_property(
                DYADIC,
                BestResponseUpstream(DYADIC),
                downstream,
                256,
                0,
                record_trajectory=True,
            )
            for downstream in (OracleTransferDownstream(oracle), ZeroTransferDownstream())
        )
        # Neither double searches: no phase-1 outcome, and every row is a play row.
        for res in (oracle_res, zero_res):
            assert res.tau_hat is None
            assert res.phase1_rounds == 0
            assert res.phase1_batches is None
            assert res.records.offered_arm is not None and res.records.search_rounds == 0
        res = oracle_res
        assert res.ledger.r_sw == 0.0
        assert res.ledger.r_up_p == 0.0
        assert res.ledger.r_down_p == 0.0
        records = res.records
        assert records.offered_arm.tolist() == [1] * 256
        assert records.tau.tolist() == [0.5] * 256
        assert records.up_arm.tolist() == [1] * 256
        assert records.down_arm.tolist() == [0] * 256
        assert records.gap_sw.tolist() == [0.0] * 256
        assert records.gap_down.tolist() == [0.0] * 256

    def test_transfer_conservation_exact_on_dyadic_instance(self):
        # all offers, pads, and means are dyadic: the transfer cancels in
        # exact float arithmetic, not just approximately
        res = run_property(
            DYADIC, IncentiveAwareUCB(2, 4096), belgic_for(DYADIC, 4096), 4096, 3
        )
        assert res.ledger.up_utility + res.ledger.down_utility == res.ledger.welfare

    def test_zero_transfer_reduction_is_bit_exact(self):
        """A never-paying downstream leaves the upstream facing exactly the
        no-property game: same arm path, same upstream regret, bit for bit."""
        inst = REFERENCE
        for seed in (0, 1):
            prop = run_property(
                inst,
                IncentiveAwareUCB(2, 2048),
                ZeroTransferDownstream(),
                2048,
                seed,
                record_trajectory=True,
            )
            base = run_no_property(
                inst,
                IncentiveAwareUCB(2, 2048),
                NaiveContextUCB(2, 2048),
                2048,
                seed,
                record_trajectory=True,
            )
            assert prop.records.up_arm.tolist() == base.records.up_arm.tolist()
            assert prop.ledger.r_up_p == base.ledger.r_up_n

    def test_belgic_decomposition_slack_never_negative_beyond_tol(self):
        inst = build_instance((0.9, 0.5), ((0.2, 0.1), (0.8, 0.3)))
        res = run_property(
            inst, IncentiveAwareUCB(2, 4096), belgic_for(inst, 4096), 4096, 11
        )
        assert res.ledger.decomposition_min_slack >= -DECOMPOSITION_TOL

    def test_belgic_welfare_regret_rate_halves_over_16x_horizon(self):
        inst = build_instance((0.5, 0.9), ((0.9, 0.0), (0.49, 0.0)))

        def mean_rate(horizon):
            rates = []
            for seed in range(3):
                belgic = belgic_for(inst, horizon, alpha=0.5, beta=0.2, scale=0.5)
                res = run_property(inst, IncentiveAwareUCB(2, horizon), belgic, horizon, seed)
                rates.append(res.ledger.r_sw / horizon)
            return sum(rates) / len(rates)

        assert mean_rate(2**14) < mean_rate(2**10) / 2.0

    def test_belgic_run_surfaces_phase1_outputs(self):
        inst = build_instance((0.9, 0.5), ((0.2, 0.1), (0.8, 0.3)))
        res = run_property(
            inst, BestResponseUpstream(inst), belgic_for(inst, 4096), 4096, 0
        )
        assert res.tau_hat == (0.59375, 0.78125)
        assert res.phase1_rounds == 3072
        assert len(res.phase1_batches) == 6

    def test_signed_downstream_regret_has_overpay_floor(self):
        # tau_hat overshoots tau* by at most 2/T^beta + 2*pad per round once
        # brackets hold, so the signed regret cannot dive past that budget
        inst = build_instance((0.9, 0.5), ((0.2, 0.1), (0.8, 0.3)))
        horizon = 4096
        params = BelgicParams(2, horizon, 0.75, 0.25, 1.0)
        overshoot = 4.0 * params.precision + 2.0 * params.estimate_pad
        for seed in range(3):
            res = run_property(
                inst, IncentiveAwareUCB(2, horizon), Belgic(params), horizon, seed
            )
            assert res.ledger.r_down_p >= -overshoot * horizon

    def test_horizon_mismatch_rejected(self):
        inst = REFERENCE
        with pytest.raises(ValueError, match="horizon"):
            run_property(inst, IncentiveAwareUCB(2, 2048), belgic_for(inst, 4096), 2048, 0)

    def test_arm_count_mismatch_rejected(self):
        inst = build_instance((0.5, 0.6, 0.7), ((0.0,) * 3,) * 3)
        with pytest.raises(ValueError, match="arms"):
            run_property(inst, IncentiveAwareUCB(3, 4096), belgic_for(REFERENCE, 4096), 4096, 0)

    def test_trajectory_phases(self):
        inst = build_instance((0.9, 0.5), ((0.2, 0.1), (0.8, 0.3)))
        res = run_property(
            inst,
            BestResponseUpstream(inst),
            belgic_for(inst, 4096),
            4096,
            0,
            record_trajectory=True,
        )
        # rounds 1..3072 are search rows, the other 1024 play rows
        assert len(res.records) == 4096 and res.records.offered_arm is not None
        assert res.records.search_rounds == 3072
        assert res.records.tau[0] == 0.5


class TestDeterminism:
    def test_no_property_same_seed_same_ledger(self):
        inst = REFERENCE
        runs = [
            run_no_property(inst, IncentiveAwareUCB(2, 1024), NaiveContextUCB(2, 1024), 1024, 9)
            for _ in range(2)
        ]
        assert runs[0].ledger == runs[1].ledger

    def test_property_same_seed_same_ledger_and_estimates(self):
        inst = build_instance((0.9, 0.5), ((0.2, 0.1), (0.8, 0.3)))
        runs = [
            run_property(inst, IncentiveAwareUCB(2, 4096), belgic_for(inst, 4096), 4096, 21)
            for _ in range(2)
        ]
        assert runs[0].ledger == runs[1].ledger
        assert runs[0].tau_hat == runs[1].tau_hat

    def test_different_seeds_differ(self):
        inst = REFERENCE
        a = run_no_property(inst, IncentiveAwareUCB(2, 1024), NaiveContextUCB(2, 1024), 1024, 0)
        b = run_no_property(inst, IncentiveAwareUCB(2, 1024), NaiveContextUCB(2, 1024), 1024, 1)
        assert a.ledger != b.ledger


FOLD_HORIZONS = (5, 17, 300, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)


class TestBlockFold:
    """Block-folded runs against the one-round-at-a-time reference, bit for bit."""

    @pytest.mark.parametrize("horizon", FOLD_HORIZONS)
    @pytest.mark.parametrize("kind", POLICY_PAIRS, ids="-".join)
    @settings(max_examples=2, deadline=None, phases=NO_EXPLAIN)
    @given(instance=instances(), seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_reference(self, kind, horizon, instance, seed):
        # Each game is played with a trajectory and without one. Its own
        # columns, folded one round at a time by per_round_gaps and +=, give
        # its gaps and ledger; test_rounds checks the columns are the
        # reference policies' rounds.
        cfg = game_config(kind, instance.n_arms, horizon)
        try:
            players = build_players(cfg, instance)
        except ValueError:
            assume(False)  # phase 1 cannot fit K arms into this horizon
        property_mode = cfg.mode == "property"
        run = run_property if property_mode else run_no_property
        traced = run(instance, *players, horizon, seed, record_trajectory=True)
        plain = run(instance, *build_players(cfg, instance), horizon, seed)
        records = traced.records
        assert len(records) == horizon  # the last row is round T
        names = ("up_arm", "down_arm", "offered_arm", "tau")[: 4 if property_mode else 2]
        ledger, *gaps = scalar_fold(
            instance, traced.oracle, *(getattr(records, name).tolist() for name in names)
        )

        for name, column in zip(("gap_sw", "gap_up", "gap_down"), gaps):
            assert_same_column(name, getattr(records, name), column)
        for field in dataclasses.fields(RegretLedger):
            assert getattr(traced.ledger, field.name) == getattr(ledger, field.name), field.name
        assert plain.ledger == traced.ledger

    def test_first_violation_named_across_block_boundary(self):
        # Lowering mu_star_down by 1 lowers every round's slack by 1. Rounds
        # where the upstream refuses a 2.0 offer keep slack 0.3 and pass;
        # taking the exact 0.7 transfer leaves slack -1 from round BLOCK + 3 on.
        inst = REFERENCE
        oracle = compute_oracle(inst)
        rigged = dataclasses.replace(oracle, mu_star_down=oracle.mu_star_down - 1.0)
        refuse = dict(up=0, down=0, arm=1, amount=2.0)
        take = dict(up=1, down=0, arm=1, amount=0.7)
        rounds = [refuse] * (BLOCK + 2) + [take] * (BLOCK - 2)

        def columns(rows):
            return [[r[key] for r in rows] for key in ("up", "down", "arm", "amount")]

        ledger, *_ = fold_block(inst, rigged, RegretLedger(), 1, *columns(rounds[:BLOCK]))
        assert ledger.rounds == BLOCK
        assert ledger.decomposition_min_slack > 0.0
        folded = None
        with pytest.raises(RuntimeError, match=rf"^round {BLOCK + 3}: player regret gaps"):
            folded = fold_block(inst, rigged, ledger, BLOCK + 1, *columns(rounds[BLOCK:]))
        assert folded is None
