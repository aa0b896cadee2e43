"""Upstream policies: incentive-aware UCB and its certificate."""

import itertools
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_reference import RefUCB, first_max, sample_upstream, scratch_indices, ucb_index

from coase_bandits.downstream import NaiveContextUCB
from coase_bandits.env import BLOCK, build_instance
from coase_bandits.upstream import (
    NO_OFFER,
    BestResponseUpstream,
    IncentiveAwareUCB,
    IncentiveOffer,
    UCBIndex,
    ucb_bonuses,
    ucb_certificate,
    ucb_log_term,
)


class TestIncentiveOffer:
    def test_bonus_indicator(self):
        offer = IncentiveOffer(1, 0.4)
        assert offer.bonus(1) == 0.4
        assert offer.bonus(0) == 0.0

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            IncentiveOffer(0, -0.1)
        with pytest.raises(ValueError):
            IncentiveOffer(0, math.inf)

    def test_no_offer_is_neutral(self):
        assert NO_OFFER.bonus(0) == 0.0
        assert NO_OFFER.bonus(3) == 0.0


class TestInitialization:
    def test_three_arms_sweep_in_order(self):
        ucb = IncentiveAwareUCB(3, 100)
        # huge offer on arm 2 is ignored while any arm is unpulled
        seen = []
        for _ in range(3):
            seen.append(ucb.step(IncentiveOffer(2, 50.0)))
            ucb.update(seen[-1], 0.5)
        assert seen == [0, 1, 2]

    def test_single_arm(self):
        ucb = IncentiveAwareUCB(1, 10)
        assert ucb.step(NO_OFFER) == 0

    def test_horizon_too_short(self):
        with pytest.raises(ValueError, match="cannot fit"):
            IncentiveAwareUCB(3, 2)


class TestUpdate:
    def test_two_point_mean(self):
        ucb = IncentiveAwareUCB(2, 100)
        ucb.update(0, 0.4)
        ucb.update(0, 0.8)
        assert ucb.counts[0] == 2
        assert ucb.means[0] == pytest.approx(0.6)

    def test_first_update_sets_mean(self):
        ucb = IncentiveAwareUCB(2, 100)
        ucb.update(1, -2.5)
        assert ucb.means[1] == -2.5

    @given(st.floats(-5, 5, allow_nan=False), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_constant_rewards_fix_the_mean(self, c, n):
        ucb = IncentiveAwareUCB(1, 100)
        for _ in range(n):
            ucb.update(0, c)
        assert ucb.means[0] == pytest.approx(c)


def primed_ucb(means, pulls, horizon=4096):
    """UCB past initialization with chosen empirical state (every arm pulled)."""
    ucb = IncentiveAwareUCB(len(means), horizon)
    for arm, (mean, n) in enumerate(zip(means, pulls)):
        for _ in range(n):
            ucb.update(arm, mean)
    return ucb


class TestStep:
    def test_equal_pulls_argmax_of_means(self):
        ucb = primed_ucb([0.9, 0.1], [5, 5])
        assert ucb.step(IncentiveOffer(0, 0.0)) == 0

    def test_large_transfer_overrides_any_deficit(self):
        # amount 12 exceeds the largest possible index gap
        # (means in [0,1], exploration term <= 2*sqrt(log(K T^3)))
        ucb = primed_ucb([0.9, 0.1], [500, 1], horizon=4096)
        gap_cap = 1.0 + 2.0 * math.sqrt(ucb.log_term)
        assert 12.0 > gap_cap
        assert ucb.step(IncentiveOffer(1, 12.0)) == 1

    def test_exact_tie_goes_to_lowest_index(self):
        ucb = primed_ucb([0.5, 0.5], [7, 7])
        assert ucb.step(NO_OFFER) == 0

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=4),
        st.integers(0, 3),
        st.floats(0, 4, allow_nan=False),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_transfer_shift_argmax(self, means, target, extra, data):
        k = len(means)
        target %= k
        pulls = data.draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
        ucb = primed_ucb(means, pulls)
        index = scratch_indices(ucb)
        deficit = max(index) - index[target]
        offer = IncentiveOffer(target, deficit + 1e-9 + extra)
        assert ucb.step(offer) == target

    def test_zero_offers_reproduce_classic_ucb(self):
        """With zero-amount offers the transfer term vanishes and the policy
        must walk the classic UCB's path (RefUCB without offers) on the same
        reward stream."""
        inst = build_instance((0.8, 0.4, 0.1), ((0.0,) * 3,) * 3)
        horizon = 600

        def trace(ucb, offer, seed):
            rng = np.random.default_rng(seed)
            path = []
            for _ in range(horizon):
                arm = ucb.step(offer)
                ucb.update(arm, sample_upstream(inst, arm, rng))
                path.append(arm)
            return path

        for seed in (0, 1, 2):
            classic = trace(RefUCB(3, horizon), NO_OFFER, seed)
            assert trace(IncentiveAwareUCB(3, horizon), IncentiveOffer(2, 0.0), seed) == classic


class TestBonusTable:
    @given(n=st.integers(1, 25), horizon=st.sampled_from((1, BLOCK - 1, BLOCK, BLOCK + 1, 2**16, 2**17)))
    @settings(max_examples=60, deadline=None)
    def test_entries_are_the_scalar_formula(self, n, horizon):
        # Bit for bit: entry c is the reference index of a zero mean at
        # count c, and entry 0 the +inf of an arm with no sample.
        bonus = ucb_bonuses(n, horizon)
        log_term = ucb_log_term(n, horizon)
        want = array("d", (ucb_index(0.0, c, log_term) for c in range(horizon + 1)))
        assert len(bonus) == horizon + 1
        assert bonus.tobytes() == want.tobytes()

    def test_tables_of_one_size_share_one_bonus_table(self):
        up, context = IncentiveAwareUCB(3, 4096), NaiveContextUCB(3, 4096)
        assert up.bonus is UCBIndex(3, 4096).bonus
        assert all(table.bonus is up.bonus for table in context.contexts)
        assert UCBIndex(9, 4096).bonus is not up.bonus
        assert IncentiveAwareUCB(3, 4095).bonus is not up.bonus

    def test_record_past_the_horizon_raises(self):
        ucb = IncentiveAwareUCB(2, 3)
        for _ in range(3):
            ucb.update(1, 0.5)
        before = (list(ucb.counts), list(ucb.means), list(ucb.index))
        with pytest.raises(ValueError, match="^count 4 is past the UCB table's horizon 3$"):
            ucb.update(1, 0.5)
        assert (ucb.counts, ucb.means, ucb.index) == before
        ucb.update(0, 0.5)
        assert ucb.counts == [1, 3]


class TestCertificate:
    def test_reference_scale(self):
        assert ucb_certificate(2, 4096) == pytest.approx(57.2952445420377, rel=1e-12)

    def test_unit_log_term_gives_eight(self):
        # horizon e^(1/3) makes log(1 * T^3) = 1 exactly
        assert ucb_certificate(1, math.e ** (1.0 / 3.0)) == 8.0

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            ucb_certificate(0, 10)
        with pytest.raises(ValueError):
            ucb_certificate(2, 0)


class TestRegretBehavior:
    def test_pseudo_regret_sublinear(self):
        """Per-round regret at T=2^14 under half its T=2^10 value (gap 0.4)."""
        inst = build_instance((0.9, 0.5), ((0.0, 0.0), (0.0, 0.0)))

        def per_round_regret(horizon, seed):
            rng = np.random.default_rng(seed)
            ucb = IncentiveAwareUCB(2, horizon)
            regret = 0.0
            for _ in range(horizon):
                arm = ucb.step(NO_OFFER)
                ucb.update(arm, sample_upstream(inst, arm, rng))
                regret += 0.9 - inst.v_up[arm]
            return regret / horizon

        for seed in (0, 1, 2):
            assert per_round_regret(2**14, seed) < per_round_regret(2**10, seed) / 2.0


class TestBestResponseDouble:
    def test_plays_argmax_without_offer(self):
        inst = build_instance((0.2, 0.9, 0.5), ((0.0,) * 3,) * 3)
        double = BestResponseUpstream(inst)
        assert double.step(NO_OFFER) == 1

    def test_sufficient_transfer_redirects(self):
        inst = build_instance((0.9, 0.5), ((0.0, 0.0), (0.0, 0.0)))
        double = BestResponseUpstream(inst)
        assert double.step(IncentiveOffer(1, 0.5)) == 1  # indifferent: takes it
        assert double.step(IncentiveOffer(1, 0.41)) == 1
        assert double.step(IncentiveOffer(1, 0.39)) == 0

    def test_zero_offer_tie_breaks_low(self):
        inst = build_instance((0.7, 0.7), ((0.0, 0.0), (0.0, 0.0)))
        double = BestResponseUpstream(inst)
        assert double.step(IncentiveOffer(1, 0.0)) == 0

    def test_offer_outside_the_arms_changes_nothing(self):
        # v_up[-1] + 0.4 ties the best value, and v_up has no arm 2.
        inst = build_instance((0.9, 0.5), ((0.0, 0.0), (0.0, 0.0)))
        double = BestResponseUpstream(inst)
        for arm in (-2, -1, 2, 3):
            for amount in (0.0, 0.4, 5.0):
                assert double.step(IncentiveOffer(arm, amount)) == 0

    def test_is_the_long_way_on_a_dyadic_grid(self):
        # Every v_up on the quarter grid with K = 1 to 3, against offers on
        # arms -1..K. The long way is the first maximum of v_up[b] +
        # offer.bonus(b), with a positive offer's arm taking a tie. 2**-60 is
        # below half an ulp of every nonzero grid mean, so v + 2**-60 == v:
        # a tie at a positive amount.
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        for k in (1, 2, 3):
            for v_up in itertools.product(grid, repeat=k):
                double = BestResponseUpstream(build_instance(v_up, ((0.0,) * k,) * k))
                for arm, amount in itertools.product(range(-1, k + 1), (0.0, 2**-60, 0.25, 0.5, 1.0)):
                    offer = IncentiveOffer(arm, amount)
                    values = [v_up[b] + offer.bonus(b) for b in range(k)]
                    best = first_max(values)
                    if amount > 0.0 and 0 <= arm < k and values[arm] == values[best]:
                        best = arm
                    assert double.step(offer) == best, (v_up, offer)

    def test_update_is_noop(self):
        inst = build_instance((0.7, 0.2), ((0.0, 0.0), (0.0, 0.0)))
        double = BestResponseUpstream(inst)
        double.update(0, 123.0)
        assert double.step(NO_OFFER) == 0
