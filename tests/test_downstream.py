"""Downstream policies: the two-phase search-then-play policy and baselines."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_reference import pair_table, ref_rounds, sample_downstream

from coase_bandits.downstream import (
    Belgic,
    BelgicParams,
    BestResponseDownstream,
    NaiveContextUCB,
    OracleTransferDownstream,
    ZeroTransferDownstream,
    binary_search_batch_update,
    validate_params,
)
from coase_bandits.engine import run_phase1
from coase_bandits.env import build_instance, compute_oracle
from coase_bandits.upstream import BestResponseUpstream, IncentiveAwareUCB, IncentiveOffer, ucb_certificate


def reference():
    return build_instance((0.9, 0.5), ((0.2, 0.1), (0.8, 0.3)))


def default_params():
    return BelgicParams(2, 4096, 0.75, 0.25, 1.0)


def small_params():
    """Smallest schedule that validates; full games finish in 256 rounds."""
    return BelgicParams(2, 256, 0.5, 0.2, 0.5)


def three_batch_params():
    """Three arms whose searches play up to three batches of 64 rounds."""
    return BelgicParams(3, 4096, 0.5, 0.2, 0.5)


def final_rows(diags):
    """Each arm's last Phase1Batch row, in arm order: its final bracket."""
    return list({row.arm: row for row in diags}.values())


class TestParams:
    def test_default_schedule(self):
        p = default_params()
        assert p.batch_length == 512
        assert p.n_batches == 3
        assert p.precision == 0.125
        assert p.estimate_pad == 0.125
        assert p.phase1_max_rounds == 3072

    def test_threshold_two_thirds_exponent(self):
        # batch 256 at alpha=2/3, so the threshold is 256^(5/6)
        p = BelgicParams(2, 4096, 2 / 3, (2 / 3) / 3, 1.0)
        assert p.batch_length == 256
        assert p.threshold == pytest.approx(101.59366732596473, rel=1e-12)

    def test_threshold_linear_when_exponents_sum_to_one(self):
        p = BelgicParams(2, 256, 0.5, 0.25, 0.25)
        assert p.threshold == 0.25 * p.batch_length

    def test_threshold_zero_scale(self):
        p = BelgicParams(2, 4096, 0.75, 0.25, 0.0)
        assert p.threshold == 0.0

    def test_threshold_scales_with_certificate(self):
        lo = BelgicParams(2, 4096, 0.75, 0.25, 1.0)
        hi = BelgicParams(2, 4096, 0.75, 0.25, 2.0)
        assert hi.threshold == pytest.approx(2.0 * lo.threshold, rel=1e-15)


class TestValidation:
    def test_default_accepted(self):
        validate_params(default_params())

    def test_equal_exponents_rejected(self):
        with pytest.raises(ValueError, match="tradeoff"):
            validate_params(BelgicParams(2, 4096, 0.5, 0.5, 0.1))

    def test_tradeoff_cap_is_strict(self):
        # beta/alpha < 1 - exponent = 0.5: the largest float ratio below the
        # cap passes and the cap fails (alpha 0.5 keeps both ratios exact).
        validate_params(BelgicParams(2, 4096, 0.5, 0.5 * math.nextafter(0.5, 0.0), 0.0))
        with pytest.raises(ValueError, match=r"beta/alpha = 0\.5 must be < 1 - exponent = 0\.5$"):
            validate_params(BelgicParams(2, 4096, 0.5, 0.25, 0.0))

    def test_phase1_overflow_rejected(self):
        # 4 arms x 32 rounds x 2 batches = 256 rounds exceed the horizon
        with pytest.raises(ValueError, match="cannot fit"):
            validate_params(BelgicParams(4, 100, 0.75, 0.25, 0.1))

    def test_theoretical_certificate_rejected_at_desk_scale(self):
        with pytest.raises(ValueError, match="threshold"):
            validate_params(BelgicParams(2, 4096, 0.75, 0.25, ucb_certificate(2, 4096)))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            validate_params(BelgicParams(2, 4096, alpha, 0.25, 1.0))

    def test_nonpositive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            validate_params(BelgicParams(2, 4096, 0.75, 0.0, 1.0))

    def test_negative_scale(self):
        with pytest.raises(ValueError, match="scale"):
            validate_params(BelgicParams(2, 4096, 0.75, 0.25, -1.0))

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_nonfinite_scale(self, scale):
        with pytest.raises(ValueError, match=f"^certificate scale must be finite and >= 0, got {scale}$"):
            validate_params(BelgicParams(2, 4096, 0.75, 0.25, scale))

    def test_horizon_one_cannot_fit_phase1(self):
        # log2(1) = 0 still leaves one batch per arm to play
        p = BelgicParams(2, 1, 0.75, 0.25, 0.1)
        assert p.n_batches == 1
        with pytest.raises(ValueError, match="cannot fit"):
            validate_params(p)

    def test_degenerate_dimensions(self):
        with pytest.raises(ValueError, match="arm"):
            validate_params(BelgicParams(0, 4096, 0.75, 0.25, 1.0))
        with pytest.raises(ValueError, match="horizon"):
            validate_params(BelgicParams(2, 0, 0.75, 0.25, 1.0))


@dataclass
class StubParams:
    """Duck-typed schedule so branch tests control every constant directly."""

    batch_length: int = 100
    threshold: float = 10.0
    precision: float = 0.125
    n_batches: int = 5


class TestBatchUpdate:
    def test_low_count_tightens_upper(self):
        assert binary_search_batch_update(0.0, 1.0, 2, StubParams()) == ("upper", 0.0, 0.625)

    def test_high_count_tightens_lower(self):
        assert binary_search_batch_update(0.0, 1.0, 95, StubParams()) == ("lower", 0.375, 1.0)

    def test_ambiguous_count_stops_early(self):
        assert binary_search_batch_update(0.0, 1.0, 50, StubParams()) == ("early_return", 0.0, 1.0)

    def test_threshold_boundaries_are_decisive(self):
        assert binary_search_batch_update(0.0, 1.0, 10, StubParams())[0] == "upper"
        assert binary_search_batch_update(0.0, 1.0, 90, StubParams())[0] == "lower"

    def test_bounds_clamped_to_unit_interval(self):
        assert binary_search_batch_update(0.0, 0.1, 100, StubParams())[1] == 0.0
        assert binary_search_batch_update(0.9, 1.0, 0, StubParams())[2] == 1.0

    def test_count_outside_batch_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            binary_search_batch_update(0.0, 1.0, 101, StubParams())
        with pytest.raises(ValueError, match="outside"):
            binary_search_batch_update(0.0, 1.0, -1, StubParams())

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_bracket_stays_ordered_in_unit_interval(self, counts):
        lower, upper = 0.0, 1.0
        for m in counts:
            branch, lower, upper = binary_search_batch_update(lower, upper, m, StubParams())
            assert 0.0 <= lower <= upper <= 1.0
            assert lower <= (lower + upper) / 2.0 <= upper
            if branch == "early_return":
                break


class TestPhase1:
    """Search phase against the deterministic best-response upstream.

    With tau* = (0.0, 0.4) every batch is decided exactly, so the whole
    bracket walk is a closed-form halving from [0, 1]."""

    def run(self, seed=0):
        inst = reference()
        return run_phase1(
            inst, BestResponseUpstream(inst), default_params(), np.random.default_rng(seed)
        )

    def test_round_count(self):
        _, _, rounds = self.run()
        assert rounds == 3072

    def test_bracket_walk_is_exact(self):
        _, diags, _ = self.run()
        walk = [(d.arm, d.tau_mid, d.mismatches, d.branch, d.tau_lower, d.tau_upper) for d in diags]
        assert walk == [
            (0, 0.5, 0, "upper", 0.0, 0.625),
            (0, 0.3125, 0, "upper", 0.0, 0.4375),
            (0, 0.21875, 0, "upper", 0.0, 0.34375),
            (1, 0.5, 0, "upper", 0.0, 0.625),
            (1, 0.3125, 512, "lower", 0.1875, 0.625),
            (1, 0.40625, 0, "upper", 0.1875, 0.53125),
        ]

    def test_final_brackets_contain_tau_star(self):
        _, diags, _ = self.run()
        oracle = compute_oracle(reference())
        for row in final_rows(diags):
            assert row.tau_lower <= oracle.tau_star[row.arm] <= row.tau_upper

    def test_width_matches_halving_recurrence(self):
        _, diags, _ = self.run()
        p = default_params()
        h = p.precision
        ideal = (1.0 - 2.0 * h) / 2.0**p.n_batches + 2.0 * h
        for row in final_rows(diags):
            width = row.tau_upper - row.tau_lower
            assert width == pytest.approx(ideal, abs=1e-12)
            assert width <= 2.0 * h + 0.25  # coarse bound, two decisive halvings

    def test_tau_hat_identity(self):
        tau_hat, diags, _ = self.run()
        p = default_params()
        pad = p.precision + p.estimate_pad
        assert tau_hat == tuple(row.tau_upper + pad for row in final_rows(diags))

    def test_estimates_bookkeeping(self):
        _, diags, _ = self.run()
        rows = final_rows(diags)
        assert [row.arm for row in rows] == [0, 1]
        assert [row.branch == "early_return" for row in rows] == [False, False]
        assert [row.batch_index + 1 for row in rows] == [3, 3]

    def test_containment_with_learning_upstream(self):
        inst = reference()
        oracle = compute_oracle(inst)
        for seed in range(10):
            _, diags, _ = run_phase1(
                inst, IncentiveAwareUCB(2, 4096), default_params(), np.random.default_rng(seed)
            )
            for row in final_rows(diags):
                if row.branch == "early_return":
                    continue
                assert row.tau_lower <= oracle.tau_star[row.arm] <= row.tau_upper

    def test_deterministic_given_seed(self):
        inst = reference()
        runs = [
            run_phase1(inst, IncentiveAwareUCB(2, 4096), default_params(), np.random.default_rng(3))
            for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]


class TestPairUCB:
    def test_init_sweep_is_row_major_and_waits_for_samples(self):
        ucb = pair_table(2, 1000)
        assert ucb.best() == 0
        assert ucb.best() == 0  # no sample landed, keep proposing pair 0
        ucb.record(0, 0.3)
        assert ucb.best() == 1
        ucb.record(1, 0.1)
        ucb.record(2, 0.2)
        ucb.record(3, 0.4)
        # every pair has one sample: the highest mean has the highest index
        assert ucb.best() == 3

    def test_argmax_after_init(self):
        ucb = pair_table(2, 1000)
        for pair, mean in enumerate([0.1, 0.9, 0.2, 0.3]):
            for _ in range(400):
                ucb.record(pair, mean)
        assert ucb.best() == 1

    def test_exact_tie_prefers_lowest_pair(self):
        ucb = pair_table(2, 1000)
        for pair in range(4):
            for _ in range(10):
                ucb.record(pair, 0.5)
        assert ucb.best() == 0

    def test_record_running_mean(self):
        ucb = pair_table(2, 1000)
        ucb.record(2, 0.4)
        ucb.record(2, 0.8)
        assert ucb.counts[2] == 2
        assert ucb.means[2] == pytest.approx(0.6)


class TestBelgic:
    def test_first_offer_is_unit_bracket_midpoint(self):
        belgic = Belgic(default_params())
        offer, own_arm = belgic.step()
        assert (offer.arm, offer.amount) == (0, 0.5)
        assert own_arm == 0
        assert belgic.in_search_phase

    def test_double_step_rejected(self):
        belgic = Belgic(default_params())
        belgic.step()
        with pytest.raises(RuntimeError, match="twice"):
            belgic.step()

    def test_t_counts_rounds_handed_out(self):
        belgic = Belgic(small_params())
        belgic.step()
        assert belgic.t == 1  # counted at step(), before observe()
        belgic.observe(0, 0.0)
        assert belgic.t == 1
        belgic.reserve(255)
        assert belgic.t == 256
        with pytest.raises(ValueError, match="round 257 exceeds horizon 256"):
            belgic.reserve(1)

    def test_searched_closes_a_full_batch(self):
        params = small_params()
        belgic = Belgic(params)
        belgic.searched(params.batch_length - 1, 0)
        assert belgic.diagnostics == []
        belgic.searched(1, 0)
        (row,) = belgic.diagnostics
        assert (row.arm, row.batch_index, row.tau_mid, row.branch) == (0, 0, 0.5, "upper")
        assert (belgic.batch_round, belgic.mismatches) == (0, 0)
        assert belgic.phase1_rounds == params.batch_length

    @given(
        stops=st.lists(st.one_of(st.none(), st.integers(0, 2)), min_size=3, max_size=3),
        refusals=st.lists(st.booleans(), min_size=9, max_size=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_searched_ends_each_arm_at_its_last_batch(self, stops, refusals):
        # stops[arm] is the batch that returns early, None for a full search.
        params = three_batch_params()
        assert (params.n_arms, params.n_batches, params.batch_length) == (3, 3, 64)
        length = params.batch_length
        belgic = Belgic(params)
        refused = iter(refusals)
        want = []
        for arm, stop in enumerate(stops):
            last = params.n_batches - 1 if stop is None else stop
            for batch_index in range(last + 1):
                assert belgic.tau_hat is None
                if batch_index == 0:
                    assert belgic.search_offer == IncentiveOffer(arm, 0.5)
                else:
                    prev = belgic.diagnostics[-1]
                    mid = (prev.tau_lower + prev.tau_upper) / 2.0
                    assert belgic.search_offer == IncentiveOffer(arm, mid)
                if batch_index == stop:
                    m, branch = length // 2, "early_return"
                elif next(refused):
                    m, branch = length, "lower"
                else:
                    m, branch = 0, "upper"
                belgic.searched(length, m)
                want.append((arm, batch_index, branch))
                assert [(r.arm, r.batch_index, r.branch) for r in belgic.diagnostics] == want
        assert belgic.tau_hat is not None and len(belgic.tau_hat) == 3
        assert belgic.phase1_rounds == len(want) * length

    def test_observe_requires_pending_step(self):
        belgic = Belgic(default_params())
        with pytest.raises(RuntimeError, match="pending"):
            belgic.observe(0, 0.0)

    def test_phase_transition_and_first_play_offer(self):
        inst = reference()
        belgic = Belgic(default_params())
        rng = np.random.default_rng(0)
        ref_rounds(inst, BestResponseUpstream(inst), belgic, rng, 3071)
        assert belgic.in_search_phase
        ref_rounds(inst, BestResponseUpstream(inst), belgic, rng, 1)
        assert not belgic.in_search_phase
        offer, own_arm = belgic.step()
        assert offer.arm == 0 and own_arm == 0  # pair 0 opens the init sweep
        assert offer.amount == belgic.tau_hat[0]

    def test_play_phase_records_shifted_reward_only_on_compliance(self):
        inst = reference()
        belgic = Belgic(default_params())
        ref_rounds(inst, BestResponseUpstream(inst), belgic, np.random.default_rng(0), 3072)

        ucb = belgic.pair_ucb
        offer, _ = belgic.step()
        before = (ucb.counts.copy(), ucb.means.copy())
        belgic.observe(1 - offer.arm, 0.9)  # refused: nothing recorded
        assert (ucb.counts, ucb.means) == before

        offer, _ = belgic.step()
        belgic.observe(offer.arm, 0.9)
        assert ucb.counts[0] == 1
        assert ucb.means[0] == 0.9 - offer.amount

    def test_estimated_transfers_redirect_best_response(self):
        # sandwich: tau_hat exceeds tau* by at least the precision pad, so
        # the deterministic upstream complies with every phase-2 offer
        inst = reference()
        tau_hat, _, _ = run_phase1(
            inst, BestResponseUpstream(inst), default_params(), np.random.default_rng(0)
        )
        fresh = BestResponseUpstream(inst)
        for a in range(2):
            assert fresh.step(IncentiveOffer(a, tau_hat[a])) == a

    def test_step_past_horizon_rejected(self):
        inst = reference()
        params = small_params()
        belgic = Belgic(params)
        ref_rounds(inst, BestResponseUpstream(inst), belgic, np.random.default_rng(1), 256)
        with pytest.raises(ValueError, match="horizon"):
            belgic.step()

    def test_invalid_params_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Belgic(BelgicParams(2, 4096, 0.5, 0.5, 0.1))


class TestNaiveContextUCB:
    def test_per_context_forced_sweep(self):
        ucb = NaiveContextUCB(3, 1000)
        assert ucb.step(0) == 0
        ucb.update(0, 0, 0.5)
        assert ucb.step(0) == 1
        assert ucb.step(2) == 0  # fresh context starts its own sweep

    def test_dominant_arm_after_saturation(self):
        ucb = NaiveContextUCB(2, 1000)
        for arm, mean in enumerate([0.1, 0.9]):
            for _ in range(1000):
                ucb.update(0, arm, mean)
        assert ucb.step(0) == 1

    def test_update_running_mean(self):
        ucb = NaiveContextUCB(2, 1000)
        ucb.update(1, 0, 0.2)
        ucb.update(1, 0, 0.6)
        assert ucb.contexts[1].counts[0] == 2
        assert ucb.contexts[1].means[0] == pytest.approx(0.4)

    def test_learns_best_arm_in_fixed_context(self):
        inst = build_instance((1.0, 0.0), ((0.9, 0.1), (0.0, 0.0)))
        rng = np.random.default_rng(0)
        ucb = NaiveContextUCB(2, 2048)
        regret = 0.0
        for _ in range(2048):
            b = ucb.step(0)
            ucb.update(0, b, sample_downstream(inst, 0, b, rng))
            regret += 0.9 - inst.v_down[0][b]
        assert regret / 2048 < 0.1


class TestDoubles:
    def test_oracle_transfer_double(self):
        oracle = compute_oracle(reference())
        double = OracleTransferDownstream(oracle)
        offer, own_arm = double.step()
        assert (offer.arm, offer.amount) == (1, 0.4)
        assert own_arm == 0
        double.observe(1, 0.5)  # no-op

    def test_zero_transfer_double(self):
        double = ZeroTransferDownstream()
        offer, own_arm = double.step()
        assert offer.amount == 0.0
        assert own_arm == 0

    def test_best_response_double_rows(self):
        inst = build_instance((0.5, 0.5), ((0.5, 0.5), (0.1, 0.9)))
        double = BestResponseDownstream(inst)
        assert double.step(0) == 0  # row tie goes to the lowest index
        assert double.step(1) == 1
        double.update(0, 0, 1.0)  # no-op
        assert double.step(0) == 0
