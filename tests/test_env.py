"""Instance construction, sampling, and the exact oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scalar_reference import first_max, instances

from coase_bandits.env import (
    BanditInstance,
    build_instance,
    compute_oracle,
    optimal_split_identity_holds,
    random_instance,
    sample_downstream,
    sample_upstream,
    transfer_grid_optimum,
)

# Misaligned reference instance: upstream's favorite is arm 0, but all
# welfare at arm 0 is 1.0 while pair (1, 0) reaches 1.2.
V_UP = (1.0, 0.3)
V_DOWN = ((0.0, 0.0), (0.9, 0.85))


def reference() -> BanditInstance:
    return build_instance(V_UP, V_DOWN)


class TestBuildInstance:
    def test_reference_shape(self):
        inst = reference()
        assert inst.n_arms == 2
        assert inst.v_up == V_UP
        assert inst.v_down == V_DOWN
        assert inst.reward_model == "gaussian"

    def test_rejects_mean_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"v_up\[1\]"):
            build_instance((0.5, 1.2), ((0.1, 0.1), (0.1, 0.1)))
        with pytest.raises(ValueError, match=r"v_down\[0\]\[1\]"):
            build_instance((0.5, 0.5), ((0.1, -0.2), (0.1, 0.1)))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match="2x2"):
            build_instance((0.5, 0.5), ((0.1, 0.1),))
        with pytest.raises(ValueError, match="2x2"):
            build_instance((0.5, 0.5), ((0.1,), (0.2,)))

    def test_rejects_empty_and_bad_model(self):
        with pytest.raises(ValueError, match="at least one arm"):
            build_instance((), ())
        with pytest.raises(ValueError, match="reward model"):
            build_instance((0.5,), ((0.5,),), reward_model="poisson")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            build_instance((float("nan"),), ((0.5,),))


class TestSampling:
    def test_gaussian_mean_shift(self):
        inst = reference()
        r1 = np.random.default_rng(0)
        r2 = np.random.default_rng(0)
        a = sample_upstream(inst, 0, r1)
        b = sample_upstream(inst, 1, r2)
        # identical noise, different means
        assert a - b == pytest.approx(V_UP[0] - V_UP[1])

    def test_bernoulli_support(self):
        inst = build_instance((0.3, 0.8), ((0.5, 0.5), (0.5, 0.5)), "bernoulli")
        rng = np.random.default_rng(1)
        draws = {sample_upstream(inst, 0, rng) for _ in range(50)}
        draws |= {sample_downstream(inst, 1, 0, rng) for _ in range(50)}
        assert draws <= {0.0, 1.0}

    def test_concentration(self):
        # Sub-Gaussian sanity: |mean_hat - mean| < 4*sqrt(log(1/delta)/n)
        # with failure rate <= delta over independent trials.
        delta, n, trials = 0.01, 2048, 200
        bound = 4.0 * math.sqrt(math.log(1.0 / delta) / n)
        failures = 0
        for model in ("gaussian", "bernoulli"):
            inst = build_instance((0.3, 0.7), ((0.5, 0.5), (0.5, 0.5)), model)
            for trial in range(trials):
                rng = np.random.default_rng(10_000 + trial)
                draws = [sample_upstream(inst, 1, rng) for _ in range(n)]
                if abs(float(np.mean(draws)) - 0.7) >= bound:
                    failures += 1
        assert failures <= delta * 2 * trials


class TestOracle:
    def test_reference_values(self):
        o = compute_oracle(reference())
        assert (o.a_sw, o.b_sw) == (1, 0)
        assert o.welfare_star == V_UP[1] + V_DOWN[1][0]
        assert o.mu_star_up == 1.0
        assert o.a_star_up == 0
        assert o.up_argmax_unique
        assert o.tau_star == (0.0, 1.0 - 0.3)
        assert o.delta_up == 1.0 - 0.3
        assert o.delta_sw == o.welfare_star - 1.0
        assert o.delta_sw == pytest.approx(0.2)
        assert (o.v_bar, o.v_under) == (0.9, 0.0)

    def test_identity_on_reference(self):
        o = compute_oracle(reference())
        assert o.mu_star_up + o.mu_star_down == o.welfare_star
        assert optimal_split_identity_holds(reference(), o)

    def test_tie_breaks_to_lowest_indices(self):
        # every pair ties at welfare 1.0: row-major lowest wins
        inst = build_instance((0.5, 0.5), ((0.5, 0.5), (0.5, 0.5)))
        o = compute_oracle(inst)
        assert (o.a_sw, o.b_sw) == (0, 0)
        assert o.a_star_up == 0
        assert not o.up_argmax_unique

    def test_single_arm(self):
        inst = build_instance((0.4,), ((0.6,),))
        o = compute_oracle(inst)
        assert (o.a_sw, o.b_sw) == (0, 0)
        assert o.delta_up == math.inf
        assert o.tau_star == (0.0,)
        assert o.up_argmax_unique

    def test_pure_function(self):
        inst = reference()
        assert compute_oracle(inst) == compute_oracle(inst)

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_tau_star_identities(self, inst):
        o = compute_oracle(inst)
        for a in range(inst.n_arms):
            assert o.tau_star[a] == o.mu_star_up - inst.v_up[a]
            assert o.tau_star[a] >= 0.0
        assert o.tau_star[o.a_star_up] == 0.0

    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_split_identity_random(self, inst):
        # difference form is bit-exact for every instance; the strict sum
        # form is only ulp-close in general (round-to-even can skip the
        # welfare float), so assert exactly what is guaranteed
        o = compute_oracle(inst)
        welfare = max(
            inst.v_up[a] + inst.v_down[a][b]
            for a in range(inst.n_arms)
            for b in range(inst.n_arms)
        )
        assert o.mu_star_up == max(inst.v_up)
        assert o.mu_star_down == welfare - o.mu_star_up
        assert abs(o.mu_star_up + o.mu_star_down - welfare) <= math.ulp(welfare)

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_welfare_star_dominates(self, inst):
        o = compute_oracle(inst)
        for a in range(inst.n_arms):
            for b in range(inst.n_arms):
                assert o.welfare_star >= inst.v_up[a] + inst.v_down[a][b]
        assert o.delta_sw >= 0.0


def misaligned_long_way(inst):
    """Every response to the unique upstream favorite loses welfare,
    strictly, with no epsilon; False when the favorite is not unique."""
    arms, v_up, v_down = range(inst.n_arms), inst.v_up, inst.v_down
    favorite, *others = [a for a in arms if v_up[a] == max(v_up)]
    welfare_star = max(v_up[a] + v_down[a][b] for a in arms for b in arms)
    return not others and all(v_up[favorite] + v_down[favorite][b] < welfare_star for b in arms)


def oracle_long_way(inst):
    """(a_sw, b_sw, a_star_up, mu_star_up, delta_sw, up_rival, down_best),
    each the first maximum of its values, enumerated pair by pair."""
    arms, v_up, v_down = range(inst.n_arms), inst.v_up, inst.v_down
    pairs = [(a, b) for a in arms for b in arms]
    welfares = [v_up[a] + v_down[a][b] for a, b in pairs]
    a_sw, b_sw = pairs[first_max(welfares)]
    welfare_star = v_up[a_sw] + v_down[a_sw][b_sw]
    favorite = first_max(v_up)
    through_favorite = [v_up[favorite] + v_down[favorite][b] for b in arms]
    rivals = []
    for a in arms:
        others = [v_up[b] + 0.0 for b in arms if b != a]
        rivals.append(others[first_max(others)] if others else -math.inf)
    return (
        a_sw,
        b_sw,
        favorite,
        v_up[favorite],
        welfare_star - through_favorite[first_max(through_favorite)],
        tuple(rivals),
        tuple(row[first_max(row)] for row in v_down),
    )


class TestMisalignment:
    def test_reference_is_misaligned(self):
        assert compute_oracle(reference()).misaligned

    def test_aligned_instance(self):
        inst = build_instance((1.0, 0.3), ((0.9, 0.0), (0.1, 0.0)))
        assert not compute_oracle(inst).misaligned

    def test_partial_dominance_is_not_misalignment(self):
        # dyadic welfare tie: the selfish arm 1 still reaches the optimum at
        # b=0, so the welfare deficit is not strict for every b
        o = compute_oracle(build_instance((0.5, 1.0), ((0.75, 0.0), (0.25, 0.0))))
        assert (o.a_star_up, o.a_sw, o.misaligned) == (1, 0, False)

    def test_requires_unique_argmax(self):
        o = compute_oracle(build_instance((0.5, 0.5), ((0.0, 0.0), (0.9, 0.0))))
        assert o.delta_sw > 0.0 and not o.misaligned

    @given(instances())
    def test_oracle_flag_is_the_long_way(self, inst):
        assert compute_oracle(inst).misaligned == misaligned_long_way(inst)

    def test_oracle_flag_is_the_long_way_on_a_dyadic_grid(self):
        # Every instance with K = 1 or 2 on the quarter grid: welfare ties,
        # tied favorites and both verdicts. The upstream slots also take
        # -0.0, which ties 0.0 but prints apart: comparing by repr catches a
        # last maximum taken for the first, and a rival without the "+ 0.0"
        # that IncentiveOffer.bonus adds.
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        seen = set()
        for k in (1, 2):
            for v_up in itertools.product((-0.0,) + grid, repeat=k):
                for means in itertools.product(grid, repeat=k * k):
                    inst = build_instance(v_up, [means[k * i : k * (i + 1)] for i in range(k)])
                    o = compute_oracle(inst)
                    assert o.misaligned == misaligned_long_way(inst), inst
                    mine = (o.a_sw, o.b_sw, o.a_star_up, o.mu_star_up, o.delta_sw, o.up_rival, o.down_best)
                    assert repr(mine) == repr(oracle_long_way(inst)), inst
                    seen.add((o.up_argmax_unique, o.delta_sw > 0.0, o.misaligned))
        assert seen == {(False, False, False), (False, True, False), (True, False, False), (True, True, True)}


class TestTransferGrid:
    def test_reference_grid_matches_closed_form(self):
        inst = reference()
        o = compute_oracle(inst)
        assert transfer_grid_optimum(inst, 1e-6) == pytest.approx(o.mu_star_down, abs=2e-6)

    def test_coarse_grid_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            inst = random_instance(rng, 3)
            o = compute_oracle(inst)
            assert transfer_grid_optimum(inst, 1e-4) == pytest.approx(
                o.mu_star_down, abs=2e-4
            )


class TestRandomInstance:
    def test_shape_and_range(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 4)
        assert inst.n_arms == 4
        assert all(0.0 <= x <= 1.0 for x in inst.v_up)
        assert all(0.0 <= x <= 1.0 for row in inst.v_down for x in row)

    def test_seeded_determinism(self):
        a = random_instance(np.random.default_rng(9), 3)
        b = random_instance(np.random.default_rng(9), 3)
        assert a == b

    def test_misaligned_rejection_sampling(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            inst = random_instance(rng, 2, require_misaligned=True)
            assert compute_oracle(inst).misaligned

    def test_impossible_rejection_exhausts(self):
        # K=1 can never be misaligned: a_star_up is the only (hence welfare) arm
        rng = np.random.default_rng(3)
        with pytest.raises(RuntimeError, match="no misaligned instance"):
            random_instance(rng, 1, require_misaligned=True, max_tries=50)
