"""The scalar reference every game is checked against, round by round.

The reference is the round loop written the long way: every round draws the
two uniform slots with scalar calls, then the rewards through
``sample_upstream`` and ``sample_downstream``; every UCB step recomputes its
indices from the counts and means (``ucb_index``), tries the unsampled arms or
pairs first by an explicit sweep, not through +inf indices, and then plays
``first_max``; a run's threshold is read from a copy of the index
(``ref_run_start``); and every ledger is ``per_round_gaps`` summed with
``+=``.
``env.draw_noise``, ``env.RewardColumns``, the cached indices, the engine's
kernels and ``fold_block`` must reproduce it bit for bit. This module is the
one place the reference is written: the other tests take the scalar draws
(the package's ``sample_upstream`` and ``sample_downstream``, re-exported
here), the index and the first maximum from it.

The policy pairs are built as ``GameConfig``s through
``runner.build_upstream`` and ``runner.build_downstream``, the factories the
CLI uses; ``reference_players`` swaps each learning policy for its reference.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase
from hypothesis import strategies as st

from coase_bandits.acceptance import CERT_BATCH, CERT_CHECKPOINTS, CERT_HORIZON, CERT_TAU, CERT_V_UP
from coase_bandits.config import DOWNSTREAM_POLICIES, MODES, UPSTREAM_POLICIES, GameConfig
from coase_bandits.downstream import Belgic, NaiveContextUCB
from coase_bandits.engine import RegretLedger, per_round_gaps
from coase_bandits.env import build_instance, sample_downstream, sample_upstream
from coase_bandits.runner import build_downstream, build_upstream
from coase_bandits.upstream import NO_OFFER, IncentiveAwareUCB, IncentiveOffer, UCBIndex

#: Hypothesis's phases without "explain", which replays a failing example
#: under line tracing: on a game of thousands of rounds that takes minutes.
#: The tests that play games use these; generation and shrinking are as
#: before.
NO_EXPLAIN = tuple(phase for phase in Phase if phase.name != "explain")

means = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def instances(draw, k=None):
    """An instance with K arms (1 to 5 when not given) and either reward model."""
    if k is None:
        k = draw(st.integers(1, 5))
    return build_instance(
        draw(st.lists(means, min_size=k, max_size=k)),
        draw(st.lists(st.lists(means, min_size=k, max_size=k), min_size=k, max_size=k)),
        draw(st.sampled_from(("gaussian", "bernoulli"))),
    )


# ---------------------------------------------------------------- the draws


def scalar_round(instance, rng, up_arm, down_arm):
    """One round's draws as four scalar calls: two unread uniforms, then the
    upstream and the downstream reward."""
    rng.random()
    rng.random()
    return sample_upstream(instance, up_arm, rng), sample_downstream(instance, up_arm, down_arm, rng)


def scalar_noise(instance, rng, n):
    """n rounds of noise with scalar calls: two uniform slots, then two
    standard normals (gaussian) or uniforms (bernoulli), the upstream's
    first."""
    draw = rng.standard_normal if instance.reward_model == "gaussian" else rng.random
    rows = []
    for _ in range(n):
        rng.random()
        rng.random()
        rows.append([draw(), draw()])
    return rows


def scalar_certificate_noise(instance, rng, rows):
    """Criterion 6's read of ``rows`` rows of scalar_noise: one round per
    reward draw, two rounds to a row, the upstream's first."""
    return [[x] for row in scalar_noise(instance, rng, rows) for x in row]


# ---------------------------------------------------------------- the policies


def ucb_index(mean, pulls, log_term):
    """The UCB index of one arm or pair from its count and mean; +inf before
    its first sample."""
    return math.inf if pulls == 0 else mean + 2.0 * math.sqrt(log_term / pulls)


def scratch_indices(table):
    """Every index of a UCB table recomputed from its counts and means."""
    return [ucb_index(mean, pulls, table.log_term) for mean, pulls in zip(table.means, table.counts)]


def first_max(values):
    """The lowest-numbered maximum, by a strict > scan."""
    best, best_value = 0, -math.inf
    for i, value in enumerate(values):
        if value > best_value:
            best, best_value = i, value
    return best


def ref_run_start(index, arm=-1, amount=0.0):
    """``engine._run_start`` the long way, on a boosted copy of the index:
    the first maximum a, then the first maximum of the others with a's entry
    set to -inf, and the threshold just below that rival's index when a
    wins their tie (or has no rival), the rival's index itself otherwise."""
    rivals = index.copy()
    if 0 <= arm < len(rivals):
        rivals[arm] += amount
    a = rivals.index(max(rivals))
    rivals[a] = -math.inf
    top = max(rivals)
    wins_tie = a < rivals.index(top)
    return a, math.nextafter(top, -math.inf) if wins_tie else top


def ref_record(table, entry, reward):
    """One sample into a UCB table: count, running mean and the entry's index
    from scratch."""
    table.counts[entry] += 1
    table.means[entry] += (reward - table.means[entry]) / table.counts[entry]
    table.index[entry] = ucb_index(table.means[entry], table.counts[entry], table.log_term)


class RefUCB(IncentiveAwareUCB):
    """IncentiveAwareUCB with its own log(K T^3), a step counter forcing the
    first K arms and every index recomputed from counts and means (the stored
    indices are only kept for comparison)."""

    def __init__(self, n_arms, horizon):
        super().__init__(n_arms, horizon)
        self.log_term = math.log(n_arms * horizon**3)
        self.ref_steps = 0

    def step(self, offer):
        self.ref_steps += 1
        if self.ref_steps <= self.n_arms:
            return self.ref_steps - 1
        return first_max([x + offer.bonus(a) for a, x in enumerate(scratch_indices(self))])

    def update(self, arm, reward):
        ref_record(self, arm, reward)


def pair_table(n_arms, horizon):
    """Belgic's pair bandit: a UCBIndex over the K^2 pairs."""
    return UCBIndex(n_arms * n_arms, horizon)


class RefPairUCB(UCBIndex):
    """Belgic's pair table with its own log(K^2 T^3), a pointer to the first
    pair without a sample and every index recomputed from counts and means."""

    def __init__(self, n_arms, horizon):
        super().__init__(n_arms * n_arms, horizon)
        self.log_term = math.log(n_arms * n_arms * horizon**3)
        self.ref_next_pair = 0

    def best(self):
        if self.ref_next_pair < len(self.counts):
            return self.ref_next_pair
        return first_max(scratch_indices(self))

    def record(self, pair, shifted_reward):
        ref_record(self, pair, shifted_reward)
        if pair == self.ref_next_pair:
            self.ref_next_pair += 1


class RefBelgic(Belgic):
    """Belgic on a RefPairUCB. Only the reference games play it
    (``ref_rounds`` through ``ref_play`` and ``ref_phase1``), one step() and
    observe() per round."""

    def __init__(self, params):
        super().__init__(params)
        self.pair_ucb = RefPairUCB(params.n_arms, params.horizon)


class RefNaiveContextUCB(NaiveContextUCB):
    """NaiveContextUCB with an explicit forced sweep and from-scratch indices."""

    def step(self, context):
        ucb = self.contexts[context]
        for b, pulls in enumerate(ucb.counts):
            if pulls == 0:
                return b
        return first_max(scratch_indices(ucb))

    def update(self, context, arm, reward):
        ref_record(self.contexts[context], arm, reward)


#: The ten policy pairs of the two modes: (mode, upstream, downstream).
POLICY_PAIRS = [
    (mode, up, down) for mode in MODES for up in UPSTREAM_POLICIES for down in DOWNSTREAM_POLICIES[mode]
]


def game_config(kind, n_arms, horizon):
    """One of POLICY_PAIRS as a GameConfig; Belgic plays alpha 0.5, beta 0.2
    and certificate scale 0.5, whose search fits short horizons."""
    mode, up, down = kind
    return GameConfig(
        mode=mode,
        n_arms=n_arms,
        horizon=horizon,
        seeds=(0,),
        alpha=0.5,
        beta=0.2,
        c_mode="fixed:0.5",
        upstream_policy=up,
        downstream_policy=down,
    )


def build_players(cfg, instance):
    """The config's (upstream, downstream), built as the CLI builds them."""
    return build_upstream(cfg, instance, cfg.horizon), build_downstream(cfg, instance, cfg.horizon)


def reference_players(cfg, instance):
    """build_players() with each learning policy replaced by its reference."""
    upstream, downstream = build_players(cfg, instance)
    if type(upstream) is IncentiveAwareUCB:
        upstream = RefUCB(instance.n_arms, cfg.horizon)
    if type(downstream) is Belgic:
        downstream = RefBelgic(downstream.params)
    elif type(downstream) is NaiveContextUCB:
        downstream = RefNaiveContextUCB(instance.n_arms, cfg.horizon)
    return upstream, downstream


#: The reference policies' own sweep state, which the package's keep no copy of.
REFERENCE_ONLY = {"ref_steps", "ref_next_pair"}


def learned_state(policy):
    """Every attribute of a policy by value, its pair bandit's and its
    contexts' included: counts, means, indices and Belgic's round counters
    and search log; the reference-only sweep state is left out."""
    state = {name: value for name, value in vars(policy).items() if name not in REFERENCE_ONLY}
    if "pair_ucb" in state:
        state["pair_ucb"] = learned_state(state["pair_ucb"])
    if "contexts" in state:
        state["contexts"] = [learned_state(context) for context in state["contexts"]]
    return state


# ---------------------------------------------------------------- the games


def ref_rounds(instance, upstream, downstream, rng, rounds, property_mode=True):
    """``rounds`` rounds of the round loop on rng's scalar draws; returns the
    played columns, as fold_block takes them: up arms and down arms, then in
    the property mode offered arms and amounts."""
    ups, downs, arms, amounts = [], [], [], []
    for _ in range(rounds):
        if property_mode:
            offer, down_arm = downstream.step()
            up_arm = upstream.step(offer)
        else:
            up_arm = upstream.step(NO_OFFER)
            down_arm = downstream.step(up_arm)
        z, x = scalar_round(instance, rng, up_arm, down_arm)
        upstream.update(up_arm, z)
        if property_mode:
            downstream.observe(up_arm, x)
            arms.append(offer.arm)
            amounts.append(offer.amount)
        else:
            downstream.update(up_arm, down_arm, x)
        ups.append(up_arm)
        downs.append(down_arm)
    return (ups, downs, arms, amounts) if property_mode else (ups, downs)


def ref_play(instance, upstream, downstream, horizon, seed, property_mode):
    """A whole game of ref_rounds from the seed's generator."""
    return ref_rounds(instance, upstream, downstream, np.random.default_rng(seed), horizon, property_mode)


def scalar_fold(instance, oracle, up_arms, down_arms, offered_arms=None, amounts=None):
    """The played columns folded one round at a time: per_round_gaps and
    Python += from a fresh ledger. Returns the ledger and the (gap_sw,
    gap_up, gap_down) columns, as fold_block does."""
    v_up, v_down = instance.v_up, instance.v_down
    led = RegretLedger()
    gaps = ([], [], [])
    offers = [None] * len(up_arms) if offered_arms is None else map(IncentiveOffer, offered_arms, amounts)
    for up_arm, down_arm, offer in zip(up_arms, down_arms, offers):
        gap_sw, gap_up, gap_down = per_round_gaps(instance, oracle, offer, up_arm, down_arm)
        for column, gap in zip(gaps, (gap_sw, gap_up, gap_down)):
            column.append(gap)
        led.rounds += 1
        led.r_sw += gap_sw
        led.welfare += v_up[up_arm] + v_down[up_arm][down_arm]
        if offer is None:
            led.r_up_n += gap_up
            led.r_down_n += gap_down
            led.up_utility += v_up[up_arm]
            led.down_utility += v_down[up_arm][down_arm]
        else:
            paid = offer.bonus(up_arm)
            slack = gap_up + gap_down - gap_sw
            if slack < led.decomposition_min_slack:
                led.decomposition_min_slack = slack
            led.r_up_p += gap_up
            led.r_down_p += gap_down
            led.up_utility += v_up[up_arm] + paid
            led.down_utility += v_down[up_arm][down_arm] - paid
    return (led, *gaps)


def ref_phase1(instance, upstream, params, rng):
    belgic = RefBelgic(params)
    while belgic.in_search_phase:
        ref_rounds(instance, upstream, belgic, rng, 1)
    return belgic.tau_hat, belgic.diagnostics, belgic.phase1_rounds


def ref_certificate_run(seed):
    """Criterion 6's game: round t reads the t-th normal of the game rows,
    two rounds to a row."""
    inst = build_instance(CERT_V_UP, ((0.0, 0.0), (0.0, 0.0)))
    k = inst.n_arms
    rounds = max(CERT_CHECKPOINTS)
    noise = scalar_certificate_noise(inst, np.random.default_rng(seed), rounds // 2)
    ucb = RefUCB(k, CERT_HORIZON)
    regret, out = 0.0, []
    for t in range(1, rounds + 1):
        arm = ((t - 1) // CERT_BATCH) % k
        offer = IncentiveOffer(arm, CERT_TAU[arm])
        played = ucb.step(offer)
        ucb.update(played, inst.v_up[played] + noise[t - 1][0])
        best = max(inst.v_up[a] + offer.bonus(a) for a in range(k))
        regret += best - (inst.v_up[played] + offer.bonus(played))
        if t in CERT_CHECKPOINTS:
            out.append(regret)
    return out


def assert_same_column(name, mine, theirs):
    """Assert two columns of rounds are equal. A failure names the column and
    its first differing row, rather than handing pytest thousands of rounds
    to diff."""
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    if np.array_equal(mine, theirs):
        return
    if mine.shape != theirs.shape:
        pytest.fail(f"{name}: shape {mine.shape} against {theirs.shape}")
    i = int(np.flatnonzero(mine != theirs)[0])
    pytest.fail(f"{name}: row {i} is {mine[i].item()!r}, expected {theirs[i].item()!r}")
