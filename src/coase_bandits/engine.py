"""Round loop, regret accounting, and path-wise invariant checks.

Both game modes share one accounting convention: regrets are pseudo-regrets,
accumulated from true means along the realized path, never from sampled
rewards. Both modes read each round's noise from rows of
``env.draw_noise``, which states the per-round draw order. The draws never
depend on the arms played, so a game at horizon T reads exactly the first T
rounds of ``default_rng(seed)``'s stream, whatever the arms, the mode or the
policies: runs with the same seed stay comparable across modes and
policies. ``runner.play_seed`` relies on this: it draws a seed's noise once
and plays every config and horizon of that seed on a prefix of it, as a
sweep's per-seed tasks and criterion 2's six policy pairs do.

One block loop plays both modes: it asks a round function for a block of
``BLOCK`` rounds (fewer at the end), which only drives the policies and
collects each round's arms and offer, and ``fold_block`` turns the
collected columns into per-round gaps and adds them onto the ledger.
``run_phase1`` plays Belgic's search through the same property rounds. The
gaps are ``per_round_gaps``'s arithmetic applied elementwise, and every sum
runs in round order, so ledgers and trajectories are bit-identical to
folding one round at a time. A recorded trajectory is held as columns
(``Trajectory``), not as one object per round.

Every round function takes ``(upstream, downstream, rewards)``, with
``rewards`` the block's ``env.RewardColumns``, built once per block (or per
search batch in ``run_phase1``): round i's upstream reward for arm a is
``rewards.up[a][i]`` and its downstream reward at pair (a, b) is
``rewards.down_column(a * K + b)[i]``. The two learning pairs,
(IncentiveAwareUCB, Belgic) in the property mode and (IncentiveAwareUCB,
NaiveContextUCB) in the no-property mode, run on a kernel each
(``_ucb_belgic_rounds``, ``_ucb_naive_rounds``) that plays the policies'
``step`` and ``UCBIndex.record`` in runs (below), working on the UCB tables'
lists in place; ``_round_function`` picks one by the two policies' exact
types. Belgic's counters and search log are its own: the Belgic kernel hands
them over through ``Belgic.reserve`` and ``Belgic.searched`` and assigns no
Belgic attribute. Every other pair, subclasses and test doubles included,
runs on the generic loops (``_property_rounds``, ``_no_property_rounds``),
which call the policies' methods one round at a time. A kernel returns the same columns and leaves the policies in the same
state as the generic loop.

A run is a stretch of rounds in a row with the same played arms. A round
changes only the played arm's entries of a UCB table, so while an arm keeps
playing, every other index of its table is frozen, and the arm stays the
first maximum exactly while its own new index stays above one threshold read
from the table in one scan when the run starts (``_run_start``). Two helpers
play a run, each round as ``UCBIndex.record`` does, its running mean on
locals plus the bonus read from the table's ``bonus`` (``ucb_bonuses``), the
one place the bonus formula is computed: ``_run`` moves one table (the
stretch, and Belgic's refused offers), and ``_joint_run`` moves two tables
together (Belgic's upstream and pair table on a taken offer, the naive
pair's upstream and context row). Each round of a run is one update per
table on locals and one comparison per table; the round that fails it ends
the run, the entries are written back once, and the next run reads the
tables afresh, so the runs play the arms the policies' ``step`` would.

The kernels keep runs, not rounds: one tuple per run, its rounds and arms
(and offer), and ``_columns`` repeats every field by the run lengths into
the block's columns, the only place the kernels' columns are built.
``ucb_offer_stretch`` plays IncentiveAwareUCB under one fixed offer and
returns its (rounds, played arm) runs: Belgic's search batches are such
stretches, their refusals summed from the runs, and so are criterion 6's
(``acceptance._certificate_run``).

Every UCB explores by one rule, which the kernels share: an arm or pair with
no sample has index +inf, and the lowest-numbered maximum is played, so the
unsampled ones go first, in index order. No policy or kernel keeps a step
counter or sweep pointer for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .downstream import Belgic, BelgicParams, NaiveContextUCB, Phase1Batch
from .env import BLOCK, BanditInstance, Oracle, RewardColumns, compute_oracle, draw_noise
from .upstream import NO_OFFER, IncentiveAwareUCB, IncentiveOffer, UCBIndex, check_count

#: Slack allowed to the per-round regret decomposition inequality; covers
#: float rounding only, the inequality itself is exact.
DECOMPOSITION_TOL = 1e-12


@dataclass
class RegretLedger:
    """Cumulative path-wise regrets and expected-utility tallies.

    r_up_n / r_down_n accumulate in the no-property mode, r_up_p / r_down_p
    in the property mode, r_sw in both. r_down_p sums signed gaps: a round
    where the realized transfer overshoots the oracle optimum goes in
    negative, never clamped.
    """

    rounds: int = 0
    r_up_n: float = 0.0
    r_down_n: float = 0.0
    r_sw: float = 0.0
    r_up_p: float = 0.0
    r_down_p: float = 0.0
    up_utility: float = 0.0
    down_utility: float = 0.0
    welfare: float = 0.0
    decomposition_min_slack: float = math.inf


@dataclass(eq=False)
class Trajectory:
    """One game's per-round records as columns; row i is round t = i + 1.

    offered_arm and tau are None in the no-property mode. In the property
    mode the first search_rounds rounds are Belgic's search phase;
    ``runner.write_trajectory`` states the row format.
    """

    up_arm: np.ndarray
    down_arm: np.ndarray
    gap_sw: np.ndarray
    gap_up: np.ndarray
    gap_down: np.ndarray
    offered_arm: np.ndarray | None = None
    tau: np.ndarray | None = None
    search_rounds: int = 0

    @classmethod
    def empty(cls, horizon: int, offers: bool) -> "Trajectory":
        columns = [np.zeros(horizon, dtype=np.intp) for _ in range(2)]
        columns += [np.zeros(horizon) for _ in range(3)]
        if offers:
            columns += [np.zeros(horizon, dtype=np.intp), np.zeros(horizon)]
        return cls(*columns)

    def put(self, start: int, gaps, up_arm, down_arm, offer_arm=None, amount=None) -> None:
        """Store rounds start, start + 1, ... (gaps as fold_block returns them)."""
        rows = slice(start - 1, start - 1 + len(up_arm))
        self.up_arm[rows] = up_arm
        self.down_arm[rows] = down_arm
        self.gap_sw[rows], self.gap_up[rows], self.gap_down[rows] = gaps
        if self.offered_arm is not None:
            self.offered_arm[rows] = offer_arm
            self.tau[rows] = amount

    def __len__(self) -> int:
        return len(self.up_arm)


@dataclass
class GameResult:
    mode: str
    seed: int
    horizon: int
    instance: BanditInstance
    oracle: Oracle
    ledger: RegretLedger
    records: Trajectory | None = None
    tau_hat: tuple[float, ...] | None = None
    phase1_rounds: int = 0
    phase1_batches: list | None = None
    breakdown_bound: float | None = None


def per_round_gaps(
    instance: BanditInstance,
    oracle: Oracle,
    offer: IncentiveOffer | None,
    up_arm: int,
    down_arm: int,
) -> tuple[float, float, float]:
    """(welfare gap, upstream gap, downstream gap) for one played round.

    offer is None in the no-property mode: the upstream gap benchmarks the
    best unilateral mean and the downstream gap the best response to the
    observed arm. With an offer, both players are benchmarked against the
    transfer-adjusted optima; the downstream gap can be negative.
    """
    v_up, v_down = instance.v_up, instance.v_down
    gap_sw = oracle.welfare_star - (v_up[up_arm] + v_down[up_arm][down_arm])
    if offer is None:
        gap_up = oracle.mu_star_up - v_up[up_arm]
        gap_down = max(v_down[up_arm]) - v_down[up_arm][down_arm]
    else:
        paid = offer.bonus(up_arm)
        best = max(v_up[a] + offer.bonus(a) for a in range(instance.n_arms))
        gap_up = best - (v_up[up_arm] + paid)
        gap_down = oracle.mu_star_down - (v_down[up_arm][down_arm] - paid)
    return gap_sw, gap_up, gap_down


def breakdown_lower_bound(oracle: Oracle, horizon: int, r_up_n: float) -> float:
    """Welfare-regret floor forced by upstream no-regret under misalignment:
    every round the upstream spends on its favorite arm costs at least
    delta_sw of welfare, and its own regret caps the rounds spent elsewhere."""
    return oracle.delta_sw * (horizon - r_up_n / oracle.delta_up)


def fold_block(
    instance: BanditInstance,
    oracle: Oracle,
    ledger: RegretLedger,
    start: int,
    up_arm,
    down_arm,
    offer_arm=None,
    amount=None,
) -> tuple[RegretLedger, np.ndarray, np.ndarray, np.ndarray]:
    """Fold played rounds start, start + 1, ... onto ``ledger``.

    Returns the new ledger and the rounds' (gap_sw, gap_up, gap_down)
    columns; ``ledger`` itself is left as it was. offer_arm/amount are None
    in the no-property mode. The benchmarks come from the oracle: the
    welfare optimum, ``mu_star_up`` and each context's best reply
    ``down_best`` without property rights; ``mu_star_down`` and each
    offered arm's ``up_rival`` with them. Each gap is per_round_gaps's
    arithmetic, and each ledger sum is a cumulative sum seeded with its
    running total, so the result is bit-identical to adding the rounds one
    at a time. In the property mode the first round that breaks the
    decomposition inequality gap_up + gap_down >= gap_sw raises, naming
    that round.
    """
    up = np.asarray(up_arm, dtype=np.intp)
    down = np.asarray(down_arm, dtype=np.intp)
    v_up = np.array(instance.v_up)
    up_mean = v_up[up]
    down_mean = np.array(instance.v_down)[up, down]
    welfare = up_mean + down_mean
    gap_sw = oracle.welfare_star - welfare
    min_slack = ledger.decomposition_min_slack
    if offer_arm is None:
        names = ("r_up_n", "r_down_n")
        gap_up = oracle.mu_star_up - up_mean
        gap_down = np.array(oracle.down_best)[up] - down_mean
        up_utility, down_utility = up_mean, down_mean
    else:
        names = ("r_up_p", "r_down_p")
        arm = np.asarray(offer_arm, dtype=np.intp)
        amt = np.asarray(amount, dtype=float)
        paid = np.where(up == arm, amt, 0.0)
        up_utility = up_mean + paid
        down_utility = down_mean - paid
        gap_up = np.maximum(np.array(oracle.up_rival)[arm], v_up[arm] + amt) - up_utility
        gap_down = oracle.mu_star_down - down_utility
        slack = gap_up + gap_down - gap_sw
        if slack.size:
            lowest = slack[np.argmin(slack)]
            if lowest < min_slack:
                min_slack = float(lowest)
        broken = np.flatnonzero(slack < -DECOMPOSITION_TOL)
        if broken.size:
            i = int(broken[0])
            raise RuntimeError(
                f"round {start + i}: player regret gaps {float(gap_up[i]):.17g} + "
                f"{float(gap_down[i]):.17g} fell below the welfare gap {float(gap_sw[i]):.17g} "
                f"by {float(-slack[i]):.3e}; transfers should cancel exactly"
            )

    names += ("r_sw", "up_utility", "down_utility", "welfare")
    table = np.empty((len(names), len(up) + 1))
    table[:, 0] = [getattr(ledger, name) for name in names]
    table[:, 1:] = (gap_up, gap_down, gap_sw, up_utility, down_utility, welfare)
    totals = np.cumsum(table, axis=1)[:, -1].tolist()
    folded = replace(
        ledger,
        rounds=ledger.rounds + len(up),
        decomposition_min_slack=min_slack,
        **dict(zip(names, totals)),
    )
    return folded, gap_sw, gap_up, gap_down


def _no_property_rounds(upstream, downstream, rewards: RewardColumns):
    """Play one no-property round per row of rewards: (up_arm, down_arm) columns."""
    up, down = rewards.up, rewards.down_column
    k = len(up)
    up_step, up_update = upstream.step, upstream.update
    down_step, down_update = downstream.step, downstream.update
    ups, downs = [], []
    for i in range(len(rewards)):
        up_arm = up_step(NO_OFFER)
        down_arm = down_step(up_arm)
        up_update(up_arm, up[up_arm][i])
        down_update(up_arm, down_arm, down(up_arm * k + down_arm)[i])
        ups.append(up_arm)
        downs.append(down_arm)
    return np.array(ups, dtype=np.intp), np.array(downs, dtype=np.intp)


def _property_rounds(upstream, downstream, rewards: RewardColumns):
    """Play one property round per row of rewards: (up_arm, down_arm,
    offer_arm, amount) columns."""
    up, down = rewards.up, rewards.down_column
    k = len(up)
    up_step, up_update = upstream.step, upstream.update
    down_step, observe = downstream.step, downstream.observe
    ups, downs, offers = [], [], []
    for i in range(len(rewards)):
        offer, down_arm = down_step()
        up_arm = up_step(offer)
        up_update(up_arm, up[up_arm][i])
        observe(up_arm, down(up_arm * k + down_arm)[i])
        ups.append(up_arm)
        downs.append(down_arm)
        offers.append(offer)
    return (
        np.array(ups, dtype=np.intp),
        np.array(downs, dtype=np.intp),
        np.array([o.arm for o in offers], dtype=np.intp),
        np.array([o.amount for o in offers], dtype=float),
    )


def _run_start(index: list[float], arm: int = -1, amount: float = 0.0) -> tuple[int, float]:
    """Open a run on one UCB table: (a, bar).

    a is the arm the table plays now, the lowest-numbered maximum of
    ``index`` with ``amount`` added to ``index[arm]`` (as
    ``IncentiveAwareUCB.step`` boosts an offered arm; an arm outside the
    table adds nothing). bar is the one threshold of the run: while only a's
    entry moves, a is still that first maximum exactly when its new index,
    plus ``amount`` if a is the offered arm, is above bar. bar is top, the
    highest other (boosted) index, when an arm numbered below a holds it,
    and otherwise the float just below top, since a then wins a tie. One
    scan finds both: an entry above the best so far makes the old best the
    rival, and one above the rival alone replaces it.
    """
    a, best, rival, top = 0, -math.inf, -1, -math.inf
    for i, x in enumerate(index):
        if i == arm:
            x += amount
        if x > best:
            rival, top, a, best = a, best, i, x
        elif x > top:
            rival, top = i, x
    return a, math.nextafter(top, -math.inf) if a < rival else top


def _run(table: UCBIndex, a: int, bar: float, boost: float, zs, i: int, stop: int) -> int:
    """Play one run of arm a on ``table`` from round i, before ``stop``, and
    return the rounds played.

    Round j records reward ``zs[j]`` with ``UCBIndex.record``'s arithmetic on
    locals, the bonus read from the table's ``bonus``, and the run goes on
    while the new index plus ``boost`` stays above ``bar`` (``_run_start``'s);
    the round that drops it to or below ends the run. The entries are
    written back once; a count past the table's horizon raises ValueError."""
    bonus = table.bonus
    counts, means = table.counts, table.means
    c, mean = counts[a], means[a]
    try:
        for end in range(i, stop):
            c += 1
            mean += (zs[end] - mean) / c
            value = mean + bonus[c]
            if value + boost <= bar:
                break
    except IndexError:
        check_count(bonus, c)
        raise
    m = c - counts[a]
    counts[a], means[a], table.index[a] = c, mean, value
    return m


def _joint_run(
    up: UCBIndex,
    a: int,
    bar: float,
    boost: float,
    zs,
    table: UCBIndex,
    p: int,
    p_bar: float,
    shift: float,
    xs,
    i: int,
    stop: int,
) -> int:
    """``_run`` on two tables that move together: arm a of ``up`` records
    ``zs[j]`` and entry p of ``table`` records ``xs[j] - shift`` each round,
    and the run ends at the first round where either new index (a's plus
    ``boost``) drops to its threshold. Returns the rounds played."""
    bonus, p_bonus = up.bonus, table.bonus
    counts, means = up.counts, up.means
    c, mean = counts[a], means[a]
    d, p_mean = table.counts[p], table.means[p]
    try:
        for end in range(i, stop):
            c += 1
            mean += (zs[end] - mean) / c
            value = mean + bonus[c]
            d += 1
            p_mean += ((xs[end] - shift) - p_mean) / d
            p_value = p_mean + p_bonus[d]
            if value + boost <= bar or p_value <= p_bar:
                break
    except IndexError:
        check_count(bonus, c)
        check_count(p_bonus, d)
        raise
    m = c - counts[a]
    counts[a], means[a], up.index[a] = c, mean, value
    table.counts[p], table.means[p], table.index[p] = d, p_mean, p_value
    return m


def ucb_offer_stretch(
    ucb: IncentiveAwareUCB,
    arm: int,
    amount: float,
    rewards: list[list[float]],
    start: int,
    stop: int,
) -> list[tuple[int, int]]:
    """Play ``ucb`` under the fixed offer (arm, amount) on rounds start,
    ..., stop - 1 of a block; return its (rounds, played arm) runs in order.

    Round i's reward for arm a is ``rewards[a][i]`` (``RewardColumns.up``).
    Each round plays what ``ucb.step(IncentiveOffer(arm, amount))`` would,
    in runs of one arm (``_run``), so a run that ``stop`` cuts resumes
    exactly where it was cut.
    """
    runs = []
    i = start
    while i < stop:
        a, bar = _run_start(ucb.index, arm, amount)
        m = _run(ucb, a, bar, amount if a == arm else 0.0, rewards[a], i, stop)
        runs.append((m, a))
        i += m
    return runs


def _columns(runs: list[tuple]) -> tuple[np.ndarray, ...]:
    """Repeat each run's fields by its rounds into round columns: runs, at
    least one, of (rounds, up_arm, down_arm[, offer_arm, amount])."""
    fields = list(zip(*runs))
    rounds = np.array(fields[0], dtype=np.intp)
    dtypes = (np.intp, np.intp, np.intp, float)
    return tuple(np.repeat(np.array(f, dtype=d), rounds) for f, d in zip(fields[1:], dtypes))


def _ucb_belgic_rounds(upstream: IncentiveAwareUCB, downstream: Belgic, rewards: RewardColumns):
    """_property_rounds for exactly (IncentiveAwareUCB, Belgic), with the
    upstream's and the pair bandit's lists updated in place: the same
    columns and final policy state.

    The block's rounds are reserved up front. Each stretch of a search batch
    is played by ``ucb_offer_stretch`` and handed to ``Belgic.searched``
    with its refusals, so a batch that fills (and may end the search in
    mid-block) closes as it would under ``observe``. The play phase reads
    Belgic's ``pair_plays`` and plays runs of one (pair, upstream arm): a
    refused offer moves the upstream table alone (``_run``), and a taken one
    moves it and the pair table together (``_joint_run``).
    """
    n = len(rewards)
    downstream.reserve(n)
    batch_length = downstream.params.batch_length
    up = rewards.up
    runs = []
    done = 0

    while done < n and downstream.tau_hat is None:
        offer = downstream.search_offer
        m = min(n - done, batch_length - downstream.batch_round)
        stretch = ucb_offer_stretch(upstream, offer.arm, offer.amount, up, done, done + m)
        runs += [(r, a, 0, offer.arm, offer.amount) for r, a in stretch]
        done += m
        downstream.searched(m, sum(r for r, a in stretch if a != offer.arm))

    if done < n:
        bandit = downstream.pair_ucb
        # Belgic offers on arms 0..K-1, so each pair is also its own
        # (offered arm, own arm) downstream column.
        plays = [(offer.arm, own, offer.amount) for offer, own in downstream.pair_plays]
        i = done
        while i < n:
            pair, pair_bar = _run_start(bandit.index)
            arm, own, amount = plays[pair]
            a, bar = _run_start(upstream.index, arm, amount)
            if a == arm:
                xs = rewards.down_column(pair)
                m = _joint_run(
                    upstream, a, bar, amount, up[a], bandit, pair, pair_bar, amount, xs, i, n
                )
            else:
                m = _run(upstream, a, bar, 0.0, up[a], i, n)
            runs.append((m, a, own, arm, amount))
            i += m

    return _columns(runs)


def _ucb_naive_rounds(
    upstream: IncentiveAwareUCB, downstream: NaiveContextUCB, rewards: RewardColumns
):
    """_no_property_rounds for exactly (IncentiveAwareUCB, NaiveContextUCB),
    with the upstream's and each context's lists updated in place.

    The rounds are played in runs of one (upstream arm a, downstream arm b)
    with no offer: a round moves only a's entry of the upstream table and
    b's of context a's row, so each run is one ``_joint_run`` with nothing
    boosted or shifted."""
    up, down = rewards.up, rewards.down_column
    k = upstream.n_arms
    contexts = downstream.contexts
    n = len(rewards)
    runs = []
    i = 0
    while i < n:
        a, up_bar = _run_start(upstream.index)
        row = contexts[a]
        b, row_bar = _run_start(row.index)
        m = _joint_run(upstream, a, up_bar, 0.0, up[a], row, b, row_bar, 0.0, down(a * k + b), i, n)
        runs.append((m, a, b))
        i += m
    return _columns(runs)


def _round_function(offers: bool, upstream, downstream):
    """The round function for this pair of policies: a kernel for exactly the
    two learning pairs (subclasses may override what a kernel inlines), the
    generic loop for every other pair."""
    if type(upstream) is IncentiveAwareUCB:
        if offers and type(downstream) is Belgic:
            return _ucb_belgic_rounds
        if not offers and type(downstream) is NaiveContextUCB:
            return _ucb_naive_rounds
    return _property_rounds if offers else _no_property_rounds


def _game_error(message: str, seed: int, horizon: int) -> RuntimeError:
    return RuntimeError(f"{message}; game seed {seed}, horizon {horizon}")


def _play(
    mode: str,
    instance: BanditInstance,
    upstream,
    downstream,
    horizon: int,
    seed: int,
    record_trajectory: bool,
    noise: np.ndarray | None = None,
) -> GameResult:
    """Play one game of ``mode`` in blocks of BLOCK rounds, folding each block
    onto the ledger; an invariant error names the seed and the horizon.

    Each block draws its noise rows from ``default_rng(seed)`` as it plays,
    so a game holds O(BLOCK) rows. A caller that drew the seed's noise
    already passes it as ``noise``, at least ``horizon`` rows of
    ``draw_noise(instance, default_rng(seed), n)``, and the game reads its
    first ``horizon`` rows instead.
    """
    oracle = compute_oracle(instance)
    rng = np.random.default_rng(seed) if noise is None else None
    offers = mode == "property"
    play = _round_function(offers, upstream, downstream)
    ledger = RegretLedger()
    records = Trajectory.empty(horizon, offers) if record_trajectory else None

    for start in range(1, horizon + 1, BLOCK):
        n = min(BLOCK, horizon + 1 - start)
        rows = draw_noise(instance, rng, n) if noise is None else noise[start - 1 : start - 1 + n]
        columns = play(upstream, downstream, RewardColumns(instance, rows))
        try:
            ledger, *gaps = fold_block(instance, oracle, ledger, start, *columns)
        except RuntimeError as exc:
            raise _game_error(str(exc), seed, horizon) from None
        if records is not None:
            records.put(start, gaps, *columns)

    return GameResult(
        mode=mode,
        seed=seed,
        horizon=horizon,
        instance=instance,
        oracle=oracle,
        ledger=ledger,
        records=records,
    )


def run_no_property(
    instance: BanditInstance,
    upstream,
    downstream,
    horizon: int,
    seed: int,
    record_trajectory: bool = False,
    noise: np.ndarray | None = None,
) -> GameResult:
    """Baseline game: no offers, the downstream merely adapts to contexts.

    After the run, if the instance is misaligned, the path-wise welfare
    breakdown bound is asserted: r_sw >= delta_sw * (T - r_up_n / delta_up)
    up to float slack proportional to the horizon; a breach raises naming
    the seed and the horizon.
    """
    result = _play(
        "no-property", instance, upstream, downstream, horizon, seed, record_trajectory, noise
    )
    if result.oracle.misaligned:
        ledger = result.ledger
        bound = breakdown_lower_bound(result.oracle, horizon, ledger.r_up_n)
        if ledger.r_sw < bound - 1e-9 * horizon:
            raise _game_error(
                f"misaligned run broke the welfare floor: r_sw = {ledger.r_sw:.17g} "
                f"< bound {bound:.17g}",
                seed,
                horizon,
            )
        result.breakdown_bound = bound
    return result


def run_property(
    instance: BanditInstance,
    upstream,
    downstream,
    horizon: int,
    seed: int,
    record_trajectory: bool = False,
    noise: np.ndarray | None = None,
) -> GameResult:
    """Property-rights game: the downstream opens each round with an offer.

    Every round is checked for the decomposition inequality gap_up +
    gap_down >= gap_sw (transfers cancel, so the players' regrets jointly
    dominate the welfare regret); the minimum slack is kept in the ledger,
    and a violation raises naming the round, the seed and the horizon.
    With a Belgic downstream, its parameters must match the game, the
    result carries its phase-1 outcome, and trajectory rows up to its
    phase1_rounds are "search" rows. ``noise`` is ``_play``'s: rows the
    caller drew for this seed, or None to draw them block by block.
    """
    args = ("property", instance, upstream, downstream, horizon, seed, record_trajectory, noise)
    if not isinstance(downstream, Belgic):
        return _play(*args)

    params = downstream.params
    if params.horizon != horizon:
        raise ValueError(f"downstream expects horizon {params.horizon}, engine got {horizon}")
    if params.n_arms != instance.n_arms:
        raise ValueError(f"downstream expects {params.n_arms} arms, instance has {instance.n_arms}")
    result = _play(*args)
    result.tau_hat = downstream.tau_hat
    result.phase1_rounds = downstream.phase1_rounds
    result.phase1_batches = list(downstream.diagnostics) or None
    if result.records is not None:
        result.records.search_rounds = downstream.phase1_rounds
    return result


def run_phase1(
    instance: BanditInstance,
    upstream,
    params: BelgicParams,
    rng: np.random.Generator,
) -> tuple[tuple[float, ...], list[Phase1Batch], int]:
    """Drive only Belgic's search phase against a live upstream policy.

    Returns (tau_hat, batches, rounds): the transfer estimates, the
    Phase1Batch log (each arm's last row holds its final bracket, and
    whether it returned early), and the search rounds played. Rounds are
    the property game's own, one batch at a time, each batch's noise drawn
    from ``rng`` by ``draw_noise``; Belgic changes phase only when a batch
    completes, so phase 1 here is bit-identical to phase 1 inside a full
    game with the same rng. Downstream rewards are drawn and discarded; the
    search only consumes compliance.
    """
    belgic = Belgic(params)
    play = _round_function(True, upstream, belgic)
    n = params.batch_length
    while belgic.in_search_phase:
        play(upstream, belgic, RewardColumns(instance, draw_noise(instance, rng, n)))
    return belgic.tau_hat, belgic.diagnostics, belgic.phase1_rounds
