"""Downstream player policies.

The centerpiece is BELGIC, the two-phase policy for the property-rights
game: phase 1 runs a batched binary search per upstream arm to bracket the
minimal transfer that redirects the upstream player to that arm; phase 2
treats the K^2 (offered arm, own arm) pairs as one bandit over
transfer-adjusted rewards. A naive per-context UCB plays the no-property
baseline, and deterministic doubles cover the test matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .env import BanditInstance, Oracle
from .upstream import IncentiveOffer, RegretCertificate


@dataclass(frozen=True)
class BelgicParams:
    """Static parameters of the two-phase policy.

    alpha: batch length exponent, each binary-search batch lasts ceil(T^alpha).
    beta:  precision exponent, the search slack per update is 1/T^beta and the
           final estimates resolve tau to that order.
    certificate: the upstream policy's batched-regret promise; its scale also
           sets the mismatch threshold separating decisive from ambiguous
           batches.
    """

    n_arms: int
    horizon: int
    alpha: float
    beta: float
    certificate: RegretCertificate

    @property
    def batch_length(self) -> int:
        return math.ceil(self.horizon**self.alpha)

    @property
    def n_batches(self) -> int:
        # Every arm's search plays at least one batch, even at horizon 1.
        return max(1, math.ceil(self.beta * math.log2(self.horizon)))

    @property
    def precision(self) -> float:
        return 1.0 / self.horizon**self.beta

    @property
    def threshold(self) -> float:
        c = self.certificate
        return c.scale * self.batch_length ** (c.exponent + self.beta / self.alpha)

    @property
    def estimate_pad(self) -> float:
        c = self.certificate
        return c.scale * self.horizon ** ((c.exponent - 1.0) / 2.0)

    @property
    def phase1_max_rounds(self) -> int:
        return self.n_arms * self.batch_length * self.n_batches


def validate_params(params: BelgicParams) -> None:
    """Reject parameterizations whose guarantees are vacuous or unrunnable."""
    if params.n_arms < 1:
        raise ValueError("need at least one arm")
    if params.horizon < 1:
        raise ValueError("horizon must be positive")
    if not 0.0 < params.alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {params.alpha}")
    if params.beta <= 0.0:
        raise ValueError(f"beta must be positive, got {params.beta}")
    c = params.certificate
    if c.scale < 0.0:
        raise ValueError(f"certificate scale must be >= 0, got {c.scale}")
    slack_cap = 1.0 - c.exponent
    if not params.beta / params.alpha < slack_cap:
        raise ValueError(
            "precision/batch tradeoff violated: beta/alpha = "
            f"{params.beta / params.alpha:.6g} must be < 1 - exponent = {slack_cap:.6g}"
        )
    if not params.phase1_max_rounds < params.horizon:
        raise ValueError(
            f"phase 1 cannot fit: {params.n_arms} arms x {params.batch_length} rounds x "
            f"{params.n_batches} batches = {params.phase1_max_rounds} >= horizon {params.horizon}"
        )
    if not params.threshold < params.batch_length / 2.0:
        raise ValueError(
            f"mismatch threshold {params.threshold:.6g} must be < half the batch "
            f"length {params.batch_length / 2.0:.6g}; lower the certificate scale "
            "or raise the horizon"
        )


@dataclass
class BinarySearchState:
    """Bracket [tau_lower, tau_upper] for one arm's minimal sufficient transfer."""

    arm: int
    tau_lower: float = 0.0
    tau_upper: float = 1.0
    batches_done: int = 0
    finished: bool = False
    early_return: bool = False

    def midpoint(self) -> float:
        return (self.tau_lower + self.tau_upper) / 2.0


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def binary_search_batch_update(
    state: BinarySearchState, mismatch_count: int, params: BelgicParams
) -> str:
    """Fold one batch's mismatch count into the bracket; returns the branch taken.

    With theta the mismatch threshold, a count strictly inside
    (theta, batch - theta) is ambiguous: it contradicts the upstream regret
    certificate on both hypotheses, so the search stops early for this arm
    and the bracket is left as-is. A small count means the offer was taken,
    so the midpoint (plus slack) is a valid upper bound; a large count means
    it was refused, giving a lower bound (minus slack). Bounds are clamped
    to [0, 1], where the true minimal transfer always lives.
    """
    if state.finished:
        raise ValueError(f"arm {state.arm}: search already finished")
    batch = params.batch_length
    if not 0 <= mismatch_count <= batch:
        raise ValueError(f"mismatch count {mismatch_count} outside [0, {batch}]")
    theta = params.threshold
    mid = state.midpoint()
    slack = params.precision
    if theta < mismatch_count < batch - theta:
        state.early_return = True
        state.finished = True
        branch = "early_return"
    elif mismatch_count <= theta:
        state.tau_upper = _clamp01(mid + slack)
        branch = "upper"
    else:
        state.tau_lower = _clamp01(mid - slack)
        branch = "lower"
    state.batches_done += 1
    if state.batches_done >= params.n_batches:
        state.finished = True
    return branch


@dataclass(frozen=True)
class Phase1Batch:
    """Diagnostics row for one completed binary-search batch."""

    arm: int
    batch_index: int
    tau_mid: float
    mismatches: int
    branch: str
    tau_lower: float
    tau_upper: float


class PairUCB:
    """UCB over the K^2 (offered arm, own arm) pairs on shifted rewards.

    Pairs are numbered row-major: pair = offered_arm * K + own_arm. A pair
    without a sample has index +inf, so pairs are tried in row-major order
    first. Updates land only on rounds where the upstream actually played
    the offered arm, so a refused pair keeps its +inf and is proposed again.
    """

    def __init__(self, n_arms: int, horizon: int):
        self.n_arms = n_arms
        n_pairs = n_arms * n_arms
        self.n_pairs = n_pairs
        self.log_term = math.log(n_pairs * horizon**3)
        self.counts = [0] * n_pairs
        self.means = [0.0] * n_pairs
        self.index = [math.inf] * n_pairs

    def step(self) -> int:
        """Lowest-numbered pair with the highest index; changes no state."""
        index = self.index
        return index.index(max(index))

    def record(self, pair: int, shifted_reward: float) -> None:
        n = self.counts[pair] + 1
        self.counts[pair] = n
        mean = self.means[pair] + (shifted_reward - self.means[pair]) / n
        self.means[pair] = mean
        self.index[pair] = mean + 2.0 * math.sqrt(self.log_term / n)


class Belgic:
    """Two-phase downstream policy: bracket the transfers, then play pairs.

    step() -> (IncentiveOffer, own_arm); observe(upstream_arm, reward) must
    follow every step. During the search phase the policy offers the current
    bracket midpoint on the arm under search and plays own arm 0; rewards in
    that phase are ignored, only compliance counts. When the last arm's
    search ends, tau_hat holds the estimates (None until then) and
    pair_plays each pair's (offer, own arm): the play phase offers tau_hat
    on the proposed pair's arm and feeds reward - tau_hat through the pair
    bandit whenever the upstream complied.

    Belgic alone writes its state: step() and observe() go through reserve()
    and searched(), as does the engine's (IncentiveAwareUCB, Belgic) kernel,
    which plays many rounds per call. t counts the rounds handed out, and
    diagnostics, one Phase1Batch row per full batch, is the search's record.
    """

    def __init__(self, params: BelgicParams):
        validate_params(params)
        self.params = params
        self.t = 0
        self.search_state = BinarySearchState(arm=0)
        self.batch_round = 0
        self.mismatches = 0
        self.diagnostics: list[Phase1Batch] = []
        self.tau_hat: tuple[float, ...] | None = None
        self.pair_ucb = PairUCB(params.n_arms, params.horizon)
        self.phase1_rounds = 0
        self._pending: tuple[IncentiveOffer, int] | None = None
        # Offers change only between batches and are fixed once the search
        # ends; each is built once, not per round.
        self.search_offer = IncentiveOffer(0, self.search_state.midpoint())
        self.pair_plays: tuple[tuple[IncentiveOffer, int], ...] = ()

    @property
    def in_search_phase(self) -> bool:
        return self.tau_hat is None

    def reserve(self, rounds: int) -> None:
        """Hand out the next ``rounds`` rounds of the game; refused while a
        step() awaits its observe() or past the horizon."""
        if self._pending is not None:
            raise RuntimeError("step() called twice without observe()")
        if self.t + rounds > self.params.horizon:
            raise ValueError(f"round {self.params.horizon + 1} exceeds horizon {self.params.horizon}")
        self.t += rounds

    def step(self) -> tuple[IncentiveOffer, int]:
        self.reserve(1)
        if self.tau_hat is None:
            offer, own_arm, pair = self.search_offer, 0, -1
        else:
            pair = self.pair_ucb.step()
            offer, own_arm = self.pair_plays[pair]
        self._pending = (offer, pair)
        return offer, own_arm

    def observe(self, upstream_arm: int, reward: float) -> None:
        if self._pending is None:
            raise RuntimeError("observe() called without a pending step()")
        offer, pair = self._pending
        self._pending = None
        if pair < 0:
            self.searched(1, upstream_arm != offer.arm)
        elif upstream_arm == offer.arm:
            self.pair_ucb.record(pair, reward - offer.amount)

    def searched(self, rounds: int, mismatches: int) -> None:
        """Add ``rounds`` search rounds at search_offer, ``mismatches`` of them
        refused, to the open batch. A full batch moves the bracket, is logged,
        and opens the next batch, the next arm's search or the play phase."""
        self.phase1_rounds += rounds
        self.batch_round += rounds
        self.mismatches += mismatches
        if self.batch_round < self.params.batch_length:
            return
        state = self.search_state
        batch_index = state.batches_done
        branch = binary_search_batch_update(state, self.mismatches, self.params)
        self.diagnostics.append(
            Phase1Batch(
                arm=state.arm,
                batch_index=batch_index,
                tau_mid=self.search_offer.amount,
                mismatches=self.mismatches,
                branch=branch,
                tau_lower=state.tau_lower,
                tau_upper=state.tau_upper,
            )
        )
        self.batch_round = 0
        self.mismatches = 0
        if state.finished:
            if state.arm + 1 == self.params.n_arms:
                # Each arm's final bracket is its last logged row.
                pad = self.params.precision + self.params.estimate_pad
                final_upper = {row.arm: row.tau_upper for row in self.diagnostics}
                self.tau_hat = tuple(upper + pad for upper in final_upper.values())
                offers = [IncentiveOffer(arm, tau) for arm, tau in enumerate(self.tau_hat)]
                own_arms = range(self.params.n_arms)
                self.pair_plays = tuple((offer, own) for offer in offers for own in own_arms)
                return
            self.search_state = BinarySearchState(arm=state.arm + 1)
        self.search_offer = IncentiveOffer(self.search_state.arm, self.search_state.midpoint())


class NaiveContextUCB:
    """No-property baseline: an independent UCB per observed upstream arm.

    The upstream arm is a context the downstream cannot influence; each
    context gets its own indices, +inf for an arm never played there, so
    each context tries its arms in index order first. Bonus matches the
    upstream policy's ln(K * T^3) scaling since each context is a K-armed
    problem.
    """

    def __init__(self, n_arms: int, horizon: int):
        self.n_arms = n_arms
        self.log_term = math.log(n_arms * horizon**3)
        self.counts = [[0] * n_arms for _ in range(n_arms)]
        self.means = [[0.0] * n_arms for _ in range(n_arms)]
        self.index = [[math.inf] * n_arms for _ in range(n_arms)]

    def step(self, context: int) -> int:
        """Lowest arm with the highest index in this context; changes no state."""
        index = self.index[context]
        return index.index(max(index))

    def update(self, context: int, arm: int, reward: float) -> None:
        n = self.counts[context][arm] + 1
        self.counts[context][arm] = n
        means = self.means[context]
        mean = means[arm] + (reward - means[arm]) / n
        means[arm] = mean
        self.index[context][arm] = mean + 2.0 * math.sqrt(self.log_term / n)


class OracleTransferDownstream:
    """Property-mode double: offers the welfare arm at its exact minimal
    transfer and plays the welfare-optimal own arm. Needs the oracle."""

    def __init__(self, oracle: Oracle):
        self.offer = IncentiveOffer(oracle.a_sw, oracle.tau_star[oracle.a_sw])
        self.own_arm = oracle.b_sw

    @property
    def in_search_phase(self) -> bool:
        return False

    def step(self) -> tuple[IncentiveOffer, int]:
        return self.offer, self.own_arm

    def observe(self, upstream_arm: int, reward: float) -> None:
        pass


class ZeroTransferDownstream:
    """Property-mode double that never pays: the game collapses to the
    no-property dynamics for the upstream player."""

    def __init__(self, own_arm: int = 0):
        self.offer = IncentiveOffer(0, 0.0)
        self.own_arm = own_arm

    @property
    def in_search_phase(self) -> bool:
        return False

    def step(self) -> tuple[IncentiveOffer, int]:
        return self.offer, self.own_arm

    def observe(self, upstream_arm: int, reward: float) -> None:
        pass


class BestResponseDownstream:
    """No-property double: plays argmax_b v_down[context][b], lowest index ties."""

    def __init__(self, instance: BanditInstance):
        self.best = []
        for a in range(instance.n_arms):
            row = instance.v_down[a]
            best_b = 0
            for b in range(1, instance.n_arms):
                if row[b] > row[best_b]:
                    best_b = b
            self.best.append(best_b)

    def step(self, context: int) -> int:
        return self.best[context]

    def update(self, context: int, arm: int, reward: float) -> None:
        pass
