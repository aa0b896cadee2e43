"""Downstream player policies.

The centerpiece is BELGIC, the two-phase policy for the property-rights
game: phase 1 runs a batched binary search per upstream arm to bracket the
minimal transfer that redirects the upstream player to that arm; phase 2
treats the K^2 (offered arm, own arm) pairs as one UCBIndex over
transfer-adjusted rewards. A UCBIndex per context plays the no-property
baseline, and deterministic doubles cover the test matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .env import BanditInstance, Oracle
from .upstream import IncentiveOffer, UCBIndex

#: The upstream's regret certificate, which the search assumes: over any t
#: rounds under one offer, its regret stays below scale * t**CERT_EXPONENT
#: except with probability decaying like t**(-CERT_TAIL). BelgicParams
#: carries the scale; the exponent and the tail are the UCB's and fixed.
CERT_EXPONENT = 0.5
CERT_TAIL = 2.0


@dataclass(frozen=True)
class BelgicParams:
    """Static parameters of the two-phase policy.

    alpha: batch length exponent, each binary-search batch lasts ceil(T^alpha).
    beta:  precision exponent, the search slack per update is 1/T^beta and the
           final estimates resolve tau to that order.
    scale: the upstream's regret certificate scale; it also sets the
           mismatch threshold separating decisive from ambiguous batches.
    """

    n_arms: int
    horizon: int
    alpha: float
    beta: float
    scale: float

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
        return self.scale * self.batch_length ** (CERT_EXPONENT + self.beta / self.alpha)

    @property
    def estimate_pad(self) -> float:
        return self.scale * self.horizon ** ((CERT_EXPONENT - 1.0) / 2.0)

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
    if not 0.0 <= params.scale < math.inf:
        raise ValueError(f"certificate scale must be finite and >= 0, got {params.scale}")
    slack_cap = 1.0 - CERT_EXPONENT
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


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def binary_search_batch_update(
    lower: float, upper: float, mismatches: int, params: BelgicParams
) -> tuple[str, float, float]:
    """Fold one batch's mismatch count into [lower, upper]; returns
    (branch, lower, upper).

    With theta the mismatch threshold, a count strictly inside
    (theta, batch - theta) is ambiguous: it contradicts the upstream regret
    certificate on both hypotheses, so the search stops early for this arm
    and the bracket is left as-is. A small count means the offer was taken,
    so the midpoint (plus slack) is a valid upper bound; a large count means
    it was refused, giving a lower bound (minus slack). Bounds are clamped
    to [0, 1], where the true minimal transfer always lives.
    """
    batch = params.batch_length
    if not 0 <= mismatches <= batch:
        raise ValueError(f"mismatch count {mismatches} outside [0, {batch}]")
    theta = params.threshold
    mid = (lower + upper) / 2.0
    slack = params.precision
    if theta < mismatches < batch - theta:
        return "early_return", lower, upper
    if mismatches <= theta:
        return "upper", lower, _clamp01(mid + slack)
    return "lower", _clamp01(mid - slack), upper


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
    diagnostics, one Phase1Batch row per full batch, is the search's record
    and holds its brackets. pair_ucb numbers the pairs row-major, pair =
    offered_arm * K + own_arm, and records only compliant rounds, so a
    refused pair keeps its +inf and is proposed again.
    """

    def __init__(self, params: BelgicParams):
        validate_params(params)
        self.params = params
        self.t = 0
        self.batch_round = 0
        self.mismatches = 0
        self.diagnostics: list[Phase1Batch] = []
        self.tau_hat: tuple[float, ...] | None = None
        self.pair_ucb = UCBIndex(params.n_arms * params.n_arms, params.horizon)
        self._pending: tuple[IncentiveOffer, int] | None = None
        # Offers change only between batches and are fixed once the search
        # ends; each is built once, not per round. Arm 0's search opens at
        # the midpoint of [0, 1].
        self.search_offer = IncentiveOffer(0, 0.5)
        self.pair_plays: tuple[tuple[IncentiveOffer, int], ...] = ()

    @property
    def in_search_phase(self) -> bool:
        return self.tau_hat is None

    @property
    def phase1_rounds(self) -> int:
        """Search rounds played: every logged batch and the open one."""
        return len(self.diagnostics) * self.params.batch_length + self.batch_round

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
            pair = self.pair_ucb.best()
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

    def _open_batch(self) -> tuple[int, int, float, float]:
        """(arm, batch index, lower, upper) of the search's next batch, read
        from the log. An arm's search ends on an early return or after
        n_batches rows; the next arm's opens at batch 0 on [0, 1]."""
        if not self.diagnostics:
            return 0, 0, 0.0, 1.0
        last = self.diagnostics[-1]
        if last.branch == "early_return" or last.batch_index + 1 >= self.params.n_batches:
            return last.arm + 1, 0, 0.0, 1.0
        return last.arm, last.batch_index + 1, last.tau_lower, last.tau_upper

    def searched(self, rounds: int, mismatches: int) -> None:
        """Add ``rounds`` search rounds at search_offer, ``mismatches`` of them
        refused, to the open batch. A full batch moves the bracket, is logged,
        and opens the next batch, the next arm's search or the play phase."""
        self.batch_round += rounds
        self.mismatches += mismatches
        params = self.params
        if self.batch_round < params.batch_length:
            return
        arm, batch_index, lower, upper = self._open_batch()
        branch, lower, upper = binary_search_batch_update(lower, upper, self.mismatches, params)
        self.diagnostics.append(
            Phase1Batch(
                arm, batch_index, self.search_offer.amount, self.mismatches, branch, lower, upper
            )
        )
        self.batch_round = 0
        self.mismatches = 0
        arm, _, lower, upper = self._open_batch()
        if arm < params.n_arms:
            self.search_offer = IncentiveOffer(arm, (lower + upper) / 2.0)
            return
        # Each arm's final bracket is its last logged row.
        pad = params.precision + params.estimate_pad
        final_upper = {row.arm: row.tau_upper for row in self.diagnostics}
        self.tau_hat = tuple(upper + pad for upper in final_upper.values())
        offers = [IncentiveOffer(arm, tau) for arm, tau in enumerate(self.tau_hat)]
        own_arms = range(params.n_arms)
        self.pair_plays = tuple((offer, own) for offer in offers for own in own_arms)


class NaiveContextUCB:
    """No-property baseline: an independent UCB per observed upstream arm.

    The upstream arm is a context the downstream cannot influence; each of
    contexts is a UCBIndex, +inf for an arm never played there, so each
    context tries its arms in index order first. Bonus matches the
    upstream policy's ln(K * T^3) scaling since each context is a K-armed
    problem.
    """

    def __init__(self, n_arms: int, horizon: int):
        self.contexts = [UCBIndex(n_arms, horizon) for _ in range(n_arms)]

    def step(self, context: int) -> int:
        """Lowest arm with the highest index in this context; changes no state."""
        return self.contexts[context].best()

    def update(self, context: int, arm: int, reward: float) -> None:
        self.contexts[context].record(arm, reward)


class OracleTransferDownstream:
    """Property-mode double: offers the welfare arm at its exact minimal
    transfer and plays the welfare-optimal own arm. Needs the oracle."""

    def __init__(self, oracle: Oracle):
        self.offer = IncentiveOffer(oracle.a_sw, oracle.tau_star[oracle.a_sw])
        self.own_arm = oracle.b_sw

    def step(self) -> tuple[IncentiveOffer, int]:
        return self.offer, self.own_arm

    def observe(self, upstream_arm: int, reward: float) -> None:
        pass


class ZeroTransferDownstream:
    """Property-mode double that never pays: the game collapses to the
    no-property dynamics for the upstream player. Plays own arm 0."""

    def __init__(self):
        self.offer = IncentiveOffer(0, 0.0)

    def step(self) -> tuple[IncentiveOffer, int]:
        return self.offer, 0

    def observe(self, upstream_arm: int, reward: float) -> None:
        pass


class BestResponseDownstream:
    """No-property double: plays argmax_b v_down[context][b], lowest index ties."""

    def __init__(self, instance: BanditInstance):
        self.best = [row.index(max(row)) for row in instance.v_down]

    def step(self, context: int) -> int:
        return self.best[context]

    def update(self, context: int, arm: int, reward: float) -> None:
        pass
