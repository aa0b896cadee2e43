"""Upstream player policies.

The upstream player sees only its own reward draws plus, each round, an
incentive offer: a target arm and a transfer amount paid iff the played
arm equals the target. Policies here never see true means; the
best-response double (test oracle) is the one exception and says so.
``UCBIndex`` is the UCB bookkeeping of every bandit in the package, and
``ucb_bonuses`` holds the exploration bonus every one of them adds.
"""

from __future__ import annotations

import math
import weakref
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from .env import BanditInstance, compute_oracle


@dataclass(frozen=True)
class IncentiveOffer:
    """One round's transfer offer: ``amount`` is paid iff ``arm`` is played."""

    arm: int
    amount: float

    def __post_init__(self):
        if self.amount < 0.0 or not math.isfinite(self.amount):
            raise ValueError(f"offer amount must be finite and >= 0, got {self.amount!r}")

    def bonus(self, arm: int) -> float:
        return self.amount if arm == self.arm else 0.0


#: The no-offer placeholder used by the no-property baseline.
NO_OFFER = IncentiveOffer(arm=0, amount=0.0)


def ucb_log_term(n: int, horizon: float) -> float:
    """ln(n * T^3), the log term of every UCB table over n arms or pairs."""
    return math.log(n * horizon**3)


def ucb_certificate(n_arms: int, horizon: float) -> float:
    """Scale of the regret certificate the incentive-aware UCB below earns,
    8 * sqrt(K * ln(K * T^3)). ``horizon`` may be fractional so the log term
    can be pinned exactly in arithmetic tests.
    """
    if n_arms < 1 or horizon <= 0:
        raise ValueError("need n_arms >= 1 and horizon > 0")
    return 8.0 * math.sqrt(n_arms * ucb_log_term(n_arms, horizon))


#: The bonus tables, by (n, horizon): one per size while a UCBIndex holds
#: it, and the last few built are kept so that back-to-back games of one size
#: build theirs once.
_BONUSES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_RECENT_BONUSES: deque = deque(maxlen=8)


def ucb_bonuses(n: int, horizon: int) -> array:
    """The exploration bonuses of a UCB table over n arms or pairs: entry c
    is 2 * sqrt(ucb_log_term(n, horizon) / c) for the counts c = 1..horizon,
    and entry 0 is +inf, the index of an arm with no sample.

    Built at the first call for (n, horizon), never at import, and then
    shared. numpy's division and square root are correctly rounded, as
    Python's float ones are, so each entry is the float the scalar formula
    gives."""
    bonus = _BONUSES.get((n, horizon))
    if bonus is None:
        bonus = _BONUSES[n, horizon] = array("d", [math.inf]) * (horizon + 1)
        entries = np.frombuffer(bonus)[1:]
        np.divide(ucb_log_term(n, horizon), np.arange(1, horizon + 1, dtype=float), out=entries)
        np.sqrt(entries, out=entries)
        entries *= 2.0
        _RECENT_BONUSES.append(bonus)
    return bonus


def check_count(bonus: array, count: int) -> None:
    """Raise ValueError if ``count`` is past the horizon of the bonus table."""
    if count >= len(bonus):
        raise ValueError(f"count {count} is past the UCB table's horizon {len(bonus) - 1}") from None


class UCBIndex:
    """UCB books over ``n`` arms: counts, running means and the indices
    means[a] + bonus[counts[a]], kept by record() and +inf until an arm's
    first sample. ``bonus`` is ``ucb_bonuses(n, horizon)``, shared by every
    table of the same n and horizon, and ``log_term`` the
    ``ucb_log_term(n, horizon)`` it is built on. The upstream UCB is one;
    Belgic's pair bandit and each context of the no-property baseline hold
    one.

    A table counts at most ``horizon`` samples per arm: the sample that would
    take a count past it raises ValueError naming the horizon, in record()
    before any entry changes and in the engine's runs alike, rather than read
    a bonus the table does not hold."""

    def __init__(self, n: int, horizon: int):
        self.log_term = ucb_log_term(n, horizon)
        self.bonus = ucb_bonuses(n, horizon)
        self.counts = [0] * n
        self.means = [0.0] * n
        self.index = [math.inf] * n

    def best(self) -> int:
        """Lowest-numbered arm with the highest index; changes no state."""
        index = self.index
        return index.index(max(index))

    def record(self, arm: int, reward: float) -> None:
        n = self.counts[arm] + 1
        try:
            bonus = self.bonus[n]
        except IndexError:
            check_count(self.bonus, n)
            raise
        self.counts[arm] = n
        mean = self.means[arm] + (reward - self.means[arm]) / n
        self.means[arm] = mean
        self.index[arm] = mean + bonus


class IncentiveAwareUCB(UCBIndex):
    """UCB that adds the current offer's transfer to the index of its target.

    The played arm maximizes

        mean_hat[a] + bonus[counts[a]] + offer.bonus(a)

    with bonus = ucb_bonuses(K, T), on the log term ln(K * T^3), and ties to
    the lowest index. An arm never pulled has index +inf, which no finite
    offer changes, so the first K rounds pull each arm once in index order
    whatever is offered; an offer on an arm outside range(K) changes
    nothing. Means track raw rewards only; transfers never contaminate the
    estimates.
    """

    def __init__(self, n_arms: int, horizon: int):
        if horizon < n_arms:
            raise ValueError(f"horizon {horizon} cannot fit one forced pull of {n_arms} arms")
        super().__init__(n_arms, horizon)
        self.n_arms = n_arms

    def step(self, offer: IncentiveOffer) -> int:
        """Pick this round's arm from the history; changes no state."""
        index = self.index
        if offer.amount and 0 <= offer.arm < self.n_arms:
            index = index.copy()
            index[offer.arm] += offer.amount
        return index.index(max(index))

    # An alias, not a wrapper method: the per-round call stays one call.
    update = UCBIndex.record


class BestResponseUpstream:
    """Test double that plays argmax of v_up[a] + offer.bonus(a) exactly.

    Knows the true means, so it belongs in tests and acceptance runs only.
    Indifference is resolved in favor of the offered arm (the standard
    rationality convention for take-it-or-leave-it transfers; the offered
    amount for the marginal arm is exactly the one that makes it weakly
    best, and acceptance at indifference is what makes that offer optimal);
    remaining ties go to the lowest index. As for the learning UCB, an offer
    on an arm outside range(K) changes nothing.

    The rule, read off the oracle: play the offered arm a when the amount is
    positive, a is in range(K) and v_up[a] + amount >= up_rival[a], the best
    mean of the other arms; otherwise play a_star_up, the lowest-index
    favorite. A refused positive offer leaves v_up[a] below up_rival[a], so
    the favorite is then the argmax over all arms as well.
    """

    def __init__(self, instance: BanditInstance):
        oracle = compute_oracle(instance)
        self.v_up, self.rival, self.favorite = instance.v_up, oracle.up_rival, oracle.a_star_up

    def step(self, offer: IncentiveOffer) -> int:
        a, amount = offer.arm, offer.amount
        if amount > 0.0 and 0 <= a < len(self.v_up) and self.v_up[a] + amount >= self.rival[a]:
            return a
        return self.favorite

    def update(self, arm: int, reward: float) -> None:
        pass
