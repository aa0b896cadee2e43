"""Two-player externality bandit environment.

An instance holds the true mean rewards of both players: the upstream
player picks an arm ``a`` and draws from a distribution with mean
``v_up[a]``; the downstream player picks her own arm ``b`` and draws from
a distribution with mean ``v_down[a][b]`` that depends on the upstream
choice. Social welfare of a pair is the sum of the two means. The oracle
computed here fixes every benchmark the simulators regret against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

REWARD_MODELS = ("gaussian", "bernoulli")

#: Rounds held at once: the engine folds its ledger every BLOCK rounds, and
#: ``draw_noise`` replays the gaussian stream at most BLOCK rows per pass.
BLOCK = 4096

_MASK128 = (1 << 128) - 1
#: The ziggurat's magnitudes ``rabs`` are 52-bit.
_RABS_END = 1 << 52


@dataclass(frozen=True)
class BanditInstance:
    """True means of both players plus the noise model.

    v_up:    tuple of K upstream means, each in [0, 1].
    v_down:  K x K tuple of downstream means, indexed [upstream][downstream].
    reward_model: "gaussian" (unit variance) or "bernoulli".
    """

    v_up: tuple[float, ...]
    v_down: tuple[tuple[float, ...], ...]
    reward_model: str = "gaussian"

    @property
    def n_arms(self) -> int:
        return len(self.v_up)


def _check_mean(x: float, label: str) -> float:
    x = float(x)
    if not math.isfinite(x) or not 0.0 <= x <= 1.0:
        raise ValueError(f"{label} must be a finite mean in [0, 1], got {x!r}")
    return x


def build_instance(v_up, v_down, reward_model: str = "gaussian") -> BanditInstance:
    """Validate and freeze an instance; both players share the arm count K."""
    if reward_model not in REWARD_MODELS:
        raise ValueError(f"unknown reward model {reward_model!r}, expected one of {REWARD_MODELS}")
    up = tuple(_check_mean(x, f"v_up[{i}]") for i, x in enumerate(v_up))
    k = len(up)
    if k < 1:
        raise ValueError("need at least one arm")
    rows = tuple(tuple(r) for r in v_down)
    if len(rows) != k or any(len(r) != k for r in rows):
        raise ValueError(f"v_down must be a {k}x{k} matrix to match v_up")
    down = tuple(
        tuple(_check_mean(x, f"v_down[{a}][{b}]") for b, x in enumerate(row))
        for a, row in enumerate(rows)
    )
    return BanditInstance(v_up=up, v_down=down, reward_model=reward_model)


def sample_upstream(instance: BanditInstance, arm: int, rng: np.random.Generator) -> float:
    """One upstream reward draw for ``arm``; mutates only ``rng``."""
    mean = instance.v_up[arm]
    if instance.reward_model == "gaussian":
        return mean + rng.standard_normal()
    return 1.0 if rng.random() < mean else 0.0


def sample_downstream(
    instance: BanditInstance, up_arm: int, down_arm: int, rng: np.random.Generator
) -> float:
    """One downstream reward draw at the pair (up_arm, down_arm)."""
    mean = instance.v_down[up_arm][down_arm]
    if instance.reward_model == "gaussian":
        return mean + rng.standard_normal()
    return 1.0 if rng.random() < mean else 0.0


def draw_noise(instance: BanditInstance, rng: np.random.Generator, n: int) -> np.ndarray:
    """The noise of the next n rounds from ``rng``: an (n, 2) array whose
    column 0 is the upstream player's and column 1 the downstream player's.

    This is the one place the per-round draw order is stated. Each round
    takes one uniform per player (slots no policy reads, kept so the stream
    stays as it always was), then one reward draw per player: with gaussian
    rewards standard normals, with bernoulli rewards uniforms that
    ``RewardColumns`` compares against the means. ``rng`` advances exactly
    as it would under the same number of scalar calls, so the rewards equal
    those of two uniform draws followed by ``sample_upstream`` and
    ``sample_downstream``, bit for bit, and ``rng`` is left in the same
    state. Criterion 6 reads the same rows two rounds to a row, the
    upstream normal first (``acceptance._certificate_noise``).

    Gaussian rows are replayed from the raw 64-bit words of ``rng``'s bit
    generator, which must be PCG64 (numpy's default; anything else raises
    ``TypeError``). A skipped uniform is one word, which is what
    ``random()`` consumes there. numpy draws a standard normal with a
    ziggurat (``_ziggurat``): one word gives the normal directly unless it
    falls outside the fast path's bound, which about 1.5% of words do; such
    a word's normal reads more words. The replay evaluates the fast path,
    with numpy's own tables, on every word of at most BLOCK rows at a time.
    Only a word outside the bound in a normal's slot matters, and numpy
    draws that normal itself, from a generator positioned at that word;
    the words it read, counted on the PCG64 state, shift every later slot.
    The replay is exact: a fast value is numpy's one multiplication of the
    same operands, every other value is numpy's own draw, and ``rng`` has
    read exactly the words the scalar calls would.

    Rounds are drawn in order, so drawing a and then b rounds gives the
    rows and the final ``rng`` state of drawing a + b at once. A game at
    horizon T therefore reads the first T rows of its seed's stream,
    whatever the arms, the mode or the policies.
    """
    if instance.reward_model == "bernoulli":
        # A compact copy: a view would keep the unread slot columns alive.
        return rng.random((n, 4))[:, 2:].copy()
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError(
            f"gaussian noise is replayed from PCG64 words, got {type(bit_generator).__name__}"
        )
    wi, ki, mult = _ziggurat()
    width = 4  # words per round on the fast path: two unread slots, two normals
    noise = np.empty((n, 2))
    slow_normals = _SlowNormals(bit_generator.state, mult)
    read = 0  # words read by earlier passes
    for start in range(0, n, BLOCK):
        m = min(BLOCK, n - start)
        words = bit_generator.random_raw(m * width)
        ordinals, values, extras = [], [], []
        shift = 0  # words the slow normals so far read beyond their own slot
        free = 0  # the first word no slow normal read
        scanned = 0
        while scanned < len(words):
            for at in np.flatnonzero(_slow(words[scanned:], ki)).tolist():
                at += scanned
                row, slot = divmod(at - shift, width)
                if at < free or slot < 2:
                    continue  # read by an earlier slow normal, or an unread slot
                value, used = slow_normals.draw(read + at)
                ordinals.append(row * 2 + slot - 2)
                values.append(value)
                extras.append(used - 1)
                shift += used - 1
                free = at + used
            scanned = len(words)
            # The pass's rows read m * width + shift words: read the rest.
            if m * width + shift > scanned:
                more = bit_generator.random_raw(m * width + shift - scanned)
                words = np.concatenate((words, more))
        # A slow normal's extra words shift every normal after it.
        offsets = np.zeros(m * 2 + 1, np.int64)
        offsets[np.array(ordinals, np.int64) + 1] = extras
        slots = np.arange(m * width).reshape(m, width)[:, 2:].ravel()
        rows = _fast_values(words[slots + np.cumsum(offsets[:-1])], wi)
        rows[ordinals] = values
        noise[start : start + m] = rows.reshape(m, 2)
        read += len(words)
    return noise


def _slow(words: np.ndarray, ki: np.ndarray) -> np.ndarray:
    """Whether each word's normal leaves the ziggurat's fast path:
    ``rabs >= ki[idx]``, with idx the low 8 bits and rabs bits 9-60."""
    return ((words >> 9) & (_RABS_END - 1)) >= ki[words & 0xFF]


def _fast_values(words: np.ndarray, wi: np.ndarray) -> np.ndarray:
    """The fast path's normal of each word: rabs * wi[idx], negated when
    bit 8 is set, as rabs * (-wi[idx]), which IEEE rounding makes the same
    number (``wi`` holds both signs)."""
    return ((words >> 9) & (_RABS_END - 1)).astype(np.float64) * wi[words & 0x1FF]


class _SlowNormals:
    """numpy's ``standard_normal()`` at chosen word positions of one PCG64
    stream, in increasing order, with the words each call consumed."""

    def __init__(self, state: dict, mult: int):
        self.state, self.mult = state, mult
        self.gen = None  # placed on the stream at the first slow normal, if any
        self.position = 0

    def draw(self, position: int) -> tuple[float, int]:
        if self.gen is None:
            self.gen = _scratch_generator()
            self.gen.bit_generator.state = self.state
        bit_generator = self.gen.bit_generator
        bit_generator.advance(position - self.position)
        before = bit_generator.state["state"]
        value = self.gen.standard_normal()
        after = bit_generator.state["state"]["state"]
        # Step the LCG until it meets the state the call left: the count is
        # read off the stream, not inferred from the ziggurat's branches.
        state, used = before["state"], 0
        while state != after:
            state = (state * self.mult + before["inc"]) & _MASK128
            used += 1
        self.position = position + used
        return value, used


@functools.cache
def _scratch_generator() -> np.random.Generator:
    """The generator ``_SlowNormals`` draws on, one per process: seeding a
    new PCG64 costs more than a short ``draw_noise`` call's replay, and each
    call sets the state before its first draw, so no call sees another's."""
    return np.random.Generator(np.random.PCG64(0))


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray, int]:
    """numpy's standard-normal ziggurat, probed from the installed numpy:
    ``(wi, ki, mult)``, with ``mult`` PCG64's LCG multiplier and ``wi``
    indexed by idx and the sign bit: ``wi[idx]``, then ``-wi[idx]`` at
    ``idx | 1 << 8``.

    A word's normal is on the fast path unless ``rabs >= ki[idx]``, and is
    then ``rabs * wi[idx]``, negated when bit 8 is set (``_slow``,
    ``_fast_values``). Each entry is read off ``standard_normal()`` drawn
    from a PCG64 state made to emit a chosen word next. PCG64 steps its
    128-bit state to ``s * mult + inc`` and outputs the XSL-RR of the
    stepped state, which is the stepped state itself when that is below
    2**64; so the state ``(w - inc) / mult`` (mod 2**128) emits word w. The
    draw was on the fast path iff the state moved one step, and its value
    at rabs = 1 is ``wi[idx]``. The slow test is monotone in rabs, so
    ``ki[idx]`` is the smallest slow rabs. For idx >= 2 it lies within one
    of the strip ratio ``2**52 * wi[idx - 1] / wi[idx]``, where two probes
    settle it; bisection settles idx 0 and 1 and any guess that misses.
    Derived at the first gaussian draw, not at import (about 7 ms), and
    cached for the process.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    bit_generator = gen.bit_generator
    state = bit_generator.state
    inc = state["state"]["inc"]
    # One step from state 1 lands on mult + inc.
    state["state"]["state"] = 1
    bit_generator.state = state
    bit_generator.advance(1)
    mult = (bit_generator.state["state"]["state"] - inc) & _MASK128
    unstep = pow(mult, -1, 1 << 128)

    def probe(word: int) -> tuple[float, bool]:
        state["state"]["state"] = ((word - inc) * unstep) & _MASK128
        bit_generator.state = state
        value = gen.standard_normal()
        return value, bit_generator.state["state"]["state"] == word

    def smallest_slow(idx: int, guess: int) -> int:
        lo, hi = 0, _RABS_END  # the answer lies in [lo, hi]; _RABS_END: none slow
        rabs = guess
        for _ in range(2):  # the guess, then its neighbour on the side left open
            if not lo <= rabs < hi:
                break
            if probe(idx | rabs << 9)[1]:
                lo, rabs = rabs + 1, rabs + 1
            else:
                hi, rabs = rabs, rabs - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if probe(idx | mid << 9)[1]:
                lo = mid + 1
            else:
                hi = mid
        return lo

    wi = np.array([probe(idx | 1 << 9)[0] for idx in range(256)])
    ki = np.array(
        [
            smallest_slow(idx, int(2.0**52 * wi[idx - 1] / wi[idx]) if idx >= 2 else -1)
            for idx in range(256)
        ],
        np.uint64,
    )
    return np.concatenate((wi, -wi)), ki, mult


class RewardColumns:
    """One block's rewards read by round index: ``up[a][i]`` is arm a's
    upstream reward in row i of ``noise`` (an (n, 2) array from
    ``draw_noise``, or criterion 6's (2n, 1) reshape of one, which has no
    downstream column), and ``down_column(pair)[i]`` the downstream reward
    at pair = a * K + b in that row. This is the one statement of the reward
    rule, done elementwise by numpy: the mean plus the noise (gaussian), or
    1.0 where the uniform falls below the mean (bernoulli). Every round
    function of the engine reads its rewards here.

    The K upstream columns are built up front. A downstream column is built
    the first time a round function asks for it and kept: a block usually
    reads a few of the K^2 pairs, and building all of them up front costs
    more than the reads save at K=5.
    """

    def __init__(self, instance: BanditInstance, noise: np.ndarray):
        self._gaussian = instance.reward_model == "gaussian"
        self._noise = noise
        self._v_down = [mean for row in instance.v_down for mean in row]
        self.up = [self._column(mean, 0) for mean in instance.v_up]
        self._down: list[list[float] | None] = [None] * len(self._v_down)

    def __len__(self) -> int:
        return len(self._noise)

    def _column(self, mean: float, player: int) -> list[float]:
        noise = self._noise[:, player]
        if self._gaussian:
            return (mean + noise).tolist()
        return (noise < mean).astype(float).tolist()

    def down_column(self, pair: int) -> list[float]:
        column = self._down[pair]
        if column is None:
            column = self._down[pair] = self._column(self._v_down[pair], 1)
        return column


@dataclass(frozen=True)
class Oracle:
    """Exact benchmark quantities, all from exhaustive enumeration.

    a_sw, b_sw:    welfare-optimal pair (ties to the lowest indices, row-major).
    welfare_star:  v_up[a_sw] + v_down[a_sw][b_sw].
    mu_star_up:    best unilateral upstream mean.
    mu_star_down:  downstream optimum net of the cheapest sufficient transfer;
                   its sum with mu_star_up reproduces welfare_star bit-exact.
    tau_star:      per-arm minimal transfer making that arm weakly best upstream,
                   tau_star[a] = mu_star_up - v_up[a]; exactly 0.0 at a_star_up.
    a_star_up:     lowest-index argmax of v_up; up_argmax_unique says if it is strict.
    delta_up:      min gap of v_up to the best arm (+inf when K == 1).
    delta_sw:      welfare_star minus the best welfare available through a_star_up.
    v_bar, v_under: max / min downstream mean, used by regret bound constants.
    up_rival:      per arm a, what an offer on a must beat: the best upstream
                   mean of any other arm, each + 0.0 as IncentiveOffer.bonus
                   adds it (-inf when K == 1).
    down_best:     per upstream arm a, the downstream's best reply value,
                   max over b of v_down[a][b].
    """

    a_sw: int
    b_sw: int
    welfare_star: float
    mu_star_up: float
    mu_star_down: float
    tau_star: tuple[float, ...]
    a_star_up: int
    up_argmax_unique: bool
    delta_up: float
    delta_sw: float
    v_bar: float
    v_under: float
    up_rival: tuple[float, ...]
    down_best: tuple[float, ...]

    @property
    def misaligned(self) -> bool:
        """True iff the upstream favorite is unique and every downstream
        response to it loses welfare, strictly, with no epsilon. Float
        subtraction is monotone, so delta_sw > 0 is exactly that test."""
        return self.up_argmax_unique and self.delta_sw > 0.0


def compute_oracle(instance: BanditInstance) -> Oracle:
    """Enumerate all K^2 pairs; pure in the instance, no randomness."""
    v_up, v_down = instance.v_up, instance.v_down
    k = instance.n_arms

    welfares = [v_up[a] + v_down[a][b] for a in range(k) for b in range(k)]
    welfare_star = max(welfares)
    a_sw, b_sw = divmod(welfares.index(welfare_star), k)

    a_star_up = v_up.index(max(v_up))
    mu_star_up = v_up[a_star_up]
    unique = all(v_up[a] < mu_star_up for a in range(k) if a != a_star_up)

    tau_star = tuple(mu_star_up - v_up[a] for a in range(k))
    # The split is the identical-arithmetic difference.  Re-adding mu_star_up
    # recovers welfare_star to within one ulp always, and bit-exactly unless
    # the real sum falls on a round-to-even boundary; no choice of float split
    # can do better for such instances.
    mu_star_down = welfare_star - mu_star_up

    delta_up = min(
        (mu_star_up - v_up[a] for a in range(k) if a != a_star_up), default=math.inf
    )
    delta_sw = welfare_star - max(welfares[a_star_up * k : (a_star_up + 1) * k])

    flat = [x for row in v_down for x in row]
    return Oracle(
        a_sw=a_sw,
        b_sw=b_sw,
        welfare_star=welfare_star,
        mu_star_up=mu_star_up,
        mu_star_down=mu_star_down,
        tau_star=tau_star,
        a_star_up=a_star_up,
        up_argmax_unique=unique,
        delta_up=delta_up,
        delta_sw=delta_sw,
        v_bar=max(flat),
        v_under=min(flat),
        up_rival=tuple(
            max((v_up[b] + 0.0 for b in range(k) if b != a), default=-math.inf) for a in range(k)
        ),
        down_best=tuple(max(row) for row in v_down),
    )


def optimal_split_identity_holds(instance: BanditInstance, oracle: Oracle) -> bool:
    """Recompute the welfare split from scratch and compare bit-exactly.

    Independent route: fresh enumeration of max_{a,b}(v_up[a] + v_down[a][b])
    and max_a v_up[a], then both directions of the identity.  The strict sum
    form can fail by one ulp on instances whose real split straddles a
    round-to-even boundary; such instances fail this strong check even though
    the difference form is exact.
    """
    welfare = max(
        instance.v_up[a] + instance.v_down[a][b]
        for a in range(instance.n_arms)
        for b in range(instance.n_arms)
    )
    mu_up = max(instance.v_up)
    return (
        oracle.mu_star_up == mu_up
        and oracle.mu_star_down == welfare - mu_up
        and oracle.mu_star_up + oracle.mu_star_down == welfare
    )


def transfer_grid_optimum(instance: BanditInstance, step: float = 1e-6) -> float:
    """Brute-force the downstream's constrained optimum over a transfer grid.

    For each pair (a, b) and each grid transfer tau, the offer is feasible when
    it makes arm a weakly best for the upstream, i.e. v_up[a] + tau >= v_up[a']
    for every other a'. Returns the best feasible v_down[a][b] - tau. Grid
    resolution bounds the gap to the closed-form optimum by one step.
    """
    grid = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
    top = max(instance.v_up)
    best = -math.inf
    for a in range(instance.n_arms):
        feasible = grid[instance.v_up[a] + grid >= top]
        if feasible.size == 0:
            continue
        tau = float(feasible[0])
        value = max(instance.v_down[a]) - tau
        if value > best:
            best = value
    return best


def random_instance(
    rng: np.random.Generator,
    n_arms: int,
    reward_model: str = "gaussian",
    require_misaligned: bool = False,
    max_tries: int = 10_000,
) -> BanditInstance:
    """Draw means uniformly from [0, 1]; optionally reject aligned instances."""
    for _ in range(max_tries):
        inst = build_instance(
            rng.uniform(0.0, 1.0, size=n_arms),
            rng.uniform(0.0, 1.0, size=(n_arms, n_arms)),
            reward_model,
        )
        if not require_misaligned:
            return inst
        if compute_oracle(inst).misaligned:
            return inst
    raise RuntimeError(f"no misaligned instance found in {max_tries} draws")
