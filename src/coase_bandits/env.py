"""Two-player externality bandit environment.

An instance holds the true mean rewards of both players: the upstream
player picks an arm ``a`` and draws from a distribution with mean
``v_up[a]``; the downstream player picks her own arm ``b`` and draws from
a distribution with mean ``v_down[a][b]`` that depends on the upstream
choice. Social welfare of a pair is the sum of the two means. The oracle
computed here fixes every benchmark the simulators regret against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REWARD_MODELS = ("gaussian", "bernoulli")


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


def draw_noise(
    instance: BanditInstance, rng: np.random.Generator, n: int, players: int = 2
) -> np.ndarray:
    """The noise of the next n rounds from ``rng``: an (n, players) array
    whose column 0 is the upstream player's and column 1 the downstream
    player's.

    This is the one place the per-round draw order is stated. Each round
    takes one uniform per player (slots no policy reads, kept so the stream
    stays as it always was), then one reward draw per player: with gaussian
    rewards standard normals, with bernoulli rewards uniforms that
    ``round_sampler`` compares against the means. ``rng`` advances exactly
    as it would under the same number of scalar calls, so the rewards equal
    those of two uniform draws followed by ``sample_upstream`` and
    ``sample_downstream``, bit for bit. Each skipped uniform is one raw word
    of numpy's default bit generator (PCG64), which is what ``random()``
    consumes there.

    Rounds are drawn in order, so drawing a and then b rounds gives the
    rows and the final ``rng`` state of drawing a + b at once. A game at
    horizon T therefore reads the first T rows of its seed's stream,
    whatever the arms, the mode or the policies. Criterion 6 draws
    ``players=1``: one uniform, then the upstream draw.
    """
    if instance.reward_model == "bernoulli":
        # A compact copy: a view would keep the unread slot columns alive.
        return rng.random((n, 2 * players))[:, players:].copy()
    skip, normal = rng.bit_generator.random_raw, rng.standard_normal
    if players == 1:
        # Scalar calls, not the row loop below: filling one-element rows made
        # criterion 6 take 1.17-1.77x as long (10 of 10 in-process pairs on a
        # 2-vCPU VM; BENCH_10.json, "in_process").
        upstream = []
        for _ in range(n):
            skip()
            upstream.append(normal())
        return np.array(upstream).reshape(n, 1)
    noise = np.empty((n, players))
    for row in noise:
        skip(players)
        normal(out=row)
    return noise


def round_sampler(instance: BanditInstance, noise: np.ndarray):
    """Every game loop's rewards: ``sample(up_arm, down_arm)`` -> (upstream
    reward, downstream reward) of the next row of ``noise``, an (n, 2) array
    from ``draw_noise``. A gaussian reward is the mean plus the noise, a
    bernoulli one is 1.0 when the uniform falls below the mean."""
    v_up, v_down = instance.v_up, instance.v_down
    # Column lists zipped, not one list per row: zip reuses its tuple once
    # the caller has unpacked it, so a round allocates no row.
    next_row = zip(*noise.T.tolist()).__next__
    if instance.reward_model == "gaussian":

        def sample(up_arm: int, down_arm: int) -> tuple[float, float]:
            z, x = next_row()
            return v_up[up_arm] + z, v_down[up_arm][down_arm] + x

    else:

        def sample(up_arm: int, down_arm: int) -> tuple[float, float]:
            p, q = next_row()
            return (
                1.0 if p < v_up[up_arm] else 0.0,
                1.0 if q < v_down[up_arm][down_arm] else 0.0,
            )

    return sample


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
    delta_sw:      welfare_star minus the best welfare available through a_star_up;
                   positive iff the players' incentives are misaligned.
    v_bar, v_under: max / min downstream mean, used by regret bound constants.
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


def compute_oracle(instance: BanditInstance) -> Oracle:
    """Enumerate all K^2 pairs; pure in the instance, no randomness."""
    v_up, v_down = instance.v_up, instance.v_down
    k = instance.n_arms

    a_sw, b_sw, welfare_star = 0, 0, -math.inf
    for a in range(k):
        for b in range(k):
            w = v_up[a] + v_down[a][b]
            if w > welfare_star:
                a_sw, b_sw, welfare_star = a, b, w

    a_star_up = 0
    for a in range(1, k):
        if v_up[a] > v_up[a_star_up]:
            a_star_up = a
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
    delta_sw = welfare_star - max(v_up[a_star_up] + v_down[a_star_up][b] for b in range(k))

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
    )


def misalignment_holds(instance: BanditInstance, oracle: Oracle | None = None) -> bool:
    """True iff every downstream response to the upstream favorite loses welfare.

    Strict comparison, no epsilon: welfare_star > v_up[a_star_up] + v_down[a_star_up][b]
    for every b. Requires a unique upstream argmax; errors otherwise because the
    condition is ill-posed when the upstream favorite is ambiguous.
    """
    if oracle is None:
        oracle = compute_oracle(instance)
    if not oracle.up_argmax_unique:
        raise ValueError("misalignment is undefined: argmax of v_up is not unique")
    a = oracle.a_star_up
    return all(
        oracle.welfare_star - (instance.v_up[a] + instance.v_down[a][b]) > 0.0
        for b in range(instance.n_arms)
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
        oracle = compute_oracle(inst)
        if oracle.up_argmax_unique and misalignment_holds(inst, oracle):
            return inst
    raise RuntimeError(f"no misaligned instance found in {max_tries} draws")
