"""The benchmark's four workloads: inputs, execution and output checks.

Every workload drives the package through its public entry points
(``runner.sweep``, ``runner.simulate_command``, ``acceptance.run_suite``).
Inputs come from the workload seed alone: the seed picks the game seeds,
and the package receives only the resulting ``GameConfig``.

A run of a workload yields a ``Outcome``: one digest per game, an aggregate
digest over the outputs that belong to no single game, and the game weights
(how many games each digest stands for). ``check`` turns an outcome into a
map from game id to the problems found, so a failure names its game.

Module attributes are looked up at call time (``runner.sweep``, not a bound
name) so the outside-in tracer can swap in its wrappers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
from dataclasses import dataclass, field

from coase_bandits import config, runner

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")

#: Game id under which problems that concern the whole run are filed; a
#: problem there fails every game of the run.
WHOLE_RUN = "*"

SWEEP_HORIZONS = tuple(2**k for k in range(10, 16))
SWEEP_SEEDS = 10
SWEEP_WORKERS = 2
SIMULATE_SEEDS = 4

#: accept-gate runs criteria 2 and 6 from the acceptance module's pinned
#: constants; these are the games and rounds those constants imply.
ACCEPT_SUITES = ("pathwise", "certificate")
ACCEPT_GAMES = {"pathwise": 36, "certificate": 200}
ACCEPT_ROUNDS = {"pathwise": 36 * 4096, "certificate": 200 * 4096}


def game_seeds(workload_seed: int, n: int) -> tuple[int, ...]:
    """n distinct game seeds drawn from the workload seed."""
    return tuple(sorted(random.Random(workload_seed).sample(range(1_000_000), n)))


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def summary_bytes(summary) -> bytes:
    return ",".join(summary.to_row()).encode()


@dataclass
class Outcome:
    """What one execution of a workload produced, reduced to digests."""

    digests: dict[str, str]
    aggregate: str
    weights: dict[str, int] = field(default_factory=dict)
    #: Raw program output kept for the path-wise checks.
    raw: object = None

    def weight(self, game: str) -> int:
        return self.weights.get(game, 1)

    @property
    def games(self) -> int:
        return sum(self.weight(g) for g in self.digests)


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and NOTES.md say why each exists."""

    name: str
    #: Workload seed -> GameConfig (or None when the workload takes no config).
    prepare: object
    #: (prepared, work_dir, workers) -> program output.
    execute: object
    #: (prepared, output, work_dir) -> Outcome.
    outcome: object
    #: (prepared, outcome, work_dir) -> {game id: [problem, ...]}.
    check: object
    #: prepared -> simulated rounds per execution.
    rounds: object
    #: prepared -> games per execution.
    games: object
    #: Whether the digests depend on the workload seed.
    seeded: bool = True


def _config(name: str, seed: int, n_seeds: int):
    cfg = config.parse_config_file(os.path.join(CONFIG_DIR, name))
    cfg = dataclasses.replace(cfg, seeds=game_seeds(seed, n_seeds))
    config.validate_config(cfg)
    config.config_instance(cfg)  # built here so set-up time includes it
    return cfg


# ------------------------------------------------------------ sweep-property


def _sweep_prepare(seed: int):
    return _config("efficiency.cfg", seed, SWEEP_SEEDS)


def _sweep_execute(cfg, work_dir: str, workers: int = SWEEP_WORKERS):
    return runner.sweep(cfg, list(SWEEP_HORIZONS), max_workers=workers)


def _sweep_outcome(cfg, output, work_dir: str) -> Outcome:
    rows, slope, results = output
    digests = {
        f"T{h}/s{s}": digest(summary_bytes(results[(h, s)])) for h, s in sorted(results)
    }
    table = os.path.join(work_dir, "sweep.csv")
    runner.write_sweep_table(table, rows)
    aggregate = digest(file_bytes(table), format(slope, ".17g").encode())
    return Outcome(digests, aggregate, raw=output)


def _sweep_check(cfg, outcome: Outcome, work_dir: str) -> dict[str, list[str]]:
    rows, slope, results = outcome.raw
    problems: dict[str, list[str]] = {}
    expected = {(h, s) for h in SWEEP_HORIZONS for s in cfg.seeds}
    if set(results) != expected:
        problems.setdefault(WHOLE_RUN, []).append("sweep returned the wrong (horizon, seed) set")
    if [r.horizon for r in rows] != list(SWEEP_HORIZONS) or any(
        r.n_seeds != len(cfg.seeds) for r in rows
    ):
        problems.setdefault(WHOLE_RUN, []).append("sweep rows do not cover every horizon and seed")
    if not math.isfinite(slope):
        problems.setdefault(WHOLE_RUN, []).append(f"log-log slope is {slope!r}")
    keys = sorted(results)
    summaries = [results[k] for k in keys]
    path = os.path.join(work_dir, "sweep_summaries.csv")
    runner.write_run_summaries(path, summaries)
    back = runner.read_run_summaries(path)
    for (h, s), before, after in zip(keys, summaries, back):
        game = f"T{h}/s{s}"
        if after != before:
            problems.setdefault(game, []).append("RunSummary CSV round trip changed the row")
        if (before.horizon, before.seed, before.mode) != (h, s, "property"):
            problems.setdefault(game, []).append("summary labels the wrong game")
    if len(back) != len(summaries):
        problems.setdefault(WHOLE_RUN, []).append("RunSummary CSV round trip lost rows")
    return problems


def _sweep_rounds(cfg) -> int:
    return sum(SWEEP_HORIZONS) * len(cfg.seeds)


def _sweep_games(cfg) -> int:
    return len(SWEEP_HORIZONS) * len(cfg.seeds)


# ------------------------------------------------------------ simulate-*


def _simulate_execute(cfg, work_dir: str, workers: int = 1):
    return runner.simulate_command(cfg, out_dir=work_dir)


def _simulate_outcome(cfg, manifest, work_dir: str) -> Outcome:
    digests = {}
    for summary in manifest["summaries"]:
        parts = [summary_bytes(summary)]
        for stem in ("trajectory", "phase1"):
            path = os.path.join(work_dir, f"{stem}_{summary.seed}.csv")
            parts.append(file_bytes(path) if os.path.exists(path) else b"")
        digests[f"s{summary.seed}"] = digest(*parts)
    aggregate = digest(
        file_bytes(os.path.join(work_dir, "run_summary.csv")),
        file_bytes(os.path.join(work_dir, "config_echo.cfg")),
    )
    return Outcome(digests, aggregate, raw=manifest)


def _check_summaries(cfg, manifest, work_dir: str, problems: dict[str, list[str]]):
    summaries = manifest["summaries"]
    if [s.seed for s in summaries] != list(cfg.seeds):
        problems.setdefault(WHOLE_RUN, []).append("summaries do not follow the config's seeds")
    back = runner.read_run_summaries(os.path.join(work_dir, "run_summary.csv"))
    if len(back) != len(summaries):
        problems.setdefault(WHOLE_RUN, []).append("RunSummary CSV round trip lost rows")
    for before, after in zip(summaries, back):
        if after != before:
            problems.setdefault(f"s{before.seed}", []).append(
                "RunSummary CSV round trip changed the row"
            )
        if before.horizon != cfg.horizon or before.mode != cfg.mode:
            problems.setdefault(f"s{before.seed}", []).append("summary labels the wrong game")


def _no_property_check(cfg, outcome: Outcome, work_dir: str) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    _check_summaries(cfg, outcome.raw, work_dir, problems)
    for s in outcome.raw["summaries"]:
        # The instance is misaligned, so the engine asserts the welfare
        # floor; re-check it from the written output.
        if s.breakdown_bound is None or s.r_sw < s.breakdown_bound - 1e-9 * s.horizon:
            problems.setdefault(f"s{s.seed}", []).append("welfare floor missing or broken")
    return problems


def _check_trajectory(path: str, summary) -> list[str]:
    """One row per round, in order, and the in-order float sum of gap_sw
    reproduces the summary's r_sw bit for bit."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != runner.TRAJECTORY_HEADER:
            return [f"{os.path.basename(path)}: unexpected header"]
        t_col, sw_col, phase_col = (header.index(c) for c in ("t", "gap_sw", "phase"))
        r_sw = 0.0
        rows = search = 0
        for line in fh:
            fields = line.rstrip("\n").split(",")
            rows += 1
            if int(fields[t_col]) != rows:
                return [f"{os.path.basename(path)}: row {rows} has t = {fields[t_col]}"]
            r_sw += float(fields[sw_col])
            search += fields[phase_col] == "search"
    problems = []
    if rows != summary.horizon:
        problems.append(f"trajectory has {rows} rows for T = {summary.horizon}")
    if r_sw != summary.r_sw:
        problems.append(f"in-order sum of gap_sw {r_sw!r} != r_sw {summary.r_sw!r}")
    if search != summary.phase1_rounds:
        problems.append(f"{search} search rows but phase1_rounds = {summary.phase1_rounds}")
    return problems


def _trajectory_check(cfg, outcome: Outcome, work_dir: str) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    _check_summaries(cfg, outcome.raw, work_dir, problems)
    for s in outcome.raw["summaries"]:
        game = f"s{s.seed}"
        path = os.path.join(work_dir, f"trajectory_{s.seed}.csv")
        try:
            found = _check_trajectory(path, s)
        except (OSError, ValueError, IndexError) as exc:
            found = [f"trajectory unreadable: {exc!r}"]
        if not os.path.exists(os.path.join(work_dir, f"phase1_{s.seed}.csv")):
            found.append("phase-1 diagnostics missing")
        if found:
            problems.setdefault(game, []).extend(found)
    return problems


def _simulate_rounds(cfg) -> int:
    return cfg.horizon * len(cfg.seeds)


def _simulate_games(cfg) -> int:
    return len(cfg.seeds)


# ------------------------------------------------------------ accept-gate


def _accept_prepare(seed: int):
    # The criteria are pinned; the workload seed does not reach them.
    from coase_bandits import acceptance  # noqa: F401  (import builds the pinned instances)

    return None


def _accept_execute(_prepared, work_dir: str, workers: int = 1):
    from coase_bandits import acceptance

    return [r for suite in ACCEPT_SUITES for r in acceptance.run_suite(suite, report=None)]


def _accept_outcome(_prepared, results, work_dir: str) -> Outcome:
    digests, weights = {}, {}
    for suite, r in zip(ACCEPT_SUITES, results):
        game = f"criterion_{r.number}"
        digests[game] = digest(repr((r.number, r.name, r.passed, r.detail)).encode())
        weights[game] = ACCEPT_GAMES[suite]
    return Outcome(digests, digest(*(d.encode() for d in digests.values())), weights, results)


def _accept_check(_prepared, outcome: Outcome, work_dir: str) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    results = outcome.raw
    if [r.number for r in results] != [2, 6]:
        problems.setdefault(WHOLE_RUN, []).append("expected criteria 2 and 6")
        return problems
    for r in results:
        if not r.passed:
            problems.setdefault(f"criterion_{r.number}", []).append(f"FAIL: {r.detail}")
    expected = f"{ACCEPT_GAMES['pathwise']} runs / {ACCEPT_ROUNDS['pathwise']} property-mode rounds"
    if expected not in results[0].detail:
        problems.setdefault("criterion_2", []).append(f"detail does not report {expected!r}")
    return problems


def _accept_rounds(_prepared) -> int:
    return sum(ACCEPT_ROUNDS.values())


def _accept_games(_prepared) -> int:
    return sum(ACCEPT_GAMES.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-property",
            _sweep_prepare,
            _sweep_execute,
            _sweep_outcome,
            _sweep_check,
            _sweep_rounds,
            _sweep_games,
        ),
        Workload(
            "simulate-no-property",
            lambda seed: _config("breakdown.cfg", seed, SIMULATE_SEEDS),
            _simulate_execute,
            _simulate_outcome,
            _no_property_check,
            _simulate_rounds,
            _simulate_games,
        ),
        Workload(
            "simulate-trajectory",
            lambda seed: _config("belgic.cfg", seed, SIMULATE_SEEDS),
            _simulate_execute,
            _simulate_outcome,
            _trajectory_check,
            _simulate_rounds,
            _simulate_games,
        ),
        Workload(
            "accept-gate",
            _accept_prepare,
            _accept_execute,
            _accept_outcome,
            _accept_check,
            _accept_rounds,
            _accept_games,
            seeded=False,
        ),
    )
}
