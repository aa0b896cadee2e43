"""Run orchestration and CSV serialization.

A ``play_seed`` task plays one seed's games, configs on one instance at
several horizons, on one draw of the seed's noise. ``sweep`` fans out one
task per seed and acceptance criterion 2 one per (instance, seed), through
``fan_out``, which returns results in task order whatever the pool.

All CSV output is schema-stable: '\\n' line endings, '.' decimal points,
floats at 17 significant digits so every value parses back bit-identically.
Except for the trajectory, each file holds one record dataclass per row, its
columns that type's fields in order; _cell writes a value and _cell_parser
reads it back. Identical config + seed means byte-identical files.
"""

from __future__ import annotations

import functools
import math
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import chain, repeat

import numpy as np

from .config import GameConfig, belgic_params, config_instance, serialize_config, validate_config
from .downstream import (
    Belgic,
    BestResponseDownstream,
    NaiveContextUCB,
    OracleTransferDownstream,
    Phase1Batch,
    ZeroTransferDownstream,
)
from .engine import BLOCK, GameResult, Trajectory, run_no_property, run_property
from .env import BanditInstance, compute_oracle, draw_noise
from .upstream import BestResponseUpstream, IncentiveAwareUCB

WORKERS_ENV_VAR = "COASE_BANDITS_WORKERS"


def _cell(value) -> str:
    """One CSV cell: empty for None, yes/no for a bool, 17 significant digits
    for a float, ';'-joined cells for a tuple, str() otherwise."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ";".join(map(_cell, value))
    return str(value)


@dataclass(frozen=True)
class RunSummary:
    """Flat, lossless record of one finished game."""

    mode: str
    seed: int
    horizon: int
    n_arms: int
    reward_model: str
    upstream_policy: str
    downstream_policy: str
    r_sw: float
    r_up_n: float
    r_down_n: float
    r_up_p: float
    r_down_p: float
    up_utility: float
    down_utility: float
    welfare: float
    decomposition_min_slack: float
    misaligned: bool
    phase1_rounds: int
    tau_hat: tuple[float, ...] | None
    a_sw: int
    b_sw: int
    welfare_star: float
    mu_star_up: float
    mu_star_down: float
    delta_up: float
    delta_sw: float
    breakdown_bound: float | None

    def to_row(self) -> list[str]:
        return _row(self)

    @classmethod
    def from_row(cls, row: list[str]) -> "RunSummary":
        return _from_row(cls, row)


def _cell_parser(hint):
    """Inverse of _cell for one field annotated ``hint``: an optional field
    is None when its cell is empty, a tuple's items are ';'-separated, and a
    bool is "yes" or "no"."""
    args = typing.get_args(hint)
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        parse = _cell_parser(inner)
        return lambda cell: parse(cell) if cell else None
    if typing.get_origin(hint) is tuple:
        parse = _cell_parser(args[0])
        return lambda cell: tuple(parse(x) for x in cell.split(";"))
    if hint is bool:
        return lambda cell: cell == "yes"
    return hint


def _header(cls) -> list[str]:
    """A record type's CSV columns: its dataclass fields, in order."""
    return [f.name for f in fields(cls)]


def _row(record) -> list[str]:
    return [_cell(getattr(record, f.name)) for f in fields(record)]


@functools.cache
def _parsers(cls) -> list:
    hints = typing.get_type_hints(cls)
    return [(f.name, _cell_parser(hints[f.name])) for f in fields(cls)]


def _from_row(cls, row: list[str]):
    parsers = _parsers(cls)
    if len(row) != len(parsers):
        raise ValueError(f"expected {len(parsers)} columns, got {len(row)}")
    return cls(**{name: parse(cell) for (name, parse), cell in zip(parsers, row)})


def summary_header() -> list[str]:
    return _header(RunSummary)


def build_upstream(cfg: GameConfig, instance: BanditInstance, horizon: int):
    if cfg.upstream_policy == "ucb":
        return IncentiveAwareUCB(instance.n_arms, horizon)
    return BestResponseUpstream(instance)


def build_downstream(cfg: GameConfig, instance: BanditInstance, horizon: int):
    if cfg.mode == "property":
        if cfg.downstream_policy == "belgic":
            return Belgic(belgic_params(cfg, horizon))
        if cfg.downstream_policy == "oracle":
            return OracleTransferDownstream(compute_oracle(instance))
        return ZeroTransferDownstream()
    if cfg.downstream_policy == "naive":
        return NaiveContextUCB(instance.n_arms, horizon)
    return BestResponseDownstream(instance)


def simulate_run(
    cfg: GameConfig,
    instance: BanditInstance,
    horizon: int,
    seed: int,
    record_trajectory=False,
    noise: np.ndarray | None = None,
) -> GameResult:
    """One fresh game at (horizon, seed); policies never survive across runs.
    ``noise``, when given, is the seed's noise drawn ahead (see
    ``engine._play``); the game's outputs are the same either way."""
    upstream = build_upstream(cfg, instance, horizon)
    downstream = build_downstream(cfg, instance, horizon)
    run = run_property if cfg.mode == "property" else run_no_property
    return run(instance, upstream, downstream, horizon, seed, record_trajectory, noise)


def summarize(cfg: GameConfig, result: GameResult) -> RunSummary:
    """One game's RunSummary. Each field is read by name from the first of
    the result, its ledger, its oracle, its instance and the config that has
    it; the config gives only the two policy names."""
    sources = (result, result.ledger, result.oracle, result.instance, cfg)
    return RunSummary(
        **{
            f.name: getattr(next(s for s in sources if hasattr(s, f.name)), f.name)
            for f in fields(RunSummary)
        }
    )


def _write_records(path: str, cls, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_header(cls)) + "\n")
        for record in records:
            fh.write(",".join(_row(record)) + "\n")


def _read_records(path: str, cls) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty CSV, expected a header")
    header = lines[0].split(",")
    if header != _header(cls):
        raise ValueError(f"{path}: unexpected {cls.__name__} header {header}")
    return [_from_row(cls, line.split(",")) for line in lines[1:]]


def write_run_summaries(path: str, summaries: list[RunSummary]) -> None:
    _write_records(path, RunSummary, summaries)


def read_run_summaries(path: str) -> list[RunSummary]:
    return _read_records(path, RunSummary)


TRAJECTORY_HEADER = [
    "t", "phase", "offered_arm", "tau", "up_arm", "down_arm", "gap_sw", "gap_up", "gap_down",
]


def _fmt_column(values: np.ndarray) -> list[str]:
    """The cell of every value of an 8-byte column, formatting each distinct
    bit pattern once, so 0.0 and -0.0 keep their own cells."""
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = [_cell(x) for x in bits.view(values.dtype).tolist()]
    return np.array(text, dtype=object)[where].tolist()


def _stretch_starts(columns: list[np.ndarray], cut: int) -> np.ndarray:
    """Rows that open a stretch: the first row, row ``cut`` and every row with
    a value in ``columns`` unlike the row before's. Values compare by bit
    pattern, because _cell writes 0.0 and -0.0 apart."""
    n = len(columns[0])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    new[cut : cut + 1] = True
    for column in columns:
        bits = column.view(np.int64)
        new[1:] |= bits[1:] != bits[:-1]
    return np.flatnonzero(new)


def write_trajectory(path: str, records: Trajectory) -> None:
    """One row per round, formatted one stretch at a time.

    A stretch is a maximal run of rows whose cells after ``t`` are identical
    (arms equal, floats equal bit for bit) and which does not cross the end
    of the search phase. Each stretch's tail is formatted once, from its
    first row, and repeated down its rows; the rows are then joined ``BLOCK``
    at a time. The bytes are those of one format per row. Offer fields are
    empty in the no-property mode.
    """
    n = len(records)
    columns = [records.up_arm, records.down_arm, records.gap_sw, records.gap_up, records.gap_down]
    if records.offered_arm is not None:
        columns = [records.offered_arm, records.tau, *columns]
    starts = _stretch_starts(columns, records.search_rounds)
    if records.offered_arm is None:
        lead = [repeat("-"), repeat(""), repeat("")]  # phase, offered_arm, tau
    else:
        searching = int(np.searchsorted(starts, records.search_rounds))
        lead = [chain(repeat("search", searching), repeat("play", len(starts) - searching))]
    cells = [_fmt_column(column[starts]) for column in columns]
    # A stretch's tail is ",phase,...,gap_down"; row t is then str(t), its
    # stretch's tail and "\n".
    tails = np.array(list(map(",".join, zip(repeat(""), *lead, *cells))), dtype=object)
    rows = np.repeat(tails, np.diff(starts, append=n))
    text = np.full((min(n, BLOCK), 3), "\n", dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRAJECTORY_HEADER) + "\n")
        for i in range(0, n, BLOCK):
            k = min(BLOCK, n - i)
            text[:k, 0] = list(map(str, range(i + 1, i + k + 1)))
            text[:k, 1] = rows[i : i + k]
            fh.write("".join(text[:k].ravel().tolist()))


def write_phase1_batches(path: str, batches: list[Phase1Batch]) -> None:
    _write_records(path, Phase1Batch, batches)


def _simulate_task(packed) -> tuple[RunSummary, list[str]]:
    """Play one seed of simulate_command and write that seed's files; returns
    its summary and the paths written."""
    cfg, out, seed = packed
    record = cfg.trajectory == "full"
    result = simulate_run(cfg, config_instance(cfg), cfg.horizon, seed, record_trajectory=record)
    paths = []
    if record:
        path = os.path.join(out, f"trajectory_{seed}.csv")
        write_trajectory(path, result.records)
        paths.append(path)
    if result.phase1_batches:
        path = os.path.join(out, f"phase1_{seed}.csv")
        write_phase1_batches(path, result.phase1_batches)
        paths.append(path)
    return summarize(cfg, result), paths


def simulate_command(cfg: GameConfig, out_dir: str | None = None) -> dict:
    """Run every seed of the config and write the output tree.

    Writes run_summary.csv, a canonical config echo, and per-seed trajectory
    and search-diagnostics files when enabled. Seeds run through fan_out;
    each seed's files are written by the process that played it. Returns a
    manifest of paths, in config seed order.
    """
    out = out_dir if out_dir is not None else cfg.output_dir
    os.makedirs(out, exist_ok=True)
    config_instance(cfg)  # an invalid instance fails here, before any output
    manifest = {"dir": out, "files": []}

    echo_path = os.path.join(out, "config_echo.cfg")
    with open(echo_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_config(cfg))
    manifest["files"].append(echo_path)

    summaries = []
    for summary, paths in fan_out(_simulate_task, [(cfg, out, seed) for seed in cfg.seeds]):
        summaries.append(summary)
        manifest["files"].extend(paths)

    summary_path = os.path.join(out, "run_summary.csv")
    write_run_summaries(summary_path, summaries)
    manifest["files"].append(summary_path)
    manifest["summaries"] = summaries
    return manifest


def worker_cap(requested: int | None = None) -> int:
    """Worker processes to use: COASE_BANDITS_WORKERS if set, else the CPUs
    this process may run on, capped at requested and at least 1."""
    cap = os.environ.get(WORKERS_ENV_VAR)
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {cap!r}") from None
    elif hasattr(os, "sched_getaffinity"):
        limit = len(os.sched_getaffinity(0))
    else:
        limit = os.cpu_count() or 1
    if requested is not None:
        limit = min(limit, requested)
    return max(1, limit)


def fan_out(fn, tasks, max_workers: int | None = None) -> list:
    """[fn(t) for t in tasks], with the tasks spread over worker processes.

    The pool holds worker_cap(max_workers, or one per task) processes; with a
    cap of 1 every task runs in this process and no pool starts. Results come
    back in task order, and the first task (in that order) to raise re-raises
    here. fn and the tasks must pickle, so fn is a module-level function.
    """
    tasks = list(tasks)
    workers = worker_cap(max_workers if max_workers is not None else len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def play_seed(packed) -> list[RunSummary]:
    """One fan_out task, (cfgs, horizons, seed): the seed's game of every
    config (all on the first one's instance) at every horizon, in that order.
    The seed's noise is drawn once, for the largest horizon, and each game
    reads a prefix of it, so the task holds 16 bytes (two float64) per round
    of that horizon, a lone game's task included."""
    cfgs, horizons, seed = packed
    instance = config_instance(cfgs[0])
    noise = draw_noise(instance, np.random.default_rng(seed), max(horizons))
    return [summarize(c, simulate_run(c, instance, h, seed, noise=noise)) for c in cfgs for h in horizons]


@dataclass(frozen=True)
class SweepRow:
    """Per-horizon aggregate; r_up / r_down are the mode's own regrets
    (property: transfer-adjusted, no-property: unilateral)."""

    horizon: int
    n_seeds: int
    mean_r_sw: float
    sem_r_sw: float
    mean_r_sw_per_round: float
    sem_r_sw_per_round: float
    mean_r_up: float
    sem_r_up: float
    mean_r_up_per_round: float
    sem_r_up_per_round: float
    mean_r_down: float
    sem_r_down: float
    mean_r_down_per_round: float
    sem_r_down_per_round: float


def _mean_sem(xs: list[float]) -> tuple[float, float]:
    arr = np.asarray(xs, dtype=float)
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, sem


def sweep(
    cfg: GameConfig, horizons: list[int], max_workers: int | None = None
) -> tuple[list[SweepRow], float, dict[tuple[int, int], RunSummary]]:
    """Run the config's seeds at each horizon; aggregate and fit the slope.

    Horizons are validated up front (each must pass the same checks as a
    single run at that horizon). Each seed is one ``play_seed`` task of the
    config at every horizon, on the seed's noise drawn once, whatever the
    worker cap; with fewer seeds than CPUs the pool holds one worker per seed.
    Results never depend on scheduling order and equal those of games played
    alone. ``results`` is keyed and ordered by (horizon, seed).
    """
    if not horizons:
        raise ValueError("need at least one horizon")
    if len(set(horizons)) != len(horizons):
        raise ValueError("horizons must be distinct")
    for horizon in horizons:
        validate_config(replace(cfg, horizon=horizon))

    horizons = sorted(horizons)
    played = fan_out(play_seed, [([cfg], horizons, seed) for seed in cfg.seeds], max_workers)
    results: dict[tuple[int, int], RunSummary] = {
        (horizon, seed): summaries[i]
        for i, horizon in enumerate(horizons)
        for seed, summaries in zip(cfg.seeds, played)
    }

    rows = []
    for horizon in horizons:
        group = [results[(horizon, seed)] for seed in cfg.seeds]
        if cfg.mode == "property":
            ups = [s.r_up_p for s in group]
            downs = [s.r_down_p for s in group]
        else:
            ups = [s.r_up_n for s in group]
            downs = [s.r_down_n for s in group]
        stats = []
        for series in ([s.r_sw for s in group], ups, downs):
            stats.extend(_mean_sem(series))
            stats.extend(_mean_sem([x / horizon for x in series]))
        rows.append(SweepRow(horizon, len(group), *stats))

    slope = fit_loglog_slope([r.horizon for r in rows], [r.mean_r_sw for r in rows])
    return rows, slope, results


def fit_loglog_slope(horizons: list[int], values: list[float]) -> float:
    """Least-squares slope of ln(value) against ln(horizon); nan when any
    value is nonpositive (no log) or fewer than two points."""
    if len(horizons) < 2 or any(v <= 0.0 for v in values):
        return math.nan
    x = np.log(np.asarray(horizons, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def write_sweep_table(path: str, rows: list[SweepRow]) -> None:
    _write_records(path, SweepRow, rows)


def read_sweep_table(path: str) -> list[SweepRow]:
    return _read_records(path, SweepRow)
