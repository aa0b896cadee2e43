"""Benchmark entry point: one workload, one seed, timed and checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else, so the command fails (exit 1, no result line)
when the sources are absent.

--trace 0 measures the end-to-end metrics with no tracing: one warm-up
execution whose outputs are fully checked, then back-to-back timed
executions for --seconds, then fresh-process set-up probes.
--trace 1 measures the per-layer metrics: untraced executions for the
baseline, then one execution under the outside-in tracer (``tracing.py``).

Every execution's outputs are reduced to per-game digests. They must equal
the pinned digests in ``reference.json`` when the workload seed has them,
and always those of the warm-up execution. A game whose digest differs, or
whose output fails a path-wise check, counts as failed.

Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = 5
#: Stop starting timed executions once this much of the process's life is
#: gone, so a slow machine still exits well inside the 180 s limit.
TIME_GUARD_S = 120.0


def contract_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer"), from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


PROCESS_START = time.perf_counter()


def import_package():
    """Import coase_bandits from this checkout's src/, or exit 1."""
    if not os.path.isfile(os.path.join(SRC, "coase_bandits", "__init__.py")):
        sys.exit(f"error: no package sources at {SRC}")
    sys.path.insert(0, SRC)
    import coase_bandits

    where = os.path.realpath(coase_bandits.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: coase_bandits imported from {where}, not from {SRC}")
    return coase_bandits


@dataclass
class Execution:
    """One execution of the workload and what the checks made of it."""

    work_dir: str
    wall_s: float
    outcome: object = None
    failed: set = field(default_factory=set)
    errors: list = field(default_factory=list)


class Judge:
    """Runs executions and counts attempted and failed games across them."""

    def __init__(self, workload, prepared, reference):
        self.w = workload
        self.prepared = prepared
        self.reference = reference
        self.games = workload.games(prepared)
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.problems: list[str] = []

    def execute(self, workers=None) -> Execution:
        work = tempfile.mkdtemp(prefix="work-", dir=OUT)
        args = (self.prepared, work) if workers is None else (self.prepared, work, workers)
        t0 = time.perf_counter()
        try:
            output = self.w.execute(*args)
        except Exception:
            wall = time.perf_counter() - t0
            run = Execution(work, wall, errors=[traceback.format_exc()])
        else:
            wall = time.perf_counter() - t0
            run = Execution(work, wall)
            try:
                run.outcome = self.w.outcome(self.prepared, output, work)
            except Exception:
                run.errors.append(traceback.format_exc())
        self._tally(run)
        return run

    def _tally(self, run: Execution) -> None:
        """Compare the execution's digests with the first execution's (and
        the pinned reference); the first execution also gets the path-wise checks."""
        self.attempted += self.games
        if run.outcome is None:
            self.failed += self.games
            self.problems.extend(f"execution raised:\n{e}" for e in run.errors)
            return
        if self.first is None:
            self.first = run
            run.failed = self._check_first(run)
        else:
            failed = set(self.first.failed)
            if run.outcome.aggregate != self.first.outcome.aggregate:
                failed |= set(self.first.outcome.digests) | {"*"}
                self.problems.append("aggregate output differs from the first execution")
            for game, d in run.outcome.digests.items():
                if self.first.outcome.digests.get(game) != d:
                    failed.add(game)
                    self.problems.append(f"{game}: output differs from the first execution")
            run.failed = failed
        self.failed += self._weight(run)

    def _weight(self, run: Execution) -> int:
        if "*" in run.failed:
            return self.games
        return min(self.games, sum(run.outcome.weight(g) for g in run.failed))

    def _check_first(self, run: Execution) -> set:
        import workloads

        outcome = run.outcome
        try:
            found = self.w.check(self.prepared, outcome, run.work_dir)
        except Exception:
            found = {workloads.WHOLE_RUN: [f"check raised:\n{traceback.format_exc()}"]}
        if outcome.games != self.games:
            found.setdefault(workloads.WHOLE_RUN, []).append(
                f"{outcome.games} games in the output, expected {self.games}"
            )
        if self.reference is not None:
            if outcome.aggregate != self.reference["aggregate"]:
                found.setdefault(workloads.WHOLE_RUN, []).append(
                    "aggregate output differs from the pinned reference"
                )
            for game, d in outcome.digests.items():
                if self.reference["games"].get(game) != d:
                    found.setdefault(game, []).append("output differs from the pinned reference")
        for game, notes in sorted(found.items()):
            self.problems.extend(f"{game}: {note}" for note in notes)
        return set(found)


def load_reference(workload, seed: int):
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(workload.name, {}).get(str(seed) if workload.seeded else "*")


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_seconds(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the package, build and
    validate the workload's config and build its instance."""
    probe = [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which would round every probe up to the next poll.
        subprocess.run(probe, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def measure_end_to_end(judge: Judge, seconds: int, name: str, seed: int) -> tuple[dict, dict]:
    warm = judge.execute()
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if time.perf_counter() - PROCESS_START + max(walls, default=warm.wall_s) > TIME_GUARD_S:
            break
        run = judge.execute()
        walls.append(run.wall_s)
        shutil.rmtree(run.work_dir)
    rss = peak_rss_mib()
    shutil.rmtree(warm.work_dir)
    setups = setup_seconds(name, seed)
    wall = statistics.median(walls)
    metrics = {
        "rounds_per_s": judge.w.rounds(judge.prepared) / wall,
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss,
    }
    detail = {"warmup_s": warm.wall_s, "timed_walls_s": walls, "setup_walls_s": setups}
    return metrics, detail


def measure_per_layer(judge: Judge, name: str, seed: int) -> tuple[dict, dict]:
    import tracing

    serial = 1  # the traced run is serial so no span is lost in a pool child
    runs = [judge.execute()]  # warm-up; the first execution is the checked one
    base = judge.execute(serial)
    runs.append(base)
    pool_speedup = 0.0
    if name == "sweep-property":
        pooled = judge.execute()
        runs.append(pooled)
        pool_speedup = base.wall_s / pooled.wall_s

    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("workload", label=name):
        prepared = judge.w.prepare(seed)
        traced_judge = Judge(judge.w, prepared, None)
        traced_judge.first = judge.first
        traced = traced_judge.execute(serial)
    judge.attempted += traced_judge.attempted
    judge.failed += traced_judge.failed
    judge.problems.extend(f"traced: {p}" for p in traced_judge.problems)
    runs.append(traced)
    for run in runs:
        shutil.rmtree(run.work_dir)

    metrics = tracing.layer_metrics(tracer)
    metrics["runner.pool_speedup"] = pool_speedup
    metrics["trace.overhead"] = traced.wall_s / base.wall_s
    trace_path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
    tracer.write(trace_path)
    detail = {
        "untraced_walls_s": [r.wall_s for r in runs[:-1]],
        "traced_wall_s": traced.wall_s,
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    import numpy

    import workloads
    from coase_bandits import runner

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    reference = load_reference(workload, args.seed)
    prepared = workload.prepare(args.seed)
    judge = Judge(workload, prepared, reference)

    if args.trace:
        values, detail = measure_per_layer(judge, args.workload, args.seed)
        units = contract_units("per_layer")
    else:
        values, detail = measure_end_to_end(judge, args.seconds, args.workload, args.seed)
        units = contract_units("end_to_end")

    first = judge.first.outcome if judge.first is not None else None
    meta = {
        "workload": args.workload,
        "workload_seed": args.seed,
        "game_seeds": list(getattr(prepared, "seeds", ())),
        "rounds_per_execution": workload.rounds(prepared),
        "games_per_execution": judge.games,
        "pinned_reference": reference is not None,
        "digest": None if first is None else workloads.digest(
            first.aggregate.encode(), *(f"{g}={d}".encode() for g, d in sorted(first.digests.items()))
        ),
        "aggregate_digest": None if first is None else first.aggregate,
        "game_digests": None if first is None else first.digests,
        "package": pkg.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "worker_cap_2": runner.worker_cap(2),
        runner.WORKERS_ENV_VAR: os.environ.get(runner.WORKERS_ENV_VAR),
        **detail,
    }
    for problem in judge.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if len(judge.problems) > 20:
        print(f"... {len(judge.problems) - 20} more problems", file=sys.stderr)

    print(f"{args.workload} seed={args.seed}: {judge.attempted - judge.failed}/{judge.attempted} games ok")
    for key, unit in units.items():
        print(f"  {key:28s} {values[key]:.6g} {unit}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
