"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs a shortened simulate-trajectory workload (T = 2^12, the seeds of
workload seed 0) through the same ``Judge`` that run.py uses, then corrupts
its outputs and checks that each corruption is counted as failed games
rather than crashing the benchmark:

1. one changed digit of a gap_sw cell in a trajectory CSV: that game's
   digest differs from the pinned one and its gap_sw sum no longer
   reproduces r_sw;
2. one unparsable byte in run_summary.csv: the round-trip check raises, which
   must fail every game of the execution;
3. a clean first execution followed by a corrupted one: the second
   execution differs from the first and fails that game.

It also checks that the tracer leaves every package namespace and traced
class exactly as it found them once uninstalled.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

import run

HORIZON = 2**12


def flip_first_digit(path: str, column: str, row: int = 1) -> None:
    """Change the leading digit of one CSV cell in place (one byte, same length)."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    cells = lines[row].split(b",")
    at = lines[0].split(b",").index(column.encode())
    cell = bytearray(cells[at])
    i = next(i for i, c in enumerate(cell) if chr(c).isdigit())
    cell[i] = ord("0") + (cell[i] - ord("0") + 1) % 10
    cells[at] = bytes(cell)
    lines[row] = b",".join(cells)
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))


def corrupting(workload, corrupt, on_call: int = 1):
    """The workload, with ``corrupt(prepared, work_dir)`` applied to the
    outputs of its ``on_call``-th execution."""
    calls = [0]

    def execute(prepared, work_dir, *rest):
        out = workload.execute(prepared, work_dir, *rest)
        calls[0] += 1
        if calls[0] == on_call:
            corrupt(prepared, work_dir)
        return out

    return dataclasses.replace(workload, execute=execute)


def namespaces() -> dict:
    """Every attribute of every loaded package module and of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("coase_bandits"):
            continue
        out[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def same_namespaces(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(
        before[k].keys() == after[k].keys() and all(before[k][a] is after[k][a] for a in before[k])
        for k in before
    )


def first_trajectory(prepared, work_dir):
    return os.path.join(work_dir, f"trajectory_{prepared.seeds[0]}.csv")


def main() -> int:
    run.import_package()
    import workloads
    from coase_bandits import config

    os.makedirs(run.OUT, exist_ok=True)
    base = workloads.WORKLOADS["simulate-trajectory"]
    prepared = dataclasses.replace(base.prepare(0), horizon=HORIZON)
    config.validate_config(prepared)
    games = base.games(prepared)
    first_game = f"s{prepared.seeds[0]}"

    clean = run.Judge(base, prepared, None)
    ex = clean.execute()
    shutil.rmtree(ex.work_dir)
    reference = {"aggregate": ex.outcome.aggregate, "games": ex.outcome.digests}

    def flip_gap(p, d):
        flip_first_digit(first_trajectory(p, d), "gap_sw")

    def break_summary(p, d):
        path = os.path.join(d, "run_summary.csv")
        with open(path, "r+b") as fh:
            data = fh.read()
            fh.seek(data.index(b".", data.index(b"\n")))
            fh.write(b"x")

    # (label, workload, reference, executions, failed games wanted,
    #  games that must be named, text some problem must contain)
    cases = [
        ("flipped trajectory digit", corrupting(base, flip_gap), reference, 1, 1, {first_game}, "gap_sw"),
        ("unparsable run_summary.csv", corrupting(base, break_summary), reference, 1, games, None, "raised"),
        ("second execution differs", corrupting(base, flip_gap, on_call=2), None, 2, 1, {first_game}, "differs"),
    ]
    ok = clean.failed == 0
    print(f"{'PASS' if ok else 'FAIL'}  clean run: {clean.failed}/{clean.attempted} failed")

    import tracing
    from coase_bandits import acceptance  # noqa: F401  (load every traced module first)

    before = namespaces()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("selftest"):
        traced = run.Judge(base, prepared, reference)
        shutil.rmtree(traced.execute(1).work_dir)
    restored = same_namespaces(before, namespaces())
    good = restored and traced.failed == 0 and tracer.counts["engine_rounds"] == games * HORIZON
    ok &= good
    print(
        f"{'PASS' if good else 'FAIL'}  tracer: traced outputs match {traced.failed == 0}, "
        f"rounds counted {tracer.counts['engine_rounds']}, namespaces restored {restored}"
    )
    for label, workload, ref, executions, want_failed, want_games, want_text in cases:
        judge = run.Judge(workload, prepared, ref)
        try:
            runs = [judge.execute() for _ in range(executions)]
        except Exception as exc:  # the gate must never crash the benchmark
            print(f"FAIL  {label}: raised {exc!r}")
            ok = False
            continue
        named = runs[-1].failed
        good = (
            judge.failed == want_failed
            and (want_games is None or want_games <= named)
            and any(want_text in p for p in judge.problems)
        )
        ok &= good
        print(
            f"{'PASS' if good else 'FAIL'}  {label}: {judge.failed}/{judge.attempted} failed "
            f"(want {want_failed}), games named {sorted(named)}"
        )
        for r in runs:
            shutil.rmtree(r.work_dir)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
