"""Pin the reference digests the benchmark compares outputs against.

    python3 perfbench/pin.py

Runs every workload once per workload seed 0..PINNED_SEEDS-1 (accept-gate
once: its criteria are pinned and take no seed) and writes
perfbench/reference.json.
An output that fails its path-wise checks is not pinned; the command exits 1
instead. Re-pin only for a deliberate, documented change of the outputs,
such as a new random-stream contract.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

#: Workload seeds 0..PINNED_SEEDS-1 get pinned digests.
PINNED_SEEDS = 20


def main() -> int:
    run.import_package()
    import workloads

    os.makedirs(run.OUT, exist_ok=True)
    table: dict[str, dict] = {}
    for w in workloads.WORKLOADS.values():
        seeds = range(PINNED_SEEDS) if w.seeded else [None]
        for seed in seeds:
            judge = run.Judge(w, w.prepare(0 if seed is None else seed), None)
            ex = judge.execute()
            shutil.rmtree(ex.work_dir)
            if judge.failed:
                print(f"{w.name} seed {seed}: not pinned", *judge.problems, sep="\n", file=sys.stderr)
                return 1
            key = "*" if seed is None else str(seed)
            table.setdefault(w.name, {})[key] = {
                "aggregate": ex.outcome.aggregate,
                "games": ex.outcome.digests,
            }
            print(f"{w.name} seed {key}: {len(ex.outcome.digests)} digests", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
