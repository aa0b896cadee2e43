#!/usr/bin/env python3
"""Trace the transfer search phase batch by batch.

Runs phase 1 twice on the same instance: once against a best-responding
stand-in upstream (isolates the bracketing logic) and once against the live
learning upstream. Prints every batch's midpoint, mismatch count, branch
taken, and the bracket after the update, then compares the final estimates
to the true minimal transfers.

The config must play mode = property with the belgic downstream and a
schedule that validates, and the seed must be >= 0; anything else is refused
with one ``error:`` line and exit status 1.
"""

import argparse
import os
import sys

import numpy as np

from coase_bandits.config import belgic_params, config_instance, parse_config_file
from coase_bandits.engine import run_phase1
from coase_bandits.env import compute_oracle
from coase_bandits.runner import build_upstream
from coase_bandits.upstream import BestResponseUpstream

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_CONFIG = os.path.join(HERE, "..", "configs", "belgic.cfg")


def trace(label, instance, upstream, params, seed):
    print(f"--- {label} (seed {seed}) ---")
    tau_hat, batches, rounds = run_phase1(
        instance, upstream, params, np.random.default_rng(seed)
    )
    print(f"{'arm':>3} {'batch':>5} {'midpoint':>10} {'mismatch':>8} {'branch':>6} "
          f"{'lower':>8} {'upper':>8}")
    for b in batches:
        print(
            f"{b.arm:>3} {b.batch_index:>5} {b.tau_mid:>10.6f} {b.mismatches:>8} "
            f"{b.branch:>6} {b.tau_lower:>8.5f} {b.tau_upper:>8.5f}"
        )
    print(f"search rounds used: {rounds}")
    return tau_hat


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=DEFAULT_CONFIG)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0:
        sys.exit(f"error: --seed must be >= 0, got {args.seed}")

    try:
        cfg = parse_config_file(args.config)  # validates a Belgic config's schedule
    except (OSError, ValueError) as exc:
        sys.exit(f"error: {exc}")
    if (cfg.mode, cfg.downstream_policy) != ("property", "belgic"):
        sys.exit(
            f"error: {args.config} plays mode = {cfg.mode} with the {cfg.downstream_policy} "
            "downstream; the search needs mode = property with the belgic downstream"
        )
    instance = config_instance(cfg)
    oracle = compute_oracle(instance)
    params = belgic_params(cfg, cfg.horizon)
    print(f"batch length {params.batch_length}, {params.n_batches} batches per arm, "
          f"mismatch threshold {params.threshold!r}")

    exact = trace("best-response upstream", instance, BestResponseUpstream(instance), params, args.seed)
    live = trace(
        "learning upstream", instance,
        build_upstream(cfg, instance, cfg.horizon), params, args.seed,
    )

    print("--- estimates vs truth ---")
    print(f"{'arm':>3} {'tau*':>10} {'best-resp':>10} {'learning':>10}")
    for a in range(instance.n_arms):
        print(
            f"{a:>3} {oracle.tau_star[a]:>10.6f} "
            f"{exact[a]:>10.6f} {live[a]:>10.6f}"
        )


if __name__ == "__main__":
    main()
