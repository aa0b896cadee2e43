"""Command line entry points.

Subcommands: simulate, sweep, oracle, firm-example, accept. Exit codes:
0 on success, 1 on any validation or usage error, 2 when an acceptance
criterion fails.
"""

from __future__ import annotations

import argparse
import os
import sys

from .acceptance import SUITES, run_suite
from .config import ConfigError, config_instance, parse_config_file
from .env import compute_oracle
from .firm import FirmExample, firm_demo, render_report
from .runner import simulate_command, sweep, write_sweep_table


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract reserves 2 for
    # acceptance failures, so usage errors are rerouted through exit code 1.
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coase-bandits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="run every seed of a config and write CSV outputs")
    p_sim.add_argument("config", help="path to a config file")
    p_sim.add_argument("--output-dir", default=None, help="override the config's output dir")

    p_sweep = sub.add_parser("sweep", help="run a config across horizons and fit the regret slope")
    p_sweep.add_argument("config", help="path to a config file")
    p_sweep.add_argument(
        "--horizons", type=int, nargs="+", required=True, help="horizons to sweep, e.g. 1024 2048"
    )
    p_sweep.add_argument("--output", default=None, help="sweep table path (default <dir>/sweep.csv)")

    p_oracle = sub.add_parser("oracle", help="print exact benchmark quantities for a config's instance")
    p_oracle.add_argument("config", help="path to a config file")

    p_firm = sub.add_parser("firm-example", help="work the two-firm externality demo")
    p_firm.add_argument("--p", type=float, default=10.0, help="output price")
    p_firm.add_argument("--k1", type=float, default=1.0, help="firm 1 marginal cost slope")
    p_firm.add_argument("--k2", type=float, default=1.0, help="firm 2 marginal cost slope")
    p_firm.add_argument("--alpha", type=float, default=2.0, help="externality per unit of firm 1 output")

    p_accept = sub.add_parser("accept", help="run pinned acceptance criteria")
    p_accept.add_argument("suite", choices=sorted(SUITES), help="criteria suite to run")
    return parser


def _g(x: float) -> str:
    # Shortest exact decimal; round-trips to the same float like the CSVs do.
    return repr(float(x))


def cmd_simulate(args) -> int:
    cfg = parse_config_file(args.config)
    manifest = simulate_command(cfg, out_dir=args.output_dir)
    for s in manifest["summaries"]:
        if cfg.mode == "property":
            parts = f"r_up_p={_g(s.r_up_p)} r_down_p={_g(s.r_down_p)}"
        else:
            parts = f"r_up_n={_g(s.r_up_n)} r_down_n={_g(s.r_down_n)}"
        print(f"seed {s.seed}: r_sw={_g(s.r_sw)} {parts} welfare={_g(s.welfare)}")
    for path in manifest["files"]:
        print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_config_file(args.config)
    rows, slope, _ = sweep(cfg, args.horizons)
    for r in rows:
        print(
            f"T={r.horizon}: mean r_sw/T = {r.mean_r_sw_per_round:.6g} "
            f"(sem {r.sem_r_sw_per_round:.3g}), mean r_down/T = "
            f"{r.mean_r_down_per_round:.6g} (sem {r.sem_r_down_per_round:.3g}), "
            f"{r.n_seeds} seeds"
        )
    print(f"log-log slope of mean r_sw vs T: {slope:.6g}")
    out = args.output or os.path.join(cfg.output_dir, "sweep.csv")
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_sweep_table(out, rows)
    print(f"wrote {out}")
    return 0


def cmd_oracle(args) -> int:
    cfg = parse_config_file(args.config)
    inst = config_instance(cfg)
    oracle = compute_oracle(inst)
    print(f"instance: K={inst.n_arms} reward_model={inst.reward_model}")
    print("v_up:   " + " ".join(_g(x) for x in inst.v_up))
    print("v_down: " + " ; ".join(" ".join(_g(x) for x in row) for row in inst.v_down))
    print(f"welfare optimum: pair (a={oracle.a_sw}, b={oracle.b_sw}), welfare* = {_g(oracle.welfare_star)}")
    print(f"mu*_up = {_g(oracle.mu_star_up)} (arm {oracle.a_star_up}, unique: {'yes' if oracle.up_argmax_unique else 'no'})")
    print(f"mu*_down = {_g(oracle.mu_star_down)}")
    print("tau*:   " + " ".join(_g(x) for x in oracle.tau_star))
    print(f"delta_up = {_g(oracle.delta_up)}  delta_sw = {_g(oracle.delta_sw)}")
    if oracle.up_argmax_unique:
        print(f"misaligned: {'yes' if oracle.misaligned else 'no'}")
    else:
        print("misaligned: undefined (v_up argmax is not unique)")
    return 0


def cmd_firm_example(args) -> int:
    example = FirmExample(
        price=args.p, cost_slope_1=args.k1, cost_slope_2=args.k2, externality_rate=args.alpha
    )
    print(render_report(firm_demo(example)))
    return 0


def cmd_accept(args) -> int:
    results = run_suite(args.suite, report=print)
    passed = sum(r.passed for r in results)
    print(f"acceptance [{args.suite}]: {passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 2


COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
    "firm-example": cmd_firm_example,
    "accept": cmd_accept,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
