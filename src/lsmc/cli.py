"""Command-line interface.

Subcommands: `price` values a single contract once, `experiment1` and
`experiment2` run the comparison and convergence studies, `oracle` prints
reference prices.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness
from .config import default_config, load_config_file
from .contracts import BESTOF_CALL, PAYOFF_KINDS
from .engine import MODE_EUROPEAN, MODE_LOOLSM, MODE_LSM, MODE_LSM2, std_error
from .errors import ConfigError, NumericalError
from .oracles import reference_price


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lsmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    price = sub.add_parser("price", help="price one contract on one simulation set")
    price.add_argument("--case", required=True, choices=PAYOFF_KINDS)
    price.add_argument(
        "--mode",
        default=MODE_LOOLSM,
        choices=(MODE_LSM, MODE_LOOLSM, MODE_LSM2, MODE_EUROPEAN),
    )
    price.add_argument("--strike", type=float, help="contract strike (put/basket grid key)")
    price.add_argument("--spot", type=float, help="common spot (bestof grid key)")
    price.add_argument("--paths", type=int, default=40_000)
    price.add_argument("--basis-m", type=int, help="basis size (default: the case's benchmark)")
    price.add_argument("--seed", type=int, default=20170907)
    price.add_argument("--no-antithetic", action="store_true")

    for name in ("experiment1", "experiment2"):
        exp = sub.add_parser(name, help=f"run {name} and report per-cell statistics")
        exp.add_argument("--case", required=True, choices=PAYOFF_KINDS)
        exp.add_argument("--config", help="key = value overrides file")
        exp.add_argument("--out", help="CSV output path")
        exp.add_argument("--scale", default="desk", choices=("desk", "paper"))
        exp.add_argument("--threads", type=int)  # default: the config file, else 1

    oracle = sub.add_parser("oracle", help="print reference prices for a case key")
    oracle.add_argument("--case", required=True, choices=PAYOFF_KINDS)
    oracle.add_argument("--key", type=float, required=True)
    return parser


def _cmd_price(args: argparse.Namespace) -> int:
    config = default_config(args.case, experiment=1, scale="paper")
    # the policy pass runs only when LSM2 is asked for
    estimators = (MODE_LSM2,) if args.mode == MODE_LSM2 else (MODE_LSM, MODE_LOOLSM)
    overrides: dict = {"n_paths": args.paths, "base_seed": args.seed, "estimators": estimators}
    if args.no_antithetic:
        overrides["antithetic"] = False
    if args.basis_m is not None:
        overrides["basis_m"] = args.basis_m
    if args.spot is not None:
        if args.case != BESTOF_CALL:
            overrides["spot"] = args.spot
        else:
            overrides["keys"] = (args.spot,)
    if args.strike is not None:
        if args.case == BESTOF_CALL:
            overrides["strike"] = args.strike
        else:
            overrides["keys"] = (args.strike,)
    config = replace(config, **overrides)

    key = config.keys[0]
    stack = harness.price_set(config, key, 0)
    if args.mode == MODE_EUROPEAN:
        per_path, ranks = stack.european[0], ()
    elif args.mode == MODE_LSM2:  # the policy's fits, and no regression of its own
        per_path, ranks = stack.held[0], stack.policy.ranks
        flips, fallbacks = [0] * len(ranks), 0
    else:
        j = (MODE_LSM, MODE_LOOLSM).index(args.mode)
        per_path, ranks = stack.value[0, :, j], stack.ranks[0]
        flips, fallbacks = stack.flips[0, j], stack.fallbacks[0]
    print(f"case        {config.case} (key {key:g})")
    print(f"mode        {args.mode}")
    print(f"price       {per_path.mean():.6f}")
    print(f"std_error   {std_error(per_path, config.antithetic):.6f}")
    if len(ranks):
        print(f"ranks       {' '.join(str(r) for r in ranks)}")
        print(f"flips       {' '.join(str(f) for f in flips)}")
        print(f"fallbacks   {fallbacks}")
    return 0


def _cmd_experiment(args: argparse.Namespace, experiment: int) -> int:
    config = default_config(args.case, experiment=experiment, scale=args.scale)
    overrides = load_config_file(args.config) if args.config else {}
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out is not None:
        overrides["out"] = args.out
    if "case" in overrides and overrides["case"] != args.case:
        raise ConfigError(f"--case {args.case} conflicts with config case {overrides['case']}")
    overrides.pop("case", None)
    config = replace(config, **overrides)

    run = harness.run_experiment1 if experiment == 1 else harness.run_experiment2
    report = run(config)
    print(harness.csv_text(report), end="")
    if report.slope is not None:
        s = report.slope
        print(
            f"# bias ~ slope * M/N + intercept: slope={s.slope:.6g} (se {s.slope_se:.2g}), "
            f"intercept={s.intercept:.6g} (se {s.intercept_se:.2g}), r2={s.r2:.4f}"
        )
    if config.out is not None:
        try:
            harness.emit_csv(report, config.out)
        except OSError as exc:  # an unwritable --out is a configuration error, exit 2
            raise ConfigError(str(exc)) from None
        print(f"# wrote {config.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        ref = reference_price(args.case, args.key)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    print(f"case      {ref.case}")
    print(f"key       {ref.key:g}")
    print(f"bermudan  {ref.bermudan:.3f}")
    print(f"european  {ref.european:.3f}")
    print(f"source    {ref.source}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "price":
            return _cmd_price(args)
        if args.command == "experiment1":
            return _cmd_experiment(args, 1)
        if args.command == "experiment2":
            return _cmd_experiment(args, 2)
        return _cmd_oracle(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
