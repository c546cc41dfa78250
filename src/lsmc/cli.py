"""Command-line interface.

Subcommands: `price` values a single contract once, `experiment1` and
`experiment2` run the comparison and convergence studies, `oracle` prints
reference prices.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure; a reader that closes stdout early changes none of them.
"""

from __future__ import annotations

import argparse
import os
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
    price.set_defaults(run=_cmd_price)
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

    for experiment in (1, 2):
        name = f"experiment{experiment}"
        exp = sub.add_parser(name, help=f"run {name} and report per-cell statistics")
        exp.set_defaults(run=_cmd_experiment, experiment=experiment)
        exp.add_argument("--case", required=True, choices=PAYOFF_KINDS)
        exp.add_argument("--config", help="key = value overrides file")
        exp.add_argument("--out", help="CSV output path")
        exp.add_argument("--scale", default="desk", choices=("desk", "paper"))
        exp.add_argument("--threads", type=int)  # default: the config file, else 1

    oracle = sub.add_parser("oracle", help="print reference prices for a case key")
    oracle.set_defaults(run=_cmd_oracle)
    oracle.add_argument("--case", required=True, choices=PAYOFF_KINDS)
    oracle.add_argument("--key", type=float, required=True)
    return parser


def _print(*args, **kwargs) -> None:
    """print(), flushed; once a reader has closed stdout, the run goes on without it."""
    try:
        print(*args, **kwargs, flush=True)
    except BrokenPipeError:  # the rest of stdout, and Python's flush at exit, go nowhere
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _cmd_price(args: argparse.Namespace) -> int:
    config = default_config(args.case, experiment=1, scale="paper")
    # the policy pass runs only when LSM2 is asked for
    estimators = (MODE_LSM2,) if args.mode == MODE_LSM2 else (MODE_LSM, MODE_LOOLSM)
    overrides: dict = {"n_paths": args.paths, "base_seed": args.seed, "estimators": estimators}
    if args.no_antithetic:
        overrides["antithetic"] = False
    if args.basis_m is not None:
        overrides["basis_m"] = args.basis_m
    key_flag = "spot" if args.case == BESTOF_CALL else "strike"  # a best-of key is its spot
    for name in ("spot", "strike"):
        value = getattr(args, name)
        if value is not None:
            overrides.update({"keys": (value,)} if name == key_flag else {name: value})
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
    _print(f"case        {config.case} (key {key:g})")
    _print(f"mode        {args.mode}")
    _print(f"price       {per_path.mean():.6f}")
    _print(f"std_error   {std_error(per_path, config.antithetic):.6f}")
    if len(ranks):
        _print(f"ranks       {' '.join(str(r) for r in ranks)}")
        _print(f"flips       {' '.join(str(f) for f in flips)}")
        _print(f"fallbacks   {fallbacks}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = default_config(args.case, experiment=args.experiment, scale=args.scale)
    overrides = load_config_file(args.config) if args.config else {}
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out is not None:
        overrides["out"] = args.out
    case = overrides.pop("case", args.case)
    if case != args.case:
        raise ConfigError(f"--case {args.case} conflicts with config case {case}")
    config = replace(config, **overrides)

    run = harness.run_experiment1 if args.experiment == 1 else harness.run_experiment2
    report = run(config)
    _print(harness.csv_text(report), end="")
    if report.slope is not None:
        s = report.slope
        _print(
            f"# bias ~ slope * M/N + intercept: slope={s.slope:.6g} (se {s.slope_se:.2g}), "
            f"intercept={s.intercept:.6g} (se {s.intercept_se:.2g}), r2={s.r2:.4f}"
        )
    if config.out is not None:
        try:
            harness.emit_csv(report, config.out)
        except OSError as exc:  # an unwritable --out is a configuration error, exit 2
            raise ConfigError(f"cannot write report to {config.out!r}: {exc}") from None
        _print(f"# wrote {config.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        ref = reference_price(args.case, args.key)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    _print(f"case      {ref.case}")
    _print(f"key       {ref.key:g}")
    _print(f"bermudan  {ref.bermudan:.3f}")
    _print(f"european  {ref.european:.3f}")
    _print(f"source    {ref.source}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
