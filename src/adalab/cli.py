"""Command-line front end.

One subcommand per experiment kind (built from ``harness.KINDS``), plus a
concentration checker. Each experiment subcommand accepts either a JSON
config (--config) or direct flags; flags override config values. The
summary is printed to stdout as JSON, file paths and diagnostics go to
stderr. Exit codes: 0 on success, 2 when an --assert claim fails, 1 on any
other error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .attack import build_hard_instance
from .concentration import check_concentration_exact, hoeffding_gamma
from .core import Query, distribution_from_dict, load_json, query_from_dict
from .harness import (
    KINDS,
    ExperimentConfig,
    evaluate_assertions,
    load_config,
    run_experiment,
    to_json,
    write_outputs,
)

def _parse_assertion(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"assertion {text!r} must look like metric:op:value, e.g. success_rate:ge:0.9"
        )
    metric, op, raw = parts
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"assertion value {raw!r} is not a number") from None
    return {"metric": metric, "op": op, "value": value}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON experiment config; flags override its values")
    sub.add_argument("--trials", type=int, default=None, help="number of trials")
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--out", default=None, help="output path prefix (.jsonl/.csv/.summary.json)")
    sub.add_argument("--threads", type=int, default=None, help="worker processes for trials")
    sub.add_argument(
        "--assert",
        dest="assertions",
        action="append",
        default=[],
        type=_parse_assertion,
        metavar="METRIC:OP:VALUE",
        help="summary claim to enforce (op: ge, gt, le, lt, eq); repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adalab",
        description="Simulations of noisy query answering on correlated data.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, kind in KINDS.items():
        sub = commands.add_parser(kind.command, help=f"run the {name} experiment")
        sub.set_defaults(kind=name)
        _add_common(sub)
        for param in kind.params:
            sub.add_argument(
                param.flag,
                dest=param.key,
                type=param.type,
                nargs=param.nargs,
                default=None,
                help=param.help,
            )

    check = commands.add_parser(
        "check-concentration", help="deviation mass of a query against a threshold"
    )
    check.add_argument("--eps", type=float, help="hard-instance threshold (builds the instance)")
    check.add_argument("--gamma", type=float, help="hard-instance failure chance")
    check.add_argument("--n", type=int, help="sample size for the built instance")
    check.add_argument("--threshold", type=float, default=None, help="deviation threshold (default eps)")
    check.add_argument("--query-file", help="JSON query to check instead of the built one")
    check.add_argument("--dist-file", help="JSON distribution to check against")
    check.add_argument(
        "--require-holds",
        action="store_true",
        help="exit 2 when the deviation mass exceeds gamma",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    kind = args.kind
    if args.config:
        config = load_config(args.config)
        if config.kind != kind:
            raise ValueError(
                f"config is for kind {config.kind!r} but the {args.command} command runs {kind!r}"
            )
    else:
        config = ExperimentConfig(kind=kind)
    params = dict(config.params)
    for param in KINDS[kind].params:
        value = getattr(args, param.key)
        if value is not None:
            params[param.key] = value
    return dataclasses.replace(
        config,
        params=params,
        trials=config.trials if args.trials is None else args.trials,
        seed=config.seed if args.seed is None else args.seed,
        out=config.out if args.out is None else args.out,
        threads=config.threads if args.threads is None else args.threads,
        assertions=list(config.assertions) + list(args.assertions),
    )


def _run_check_concentration(args: argparse.Namespace) -> int:
    if args.query_file or args.dist_file:
        if not (args.query_file and args.dist_file):
            raise ValueError("--query-file and --dist-file must be given together")
        query = query_from_dict(load_json(args.query_file))
        dist = distribution_from_dict(load_json(args.dist_file))
        if args.threshold is None:
            raise ValueError("--threshold is required with --query-file")
        gamma = args.gamma if args.gamma is not None else 1.0
    else:
        for name in ("eps", "gamma", "n"):
            if getattr(args, name) is None:
                raise ValueError(f"--{name} is required when no query file is given")
        inst = build_hard_instance(args.eps, args.gamma, args.n)
        query = Query(
            0.0, {b * inst.support_size: 1.0 for b in range(inst.num_blocks)}
        )
        dist = inst.distribution
        gamma = args.gamma
    threshold = args.threshold if args.threshold is not None else args.eps
    report = check_concentration_exact(query, dist, threshold, gamma)
    lengths = {len(s) for s in dist.samples}
    out = {
        "holds": report.holds,
        "deviation_mass": report.deviation_mass,
        "max_deviation": report.max_deviation,
        "threshold": threshold,
        "gamma": gamma,
    }
    if len(lengths) == 1:
        out["hoeffding_gamma"] = hoeffding_gamma(lengths.pop(), threshold)
    print(to_json(out, indent=2, sort_keys=True))
    if args.require_holds and not report.holds:
        print("concentration check failed: deviation mass exceeds gamma", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "check-concentration":
            return _run_check_concentration(args)
        config = _config_from_args(args)
        result = run_experiment(config)
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(to_json(result.summary, indent=2, sort_keys=True))
    if config.out:
        paths = write_outputs(result, config.out)
        print(f"wrote {paths['jsonl']}, {paths['csv']}, {paths['summary']}", file=sys.stderr)
    failures = evaluate_assertions(result.summary, config.assertions)
    if failures:
        for failure in failures:
            print(failure, file=sys.stderr)
        return 2
    return 0
