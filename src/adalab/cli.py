"""Command-line front end.

One subcommand per experiment kind (built from ``harness.KINDS``), plus a
concentration checker. Each experiment subcommand accepts either a JSON
config (--config) or direct flags; flags override config values. Every
subcommand prints its summary to stdout as JSON (file paths and
diagnostics go to stderr) and takes --assert claims on it, which
``harness.check_claim`` checks before anything runs. Exit codes: 0 on
success, 2 when a claim fails, 1 on any other error, a malformed claim too.
A reader that closes stdout early (``adalab ... | head``) is not an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .attack import build_hard_instance
from .concentration import check_concentration_exact, hoeffding_gamma
from .core import distribution_from_dict, load_json, query_from_dict
from .harness import (
    KINDS,
    ExperimentConfig,
    check_claim,
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
        claim = {"metric": metric, "op": op, "value": float(raw)}
        check_claim(claim)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return claim


def _add_assert(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--assert",
        dest="assertions",
        action="append",
        default=[],
        type=_parse_assertion,
        metavar="METRIC:OP:VALUE",
        help="summary claim to enforce (op: ge, gt, le, lt, eq); repeatable",
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON experiment config; flags override its values")
    sub.add_argument("--trials", type=int, default=None, help="number of trials")
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--out", default=None, help="output path prefix (.jsonl/.csv/.summary.json)")
    sub.add_argument("--threads", type=int, default=None, help="worker processes for trials")
    _add_assert(sub)


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
                help=param.help if param.default is None else f"{param.help} (default {param.default})",
            )

    check = commands.add_parser(
        "check-concentration", help="deviation mass of a query against a threshold"
    )
    check.add_argument("--eps", type=float, help="hard-instance threshold (builds the instance)")
    check.add_argument("--gamma", type=float, help="holds when the deviation mass is at most gamma (optional with files)")
    check.add_argument("--n", type=int, help="sample size for the built instance")
    check.add_argument("--threshold", type=float, default=None, help="deviation threshold (default eps)")
    check.add_argument("--query-file", help="JSON query to check instead of the built one")
    check.add_argument("--dist-file", help="JSON distribution to check against")
    _add_assert(check)
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


def _check_concentration(args: argparse.Namespace) -> dict:
    if args.threshold is not None and not args.threshold > 0:
        raise ValueError(f"--threshold must be positive, got {args.threshold}")
    if args.query_file or args.dist_file:
        if not (args.query_file and args.dist_file):
            raise ValueError("--query-file and --dist-file must be given together")
        for name in ("eps", "n"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} only builds the hard instance; do not pass it with --query-file")
        query = query_from_dict(load_json(args.query_file))
        dist = distribution_from_dict(load_json(args.dist_file))
        if args.threshold is None:
            raise ValueError("--threshold is required with --query-file")
    else:
        for name in ("eps", "gamma", "n"):
            if getattr(args, name) is None:
                raise ValueError(f"--{name} is required when no query file is given")
        inst = build_hard_instance(args.eps, args.gamma, args.n)
        query = inst.slot_query(0)
        dist = inst.distribution
    gamma = args.gamma
    threshold = args.threshold if args.threshold is not None else args.eps
    # with no gamma there is no mass to hold under: the report leaves out
    # holds and gamma, and gives the deviations alone
    report = check_concentration_exact(query, dist, threshold, 1.0 if gamma is None else gamma)
    out = {**dataclasses.asdict(report), "threshold": threshold, "gamma": gamma}
    if gamma is None:
        del out["holds"], out["gamma"]
    lengths = {len(s) for s in dist.samples}
    if len(lengths) == 1:
        out["hoeffding_gamma"] = hoeffding_gamma(lengths.pop(), threshold)
    return out


def _print_stdout(text: str) -> None:
    """Print ``text`` and flush it. If the reader has closed stdout, point
    stdout at the null device, so neither this print nor the interpreter's
    final flush ends the run with a BrokenPipeError traceback."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "check-concentration":
            summary, claims = _check_concentration(args), args.assertions
        else:
            config = _config_from_args(args)
            result = run_experiment(config)
            summary, claims = result.summary, config.assertions
            # in the try: a write that fails exits 1 with one error line and prints no summary
            if config.out is not None:
                paths = write_outputs(result, config.out)
                print(f"wrote {paths['jsonl']}, {paths['csv']}, {paths['summary']}", file=sys.stderr)
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_stdout(to_json(summary, indent=2, sort_keys=True))
    failures = evaluate_assertions(summary, claims)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 2 if failures else 0
