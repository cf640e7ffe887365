"""Command-line entry: run / verify / sweep / list-scenarios.

Exit statuses of `run`: 0 converged and all ledger checks pass, 2 validation
failure (a failed hypothesis is reported on stderr and its run directory is
still written), 3 non-convergence or failed checks (artifacts still written),
4 internal error. `verify` returns 0 on pass, 1 on failure. `sweep` returns
2 when it has no --param, a --param without PATH=V1,V2,..., or an --out
directory that is not empty.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import runner
from .scenarios import scenario_registry


def _out_root(args):
    return args.out or os.environ.get("EXITLAB_OUT", "runs")


def _parse_param_value(raw):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _parse_param_values(values):
    """The values of --param PATH=V1,V2,...: a JSON list when "[" + values + "]"
    parses (so a value may itself be a JSON list), else each comma-separated
    value on its own."""
    try:
        return json.loads("[" + values + "]")
    except json.JSONDecodeError:
        return [_parse_param_value(v) for v in values.split(",")]


def _run_dir_for(source, root):
    name = source if isinstance(source, str) else "scenario"
    name = os.path.splitext(os.path.basename(name))[0]
    path = os.path.join(root, name)
    k = 2
    while os.path.exists(path):
        path = os.path.join(root, f"{name}-{k}")
        k += 1
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(prog="exitlab",
                                     description="optimal-exit mean field game lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario (registry name or JSON file)")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="output root (default $EXITLAB_OUT or ./runs)")
    p_run.add_argument("--tol", type=float)
    p_run.add_argument("--max-iter", type=int)

    p_verify = sub.add_parser("verify", help="re-check a persisted run directory")
    p_verify.add_argument("directory")
    p_verify.add_argument("--tol", type=float,
                          help="re-evaluate the ledger under a different tolerance")

    p_sweep = sub.add_parser("sweep", help="run a scenario over parameter ranges")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--param", action="append", default=[],
                         metavar="PATH=V1,V2,...",
                         help="dotted config path and comma-separated values")
    p_sweep.add_argument("--out", help="an empty or new output directory "
                                       "(default: a fresh sweep directory under $EXITLAB_OUT or ./runs)")
    p_sweep.add_argument("--tol", type=float)
    p_sweep.add_argument("--max-iter", type=int)

    sub.add_parser("list-scenarios", help="list the built-in registry")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name, cfg in sorted(scenario_registry().items()):
            dom = cfg["domain"]
            print(f"{name}: {dom['kind']} domain, m0 {cfg['initial_measure']['kind']}")
        return 0

    if args.command == "run":
        run_dir = _run_dir_for(args.scenario, _out_root(args))
        result = runner.run(args.scenario, run_dir, tol=args.tol, max_iter=args.max_iter)
        if result.error:
            print(result.error, file=sys.stderr)
        if result.path:  # a run that fails a hypothesis is still written
            print(f"run directory: {result.path}")
            eq_part = (result.ledger or {}).get("equilibrium")
            if eq_part:
                print(f"converged: {eq_part['converged']}  "
                      f"exploitability: {eq_part['exploitability']}")
        return result.status

    if args.command == "verify":
        result = runner.verify(args.directory, tol=args.tol)
        if result.error:
            print(f"FAIL: {result.error}", file=sys.stderr)
            return 1
        for diff in result.differences:
            print(diff)
        print("PASS" if result.passed else "FAIL")
        return 0 if result.passed else 1

    if args.command == "sweep":
        if not args.param:
            print("sweep needs at least one --param PATH=V1,V2,...", file=sys.stderr)
            return runner.STATUS_VALIDATION
        params = {}
        for spec in args.param:
            path, _, values = spec.partition("=")
            if not values:
                print(f"bad --param {spec!r}; expected PATH=V1,V2,...", file=sys.stderr)
                return runner.STATUS_VALIDATION
            params[path] = _parse_param_values(values)
        out_root = args.out or _run_dir_for("sweep", _out_root(args))
        try:
            aggregate = runner.sweep(args.scenario, params, out_root, tol=args.tol,
                                     max_iter=args.max_iter)
        except FileExistsError as err:
            print(err, file=sys.stderr)
            return runner.STATUS_VALIDATION
        print(f"sweep directory: {out_root} ({len(aggregate['members'])} members)")
        return 0

    return 4


if __name__ == "__main__":
    sys.exit(main())
