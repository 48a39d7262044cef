"""The CLI's argument parser and exit codes, and its entry point.

This module imports only argparse and math, so ``meanmax --help``, the help of
each subcommand and every usage error that argparse reports are answered
without loading numpy or the numeric modules.  ``main`` imports
``meanmax.cli`` only once argparse has accepted the arguments.
"""

from __future__ import annotations

import argparse
import math
import sys

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _float_or_inf(text: str) -> float:
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanmax",
        description="Stieltjes integral means, maximization envelopes, and their verification",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("--a", type=float, help="left endpoint of the domain")
        p.add_argument("--b", type=_float_or_inf, default=math.inf,
                       help="right endpoint (exclusive; 'inf' allowed)")
        p.add_argument("--tol", type=float, default=1e-9, help="quadrature relative tolerance")
        p.add_argument("--grid", type=int, default=4097, help="supremum grid node count")
        p.add_argument("--tail", default=None,
                       help="tail declaration: vanishing | unknown | bounded:<v>")
        p.add_argument("--hint", default="none",
                       choices=["increasing", "decreasing", "none"],
                       help="monotonicity hint for the main function")
        p.add_argument("--output", "-o", default=None, help="write output here instead of stdout")

    p_mean = sub.add_parser("mean", help="integral mean and its partials")
    p_mean.add_argument("--f", required=True)
    p_mean.add_argument("--m", default="ln(x)")
    p_mean.add_argument("--r", type=float, required=True)
    p_mean.add_argument("--R", type=float, required=True)
    p_mean.add_argument("--partials", action="store_true",
                        help="also print the analytic partials in r and R")
    add_common(p_mean)

    p_env = sub.add_parser("envelope", help="right/left maximization tables")
    p_env.add_argument("--f", required=True)
    p_env.add_argument("--side", choices=["right", "left"], required=True)
    p_env.add_argument("--table", required=True, help="sample range lo:hi:spacing:count")
    add_common(p_env)

    p_tr = sub.add_parser("transform", help="constructed functions of the calculus")
    p_tr.add_argument("--kind", required=True,
                      choices=["d-from-q", "q-from-d", "majorant", "double-envelope"])
    p_tr.add_argument("--f", default=None)
    p_tr.add_argument("--m", default="ln(x)")
    p_tr.add_argument("--n", default="x")
    p_tr.add_argument("--Q", default=None)
    p_tr.add_argument("--d", default=None)
    p_tr.add_argument("--r0", type=float, default=None)
    p_tr.add_argument("--table", required=True, help="sample range lo:hi:spacing:count")
    add_common(p_tr)

    p_ver = sub.add_parser("verify", help="check a stated property numerically")
    p_ver.add_argument("--property", required=True,
                       choices=["monotonicity", "sup-identity", "F1", "AnmA",
                                "dQ", "Qd", "partials"])
    p_ver.add_argument("--f", default=None)
    p_ver.add_argument("--m", default="ln(x)")
    p_ver.add_argument("--n", default="x")
    p_ver.add_argument("--Q", default=None)
    p_ver.add_argument("--d", default=None)
    p_ver.add_argument("--r0", type=float, default=None)
    p_ver.add_argument("--r", type=float, default=None)
    p_ver.add_argument("--R", type=float, default=None)
    p_ver.add_argument("--pairs", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--steps", type=int, default=20, help="grid points per axis")
    p_ver.add_argument("--format", default="report", choices=["report", "line"])
    add_common(p_ver)

    p_dec = sub.add_parser("decay", help="geometric-schedule decay check")
    p_dec.add_argument("--f", required=True)
    p_dec.add_argument("--schedule", required=True, help="start:ratio:steps:threshold")
    p_dec.add_argument("--format", default="report", choices=["report", "line"])
    add_common(p_dec)

    p_tab = sub.add_parser("table", help="sample a function to CSV rows")
    p_tab.add_argument("--f", required=True)
    p_tab.add_argument("--table", required=True, help="sample range lo:hi:spacing:count")
    add_common(p_tab)

    return parser


def parse_args(argv) -> argparse.Namespace | int:
    """The parsed arguments, or the exit code once argparse has ended the run.

    argparse ends it after printing help (exit 0) or a usage error (exit 2).
    """
    try:
        return build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE


def main() -> None:
    args = parse_args(sys.argv[1:])
    if isinstance(args, int):
        sys.exit(args)
    from .cli import dispatch

    sys.exit(dispatch(args))
