"""Command-line front end.

Subcommands: mean, envelope, transform, verify, decay, table.  Functions are
given as expression strings (see exprparse) or as paths to CSV tables (a
source ending in ".csv" is loaded as a table of "x,value" rows).  Exit codes:
0 success / property holds, 1 property violated, 2 usage error, 3 numeric
failure or inconclusive hypothesis.

The CLI treats a finite --b as a sampling window for the paper-style
hypotheses: for transform and verify runs the integrand tail is declared
vanishing and the measure divergent, and the numeric probes inside the
transforms still flag blatant violations.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, ExpressionSyntaxError, MeanmaxError
from .exprparse import compile_expression, derive_expression, parse_expression
from .errors import NonDifferentiableError
from .func1d import (
    Domain,
    Function1D,
    GridSpec,
    Tail,
    build_nodes,
    envelope_function,
    evaluate,
)
from .stieltjes import (
    Measure1D,
    QuadratureConfig,
    integral_mean,
    mean_partial_r,
    mean_partial_R,
)
from .transforms import (
    Q_from_d,
    WeightN,
    d_from_Q,
    decreasing_majorant_mean,
    weighted_double_envelope,
)
from .verify import (
    HOLDS,
    VIOLATED,
    DecaySchedule,
    check_corollary_bounds,
    check_majorant_inequality,
    check_mean_monotonicity,
    check_pointwise_mean_bound,
    check_sup_identity,
    estimate_decay,
    finite_difference_check,
    invert_measure,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.10g}"


@dataclass
class TabulatedFunction:
    """Linear interpolation through strictly increasing (x, value) rows."""

    xs: np.ndarray
    ys: np.ndarray

    @property
    def domain(self) -> Domain:
        return Domain(float(self.xs[0]), float(self.xs[-1]))

    def __call__(self, x):
        out = np.interp(x, self.xs, self.ys)
        return float(out) if np.ndim(out) == 0 else out

    def as_function1d(self, tail: Tail | None = None, hint: str = "none") -> Function1D:
        return Function1D(
            eval=self,
            domain=self.domain,
            tail=tail or Tail.unknown(),
            monotonicity=hint,
        )


def load_csv_function(path: str | Path) -> TabulatedFunction:
    """Parse a CSV of "x,value" rows; '#' starts a comment line."""
    path = Path(path)
    if not path.exists():
        raise CsvFormatError(f"{path}: no such file")
    xs: list[float] = []
    ys: list[float] = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise CsvFormatError(f"{path}:{lineno}: expected 'x,value', got {line!r}")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise CsvFormatError(
                    f"{path}:{lineno}: expected 'x,value', got {line!r}"
                ) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise CsvFormatError(f"{path}:{lineno}: non-finite entry")
            if xs and x <= xs[-1]:
                raise CsvFormatError(
                    f"{path}:{lineno}: x values must be strictly increasing"
                )
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise CsvFormatError(f"{path}: need at least 2 rows, got {len(xs)}")
    return TabulatedFunction(xs=np.array(xs), ys=np.array(ys))


def _parse_tail(text: str | None, default: Tail) -> Tail:
    if text is None:
        return default
    if text == "vanishing":
        return Tail.vanishing()
    if text == "unknown":
        return Tail.unknown()
    if text.startswith("bounded:"):
        return Tail.bounded_by(float(text.split(":", 1)[1]))
    raise ValueError(f"bad tail spec {text!r}; use vanishing | unknown | bounded:<v>")


def _load_function(source: str, a: float, b: float, tail: Tail, hint: str) -> Function1D:
    if source.endswith(".csv"):
        return load_csv_function(source).as_function1d(tail, hint)
    fn = compile_expression(parse_expression(source))
    return Function1D(eval=fn, domain=Domain(a, b), tail=tail, monotonicity=hint)


def _load_measure(source: str, a: float, b: float, force_diverges: bool,
                  lo: float, hi: float) -> Measure1D:
    """The --m measure, spot-checked for strict increase on [lo, hi], where it is read."""
    if source.endswith(".csv"):
        tab = load_csv_function(source)
        measure = Measure1D(
            m=tab, domain=tab.domain, m_prime=None,
            diverges=force_diverges,
        )
    else:
        ast = parse_expression(source)
        try:
            dm = compile_expression(derive_expression(ast))
        except NonDifferentiableError:
            dm = None
        measure = Measure1D(
            m=compile_expression(ast), domain=Domain(a, b), m_prime=dm,
            diverges=force_diverges or math.isinf(b),
        )
    measure.validate(lo, hi)
    return measure


def _parse_range(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(f"range spec must be lo:hi:spacing:count, got {spec!r}")
    lo, hi = float(parts[0]), float(parts[1])
    spacing, count = parts[2], int(parts[3])
    if spacing not in ("uniform", "geometric"):
        raise ValueError(f"spacing must be uniform or geometric, got {spacing!r}")
    if count < 2:
        raise ValueError("range count must be at least 2")
    if not lo < hi:
        raise ValueError(f"range needs lo < hi, got {lo}:{hi}")
    if spacing == "geometric" and lo <= 0:
        raise ValueError("geometric spacing needs lo > 0")
    return build_nodes(lo, hi, count, spacing)


def _parse_schedule(spec: str) -> DecaySchedule:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(f"schedule must be start:ratio:steps:threshold, got {spec!r}")
    return DecaySchedule(
        start=float(parts[0]), ratio=float(parts[1]),
        steps=int(parts[2]), threshold=float(parts[3]),
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _table_text(fn: Function1D, xs: np.ndarray) -> str:
    rows = [f"{_fmt(float(x))},{_fmt(evaluate(fn, float(x)))}" for x in xs]
    return "\n".join(rows) + "\n"


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

    def add_common(p, *, domain=True):
        if domain:
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


def _require(args, parser_hint: str, **needed):
    missing = [flag for flag, val in needed.items() if val is None]
    if missing:
        raise ValueError(f"{parser_hint} requires --" + ", --".join(missing))


def _configs(args) -> tuple[QuadratureConfig, GridSpec]:
    cfg = QuadratureConfig(atol=args.tol * 0.1, rtol=args.tol)
    grid = GridSpec(node_count=args.grid)
    return cfg, grid


def _cmd_mean(args) -> int:
    _require(args, "mean", a=args.a)
    cfg, _ = _configs(args)
    f = _load_function(args.f, args.a, args.b, _parse_tail(args.tail, Tail.unknown()),
                       args.hint)
    m = _load_measure(args.m, args.a, args.b, False, args.r, args.R)
    mean = integral_mean(f, m, args.r, args.R, cfg)
    if args.partials:
        lines = [
            f"mean,{_fmt(mean.value)}",
            f"partial_r,{_fmt(mean_partial_r(f, m, args.r, args.R, cfg))}",
            f"partial_R,{_fmt(mean_partial_R(f, m, args.r, args.R, cfg))}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(_fmt(mean.value) + "\n", args.output)
    return EXIT_OK


def _cmd_envelope(args) -> int:
    _require(args, "envelope", a=args.a)
    _, grid = _configs(args)
    f = _load_function(args.f, args.a, args.b, _parse_tail(args.tail, Tail.unknown()),
                       args.hint)
    env = envelope_function(f, args.side, grid)
    xs = _parse_range(args.table)
    _emit(_table_text(env.as_function(), xs), args.output)
    return EXIT_OK


def _cmd_transform(args) -> int:
    cfg, grid = _configs(args)
    tail = _parse_tail(args.tail, Tail.vanishing())
    xs = _parse_range(args.table)
    if args.kind == "d-from-q":
        _require(args, "d-from-q", Q=args.Q, r0=args.r0)
        Q = _load_function(args.Q, args.r0, args.b, Tail.unknown(), args.hint)
        res = d_from_Q(Q, args.r0, cfg, grid)
    elif args.kind == "q-from-d":
        _require(args, "q-from-d", d=args.d, r0=args.r0)
        d = _load_function(args.d, args.r0, args.b, Tail.unknown(), args.hint)
        res = Q_from_d(d, args.r0, grid)
    elif args.kind == "majorant":
        _require(args, "majorant", f=args.f, a=args.a)
        f = _load_function(args.f, args.a, args.b, tail, args.hint)
        m = _load_measure(args.m, args.a, args.b, True, args.a, float(xs.max()))
        res = decreasing_majorant_mean(f, m, cfg, grid)
    else:
        _require(args, "double-envelope", f=args.f, a=args.a)
        f = _load_function(args.f, args.a, args.b, tail, args.hint)
        n_fn = compile_expression(parse_expression(args.n))
        res = weighted_double_envelope(f, WeightN(n=n_fn, domain=f.domain), grid)
    for note in res.warnings:
        print(f"warning: {note}", file=sys.stderr)
    _emit(_table_text(res.fn, xs), args.output)
    return EXIT_OK


def _verdict_exit(verdict: str) -> int:
    if verdict == HOLDS:
        return EXIT_OK
    if verdict == VIOLATED:
        return EXIT_VIOLATED
    return EXIT_NUMERIC


def _grid_points(m: Measure1D, lo: float, hi: float, steps: int) -> list[float]:
    # Uniform in m-coordinates so wide logarithmic windows are covered evenly.
    if steps < 2:
        raise ValueError(f"--steps must be at least 2, got {steps}")
    return invert_measure(m, lo, hi, np.linspace(m.m(lo), m.m(hi), steps)).tolist()


def _cmd_verify(args) -> int:
    cfg, grid = _configs(args)
    prop = args.property
    if prop in ("monotonicity", "sup-identity", "F1", "AnmA", "partials"):
        _require(args, prop, f=args.f, a=args.a)
        if math.isinf(args.b):
            raise ValueError(f"{prop} needs a finite --b to bound its samples")
        tail = _parse_tail(args.tail, Tail.vanishing())
        f = _load_function(args.f, args.a, args.b, tail, args.hint)
        hi = args.b - (args.b - args.a) * 1e-9
        m = _load_measure(args.m, args.a, args.b, True, args.a, hi)
        if prop == "monotonicity":
            pts = _grid_points(m, args.a, hi, args.steps)
            report = check_mean_monotonicity(f, m, pts, pts, cfg, grid)
        elif prop == "sup-identity":
            _require(args, prop, R=args.R)
            pts = _grid_points(m, args.a, args.R * (1 - 1e-9), args.steps)
            report = check_sup_identity(f, m, args.R, pts, cfg, grid)
        elif prop == "F1":
            report = check_majorant_inequality(f, m, args.pairs, args.seed, cfg, grid)
        elif prop == "AnmA":
            n_fn = compile_expression(parse_expression(args.n))
            weight = WeightN(n=n_fn, domain=f.domain)
            report = check_pointwise_mean_bound(f, weight, m, args.pairs, args.seed,
                                                cfg, grid)
        else:
            _require(args, prop, r=args.r, R=args.R)
            report = finite_difference_check(f, m, args.r, args.R, cfg)
    elif prop == "dQ":
        _require(args, prop, Q=args.Q, r0=args.r0)
        if math.isinf(args.b):
            raise ValueError("dQ needs a finite --b to bound its samples")
        Q = _load_function(args.Q, args.r0, math.inf, Tail.unknown(), args.hint)
        d = d_from_Q(Q, args.r0, cfg, grid)
        report = check_corollary_bounds(Q, d.fn, args.r0, "dQ", args.pairs, args.seed,
                                        cfg, sample_hi=args.b)
    else:  # Qd
        _require(args, prop, d=args.d, r0=args.r0)
        if math.isinf(args.b):
            raise ValueError("Qd needs a finite --b to bound its samples")
        d = _load_function(args.d, args.r0, math.inf, Tail.unknown(), args.hint)
        Q = Q_from_d(d, args.r0, grid)
        report = check_corollary_bounds(Q.fn, d, args.r0, "Qd", args.pairs, args.seed,
                                        cfg, sample_hi=args.b)
    text = report.to_kv() if args.format == "report" else report.to_line() + "\n"
    _emit(text, args.output)
    return _verdict_exit(report.verdict)


def _cmd_decay(args) -> int:
    _require(args, "decay", a=args.a)
    f = _load_function(args.f, args.a, args.b, _parse_tail(args.tail, Tail.unknown()),
                       args.hint)
    sched = _parse_schedule(args.schedule)
    report = estimate_decay(f, sched)
    text = report.to_kv() if args.format == "report" else report.to_line() + "\n"
    _emit(text, args.output)
    return _verdict_exit(report.verdict)


def _cmd_table(args) -> int:
    _require(args, "table", a=args.a)
    f = _load_function(args.f, args.a, args.b, _parse_tail(args.tail, Tail.unknown()),
                       args.hint)
    xs = _parse_range(args.table)
    _emit(_table_text(f, xs), args.output)
    return EXIT_OK


_DISPATCH = {
    "mean": _cmd_mean,
    "envelope": _cmd_envelope,
    "transform": _cmd_transform,
    "verify": _cmd_verify,
    "decay": _cmd_decay,
    "table": _cmd_table,
}


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _DISPATCH[args.cmd](args)
    except ExpressionSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MeanmaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
