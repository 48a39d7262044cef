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

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The parser and the exit codes live in cliargs, which loads no numpy, so help
# and usage errors start without the numeric modules.  The benchmark leans on
# this module's shape.  perfbench/tracing.py reads sys.modules["meanmax.<mod>"]
# for func1d, stieltjes, transforms, verify and exprparse after importing only
# this module, so the imports below must load all five.  The cli-session
# replay in perfbench/workloads.py calls run_command and swaps
# compile_expression and load_csv_function here to count source evaluations,
# so the handlers look these up as module globals at call time.  Its
# load_csv_function returns a TabulatedFunction subclass built from xs= and
# ys= alone whose __call__ counts points, so the inherited as_function1d must
# read the table through __call__ and take its breaks from xs
# (tests/test_cli.py, TestBenchmarkContract).
from .cliargs import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VIOLATED, parse_args
from .errors import CsvFormatError, ExpressionSyntaxError, MeanmaxError, NonDifferentiableError
from .exprparse import compile_expression, derive_expression, parse_expression
from .func1d import (
    Domain,
    Envelope,
    Function1D,
    GridSpec,
    Tail,
    build_nodes,
    envelope_function,
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
    format_number,
    invert_measure,
)


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
            breaks=self.xs,
        )


def load_csv_function(path: str | Path) -> TabulatedFunction:
    """Parse a CSV of "x,value" rows; '#' starts a comment line."""
    path = Path(path)
    if not path.exists():
        raise CsvFormatError(f"{path}: no such file")
    xs: list[float] = []
    ys: list[float] = []
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CsvFormatError(f"{path}: {exc.strerror}") from None
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8").strip()
        except UnicodeDecodeError as exc:
            raise CsvFormatError(
                f"{path}:{lineno}: not UTF-8 text (byte 0x{raw[exc.start]:02x})") from None
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
        measure = Measure1D(m=tab, domain=tab.domain, diverges=force_diverges, breaks=tab.xs)
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
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError(f"range ends must be finite, got {lo}:{hi}")
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


def _table_text(fn: Function1D | Envelope, xs: np.ndarray) -> str:
    """fn at xs, one "x,value" row a point.  An Envelope is read by value_at
    alone, which locates no plateau edge."""
    ys = fn(xs).tolist()
    return "".join(f"{format_number(x)},{format_number(y)}\n" for x, y in zip(xs.tolist(), ys))


def _require(name: str, **needed):
    missing = [flag for flag, val in needed.items() if val is None]
    if missing:
        raise ValueError(f"{name} requires --" + ", --".join(missing))


def _source(args, name: str, default_tail: Tail) -> Function1D:
    """--f on [--a, --b) with the --tail declaration, default_tail when none is given."""
    _require(name, f=args.f, a=args.a)
    return _load_function(args.f, args.a, args.b, _parse_tail(args.tail, default_tail),
                          args.hint)


def _configs(args) -> tuple[QuadratureConfig, GridSpec]:
    cfg = QuadratureConfig(args.tol)
    grid = GridSpec(node_count=args.grid)
    return cfg, grid


def _cmd_mean(args) -> int:
    f = _source(args, "mean", Tail.unknown())
    cfg, _ = _configs(args)
    m = _load_measure(args.m, args.a, args.b, False, args.r, args.R)
    mean = integral_mean(f, m, args.r, args.R, cfg)
    if args.partials:
        lines = [
            f"mean,{format_number(mean.value)}",
            f"partial_r,{format_number(mean_partial_r(f, m, args.r, args.R, cfg))}",
            f"partial_R,{format_number(mean_partial_R(f, m, args.r, args.R, cfg))}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(format_number(mean.value) + "\n", args.output)
    return EXIT_OK


def _cmd_envelope(args) -> int:
    f = _source(args, "envelope", Tail.unknown())
    _, grid = _configs(args)
    xs = _parse_range(args.table)
    env = envelope_function(f, args.side, grid)
    for note in env.notes:
        print(f"warning: {note}", file=sys.stderr)
    _emit(_table_text(env, xs), args.output)
    return EXIT_OK


def _cmd_transform(args) -> int:
    cfg, grid = _configs(args)
    xs = _parse_range(args.table)
    if args.kind == "d-from-q":
        _require("d-from-q", Q=args.Q, r0=args.r0)
        Q = _load_function(args.Q, args.r0, args.b, Tail.unknown(), args.hint)
        res = d_from_Q(Q, args.r0, cfg, grid)
    elif args.kind == "q-from-d":
        _require("q-from-d", d=args.d, r0=args.r0)
        d = _load_function(args.d, args.r0, args.b, Tail.unknown(), args.hint)
        res = Q_from_d(d, args.r0, grid)
    elif args.kind == "majorant":
        f = _source(args, "majorant", Tail.vanishing())
        m = _load_measure(args.m, args.a, args.b, True, args.a, float(xs.max()))
        res = decreasing_majorant_mean(f, m, cfg, grid)
    else:
        f = _source(args, "double-envelope", Tail.vanishing())
        n_fn = compile_expression(parse_expression(args.n))
        res = weighted_double_envelope(f, WeightN(n=n_fn, domain=f.domain), grid)
    for note in res.warnings:
        print(f"warning: {note}", file=sys.stderr)
    _emit(_table_text(res.fn, xs), args.output)
    return EXIT_OK


def _emit_report(report, args) -> int:
    """Write a verify report in --format; its verdict gives the exit code."""
    text = report.to_kv() if args.format == "report" else report.to_line() + "\n"
    _emit(text, args.output)
    return {HOLDS: EXIT_OK, VIOLATED: EXIT_VIOLATED}.get(report.verdict, EXIT_NUMERIC)


def _grid_points(m: Measure1D, lo: float, hi: float, steps: int) -> list[float]:
    # Uniform in m-coordinates so wide logarithmic windows are covered evenly.
    if steps < 2:
        raise ValueError(f"--steps must be at least 2, got {steps}")
    return invert_measure(m, lo, hi, np.linspace(m.m(lo), m.m(hi), steps)).tolist()


def _cmd_verify(args) -> int:
    cfg, grid = _configs(args)
    prop = args.property
    sources = {"dQ": dict(Q=args.Q, r0=args.r0), "Qd": dict(d=args.d, r0=args.r0)}
    _require(prop, **sources.get(prop, dict(f=args.f, a=args.a)))
    if math.isinf(args.b):
        raise ValueError(f"{prop} needs a finite --b to bound its samples")
    if prop not in sources:
        f = _source(args, prop, Tail.vanishing())
        hi = args.b - (args.b - args.a) * 1e-9
        m = _load_measure(args.m, args.a, args.b, True, args.a, hi)
        if prop == "monotonicity":
            pts = _grid_points(m, args.a, hi, args.steps)
            report = check_mean_monotonicity(f, m, pts, pts, cfg, grid)
        elif prop == "sup-identity":
            _require(prop, R=args.R)
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
            _require(prop, r=args.r, R=args.R)
            report = finite_difference_check(f, m, args.r, args.R, cfg)
    elif prop == "dQ":
        Q = _load_function(args.Q, args.r0, math.inf, Tail.unknown(), args.hint)
        d = d_from_Q(Q, args.r0, cfg, grid)
        report = check_corollary_bounds(Q, d.fn, args.r0, "dQ", args.pairs, args.seed,
                                        cfg, sample_hi=args.b)
    else:  # Qd
        d = _load_function(args.d, args.r0, math.inf, Tail.unknown(), args.hint)
        Q = Q_from_d(d, args.r0, grid)
        report = check_corollary_bounds(Q.fn, d, args.r0, "Qd", args.pairs, args.seed,
                                        cfg, sample_hi=args.b)
    return _emit_report(report, args)


def _cmd_decay(args) -> int:
    f = _source(args, "decay", Tail.unknown())
    return _emit_report(estimate_decay(f, _parse_schedule(args.schedule)), args)


def _cmd_table(args) -> int:
    f = _source(args, "table", Tail.unknown())
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


def dispatch(args) -> int:
    """Run the subcommand of parsed arguments; return its exit code."""
    try:
        return _DISPATCH[args.cmd](args)
    except (ExpressionSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MeanmaxError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run_command(argv) -> int:
    """Parse argv and run it in-process, as ``meanmax`` would; return the exit code."""
    args = parse_args(argv)
    return args if isinstance(args, int) else dispatch(args)
