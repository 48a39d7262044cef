"""Riemann-Stieltjes quadrature, integral means, and their analytic partials.

The integral mean of f against a strictly increasing weight m over [r, R] is

    mean(r, R; f) = (m(R) - m(r))^-1 * integral_r^R f dm.

When m carries a derivative the integral is computed as an adaptive composite
Simpson rule on f * m'; otherwise refined midpoint Stieltjes sums are used.
Both paths halve the panel width until two successive refinements agree within
tolerance, and both switch to a logarithmic substitution on wide positive
intervals, where uniform panels would be hopeless.  A halving evaluates only
the Simpson nodes, or the cuts of m, new to it; midpoints do not nest, so g is
evaluated at every midpoint of every level.  segment_integrals instead
refines piece by piece, over many segments at once, for integrals that are
wanted on every segment of a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateIntervalError,
    MeanmaxError,
    MissingDerivativeError,
    NonFiniteValueError,
    QuadratureError,
)
from .func1d import GEOMETRIC_RATIO, Domain, Function1D, batch_eval, build_nodes, evaluate

# Panels of the first level of stieltjes_integral, and geometric pieces a wide
# segment of segment_integrals starts from.
BASE_PANELS = 64

# segment_integrals halves a piece at most this often, the mantissa bits of a
# double: its pieces then resolve their segment to the last bit.  A kink
# converges only linearly against a tolerance that shrinks with the piece, and
# needs more halvings than a global panel count would (24 on a damped wave).
LOCAL_HALVINGS = 52


@dataclass
class Measure1D:
    """A strictly increasing weight m with an optional derivative.

    diverges declares that m(x) -> +inf as x -> b, which several transform
    hypotheses require.  Monotonicity is the caller's responsibility and is
    only spot-checked by validate().
    """

    m: Callable[[float], float]
    domain: Domain
    m_prime: Callable[[float], float] | None = None
    diverges: bool = False

    def validate(self, lo: float | None = None, hi: float | None = None,
                 samples: int = 257) -> None:
        """Spot-check strict increase of m, and positivity of m', on [lo, hi].

        lo and hi default to the domain, an unbounded one cut at
        max(a, 1) * 1e6.  m must be finite at lo.  Any other sample where m
        or m' cannot be computed (an overflow, a pole) is left unchecked: only
        the values that exist are compared.
        """
        dom = self.domain
        lo = dom.a if lo is None else max(lo, dom.a)
        if hi is None:
            hi = max(dom.a, 1.0) * 1e6 if dom.unbounded else dom.b
        if not dom.unbounded:
            hi = min(hi, dom.b - (dom.b - dom.a) * 1e-12)
        if not lo < hi:
            return
        xs = build_nodes(lo, hi, samples)
        ms = _values_where_defined(self.m, xs)
        if np.isnan(ms[0]):
            raise DegenerateIntervalError(f"measure is not finite at the left end x={lo}")
        ok = np.isfinite(ms)
        steps = np.diff(ms[ok])
        if np.any(steps <= 0):
            k = int(np.argmin(steps))
            raise DegenerateIntervalError(
                f"measure is not strictly increasing near x={xs[ok][k]}"
            )
        if self.m_prime is not None:
            dms = _values_where_defined(self.m_prime, xs[1:-1])
            if np.any(dms <= 0):
                k = int(np.nanargmin(dms))
                raise DegenerateIntervalError(
                    f"measure derivative nonpositive at x={xs[1 + k]}"
                )


def _values_where_defined(fun: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """fun at each x, NaN where it raises or is not finite."""
    out = np.full(len(xs), np.nan)
    with np.errstate(all="ignore"):
        for k, x in enumerate(xs):
            try:
                out[k] = fun(float(x))
            except (ArithmeticError, ValueError, MeanmaxError):
                pass
    out[~np.isfinite(out)] = np.nan
    return out


def log_measure(a: float, b: float = math.inf) -> Measure1D:
    """The weight m(x) = ln x on [a, b), a > 0."""
    if a <= 0:
        raise ValueError("log measure needs a > 0")
    return Measure1D(
        m=np.log, m_prime=lambda x: 1.0 / x, domain=Domain(a, b), diverges=math.isinf(b)
    )


def identity_measure(a: float, b: float = math.inf) -> Measure1D:
    """The weight m(x) = x on [a, b)."""
    return Measure1D(
        m=lambda x: x, m_prime=lambda x: 1.0, domain=Domain(a, b), diverges=math.isinf(b)
    )


@dataclass
class QuadratureConfig:
    atol: float = 1e-10
    rtol: float = 1e-9
    max_halvings: int = 20

    def __post_init__(self):
        if self.atol <= 0 or self.rtol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_halvings < 1:
            raise ValueError("max_halvings must be at least 1")

    def tolerance(self, value: float) -> float:
        return max(self.atol, self.rtol * abs(value))

    def scaled(self, factor: float) -> "QuadratureConfig":
        return QuadratureConfig(
            atol=self.atol * factor,
            rtol=self.rtol * factor,
            max_halvings=self.max_halvings,
        )


@dataclass
class MeanValue:
    value: float
    est_error: float
    panels_used: int


def _eval_many(fun: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    try:
        ys = batch_eval(fun, xs)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise NonFiniteValueError(f"integrand evaluation failed: {exc}") from exc
    if not np.all(np.isfinite(ys)):
        k = int(np.argmax(~np.isfinite(ys)))
        raise NonFiniteValueError(f"non-finite integrand value at x={xs[k]}")
    return ys


def _simpson_levels(fun, lo: float, hi: float):
    """Composite Simpson sums on BASE_PANELS, 2 * BASE_PANELS, ... panels.

    The nodes of a level are the even nodes of the next, so each halving
    evaluates fun only at its new odd nodes.
    """
    n = BASE_PANELS
    ys = _eval_many(fun, np.linspace(lo, hi, n + 1))
    while True:
        h = (hi - lo) / n
        yield float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))
        n *= 2
        ys = _refined(ys, _eval_many(fun, np.linspace(lo, hi, n + 1)[1::2]))


def _refined(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The values of the next level: the old ones at even nodes, odd between them."""
    out = np.empty(len(even) + len(odd))
    out[::2], out[1::2] = even, odd
    return out


def _adaptive(levels, extrapolate, cfg: QuadratureConfig) -> MeanValue:
    """Panel-doubling driver shared by the Simpson and midpoint paths.

    levels yields the sums on BASE_PANELS, then twice as many panels, and so on.
    """
    n = BASE_PANELS
    prev = next(levels)
    for _ in range(cfg.max_halvings):
        n *= 2
        cur = next(levels)
        diff = abs(cur - prev)
        if diff <= cfg.tolerance(cur):
            return MeanValue(value=extrapolate(cur, prev), est_error=diff, panels_used=n)
        prev = cur
    raise QuadratureError(
        f"no convergence after {cfg.max_halvings} halvings (last delta {diff:.3e})"
    )


def check_interval(g: Function1D, m: Measure1D, r: float, R: float) -> None:
    """Raise unless r < R and [r, R] lies inside the domains of g and m."""
    if not r < R:
        raise DegenerateIntervalError(f"need r < R, got r={r}, R={R}")
    if r < g.domain.a or R >= g.domain.b:
        raise DegenerateIntervalError(
            f"[{r}, {R}] not inside the integrand domain [{g.domain.a}, {g.domain.b})"
        )
    if r < m.domain.a or R >= m.domain.b:
        raise DegenerateIntervalError(
            f"[{r}, {R}] not inside the measure domain [{m.domain.a}, {m.domain.b})"
        )


def stieltjes_integral(
    g: Function1D,
    m: Measure1D,
    r: float,
    R: float,
    cfg: QuadratureConfig | None = None,
) -> MeanValue:
    """integral_r^R g dm by adaptive Simpson on g*m' or refined midpoint sums."""
    cfg = cfg or QuadratureConfig()
    check_interval(g, m, r, R)
    ge = g.eval
    use_log = r > 0 and R / r > GEOMETRIC_RATIO

    if m.m_prime is not None:
        dm = m.m_prime
        if use_log:
            lo, hi = math.log(r), math.log(R)

            def integrand(u):
                x = np.exp(u)
                return ge(x) * dm(x) * x

        else:
            lo, hi = r, R

            def integrand(x):
                return ge(x) * dm(x)

        return _adaptive(
            _simpson_levels(integrand, lo, hi),
            lambda cur, prev: cur + (cur - prev) / 15.0,
            cfg,
        )

    me = m.m

    def cuts(n: int) -> np.ndarray:
        if use_log:
            ts = np.exp(np.linspace(math.log(r), math.log(R), n + 1))
            ts[0], ts[-1] = r, R
            return ts
        return np.linspace(r, R, n + 1)

    def midpoints(ts: np.ndarray) -> np.ndarray:
        return np.sqrt(ts[:-1] * ts[1:]) if use_log else 0.5 * (ts[:-1] + ts[1:])

    def midpoint_sum(n: int, ms_half):
        """The midpoint sum on n panels, and m at its n + 1 cuts.

        ms_half is m at the cuts of n / 2 panels, the even cuts here, or None.
        """
        ts = cuts(n)
        gs = _eval_many(ge, midpoints(ts))
        if ms_half is None:
            ms = _eval_many(me, ts)
        else:
            odd = _eval_many(me, ts[1::2])
            # Free the cuts before placing the values kept for the next level:
            # placed above the cuts, they left a hole below them that raised
            # peak resident memory by about 8 MB on a 2^20-panel sum.
            del ts
            ms = _refined(ms_half, odd)
        return float(np.sum(gs * np.diff(ms))), ms

    def midpoint_levels():
        n, ms = BASE_PANELS, None
        while True:
            total, ms = midpoint_sum(n, ms)
            yield total
            n *= 2

    return _adaptive(
        midpoint_levels(),
        lambda cur, prev: cur + (cur - prev) / 3.0,
        cfg,
    )


@dataclass
class Pieces:
    """Accepted pieces of a locally refined integral, sorted by left edge."""

    lo: np.ndarray
    hi: np.ndarray
    value: np.ndarray
    origin: np.ndarray  # index of the input segment each piece lies in


def segment_integrals(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    m: Measure1D,
    lo: np.ndarray,
    hi: np.ndarray,
    cfg: QuadratureConfig | None = None,
    span=None,
) -> Pieces:
    """integral of g dm over each segment [lo[i], hi[i]], refined locally.

    g(x, i) evaluates the integrand at the points x, each read in segment i[k],
    so a piecewise integrand can be given as its continuous extension over
    every closed segment.  Each segment gets adaptive Simpson on g*m'
    (midpoint Stieltjes sums when m has no derivative): each level makes one
    call to g for all segments, and only the pieces whose two estimates
    disagree are halved, at most LOCAL_HALVINGS times (cfg.max_halvings does
    not apply here).  Segments wider
    than GEOMETRIC_RATIO on positive x start from BASE_PANELS geometric
    pieces.  A piece of weight dm is accepted within
    max(atol * dm / span, rtol * |value|) / 4, span defaulting to the total
    weight of the segments.  So the pieces of any run of segments of total
    weight at most span, plus the pieces of one more such run, stay within
    max(atol, rtol * |I|) of their integral I when g keeps its sign.
    """
    cfg = cfg or QuadratureConfig()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m_lo, m_hi = _eval_many(m.m, lo), _eval_many(m.m, hi)
    if span is None:
        span = np.sum(m_hi - m_lo)
    span = np.broadcast_to(np.asarray(span, dtype=float), lo.shape)
    origin = np.arange(len(lo))
    done = [(lo[:0], hi[:0], lo[:0], origin[:0])]
    wide = (lo > 0) & (hi > GEOMETRIC_RATIO * lo)
    if wide.any():
        cuts = np.geomspace(lo[wide], hi[wide], BASE_PANELS + 1, axis=1)
        cuts[:, 0], cuts[:, -1] = lo[wide], hi[wide]
        lo = np.concatenate([lo[~wide], cuts[:, :-1].ravel()])
        hi = np.concatenate([hi[~wide], cuts[:, 1:].ravel()])
        origin = np.concatenate([origin[~wide], np.repeat(origin[wide], BASE_PANELS)])
        m_lo, m_hi = _eval_many(m.m, lo), _eval_many(m.m, hi)
    if len(lo):
        done.extend(_refine(g, m, lo, hi, m_lo, m_hi, origin, span, cfg))
    lo, hi, value, origin = (np.concatenate(parts) for parts in zip(*done))
    order = np.argsort(lo, kind="stable")
    return Pieces(lo[order], hi[order], value[order], origin[order])


def _refine(g, m, lo, hi, m_lo, m_hi, origin, span, cfg: QuadratureConfig):
    """Halve the pieces whose two estimates disagree, level by level.

    Simpson compares one panel against two.  Midpoint sums compare one panel
    against two and, since no midpoint sees a piece's ends, also the two-panel
    midpoint sum against the trapezoid sum on the same points.
    """
    simpson = m.m_prime is not None

    def rule(xs, idx):
        ys = np.asarray(g(xs, idx), dtype=float)
        if simpson:
            ys = ys * _eval_many(m.m_prime, xs)
        if not np.all(np.isfinite(ys)):
            k = int(np.argmax(~np.isfinite(ys)))
            raise NonFiniteValueError(f"non-finite integrand value at x={xs[k]}")
        return ys

    n = len(lo)
    mid = 0.5 * (lo + hi)
    m_mid = _eval_many(m.m, mid)
    ys = rule(np.concatenate([lo, mid, hi]), np.tile(origin, 3))
    y_lo, centre, y_hi = ys[:n], ys[n : 2 * n], ys[2 * n :]
    done = []
    for _ in range(LOCAL_HALVINGS + 1):
        n = len(lo)
        quarters = np.concatenate([0.5 * (lo + mid), 0.5 * (mid + hi)])
        ys = rule(quarters, np.tile(origin, 2))
        y1, y3 = ys[:n], ys[n:]
        if simpson:
            w = hi - lo
            coarse = w / 6.0 * (y_lo + 4.0 * centre + y_hi)
            fine = w / 12.0 * (y_lo + 4.0 * y1 + 2.0 * centre + 4.0 * y3 + y_hi)
            err = np.abs(fine - coarse)
            value = fine + (fine - coarse) / 15.0
        else:
            dm_lo, dm_hi = m_mid - m_lo, m_hi - m_mid
            coarse = centre * (m_hi - m_lo)
            fine = y1 * dm_lo + y3 * dm_hi
            trapezoid = 0.5 * ((y_lo + centre) * dm_lo + (centre + y_hi) * dm_hi)
            err = np.maximum(np.abs(fine - coarse), np.abs(trapezoid - fine))
            value = fine + (fine - coarse) / 3.0
        tol = 0.25 * np.maximum(cfg.atol * (m_hi - m_lo) / span[origin],
                                cfg.rtol * np.abs(fine))
        ok = err <= tol
        done.append((lo[ok], hi[ok], value[ok], origin[ok]))
        if ok.all():
            return done
        s = ~ok
        lo, mid, hi = (np.concatenate([lo[s], mid[s]]), quarters[np.tile(s, 2)],
                       np.concatenate([mid[s], hi[s]]))
        m_lo, m_mid, m_hi = (np.concatenate([m_lo[s], m_mid[s]]), _eval_many(m.m, mid),
                             np.concatenate([m_mid[s], m_hi[s]]))
        y_lo, y_hi = np.concatenate([y_lo[s], centre[s]]), np.concatenate([centre[s], y_hi[s]])
        centre = np.concatenate([y1[s], y3[s]])
        origin = np.tile(origin[s], 2)
    raise QuadratureError(
        f"no convergence after {LOCAL_HALVINGS} local halvings "
        f"({len(lo) // 2} pieces left, first at x={lo[0]})"
    )


def measure_weight(m: Measure1D, r: float, R):
    """m(R) - m(r) for a number or an array R, checked positive."""
    dm = batch_eval(m.m, R) - m.m(r) if np.ndim(R) else m.m(R) - m.m(r)
    if np.any(dm <= 0):
        raise DegenerateIntervalError(
            f"m(R) - m(r) = {np.min(dm)} is not positive; the measure data is not increasing"
        )
    return dm


def integral_mean(
    f: Function1D,
    m: Measure1D,
    r: float,
    R: float,
    cfg: QuadratureConfig | None = None,
) -> MeanValue:
    """The normalized Stieltjes mean of f against m over [r, R]."""
    cfg = cfg or QuadratureConfig()
    check_interval(f, m, r, R)
    dm = measure_weight(m, r, R)
    integral = stieltjes_integral(f, m, r, R, cfg)
    return MeanValue(
        value=integral.value / dm,
        est_error=integral.est_error / dm,
        panels_used=integral.panels_used,
    )


def mean_partial_r(
    f: Function1D,
    m: Measure1D,
    r: float,
    R: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """d/dr of the integral mean: m'(r) (m(R)-m(r))^-2 * integral_r^R (f(x)-f(r)) dm."""
    return _mean_partial(f, m, r, R, cfg, "r")


def mean_partial_R(
    f: Function1D,
    m: Measure1D,
    r: float,
    R: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """d/dR of the integral mean: m'(R) (m(R)-m(r))^-2 * integral_r^R (f(R)-f(x)) dm."""
    return _mean_partial(f, m, r, R, cfg, "R")


def _mean_partial(f: Function1D, m: Measure1D, r: float, R: float,
                  cfg: QuadratureConfig | None, end: str) -> float:
    """The partial of the integral mean in the end named "r" or "R"."""
    cfg = cfg or QuadratureConfig()
    if m.m_prime is None:
        raise MissingDerivativeError(f"partial in {end} needs the measure derivative at {end}")
    if not (f.domain.a < r and m.domain.a < r):
        raise DegenerateIntervalError("partials need r strictly inside the domain")
    x0 = r if end == "r" else R
    f0 = evaluate(f, x0)
    fe = f.eval
    shifted = Function1D(
        eval=(lambda x: fe(x) - f0) if end == "r" else (lambda x: f0 - fe(x)),
        domain=f.domain,
        locally_bounded=f.locally_bounded,
    )
    integral = stieltjes_integral(shifted, m, r, R, cfg)
    dm = m.m(R) - m.m(r)
    if dm <= 0:
        raise DegenerateIntervalError("measure does not increase over [r, R]")
    return m.m_prime(x0) * integral.value / dm**2
