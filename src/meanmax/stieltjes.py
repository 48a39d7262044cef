"""Riemann-Stieltjes quadrature, integral means, and their analytic partials.

The integral mean of f against a strictly increasing weight m over [r, R] is

    mean(r, R; f) = (m(R) - m(r))^-1 * integral_r^R f dm.

Every integral runs through segment_integrals, which bisects pieces of its
segments locally until each piece's error estimate meets the piece's share of
the tolerance; the integrals over an array of intervals share one such call.
Segments are cut first at the breaks of f and of m, the points where either
may fail to be smooth, as QUADPACK's QAGP cuts at user break points.  Every
piece gets the 7-point Gauss / 15-point Kronrod pair on f * m' (QUADPACK,
Piessens et al. 1983); its error is the larger of |K15 - G7| and the gap
between K15 and a rule that also reads the piece's ends, which no Kronrod
node sees.  When m carries no derivative, each rule takes m' from m's own
values: the derivative of the polynomial through m at the piece's ends and at
the rule's nodes (barycentric differentiation, Berrut and Trefethen 2004), so
each rule's weights sum to the piece's weight and a kink of m inside a piece
costs both rules alike.  Segments wide on positive x start from geometric
pieces.  A call that needs more than POINT_BUDGET integrand points raises
QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateIntervalError, MissingDerivativeError, QuadratureError
from .func1d import (GEOMETRIC_RATIO, Domain, Function1D, build_nodes, distinct, evaluate,
                     probe, sample, window_end)

# Geometric pieces a segment of segment_integrals wider than GEOMETRIC_RATIO
# on positive x starts from.
BASE_PANELS = 64

# A piece is halved at most this often, the mantissa bits of a double: its
# pieces then resolve their segment to the last bit.
LOCAL_HALVINGS = 52

# Integrand points one call of segment_integrals may read before it gives up.
# The largest call that converges in the test suite reads 155,681: x^-1.25
# against ln x tabulated on 10,000 rows, cut at every row; in the benchmark,
# 78,489.
POINT_BUDGET = 2**21

# A piece cut at a break reads 16 points at its first level of G7/K15: its 15
# Kronrod nodes and the cut.
CUT_POINTS = 16

# The 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule at its odd
# nodes, as published with QUADPACK's qk15: the non-negative nodes from 1 down
# to 0, their Kronrod weights, and the Gauss weights of nodes 1, 3, 5 and 7.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.000000000000000000000000000000000)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# The same rules over all 15 nodes in increasing order; a Gauss weight is 0 at
# a node the Gauss rule lacks.
KRONROD_NODES = np.concatenate([np.negative(_XGK[:-1]), _XGK[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1::2] = _WG + _WG[-2::-1]
# The interpolatory rule on the ends of [-1, 1] and the 13 inner Kronrod nodes,
# exact to degree 15: END_WEIGHT at each end, INNER_WEIGHTS at the Kronrod
# nodes (0 at the outer two; from 0.949... down to 0 below).  On a smooth piece
# it is closer to K15 than G7 is; it sees a peak at an end that K15 and G7 miss.
END_WEIGHT = 0.0157067335862124646866237956104103
_WE = (0.0744814467816111853799448910676960, 0.0977143544439915363295560073930247,
       0.145909824578338152386302588869016, 0.164624195780295214921134730084121,
       0.194251334846360006048493106913917, 0.200797291007677764655337487146261,
       0.213029637951027351185214785831109)
INNER_WEIGHTS = np.concatenate([[0.0], _WE[:-1], _WE[::-1], [0.0]])


def _diff_matrix(t: np.ndarray) -> np.ndarray:
    """The matrix taking values at the nodes t to their interpolant's derivative there.

    Barycentric (Berrut and Trefethen, SIAM Review 2004); a diagonal entry is
    minus the rest of its row, so a constant maps to 0.
    """
    dt = t[:, None] - t + np.eye(len(t))
    w = 1 / dt.prod(axis=1)
    d = w / w[:, None] / dt - np.eye(len(t))
    return d - np.diag(d.sum(axis=1))


# Derivatives on [-1, 1] of the polynomial through the two ends and the 15
# Kronrod nodes (17 points), and of the one through the ends and the 7 Gauss
# nodes (9 points), at those points.
KRONROD_DIFF = _diff_matrix(np.concatenate([[-1.0], KRONROD_NODES, [1.0]]))
GAUSS_DIFF = _diff_matrix(np.concatenate([[-1.0], KRONROD_NODES[1::2], [1.0]]))


@dataclass
class Measure1D:
    """A strictly increasing weight m with an optional derivative.

    diverges declares that m(x) -> +inf as x -> b, which several transform
    hypotheses require.  breaks, when given, is a sorted array of the points
    where m may fail to be smooth, as on Function1D; quadrature cuts there.
    Monotonicity is the caller's responsibility and is only spot-checked by
    validate().
    """

    m: Callable[[float], float]
    domain: Domain
    m_prime: Callable[[float], float] | None = None
    diverges: bool = False
    breaks: np.ndarray | None = None

    def validate(self, lo: float | None = None, hi: float | None = None) -> None:
        """Spot-check strict increase of m, and positivity of m', on 257 nodes of [lo, hi].

        The breaks inside [lo, hi] join the nodes, so a table's rows are all
        compared.  lo defaults to a and hi to window_end(domain, a), which
        also caps a given hi unless the domain is unbounded.  m must be finite
        at lo.  Any other sample where m or m' cannot be computed (an
        overflow, a pole) is left unchecked: only the values that exist are
        compared.
        """
        dom = self.domain
        lo = dom.a if lo is None else max(lo, dom.a)
        end = window_end(dom, dom.a)
        hi = end if hi is None else (hi if dom.unbounded else min(hi, end))
        if not lo < hi:
            return
        inner = np.empty(0) if self.breaks is None else self.breaks[
            (self.breaks > lo) & (self.breaks < hi)]
        xs = distinct(np.concatenate([build_nodes(lo, hi, 257), inner]))
        ms = probe(self.m, xs)
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
            dms = probe(self.m_prime, xs[1:-1])
            if np.any(dms <= 0):
                k = int(np.nanargmin(dms))
                raise DegenerateIntervalError(
                    f"measure derivative nonpositive at x={xs[1 + k]}"
                )


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
    """The relative tolerance of the quadrature; the absolute one is a tenth of it."""

    rtol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.rtol < math.inf:
            raise ValueError("tolerances must be finite and positive")

    @property
    def atol(self) -> float:
        return self.rtol / 10


@dataclass
class MeanValue:
    value: float | np.ndarray  # an array for an array call, one entry per interval
    est_error: float | np.ndarray  # the sum of the accepted pieces' error estimates
    panels_used: int  # the number of accepted pieces of the call, all intervals together


def check_interval(g: Function1D, m: Measure1D, r: float | np.ndarray,
                   R: float | np.ndarray) -> None:
    """Raise unless r < R and [r, R] lies inside the domains of g and m.

    r and R may be numbers or numpy arrays; the first bad pair raises what a
    call on that pair alone raises.
    """
    for lo, hi in np.broadcast(r, R):
        if not lo < hi:
            raise DegenerateIntervalError(f"need r < R, got r={lo}, R={hi}")
        if lo < g.domain.a or hi >= g.domain.b:
            raise DegenerateIntervalError(
                f"[{lo}, {hi}] not inside the integrand domain [{g.domain.a}, {g.domain.b})"
            )
        if lo < m.domain.a or hi >= m.domain.b:
            raise DegenerateIntervalError(
                f"[{lo}, {hi}] not inside the measure domain [{m.domain.a}, {m.domain.b})"
            )


def stieltjes_integral(
    g: Function1D,
    m: Measure1D,
    r: float | np.ndarray,
    R: float | np.ndarray,
    cfg: QuadratureConfig | None = None,
) -> MeanValue:
    """integral_r^R g dm, for numbers r and R or numpy arrays of them.

    All intervals share one refinement: one segment_integrals call over the
    gaps between consecutive ends that some [r, R] covers, cut at the breaks
    of g and of m inside them, so the tolerance's span is the weight of their
    union and each integral I meets max(atol, rtol * |I|) when g keeps its
    sign.  A scalar call is the one segment [r, R], so cut.  An interval's
    value and est_error are sums over the run of accepted pieces it covers,
    never differences; panels_used counts the pieces of the whole call.
    """
    check_interval(g, m, r, R)
    rs, Rs = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(R, dtype=float))
    shape, rs, Rs = rs.shape, rs.ravel(), Rs.ravel()
    ends = distinct(np.concatenate([rs, Rs]))
    n = len(ends)
    depth = np.cumsum(np.bincount(np.searchsorted(ends, rs), minlength=n)
                      - np.bincount(np.searchsorted(ends, Rs), minlength=n))
    gaps = np.flatnonzero(depth[:-1] > 0)
    pieces = segment_integrals(g.eval, m, ends[gaps], ends[gaps + 1], cfg, breaks=g.breaks)
    # Pieces are sorted and lie inside the gaps, so those of [r, R] start at r
    # and run up to R.
    runs = list(zip(np.searchsorted(pieces.lo, rs), np.searchsorted(pieces.lo, Rs)))
    value, error = (np.array([np.sum(v[i:j]) for i, j in runs]).reshape(shape)
                    for v in (pieces.value, pieces.error))
    if not shape:
        value, error = float(value), float(error)
    return MeanValue(value=value, est_error=error, panels_used=len(pieces.value))


@dataclass
class Pieces:
    """Accepted pieces of a locally refined integral, sorted by left edge."""

    lo: np.ndarray
    hi: np.ndarray
    value: np.ndarray
    error: np.ndarray
    origin: np.ndarray  # index of the input segment each piece lies in
    m_lo: np.ndarray  # m at lo and at hi, and the integrand (g*m', or g
    m_hi: np.ndarray  # without m_prime) at lo, as the refinement read them
    y_lo: np.ndarray


def segment_integrals(
    g: Callable[[np.ndarray], np.ndarray],
    m: Measure1D,
    lo: np.ndarray,
    hi: np.ndarray,
    cfg: QuadratureConfig | None = None,
    span=None,
    breaks: np.ndarray | None = None,
) -> Pieces:
    """integral of g dm over each segment [lo[i], hi[i]], refined locally.

    A segment is first cut at every point of breaks (g's, sorted) and of
    m.breaks strictly inside it, unless the added pieces' CUT_POINTS each
    would pass POINT_BUDGET: then the breaks are ignored.  Each level makes
    one call to g for the pieces of all segments, and only the pieces whose
    error exceeds their tolerance are halved, at most LOCAL_HALVINGS times.
    A piece gets G7/K15 on g*m', with m' from m's own values when m has no
    m_prime (see _refine).  Segments wider than GEOMETRIC_RATIO on positive x
    start from BASE_PANELS geometric pieces.  g is read once at each cut; m
    once at each cut, then at the midpoint of each piece halved when m has
    m_prime, otherwise at every piece's 15 Kronrod nodes; each piece keeps
    the values read at its ends.  A piece of weight dm is accepted within max(atol * dm /
    span, rtol * |value|) / 4 (or the rounding of m's values, see _refine),
    span (an array, one weight per segment) defaulting to the total weight
    of the segments.  So the pieces of any run of segments of total weight
    at most span, plus the pieces of one more such run, stay within
    max(atol, rtol * |I|) of their integral I when g keeps its sign.  More
    than POINT_BUDGET points of g raise QuadratureError.
    """
    cfg = cfg or QuadratureConfig()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    origin = np.arange(len(lo))
    knots = [k for k in (breaks, m.breaks) if k is not None and len(k)]
    if knots:
        cut = _cut(lo, hi, distinct(np.concatenate(knots)))
        if CUT_POINTS * (len(cut[0]) - len(lo)) <= POINT_BUDGET:
            lo, hi, origin = cut
    wide = (lo > 0) & (hi > GEOMETRIC_RATIO * lo)
    if wide.any():
        cuts = np.geomspace(lo[wide], hi[wide], BASE_PANELS + 1, axis=1)
        cuts[:, 0], cuts[:, -1] = lo[wide], hi[wide]
        lo = np.concatenate([lo[~wide], cuts[:, :-1].ravel()])
        hi = np.concatenate([hi[~wide], cuts[:, 1:].ravel()])
        origin = np.concatenate([origin[~wide], np.repeat(origin[wide], BASE_PANELS)])
    if not len(lo):
        return Pieces(lo, hi, lo, lo, origin, lo, lo, lo)
    span = None if span is None else np.asarray(span, dtype=float)[origin]
    return _refine(g, m, lo, hi, origin, span, cfg)


def _cut(lo: np.ndarray, hi: np.ndarray, knots: np.ndarray):
    """Segments [lo, hi] cut at the sorted knots strictly inside each: (lo, hi, origin)."""
    first = np.searchsorted(knots, lo, side="right")
    count = np.searchsorted(knots, hi, side="left") - first
    origin = np.repeat(np.arange(len(lo)), count + 1)
    # Piece k of a segment (k = 0 .. count) runs from its knot k - 1 to its
    # knot k, the segment's own ends standing in for the missing ones.
    k = np.arange(len(origin)) - np.repeat(np.cumsum(count) - count, count + 1) - origin
    at, last = first[origin] + k, len(knots) - 1
    left = np.where(k == 0, lo[origin], knots[np.clip(at - 1, 0, last)])
    right = np.where(k == count[origin], hi[origin], knots[np.minimum(at, last)])
    return left, right, origin


def _refine(g, m, lo, hi, origin, span, cfg: QuadratureConfig, left=None) -> Pieces:
    """Halve the pieces whose error exceeds their tolerance, level by level.

    G7/K15 estimates a piece from 15 new points of g*m'.  Without m_prime,
    m is read at the piece's 15 Kronrod nodes and, less its value at the
    centre node, differentiated in two ways: K15 and the end rule take m'
    from the polynomial through m at the ends and all 15 nodes
    (KRONROD_DIFF), G7 from the one through the ends and its 7 nodes
    (GAUSS_DIFF).  Each rule then integrates its own interpolant's
    derivative exactly, so its weights sum to m(hi) - m(lo) and a kink or
    jump of m inside the piece costs it only O(h^2).  Such a piece is also
    accepted when m's rounding alone could explain its error.  A piece's
    halves inherit its ends and midpoint (the middle Kronrod node), so only
    the first level reads g and m at the cuts, lo and hi, or hi alone when
    the caller gives their values at lo as left.  Returns the pieces by lo.
    """
    fun = (lambda x: g(x) * m.m_prime(x)) if m.m_prime is not None else g
    used = 0
    n = len(lo)
    ends = np.concatenate([lo, hi]) if left is None else hi
    cuts = distinct(ends)
    at = np.searchsorted(cuts, ends)
    ms = sample(m.m, cuts)[at]
    m_lo, m_hi = (ms[:n], ms[n:]) if left is None else (left[0], ms)
    if span is None:  # an m flat on every segment weighs nothing; rtol alone bounds it
        span = np.full(n, np.sum(m_hi - m_lo) or np.inf)
    density = cfg.atol / span
    done = []
    for level in range(LOCAL_HALVINGS + 1):
        n = len(lo)
        mid = 0.5 * (lo + hi)
        xs = (mid[:, None] + (hi - mid)[:, None] * KRONROD_NODES).ravel()
        pts = np.concatenate([cuts, xs]) if level == 0 else xs
        used += len(pts)
        if used > POINT_BUDGET:
            raise QuadratureError(
                f"integrand point budget of {POINT_BUDGET} exceeded "
                f"({len(lo)} pieces unresolved, first at x={lo[0]})"
            )
        ys = sample(fun, pts)
        if level == 0:
            y_ends, ys = ys[: len(cuts)][at], ys[len(cuts) :]
            y_lo, y_hi = (y_ends[:n], y_ends[n:]) if left is None else (left[1], y_ends)
        ys = ys.reshape(n, -1)
        if m.m_prime is not None:
            half = hi - mid
            value = half * (ys @ KRONROD_WEIGHTS)
            gauss = half * (ys @ GAUSS_WEIGHTS)
            ends = half * (ys @ INNER_WEIGHTS + END_WEIGHT * (y_lo + y_hi))
            floor = 0.0
        else:
            mk = sample(m.m, xs).reshape(n, -1)
            m_mid = mk[:, 7]
            # Each rule as weights on m at the ends and the nodes, less m at
            # the centre node.
            rel = np.column_stack([m_lo, mk, m_hi]) - m_mid[:, None]
            wk = (ys * KRONROD_WEIGHTS) @ KRONROD_DIFF[1:-1]
            wg = np.zeros_like(wk)
            wg[:, ::2] = (ys[:, 1::2] * GAUSS_WEIGHTS[1::2]) @ GAUSS_DIFF[1:-1]
            we = (ys * INNER_WEIGHTS) @ KRONROD_DIFF[1:-1] + END_WEIGHT * (
                y_lo[:, None] * KRONROD_DIFF[0] + y_hi[:, None] * KRONROD_DIFF[-1])
            value, gauss, ends = (np.sum(w * rel, axis=1) for w in (wk, wg, we))
            # What m's rounding, 2 eps |m| a value, can make of the rules' gaps.
            floor = 2 * np.finfo(float).eps * np.maximum(np.abs(m_lo), np.abs(m_hi)) * np.maximum(
                np.abs(wk - wg).sum(axis=1), np.abs(wk - we).sum(axis=1))
        err = np.maximum(np.abs(value - gauss), np.abs(value - ends))
        centre = ys[:, 7]
        tol = np.maximum(0.25 * np.maximum(density * (m_hi - m_lo), cfg.rtol * np.abs(value)),
                         floor)
        ok = err <= tol
        done.append([v[ok] for v in (lo, hi, value, err, origin, m_lo, m_hi, y_lo)])
        if ok.all():
            parts = done[0] if level == 0 else [np.concatenate(v) for v in zip(*done)]
            order = np.argsort(parts[0], kind="stable")
            return Pieces(*(v[order] for v in parts))
        s = ~ok
        m_mid = sample(m.m, mid[s]) if m.m_prime is not None else m_mid[s]
        y_lo, y_hi = np.concatenate([y_lo[s], centre[s]]), np.concatenate([centre[s], y_hi[s]])
        lo, hi = np.concatenate([lo[s], mid[s]]), np.concatenate([mid[s], hi[s]])
        m_lo, m_hi = np.concatenate([m_lo[s], m_mid]), np.concatenate([m_mid, m_hi[s]])
        origin, density = np.tile(origin[s], 2), np.tile(density[s], 2)
    raise QuadratureError(
        f"no convergence after {LOCAL_HALVINGS} local halvings "
        f"({len(lo) // 2} pieces left, first at x={lo[0]})"
    )


def measure_weight(m: Measure1D, r: float | np.ndarray, R: float | np.ndarray):
    """m(R) - m(r) for numbers or numpy arrays r and R, read by sample, checked positive."""
    rs, Rs = np.asarray(r, dtype=float), np.asarray(R, dtype=float)
    ms = sample(m.m, np.concatenate([rs.ravel(), Rs.ravel()]))
    return positive_weight(ms[rs.size:].reshape(Rs.shape) - ms[: rs.size].reshape(rs.shape))


def positive_weight(dm):
    """The weights dm = m(R) - m(r), a numpy number or array, checked positive."""
    if (dm <= 0).any():
        raise DegenerateIntervalError(
            f"m(R) - m(r) = {np.min(dm)} is not positive; the measure data is not increasing"
        )
    return float(dm) if dm.ndim == 0 else dm


def integral_mean(
    f: Function1D,
    m: Measure1D,
    r: float | np.ndarray,
    R: float | np.ndarray,
    cfg: QuadratureConfig | None = None,
) -> MeanValue:
    """The normalized Stieltjes mean of f against m over [r, R].

    r and R may be numpy arrays: the means then share one refinement (see
    stieltjes_integral), and panels_used counts the pieces of all of them.
    """
    cfg = cfg or QuadratureConfig()
    integral = stieltjes_integral(f, m, r, R, cfg)  # checks r and R first
    dm = measure_weight(m, r, R)
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
        breaks=f.breaks,
    )
    integral = stieltjes_integral(shifted, m, r, R, cfg)
    return m.m_prime(x0) * integral.value / measure_weight(m, r, R) ** 2
