"""Real functions on half-open intervals and their right/left maximization envelopes.

The right maximization of f at r is sup f over [r, b); the left maximization is
sup f over [a, r].  The right one is a decreasing function of r, the left one an
increasing function, both dominate f pointwise, and both preserve the global
supremum.  Suprema are estimated by dense sampling plus refinement of every
local maximum of the samples, to within eps_sup = 1e-9 * max(1, |grid max|)
(``GridSpec.effective_eps``).  The refinement takes safeguarded parabolic
steps on all maxima at once and stops each one when its parabola predicts,
and one more point confirms, a gain of at most one rounding unit of f,
2^-52 * max(1, |f|), far below eps_sup.  On a monotone side the one peak is
the end node, and its refinement usually stops after one call of three points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    MeanmaxError,
    NonFiniteValueError,
    UnboundedSupError,
    UncertifiableTailError,
)

INCREASING = "increasing"
DECREASING = "decreasing"
NONE = "none"
NEITHER = "neither"

RIGHT = "right"
LEFT = "left"

# No sample may exceed this; larger values are treated as a non-finite sup.
OVERFLOW_GUARD = 1e300

# Vanishing-tail cutoff scans stop here; beyond it the tail is taken on trust.
# Large enough to certify power-law tails like x^(-1/2) at eps ~ 1e-9.
TAIL_SCAN_CAP = 1e20

# The warning, and the transforms' note, when a vanishing-tail scan hits TAIL_SCAN_CAP.
TAIL_CAP_NOTE = "vanishing-tail cutoff scan hit its cap; tail taken on trust"

# Sampling horizon (relative to max(lo, a, 1)) for unbounded domains when no
# vanishing-tail cutoff applies; see window_end.
DEFAULT_HORIZON_FACTOR = 1e6

# A positive interval whose ends differ by more than this factor is sampled
# on geometric nodes (and integrated in u = ln x), a narrower one uniformly.
GEOMETRIC_RATIO = 100.0

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEP = 1.0 - _INV_PHI

# Refinement steps per bracket at most.  A parabolic step is taken only while
# the bracket halves every two steps, else a golden-section one; a kinked
# maximum, whose parabolas keep predicting a gain, can run to this cap.
REFINE_STEPS = 60


@dataclass(frozen=True)
class Domain:
    """Half-open interval [a, b); b may be +inf, a must be finite."""

    a: float
    b: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError("left endpoint must be finite")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b})")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.b)

    def contains(self, x: float) -> bool:
        return self.a <= x < self.b


@dataclass(frozen=True)
class Tail:
    """Behavior of a function as x approaches the right endpoint.

    kind is one of "vanishing" (f -> 0), "bounded" (sup of the tail is at most
    ``bound``), or "unknown".
    """

    kind: str = "unknown"
    bound: float | None = None

    def __post_init__(self):
        if self.kind not in ("vanishing", "bounded", "unknown"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if self.kind == "bounded" and (self.bound is None or math.isnan(self.bound)):
            raise ValueError(f"bounded tail needs a bound value, got {self.bound}")

    @classmethod
    def vanishing(cls) -> "Tail":
        return cls("vanishing")

    @classmethod
    def bounded_by(cls, bound: float) -> "Tail":
        return cls("bounded", float(bound))

    @classmethod
    def unknown(cls) -> "Tail":
        return cls("unknown")


@dataclass
class Function1D:
    """A real-valued function on [a, b) with declared tail and monotonicity metadata.

    breaks, when given, is a sorted array of the points where the function
    may fail to be smooth, such as the rows of a table; quadrature cuts there.
    """

    eval: Callable[[float], float]
    domain: Domain
    tail: Tail = field(default_factory=Tail.unknown)
    monotonicity: str = NONE
    locally_bounded: bool = True
    breaks: np.ndarray | None = None

    def __post_init__(self):
        if self.monotonicity not in (INCREASING, DECREASING, NONE):
            raise ValueError(f"bad monotonicity hint {self.monotonicity!r}")

    def __call__(self, x):
        return evaluate(self, x)


@dataclass
class GridSpec:
    """Sampling plan for supremum estimation: the number of base-grid nodes.

    build_nodes places them; the suprema it yields are accurate to
    effective_eps, 1e-9 * max(1, |grid max|).
    """

    node_count: int = 4097

    def __post_init__(self):
        if self.node_count < 3:
            raise ValueError("node_count must be at least 3")

    def effective_eps(self, grid_max: float) -> float:
        return 1e-9 * max(1.0, abs(grid_max))


def in_domain(domain: Domain, x, name: str = "x") -> np.ndarray:
    """x (a number or numpy array) as a float array; DomainError names its first point outside."""
    q = np.asarray(x, dtype=float)
    outside = ~((q >= domain.a) & (q < domain.b))
    if outside.any():
        raise DomainError(f"{name}={q[outside].flat[0]} outside [{domain.a}, {domain.b})")
    return q


def evaluate(f: Function1D, x):
    """f at x, a number or a numpy array, enforcing the domain and finiteness contracts.

    An array gets one in_domain check and one sample call, reshaped to x.  A
    number keeps its own path, one direct f.eval call: a one-point sample
    costs over ten times as much, and single points are what the suprema
    of a monotone source and the vanishing-tail scan read.
    """
    if isinstance(x, np.ndarray):
        q = in_domain(f.domain, x)
        return sample(f.eval, q.ravel()).reshape(q.shape)
    if not f.domain.contains(x):
        raise DomainError(f"x={x} outside [{f.domain.a}, {f.domain.b})")
    try:
        y = f.eval(x)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise NonFiniteValueError(f"evaluation failed at x={x}: {exc}") from exc
    y = float(y)
    if not math.isfinite(y):
        raise NonFiniteValueError(f"non-finite value {y} at x={x}")
    return y


def build_nodes(lo: float, hi: float, count: int, spacing: str | None = None) -> np.ndarray:
    """count nodes from lo to hi, both ends exact; spacing None picks by GEOMETRIC_RATIO.

    It picks geometric nodes when lo > 0 and hi / lo exceeds the ratio.  From
    lo <= 0 to hi past the ratio times max(1, -lo), the nodes are uniform in t
    for x = t up to 1 and x = e^(t - 1) past 1: uniform up to 1, geometric
    past it, their spacing continuous at 1.  Otherwise they are uniform.
    """
    if spacing is None:
        if lo > 0:
            spacing = "geometric" if hi / lo > GEOMETRIC_RATIO else "uniform"
        elif hi > GEOMETRIC_RATIO * max(1.0, -lo):
            ts = np.linspace(lo, 1.0 + math.log(hi), count)
            xs = np.where(ts > 1.0, np.exp(ts - 1.0), ts)
            xs[0], xs[-1] = lo, hi
            return xs
    if spacing == "geometric" and lo > 0:
        xs = np.geomspace(lo, hi, count)
    else:
        xs = np.linspace(lo, hi, count)
    xs[0], xs[-1] = lo, hi
    return xs


def batch_eval(fun: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """Evaluate fun at every x, trying one vectorized call before falling back.

    Scalar callables built from numpy operations accept arrays for free, which
    turns sampling and quadrature inner loops into single ufunc sweeps.  A
    callable that rejects arrays with a TypeError (math.*, int(x)) or a
    ValueError (branching on x > 0) is evaluated pointwise; any other error
    of the array call propagates.  Finiteness is NOT checked here; callers
    decide how to react.
    """
    try:
        with np.errstate(all="ignore"):
            ys = np.asarray(fun(xs), dtype=float)
    except (TypeError, ValueError):
        ys = None
    if ys is not None:
        if ys.shape == xs.shape:
            return ys
        if ys.ndim == 0:
            return np.full(xs.shape, float(ys))
    with np.errstate(all="ignore"):
        return np.fromiter(map(fun, xs.tolist()), dtype=float, count=len(xs))


def sample(fun: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """fun at every x of the float array xs, in one batch_eval, all finite.

    Raises NonFiniteValueError when fun raises OverflowError, ValueError or
    ZeroDivisionError, or at the first non-finite value, naming its x.
    Sampling and quadrature read their sources through it.
    """
    try:
        ys = batch_eval(fun, xs)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise NonFiniteValueError(f"evaluation failed while sampling: {exc}") from exc
    bad = ~np.isfinite(ys)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonFiniteValueError(f"non-finite value {ys[k]} at x={xs[k]}")
    return ys


def probe(fun: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """fun at every x of the float array xs, NaN wherever it raises or is not finite.

    One batch_eval call; when that raises ArithmeticError, ValueError or
    MeanmaxError, each point is read on its own.  The hypothesis checks read
    their sources through it, so a failure is a note or a point left unchecked.
    """
    try:
        ys = batch_eval(fun, xs)
    except (ArithmeticError, ValueError, MeanmaxError):
        ys = np.full(len(xs), np.nan)
        with np.errstate(all="ignore"):
            for k, x in enumerate(xs.tolist()):
                try:
                    ys[k] = fun(x)
                except (ArithmeticError, ValueError, MeanmaxError):
                    pass
    return np.where(np.isfinite(ys), ys, np.nan)


def _refine_peaks(f: Function1D, xs: np.ndarray, ys: np.ndarray, peaks: np.ndarray):
    """Safeguarded parabolic maximization (Brent 1973, ch. 5) near every peak at once.

    An interior peak starts from its node and the node's two neighbours.  A
    peak at a window end first reads the two golden-section points of its end
    gap and one point 2^-20 of the gap in from the end node, which tells a
    maximum at the node from one just inside the gap, and starts from the
    best of the five points.  Each step reads one point per live bracket, all
    in one call: the vertex of the parabola through the best three points
    when that is a maximum strictly inside the bracket, at least tol =
    1e-13 * max(1, |x|) from the best point x, and the bracket has at least
    halved over the last two steps; otherwise a golden-section step into the
    larger side.  A bracket stops when its parabola predicts a gain within
    the bracket of at most one rounding unit of f, thr = 2^-52 * max(1,
    |f(x)|), when it is no wider than tol, or after REFINE_STEPS steps.  A
    gain predicted by a vertex inside the bracket counts only once confirmed:
    the step after it reads the point sqrt(thr / |A|) from x toward the
    vertex (A the parabola's curvature), where f differs from f(x) by more
    than rounding, and the parabola through that point must predict no gain
    either.  Far from x, a parabola can put its vertex on x by chance.
    Returns each bracket's best point and value.
    """
    n, last = len(peaks), len(xs) - 1
    # Row i: the points of bracket i in increasing order, the best in column best.
    cols = np.column_stack([np.maximum(peaks - 1, 0), peaks, np.minimum(peaks + 1, last)])
    px, py = xs[cols[:, [0, 1, 2, 2, 2]]], ys[cols[:, [0, 1, 2, 2, 2]]]
    best = np.ones(n, dtype=int)
    end = (peaks == 0) | (peaks == last)
    if end.any():
        lo, hi = xs[cols[end, 0]], xs[cols[end, 2]]
        c, d, near = hi - (hi - lo) * _INV_PHI, lo + (hi - lo) * _INV_PHI, (hi - lo) * 2.0**-20
        inner = np.where((peaks[end] == 0)[:, None], np.column_stack([lo + near, c, d]),
                         np.column_stack([c, d, hi - near]))
        px[end, 1:4], py[end, 1:4] = inner, sample(f.eval, inner.ravel()).reshape(inner.shape)
        best[end] = np.argmax(py[end], axis=1)
    rows = np.arange(n)
    lo, hi = px[rows, np.maximum(best - 1, 0)], px[rows, np.minimum(best + 1, 4)]
    # From here on a row holds the best point and two others, the best first:
    # at first the two beside it, or the next two at an end of the row.
    pick = np.column_stack([best, np.where(best == 0, 2, best - 1),
                            np.where(best == 4, 2, best + 1)])
    px, py = px[rows[:, None], pick], py[rows[:, None], pick]
    out_x, out_y, idx = np.empty(n), np.empty(n), rows
    wide = wider = np.full(n, np.inf)  # the bracket's width one and two steps ago
    calm = np.zeros(n, dtype=bool)  # the last parabola predicted no gain
    for step in range(REFINE_STEPS + 1):
        x, fx = px[:, 0], py[:, 0]
        with np.errstate(all="ignore"):
            # P(t) = fx + B (t - x) + A (t - x)^2 through the three points
            dw, dv = px[:, 1] - x, px[:, 2] - x
            sw, sv = (py[:, 1] - fx) / dw, (py[:, 2] - fx) / dv
            A = (sw - sv) / (dw - dv)
            B = sw - A * dw
            u = x - B / (2.0 * A)
            gain = np.fmax.reduce([(B + A * t) * t
                                   for t in (lo - x, hi - x, np.clip(u, lo, hi) - x)])
        tol = 1e-13 * np.maximum(1.0, np.abs(x))
        thr = 2.0**-52 * np.maximum(1.0, np.abs(fx))
        small, inside = gain <= thr, (A < 0) & (u > lo) & (u < hi)
        done = (small & (calm | ~inside)) | (hi - lo <= tol) | (step == REFINE_STEPS)
        confirm = small & inside  # for a live row: the confirming step
        with np.errstate(all="ignore"):
            u = np.where(confirm, x + np.where(u < x, -1.0, 1.0) * np.sqrt(thr / -A), u)
        parabolic = (inside & (u > lo) & (u < hi) & (np.abs(u - x) >= tol)
                     & (confirm | (hi - lo <= 0.5 * wider)))
        golden = x + _GOLDEN_STEP * np.where(x >= 0.5 * (lo + hi), lo - x, hi - x)
        u = np.where(parabolic, u, golden)
        if done.any():
            out_x[idx[done]], out_y[idx[done]] = x[done], fx[done]
            live = ~done
            if not live.any():
                break
            idx, px, py, lo, hi, u, wide, wider, small = (
                a[live] for a in (idx, px, py, lo, hi, u, wide, wider, small))
            x, fx = px[:, 0], py[:, 0]
        fu = sample(f.eval, u)
        wide, wider, calm = hi - lo, wide, small
        # The maximum lies on u's side of x when f(u) beats f(x), else on x's side of u.
        up, right = fu > fx, u > x
        lo = np.where(right != up, lo, np.where(up, x, u))
        hi = np.where(right == up, hi, np.where(up, x, u))
        # Keep the best three of the four points; a tie keeps the older point.
        px, py = np.column_stack([px, u]), np.column_stack([py, fu])
        keep = np.argsort(-py, axis=1, kind="stable")[:, :3]
        px, py = px[rows[: len(u), None], keep], py[rows[: len(u), None], keep]
    return out_x, out_y


def _refined_samples(f: Function1D, lo: float, hi: float, grid: GridSpec):
    """Base-grid samples on [lo, hi] plus the best point of every local maximum.

    A node no lower than either neighbour and strictly above one of them is a
    peak, so a plateau is refined at its ends and a constant not at all.
    _refine_peaks refines every peak at once; a best point that is not the
    peak node itself joins the samples.  Returns (xs, ys), sorted by position.
    """
    xs = build_nodes(lo, hi, grid.node_count)
    ys = sample(f.eval, xs)
    prev = np.concatenate([ys[:1], ys[:-1]])
    succ = np.concatenate([ys[1:], ys[-1:]])
    peaks = np.flatnonzero((ys >= prev) & (ys >= succ) & ((ys > prev) | (ys > succ)))
    if len(peaks):
        bx, by = _refine_peaks(f, xs, ys, peaks)
        new = bx != xs[peaks]
        xs, ys = np.concatenate([xs, bx[new]]), np.concatenate([ys, by[new]])
        order = np.argsort(xs, kind="stable")
        xs, ys = xs[order], ys[order]
    return xs, ys


def window_end(domain: Domain, lo: float) -> float:
    """The end of a sampling window from lo: b - (b - lo) * 1e-12 inside a finite b,
    else the horizon max(lo, a, 1) * DEFAULT_HORIZON_FACTOR."""
    if domain.unbounded:
        return max(lo, domain.a, 1.0) * DEFAULT_HORIZON_FACTOR
    return domain.b - (domain.b - lo) * 1e-12


def _vanishing_cutoff(f: Function1D, start: float, threshold: float) -> tuple[float, bool]:
    """Smallest scanned X with |f| below threshold at X and at follow-up points.

    Returns (cutoff, certified).  When the scan hits TAIL_SCAN_CAP without the
    samples dropping below the threshold, the cap is returned uncertified.
    """
    x = max(start, 1.0)
    streak_start = None
    streak = 0
    while x <= TAIL_SCAN_CAP:
        if abs(evaluate(f, x)) < threshold:
            if streak == 0:
                streak_start = x
            streak += 1
            if streak >= 3:
                return streak_start, True
        else:
            streak = 0
        x *= 2.0
    return TAIL_SCAN_CAP, False


def _right_sampling_end(f: Function1D, lo: float) -> tuple[float, list[str]]:
    """Upper sampling endpoint for suprema over [lo, b), and the notes on its tail.

    An unbounded vanishing tail is cut where |f| stays below 0.5e-9, half the
    least eps_sup; a scan that hits TAIL_SCAN_CAP notes TAIL_CAP_NOTE.  Any
    other window ends at window_end.
    """
    dom = f.domain
    if dom.unbounded and f.monotonicity != DECREASING:
        if f.tail.kind == "vanishing":
            cutoff, certified = _vanishing_cutoff(f, max(lo, dom.a, 1.0), 0.5e-9)
            return max(cutoff, 2.0 * max(lo, 1.0), lo + 1.0), [] if certified else [TAIL_CAP_NOTE]
        if f.tail.kind != "bounded":
            raise UncertifiableTailError(
                "supremum over an unbounded domain needs a vanishing or bounded tail "
                "declaration (or a decreasing-monotonicity hint)"
            )
    return window_end(dom, lo), []


def right_maximization(f: Function1D, r: float, grid: GridSpec | None = None) -> float:
    """sup of f over [r, b), within eps_sup for functions the grid resolves.

    Each tail note of the window is raised as a RuntimeWarning, as is a
    declared tail bound that the sampled maximum falls short of.
    """
    grid = grid or GridSpec()
    in_domain(f.domain, r, "r")
    if f.monotonicity == DECREASING:
        return _guarded(evaluate(f, r))
    hi, notes = _right_sampling_end(f, r)
    for note in notes:
        warnings.warn(note, RuntimeWarning)
    env = _supremum_table(f, RIGHT, r, hi, grid, notes)
    s = float(env.table[0])
    if f.domain.unbounded and f.tail.kind == "bounded" and s < f.tail.bound - env.eps_sup:
        warnings.warn(
            f"tail bound {f.tail.bound} not attained by the sampled maximum {s}",
            RuntimeWarning,
        )
    return s


def left_maximization(f: Function1D, r: float, grid: GridSpec | None = None) -> float:
    """sup of f over the closed interval [a, r]."""
    grid = grid or GridSpec()
    in_domain(f.domain, r, "r")
    if not f.locally_bounded:
        raise UnboundedSupError("left maximization needs a locally bounded function")
    if f.monotonicity == INCREASING or r == f.domain.a:
        return _guarded(evaluate(f, r))
    if f.monotonicity == DECREASING:
        return _guarded(evaluate(f, f.domain.a))
    return float(_supremum_table(f, LEFT, f.domain.a, r, grid, []).table[-1])


@dataclass
class Envelope:
    """Monotone envelope table of a function, one side at a time.

    xs holds every sample of the build in increasing order: the base-grid
    nodes and the refined best point of each local maximum of the node
    samples.  table holds their exact suffix maximum (right side) or prefix
    maximum (left side), so it is exactly monotone.  A query at a sample
    reads its table value alone.  A query between two samples re-evaluates
    the source and clamps the result between their table values, which is
    continuous at every sample and exact wherever the source is monotone
    between the two.
    """

    source: Function1D
    side: str
    xs: np.ndarray
    table: np.ndarray
    eps_sup: float
    sampling_end: float
    notes: list[str]

    def value_at(self, x):
        """The envelope at x (a number, or an array of them)."""
        q = in_domain(self.source.domain, x)
        xs, table = self.xs, self.table
        j = np.searchsorted(xs, q)
        below, above = table[np.maximum(j - 1, 0)], table[np.minimum(j, len(xs) - 1)]
        exact = xs[np.minimum(j, len(xs) - 1)] == q
        fx = np.zeros(q.shape)  # a table sample's value is its table entry
        if not exact.all():
            fx[~exact] = sample(self.source.eval, q[~exact])
        inside = j < len(xs)
        if self.side == RIGHT:
            floor = 0.0 if self.source.tail.kind == "vanishing" else -math.inf
            out = np.where(inside, np.minimum(below, np.maximum(fx, above)),
                           np.minimum(table[-1], np.maximum(fx, floor)))
        else:
            out = np.where(inside, np.minimum(above, np.maximum(fx, below)),
                           np.maximum(table[-1], fx))
        out = np.where(exact, above, out)
        return float(out) if out.ndim == 0 else out

    def kinks(self, end: float = math.inf) -> np.ndarray:
        """The samples below end where the envelope may fail to be smooth, in order.

        A run of gaps where the table is flat is one constant.  A run where it
        is not is the envelope following f, smooth across its samples, except
        that every gap of it next to a flat gap may hold a kink where the
        envelope leaves f for the plateau.  So the kinks are the first and
        last sample, the ends of every run, and both ends of every such gap.
        """
        n = max(int(np.searchsorted(self.xs, end)), 1)
        table = self.table[:n]
        steep = table[:-1] != table[1:]
        beside_flat = np.zeros(n + 1, dtype=bool)
        beside_flat[1:-1] = ~steep
        kinked = steep & (beside_flat[:-2] | beside_flat[2:])
        keep = np.ones(n, dtype=bool)
        keep[1:-1] = (steep[:-1] != steep[1:]) | kinked[:-1] | kinked[1:]
        return self.xs[:n][keep]

    def as_function(self) -> Function1D:
        hint = DECREASING if self.side == RIGHT else INCREASING
        tail = self.source.tail if self.side == RIGHT else Tail.unknown()
        return Function1D(
            eval=self.value_at,
            domain=self.source.domain,
            tail=tail,
            monotonicity=hint,
            locally_bounded=True,
            breaks=self.kinks(),
        )

    def __call__(self, x):
        return self.value_at(x)


def _guarded(top: float) -> float:
    """A supremum, raised as NonFiniteValueError past OVERFLOW_GUARD."""
    if top > OVERFLOW_GUARD:
        raise NonFiniteValueError("envelope values exceed the overflow guard")
    return top


def _supremum_table(f: Function1D, side: str, lo: float, hi: float, grid: GridSpec,
                    notes: list[str]) -> Envelope:
    """The side's envelope table of f sampled on [lo, hi], carrying notes.

    Every supremum goes through here: envelope_function builds from a, and
    the scalar maximizations read one end of a build from r.
    """
    xs, ys = _refined_samples(f, lo, hi, grid)
    table = np.maximum.accumulate(ys[::-1])[::-1] if side == RIGHT else np.maximum.accumulate(ys)
    top = _guarded(float(table[0] if side == RIGHT else table[-1]))
    return Envelope(source=f, side=side, xs=xs, table=table, eps_sup=grid.effective_eps(top),
                    sampling_end=hi, notes=notes)


def envelope_function(f: Function1D, side: str, grid: GridSpec | None = None) -> Envelope:
    """Build the full right or left maximization of f as an Envelope table."""
    grid = grid or GridSpec()
    if side not in (RIGHT, LEFT):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if side == LEFT and not f.locally_bounded:
        raise UnboundedSupError("left maximization needs a locally bounded function")
    a = f.domain.a
    hi, notes = _right_sampling_end(f, a) if side == RIGHT else (window_end(f.domain, a), [])
    return _supremum_table(f, side, a, hi, grid, notes)


def classify_monotonicity(f: Function1D, grid: GridSpec | None = None) -> str:
    """Best-effort sampling classifier: increasing, decreasing, or neither.

    Constant-within-tolerance functions classify as decreasing (they are weakly
    both, and downstream hypothesis guards ask for decreasing).  Never raises;
    a function that cannot be sampled classifies as neither.
    """
    grid = grid or GridSpec()
    dom = f.domain
    xs = build_nodes(dom.a, window_end(dom, dom.a), grid.node_count)
    try:
        ys = sample(f.eval, xs)
    except (NonFiniteValueError, DomainError):
        return NEITHER
    diffs = np.diff(ys)
    tol = grid.effective_eps(float(np.max(np.abs(ys))))
    nonincreasing = bool(np.all(diffs <= tol))
    nondecreasing = bool(np.all(diffs >= -tol))
    if nonincreasing:
        return DECREASING
    if nondecreasing:
        return INCREASING
    return NEITHER
