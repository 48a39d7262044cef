"""Real functions on half-open intervals and their right/left maximization envelopes.

The right maximization of f at r is sup f over [r, b); the left maximization is
sup f over [a, r].  The right one is a decreasing function of r, the left one an
increasing function, both dominate f pointwise, and both preserve the global
supremum.  Suprema are estimated by dense sampling plus golden-section
refinement of every local maximum of the samples, to within
eps_sup = 1e-9 * max(1, |grid max|) (``GridSpec.effective_eps``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
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

# Sampling horizon (relative to max(lo, a, 1)) for unbounded domains when no
# vanishing-tail cutoff applies; see window_end.
DEFAULT_HORIZON_FACTOR = 1e6

# A positive interval whose ends differ by more than this factor is sampled
# on geometric nodes (and integrated in u = ln x), a narrower one uniformly.
GEOMETRIC_RATIO = 100.0

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Golden-section steps per bracket at most: they shrink it by 0.618^60, about 3e-13.
GOLDEN_ITERS = 60


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
        if self.kind == "bounded" and self.bound is None:
            raise ValueError("bounded tail needs a bound value")

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
    """A real-valued function on [a, b) with declared tail and monotonicity metadata."""

    eval: Callable[[float], float]
    domain: Domain
    tail: Tail = field(default_factory=Tail.unknown)
    monotonicity: str = NONE
    locally_bounded: bool = True

    def __post_init__(self):
        if self.monotonicity not in (INCREASING, DECREASING, NONE):
            raise ValueError(f"bad monotonicity hint {self.monotonicity!r}")

    def __call__(self, x: float) -> float:
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


def evaluate(f: Function1D, x: float) -> float:
    """Evaluate f at x, enforcing the domain and finiteness contracts."""
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


def _sample(f: Function1D, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    try:
        ys = batch_eval(f.eval, xs)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise NonFiniteValueError(f"evaluation failed while sampling: {exc}") from exc
    bad = ~np.isfinite(ys)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonFiniteValueError(f"non-finite value {ys[k]} at x={xs[k]}")
    return ys


def _golden_max(f: Function1D, lo: np.ndarray, hi: np.ndarray):
    """Golden-section maximization on every bracket [lo[i], hi[i]] at once.

    Each iteration evaluates the new point of every bracket still wider than
    1e-13 * max(1, |x|) in one call.  Returns each bracket's best point and
    value: the better of its two inner points, since the point a step drops
    is never better than the one it keeps.
    """
    best_x, best_y = np.empty(len(lo)), np.empty(len(lo))
    idx = np.arange(len(lo))
    tol = 1e-13 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    c = hi - (hi - lo) * _INV_PHI
    d = lo + (hi - lo) * _INV_PHI
    fc, fd = np.split(_sample(f, np.concatenate([c, d])), 2)
    for k in range(GOLDEN_ITERS + 1):
        done = (hi - lo <= tol) | (k == GOLDEN_ITERS)
        if done.any():
            better = fc[done] >= fd[done]
            best_x[idx[done]] = np.where(better, c[done], d[done])
            best_y[idx[done]] = np.where(better, fc[done], fd[done])
            live = ~done
            if not live.any():
                break
            idx, lo, hi, c, d, fc, fd, tol = (v[live] for v in (idx, lo, hi, c, d, fc, fd, tol))
        up = fc < fd  # the maximum lies right of c: keep [c, hi]
        lo, hi = np.where(up, c, lo), np.where(up, hi, d)
        kept, f_kept = np.where(up, d, c), np.where(up, fd, fc)
        step = (hi - lo) * _INV_PHI
        x = np.where(up, lo + step, hi - step)
        fx = _sample(f, x)
        c, fc = np.where(up, kept, x), np.where(up, f_kept, fx)
        d, fd = np.where(up, x, kept), np.where(up, fx, f_kept)
    return best_x, best_y


def _refined_samples(f: Function1D, lo: float, hi: float, grid: GridSpec):
    """Base-grid samples on [lo, hi] plus the best point of every local maximum.

    A node no lower than either neighbour and strictly above one of them is a
    peak, so a plateau is bracketed at its ends and a constant not at all.
    Golden section runs on the gap pair around every peak at once.  Returns
    (xs, ys), sorted by position.
    """
    xs = build_nodes(lo, hi, grid.node_count)
    ys = _sample(f, xs)
    prev = np.concatenate([ys[:1], ys[:-1]])
    succ = np.concatenate([ys[1:], ys[-1:]])
    peaks = np.flatnonzero((ys >= prev) & (ys >= succ) & ((ys > prev) | (ys > succ)))
    if len(peaks):
        bx, by = _golden_max(f, xs[np.maximum(peaks - 1, 0)],
                             xs[np.minimum(peaks + 1, len(xs) - 1)])
        xs, ys = np.concatenate([xs, bx]), np.concatenate([ys, by])
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


def _right_sampling_end(f: Function1D, lo: float) -> tuple[float, bool]:
    """Upper sampling endpoint for suprema over [lo, b); bool flags a certified tail.

    An unbounded vanishing tail is cut where |f| stays below 0.5e-9, half the
    least eps_sup; any other window ends at window_end.
    """
    dom = f.domain
    if dom.unbounded and f.monotonicity != DECREASING:
        if f.tail.kind == "vanishing":
            cutoff, certified = _vanishing_cutoff(f, max(lo, dom.a, 1.0), 0.5e-9)
            return max(cutoff, 2.0 * max(lo, 1.0), lo + 1.0), certified
        if f.tail.kind != "bounded":
            raise UncertifiableTailError(
                "supremum over an unbounded domain needs a vanishing or bounded tail "
                "declaration (or a decreasing-monotonicity hint)"
            )
    return window_end(dom, lo), True


def _sup_on(f: Function1D, lo: float, hi: float, grid: GridSpec) -> float:
    if hi <= lo:
        return evaluate(f, lo)
    s = float(_refined_samples(f, lo, hi, grid)[1].max())
    if s > OVERFLOW_GUARD:
        raise NonFiniteValueError(f"supremum estimate {s} exceeds the overflow guard")
    return s


def right_maximization(f: Function1D, r: float, grid: GridSpec | None = None) -> float:
    """sup of f over [r, b), within eps_sup for functions the grid resolves."""
    grid = grid or GridSpec()
    if not f.domain.contains(r):
        raise DomainError(f"r={r} outside [{f.domain.a}, {f.domain.b})")
    if f.monotonicity == DECREASING:
        return evaluate(f, r)
    hi, certified = _right_sampling_end(f, r)
    if not certified:
        warnings.warn(
            "vanishing-tail scan hit its cap; supremum beyond the horizon "
            "is taken on trust",
            RuntimeWarning,
        )
    s = _sup_on(f, r, hi, grid)
    if f.domain.unbounded and f.tail.kind == "bounded":
        eps = grid.effective_eps(s)
        if s < f.tail.bound - eps:
            warnings.warn(
                f"tail bound {f.tail.bound} not attained by the sampled maximum {s}",
                RuntimeWarning,
            )
    return s


def left_maximization(f: Function1D, r: float, grid: GridSpec | None = None) -> float:
    """sup of f over the closed interval [a, r]."""
    grid = grid or GridSpec()
    if not f.domain.contains(r):
        raise DomainError(f"r={r} outside [{f.domain.a}, {f.domain.b})")
    if not f.locally_bounded:
        raise UnboundedSupError("left maximization needs a locally bounded function")
    if f.monotonicity == INCREASING:
        return evaluate(f, r)
    if f.monotonicity == DECREASING:
        return evaluate(f, f.domain.a)
    return _sup_on(f, f.domain.a, r, grid)


@dataclass
class Envelope:
    """Monotone envelope table of a function, one side at a time.

    xs holds every sample of the build in increasing order: the base-grid
    nodes and the best golden-section point of each local maximum of the
    node samples.  table holds their exact suffix maximum (right side) or
    prefix maximum (left side), so it is exactly monotone.  A query between
    two samples re-evaluates the source and clamps the result between their
    table values, which is continuous at every sample and exact wherever the
    source is monotone between the two.
    """

    source: Function1D
    side: str
    xs: np.ndarray
    table: np.ndarray
    eps_sup: float
    sampling_end: float
    tail_certified: bool

    def value_at(self, x):
        """The envelope at x (a number, or an array of them)."""
        q = np.asarray(x, dtype=float)
        dom = self.source.domain
        outside = ~((q >= dom.a) & (q < dom.b))
        if outside.any():
            raise DomainError(f"x={q[outside].flat[0]} outside [{dom.a}, {dom.b})")
        try:
            fx = batch_eval(self.source.eval, q.ravel()).reshape(q.shape)
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise NonFiniteValueError(f"evaluation failed while querying: {exc}") from exc
        xs, table = self.xs, self.table
        j = np.searchsorted(xs, q)
        below, above = table[np.maximum(j - 1, 0)], table[np.minimum(j, len(xs) - 1)]
        exact = xs[np.minimum(j, len(xs) - 1)] == q
        bad = ~np.isfinite(fx) & ~exact
        if bad.any():
            raise NonFiniteValueError(f"non-finite source value at x={q[bad].flat[0]}")
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

    def as_function(self) -> Function1D:
        hint = DECREASING if self.side == RIGHT else INCREASING
        tail = self.source.tail if self.side == RIGHT else Tail.unknown()
        return Function1D(
            eval=self.value_at,
            domain=self.source.domain,
            tail=tail,
            monotonicity=hint,
            locally_bounded=True,
        )

    def __call__(self, x: float) -> float:
        return self.value_at(x)


def envelope_function(f: Function1D, side: str, grid: GridSpec | None = None) -> Envelope:
    """Build the full right or left maximization of f as an Envelope table."""
    grid = grid or GridSpec()
    if side not in (RIGHT, LEFT):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if side == LEFT and not f.locally_bounded:
        raise UnboundedSupError("left maximization needs a locally bounded function")
    dom = f.domain
    if side == RIGHT:
        hi, certified = _right_sampling_end(f, dom.a)
    else:
        hi, certified = window_end(dom, dom.a), True
    xs, ys = _refined_samples(f, dom.a, hi, grid)
    table = np.maximum.accumulate(ys[::-1])[::-1] if side == RIGHT else np.maximum.accumulate(ys)
    top = float(np.max(table))
    if top > OVERFLOW_GUARD:
        raise NonFiniteValueError("envelope values exceed the overflow guard")
    return Envelope(
        source=f,
        side=side,
        xs=xs,
        table=table,
        eps_sup=grid.effective_eps(top),
        sampling_end=hi,
        tail_certified=certified,
    )


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
        ys = _sample(f, xs)
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
