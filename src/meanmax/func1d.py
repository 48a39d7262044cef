"""Real functions on half-open intervals and their right/left maximization envelopes.

The right maximization of f at r is sup f over [r, b); the left maximization is
sup f over [a, r].  The right one is a decreasing function of r, the left one an
increasing function, both dominate f pointwise, and both preserve the global
supremum.  Suprema are estimated by dense sampling plus golden-section
refinement around the running maximum; accuracy is governed by ``GridSpec.eps_sup``.
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

# Sampling horizon (relative to max(a, 1)) for unbounded domains when no
# vanishing-tail cutoff applies.
DEFAULT_HORIZON_FACTOR = 1e6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    """Sampling plan for supremum estimation.

    spacing None selects geometric nodes when the interval spans more than two
    decades of positive values, uniform otherwise.  eps_sup None resolves to
    1e-9 * max(1, |grid max|) after sampling.
    """

    node_count: int = 4097
    spacing: str | None = None
    refinement_rounds: int = 3
    eps_sup: float | None = None

    def __post_init__(self):
        if self.node_count < 3:
            raise ValueError("node_count must be at least 3")
        if self.spacing not in (None, "uniform", "geometric"):
            raise ValueError(f"bad spacing {self.spacing!r}")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be nonnegative")
        if self.eps_sup is not None and not self.eps_sup > 0:
            raise ValueError("eps_sup must be positive")

    def effective_eps(self, grid_max: float) -> float:
        if self.eps_sup is not None:
            return self.eps_sup
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


def _build_nodes(lo: float, hi: float, count: int, spacing: str | None) -> np.ndarray:
    if spacing is None:
        spacing = "geometric" if lo > 0 and hi / lo > 100.0 else "uniform"
    if spacing == "geometric" and lo > 0:
        xs = np.geomspace(lo, hi, count)
    else:
        xs = np.linspace(lo, hi, count)
    xs[0], xs[-1] = lo, hi
    return xs


def batch_eval(fun: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """Evaluate fun at every x, trying one vectorized call before falling back.

    Scalar callables built from numpy operations accept arrays for free, which
    turns sampling and quadrature inner loops into single ufunc sweeps.  Any
    callable that rejects arrays (math.*, branching) is evaluated pointwise.
    Finiteness is NOT checked here; callers decide how to react.
    """
    try:
        with np.errstate(all="ignore"):
            ys = np.asarray(fun(xs), dtype=float)
    except Exception:
        ys = None
    if ys is not None:
        if ys.shape == xs.shape:
            return ys
        if ys.ndim == 0:
            return np.full(xs.shape, float(ys))
    out = np.empty(len(xs))
    with np.errstate(all="ignore"):
        for i, x in enumerate(xs):
            out[i] = fun(float(x))
    return out


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


def _golden_max(f: Function1D, lo: float, hi: float, iters: int = 60):
    """Golden-section maximization on [lo, hi]; returns all evaluated points."""
    pts = []
    c = hi - (hi - lo) * _INV_PHI
    d = lo + (hi - lo) * _INV_PHI
    fc, fd = evaluate(f, c), evaluate(f, d)
    pts.extend([(c, fc), (d, fd)])
    tol = 1e-13 * max(1.0, abs(lo), abs(hi))
    for _ in range(iters):
        if hi - lo <= tol:
            break
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INV_PHI
            fd = evaluate(f, d)
            pts.append((d, fd))
        else:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INV_PHI
            fc = evaluate(f, c)
            pts.append((c, fc))
    return pts


def _refined_samples(f: Function1D, lo: float, hi: float, grid: GridSpec):
    """Base-grid samples on [lo, hi] plus golden-section points near the running max.

    Returns (base_xs, base_ys, extra_xs, extra_ys); the overall max of all four
    arrays is the supremum estimate.
    """
    base_xs = _build_nodes(lo, hi, grid.node_count, grid.spacing)
    base_ys = _sample(f, base_xs)
    extra: list[tuple[float, float]] = []
    all_xs = list(base_xs)
    all_ys = list(base_ys)
    for _ in range(grid.refinement_rounds):
        k = int(np.argmax(all_ys))
        order = np.argsort(all_xs)
        pos = int(np.searchsorted(np.asarray(all_xs)[order], all_xs[k]))
        left = all_xs[order[max(pos - 1, 0)]]
        right = all_xs[order[min(pos + 1, len(order) - 1)]]
        if right - left <= 0:
            break
        pts = _golden_max(f, left, right)
        extra.extend(pts)
        all_xs.extend(p for p, _ in pts)
        all_ys.extend(v for _, v in pts)
    if extra:
        ex = np.array([p for p, _ in extra])
        ey = np.array([v for _, v in extra])
    else:
        ex = np.empty(0)
        ey = np.empty(0)
    return base_xs, base_ys, ex, ey


def _near_b(domain: Domain, lo: float) -> float:
    """A sampling endpoint strictly inside [lo, b) for finite b."""
    span = domain.b - lo
    return domain.b - span * 1e-12


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


def _right_sampling_end(f: Function1D, lo: float, grid: GridSpec) -> tuple[float, bool]:
    """Upper sampling endpoint for suprema over [lo, b); bool flags a certified tail."""
    dom = f.domain
    if not dom.unbounded:
        return _near_b(dom, lo), True
    if f.monotonicity == DECREASING:
        # Supremum sits at the left endpoint; the horizon only shapes the table.
        return max(lo, dom.a, 1.0) * DEFAULT_HORIZON_FACTOR, True
    if f.tail.kind == "vanishing":
        threshold = 0.5 * (grid.eps_sup if grid.eps_sup is not None else 1e-9)
        cutoff, certified = _vanishing_cutoff(f, max(lo, dom.a, 1.0), threshold)
        hi = max(cutoff, 2.0 * max(lo, 1.0), lo + 1.0)
        return hi, certified
    if f.tail.kind == "bounded":
        return max(lo, dom.a, 1.0) * DEFAULT_HORIZON_FACTOR, True
    raise UncertifiableTailError(
        "supremum over an unbounded domain needs a vanishing or bounded tail "
        "declaration (or a decreasing-monotonicity hint)"
    )


def _sup_on(f: Function1D, lo: float, hi: float, grid: GridSpec) -> float:
    if hi <= lo:
        return evaluate(f, lo)
    base_xs, base_ys, ex, ey = _refined_samples(f, lo, hi, grid)
    s = float(base_ys.max())
    if len(ey):
        s = max(s, float(ey.max()))
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
    hi, certified = _right_sampling_end(f, r, grid)
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

    The table holds, at each base-grid node, the suffix maximum (right side) or
    prefix maximum (left side) of all refined samples, so it is exactly
    monotone.  Off-node queries re-evaluate the source and clamp the result
    between the neighbouring table values, which makes queries exact whenever
    the source is monotone on the gap.
    """

    source: Function1D
    side: str
    xs: np.ndarray
    table: np.ndarray
    eps_sup: float
    refinement_rounds: int
    extra_samples: int
    sampling_end: float
    tail_certified: bool
    # Every sample the build consumed (base nodes plus refinement points),
    # sorted by position; the table is their suffix/prefix maximum at xs.
    sample_xs: np.ndarray | None = None
    sample_ys: np.ndarray | None = None

    def value_at(self, x, gap=None):
        """The envelope at x (a number or an array).

        gap, for an array x, names the node gap each point is read in: gap j
        is (xs[j-1], xs[j]) for 1 <= j < len(xs) and gap len(xs) lies past the
        last node.  The values are then the envelope's continuous extension
        over each closed gap, which differs from the plain query only at a
        node where the envelope jumps.
        """
        if gap is not None or np.ndim(x) > 0:
            return self._values(np.asarray(x, dtype=float), gap)
        x = float(x)
        if not self.source.domain.contains(x):
            raise DomainError(
                f"x={x} outside [{self.source.domain.a}, {self.source.domain.b})"
            )
        j = int(np.searchsorted(self.xs, x))
        if j < len(self.xs) and self.xs[j] == x:
            return float(self.table[j])
        if self.side == RIGHT:
            if j >= len(self.xs):
                fx = evaluate(self.source, x)
                floor = 0.0 if self.source.tail.kind == "vanishing" else -math.inf
                return min(float(self.table[-1]), max(fx, floor))
            if j == 0:
                return float(self.table[0])
            fx = evaluate(self.source, x)
            return min(float(self.table[j - 1]), max(fx, float(self.table[j])))
        # left side
        if j >= len(self.xs):
            fx = evaluate(self.source, x)
            return max(float(self.table[-1]), fx)
        if j == 0:
            return float(self.table[0])
        fx = evaluate(self.source, x)
        return min(float(self.table[j]), max(fx, float(self.table[j - 1])))

    def _values(self, xs: np.ndarray, gap=None) -> np.ndarray:
        dom = self.source.domain
        if np.any(xs < dom.a) or np.any(xs >= dom.b):
            raise DomainError(f"query outside [{dom.a}, {dom.b})")
        n = len(self.xs)
        j = np.searchsorted(self.xs, xs) if gap is None else np.asarray(gap)
        inside = j < n
        exact = np.zeros(xs.shape, dtype=bool)
        if gap is None:
            exact[inside] = self.xs[j[inside]] == xs[inside]
        fx = batch_eval(self.source.eval, xs)
        bad = ~np.isfinite(fx) & ~exact
        if bad.any():
            k = int(np.argmax(bad))
            raise NonFiniteValueError(f"non-finite source value at x={xs[k]}")
        lo_idx = np.clip(j - 1, 0, n - 1)
        hi_idx = np.clip(j, 0, n - 1)
        if self.side == RIGHT:
            floor = 0.0 if self.source.tail.kind == "vanishing" else -math.inf
            beyond = np.minimum(self.table[-1], np.maximum(fx, floor))
            between = np.minimum(self.table[lo_idx], np.maximum(fx, self.table[hi_idx]))
            out = np.where(inside, between, beyond)
            out = np.where(j == 0, self.table[0], out)
        else:
            beyond = np.maximum(self.table[-1], fx)
            between = np.minimum(self.table[hi_idx], np.maximum(fx, self.table[lo_idx]))
            out = np.where(inside, between, beyond)
            out = np.where(j == 0, self.table[0], out)
        out[exact] = self.table[j[exact]]
        return out

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
    certified = True
    if side == RIGHT:
        hi, certified = _right_sampling_end(f, dom.a, grid)
    else:
        hi = (
            _near_b(dom, dom.a)
            if not dom.unbounded
            else max(dom.a, 1.0) * DEFAULT_HORIZON_FACTOR
        )
    base_xs, base_ys, ex, ey = _refined_samples(f, dom.a, hi, grid)
    eps = grid.effective_eps(float(np.max(base_ys)))
    if len(ex):
        # Fold refinement samples into the node-wise maxima before the scan.
        idx = np.searchsorted(base_xs, ex)
        node_ys = base_ys.copy()
        if side == RIGHT:
            # A sample in (x_{i-1}, x_i] contributes to suffix maxima from x_{i-1} down.
            for p, v in zip(idx, ey):
                k = max(int(p) - 1, 0)
                if v > node_ys[k]:
                    node_ys[k] = v
        else:
            for p, v in zip(idx, ey):
                k = min(int(p), len(node_ys) - 1)
                if v > node_ys[k]:
                    node_ys[k] = v
    else:
        node_ys = base_ys
    if side == RIGHT:
        table = np.maximum.accumulate(node_ys[::-1])[::-1]
    else:
        table = np.maximum.accumulate(node_ys)
    if float(np.max(table)) > OVERFLOW_GUARD:
        raise NonFiniteValueError("envelope values exceed the overflow guard")
    all_xs = np.concatenate([base_xs, ex])
    all_ys = np.concatenate([base_ys, ey])
    order = np.argsort(all_xs, kind="stable")
    return Envelope(
        source=f,
        side=side,
        xs=base_xs,
        table=table,
        eps_sup=eps,
        refinement_rounds=grid.refinement_rounds,
        extra_samples=int(len(ex)),
        sampling_end=hi,
        tail_certified=certified,
        sample_xs=all_xs[order],
        sample_ys=all_ys[order],
    )


def classify_monotonicity(f: Function1D, grid: GridSpec | None = None) -> str:
    """Best-effort sampling classifier: increasing, decreasing, or neither.

    Constant-within-tolerance functions classify as decreasing (they are weakly
    both, and downstream hypothesis guards ask for decreasing).  Never raises;
    a function that cannot be sampled classifies as neither.
    """
    grid = grid or GridSpec()
    dom = f.domain
    hi = (
        _near_b(dom, dom.a)
        if not dom.unbounded
        else max(dom.a, 1.0) * DEFAULT_HORIZON_FACTOR
    )
    xs = _build_nodes(dom.a, hi, grid.node_count, grid.spacing)
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
