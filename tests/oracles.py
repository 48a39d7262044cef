"""Independent brute-force oracles used to derive expected test values.

These deliberately avoid the library's adaptive/refined code paths: dense-grid
maxima, fixed-panel midpoint Stieltjes sums, plain numpy cumulative maxima, the
closed-form maxima of a damped wave, and the reference expression evaluator
eval_expression, a scalar tree-walker on the math module that checks the
library's numpy-compiled expressions.
"""

import math

import numpy as np

from meanmax.exprparse import CONSTANTS, BinOp, Const, Neg, Num, Var


class ExpressionEvalError(Exception):
    """The reference evaluator met a non-finite value; names the offending subexpression."""


def to_text(node) -> str:
    """Render a subtree back to expression syntax, fully parenthesized."""
    if isinstance(node, Num):
        return f"{node.value:g}"
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_text(node.arg)})"
    if isinstance(node, BinOp):
        return f"({to_text(node.left)} {node.op} {to_text(node.right)})"
    return f"{node.name}({', '.join(to_text(a) for a in node.args)})"


_REFERENCE_CALLS = {
    "ln": math.log, "exp": math.exp, "sqrt": math.sqrt, "sin": math.sin,
    "cos": math.cos, "abs": abs, "min": min, "max": max,
}
_REFERENCE_OPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "/": lambda a, b: a / b, "^": math.pow,
}


def eval_expression(node, x: float) -> float:
    """Evaluate the tree at x; non-finite intermediate results raise, never propagate."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -eval_expression(node.arg, x)
    if isinstance(node, BinOp):
        fn, args = _REFERENCE_OPS[node.op], (node.left, node.right)
    else:
        fn, args = _REFERENCE_CALLS[node.name], node.args
    values = [eval_expression(a, x) for a in args]
    try:
        out = fn(*values)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise ExpressionEvalError(f"non-finite value in {to_text(node)}: {exc}") from exc
    if not math.isfinite(out):
        raise ExpressionEvalError(f"non-finite value in {to_text(node)}")
    return out


def grid_sup(fun, lo: float, hi: float, n: int = 10**6) -> float:
    """Dense-grid supremum estimate over [lo, hi] with n points."""
    xs = np.linspace(lo, hi, n)
    return float(np.max(fun(xs)))


def dense_maxima(fun, lo: float, hi: float, n: int = 200_001):
    """Interior local maxima of fun on an n-point grid over [lo, hi].

    Returns (positions, values): each position is a grid point no lower than
    either neighbour and strictly above one, each value the grid_sup over the
    two grid gaps around it.
    """
    xs = np.linspace(lo, hi, n)
    ys = fun(xs)
    mid, left, right = ys[1:-1], ys[:-2], ys[2:]
    k = np.flatnonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right))) + 1
    return xs[k], np.array([grid_sup(fun, xs[i - 1], xs[i + 1], 4001) for i in k])


def midpoint_stieltjes(g, m, r: float, R: float, panels: int = 10**6) -> float:
    """Fixed-panel midpoint Riemann-Stieltjes sum of g against m over [r, R]."""
    ts = np.linspace(r, R, panels + 1)
    mids = 0.5 * (ts[:-1] + ts[1:])
    return float(np.sum(g(mids) * (m(ts[1:]) - m(ts[:-1]))))


def suffix_max(ys: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(ys[::-1])[::-1]


def prefix_max(ys: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(ys)


def table_from_samples(node_xs, sample_xs, sample_ys, side: str) -> np.ndarray:
    """Suffix/prefix maximum of an arbitrary sample cloud, read off at nodes."""
    node_xs = np.asarray(node_xs)
    sample_xs = np.asarray(sample_xs)
    sample_ys = np.asarray(sample_ys)
    out = np.empty(len(node_xs))
    for i, x in enumerate(node_xs):
        if side == "right":
            mask = sample_xs >= x
        else:
            mask = sample_xs <= x
        out[i] = sample_ys[mask].max()
    return out


def piecewise_midpoint(g, m, nodes, a: float, Rs, panels: int) -> np.ndarray:
    """integral_a^R g dm for each R, as fixed-panel midpoint Stieltjes sums per node gap.

    The gaps are those between consecutive nodes in (a, R), plus [last node, R];
    each gets its own `panels` equal panels, so an integrand whose kinks and
    jumps sit at the nodes (an envelope table) is smooth on every panel but
    the ones a kink inside a gap crosses.  g and m take 1-d arrays.
    """
    Rs = np.asarray(Rs, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    edges = np.concatenate([[a], nodes[(nodes > a) & (nodes < Rs.max())]])
    k = np.searchsorted(edges, Rs, side="right") - 1
    lo = np.concatenate([edges[:-1], edges[k]])
    hi = np.concatenate([edges[1:], Rs])
    t = np.arange(panels + 1) / panels
    sums = np.empty(len(lo))
    for s in range(0, len(lo), 64):
        ts = lo[s : s + 64, None] + (hi - lo)[s : s + 64, None] * t
        mids = 0.5 * (ts[:, :-1] + ts[:, 1:])
        gs = g(mids.ravel()).reshape(mids.shape)
        ms = m(ts.ravel()).reshape(ts.shape)
        sums[s : s + 64] = np.sum(gs * np.diff(ms, axis=1), axis=1)
    gaps = len(edges) - 1
    cum = np.concatenate([[0.0], np.cumsum(sums[:gaps])])
    return cum[k] + sums[gaps:]


def wave(x):
    """The damped wave exp(-x) (1 + 0.5 sin 5x) on [0, inf)."""
    return np.exp(-x) * (1 + 0.5 * np.sin(5 * x))


# wave' = exp(-x) (2.5 cos 5x - 0.5 sin 5x - 1) = exp(-x) (sqrt(6.5) cos(5x + phi) - 1)
# with phi = atan2(0.5, 2.5): maxima at 5x + phi = THETA + 2 pi k, minima at
# 5x + phi = -THETA + 2 pi k.
_THETA = math.acos(1 / math.sqrt(6.5))
_PHI = math.atan2(0.5, 2.5)


def wave_maximum(k):
    """The k-th local maximum of wave, k = 0, 1, ...; their values fall with k."""
    return (_THETA - _PHI + 2 * math.pi * k) / 5


def wave_right_max(x):
    """sup of wave over [x, inf): the larger of wave(x) and the first maximum at or after x."""
    k = np.maximum(np.ceil((5 * np.asarray(x, dtype=float) + _PHI - _THETA) / (2 * math.pi)), 0)
    return np.maximum(wave(x), wave(wave_maximum(k)))


def wave_left_max(x):
    """sup of wave over [0, x]: wave rises from wave(0) = 1 to its first maximum,
    which no later value reaches."""
    x0 = wave_maximum(0)
    return np.where(np.asarray(x) < x0, wave(x), wave(x0))


def wave_plateau_edge(k):
    """The crossing c_k, k = 1, 2, ..., where wave, falling from maximum k - 1
    toward the minimum after it, reaches the level of maximum k: the kink
    where wave_right_max leaves wave for that level.  Found by bisection."""
    level = float(wave(wave_maximum(k)))
    lo, hi = wave_maximum(k - 1), (-_THETA - _PHI + 2 * math.pi * k) / 5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if float(wave(mid)) > level else (lo, mid)
    return 0.5 * (lo + hi)


def _wave_antiderivative(x):
    e = math.exp(-x)
    return -e - e * (math.sin(5 * x) + 5 * math.cos(5 * x)) / 52


def wave_right_max_integral(R: float) -> float:
    """integral_0^R of wave_right_max, piece by piece between its kinks.

    It is the constant wave(x_0) on [0, x_0]; after maximum k - 1 it is wave
    itself down to the crossing c_k = wave_plateau_edge(k), then the level of
    maximum k up to x_k.
    """
    x0 = wave_maximum(0)
    total = min(R, x0) * float(wave(x0))
    k = 1
    while R > wave_maximum(k - 1):
        top, nxt = wave_maximum(k - 1), wave_maximum(k)
        level = float(wave(nxt))
        cut = wave_plateau_edge(k)
        total += _wave_antiderivative(min(R, cut)) - _wave_antiderivative(top)
        total += max(0.0, min(R, nxt) - cut) * level
        k += 1
    return total


def table_log_integral(xs, ys, r: float, R: float) -> float:
    """integral_r^R of the linear interpolant of (xs, ys) against ln x, in closed form.

    On a gap where the interpolant is y0 + s (x - x0), the integral of it dx/x
    between u and v is (y0 - s x0) ln(v / u) + s (v - u).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    total = 0.0
    for k in range(len(xs) - 1):
        u, v = max(r, xs[k]), min(R, xs[k + 1])
        if u < v:
            s = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
            total += (ys[k] - s * xs[k]) * math.log(v / u) + s * (v - u)
    return total
