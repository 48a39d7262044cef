"""Independent brute-force oracles used to derive expected test values.

These deliberately avoid the library's adaptive/refined code paths: dense-grid
maxima, fixed-panel midpoint Stieltjes sums, and plain numpy cumulative maxima.
"""

import numpy as np


def grid_sup(fun, lo: float, hi: float, n: int = 10**6) -> float:
    """Dense-grid supremum estimate over [lo, hi] with n points."""
    xs = np.linspace(lo, hi, n)
    return float(np.max(fun(xs)))


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
