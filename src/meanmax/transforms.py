"""Constructions built on integral means and maximization envelopes.

Three transforms live here:

* the decreasing majorant mean D(R): the mean over [a, R] of the right
  maximization of f, which decreases in R and dominates every mean of f;
* the weighted double envelope h = (1/n) * left-max of n * right-max of f,
  whose mean bounds f pointwise from above while n*h stays increasing;
* the duality between sublinear growth scales Q (Q(x)/x -> 0) and vanishing
  logarithmic densities d, realized with the weight ln x and n(x) = x.

Hypothesis violations that leave a construction numerically well-defined are
reported as warnings on the result, not raised, so counterexample behavior can
be explored.  A result's warnings are the transform's own hypothesis notes
followed by the notes of the right envelope it builds (func1d.Envelope.notes),
such as func1d.TAIL_CAP_NOTE when the vanishing-tail scan hit its cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, UnboundedSupError
from .func1d import (
    DECREASING,
    LEFT,
    NONE,
    RIGHT,
    Domain,
    Function1D,
    GridSpec,
    Tail,
    envelope_function,
    evaluate,
    in_domain,
    probe,
    sample,
    window_end,
)
from .stieltjes import (
    Measure1D,
    QuadratureConfig,
    _refine,
    check_interval,
    log_measure,
    positive_weight,
    segment_integrals,
)


@dataclass
class WeightN:
    """An increasing positive weight n with n(a) > 0 and n(x) -> +inf at b."""

    n: Callable[[float], float]
    domain: Domain

    def spot_check(self) -> list[str]:
        """Problems seen at the _geometric_probe points of 64 steps toward b, as notes;
        n(a) <= 0 raises."""
        a = self.domain.a
        na = self.n(a)
        if not na > 0:
            raise ValueError(f"weight must be positive at the left endpoint, got n({a})={na}")
        vals = probe(self.n, _geometric_probe(self.domain, 64))
        if np.isnan(vals).any():
            return ["weight produced non-finite values"]
        issues = []
        if np.any(vals[1:] < vals[:-1]):
            issues.append("weight is not increasing on probe points")
        if self.domain.unbounded and vals[-1] < 10.0 * max(na, 1.0):
            issues.append("weight does not appear to tend to +inf")
        return issues


@dataclass
class TransformResult:
    """A constructed function plus its construction log and hypothesis warnings.

    The log's *envelope_nodes entries count every sample of the envelope
    table: the grid nodes and the refined maxima.
    """

    fn: Function1D
    log: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def __call__(self, x):
        return evaluate(self.fn, x)


def _geometric_probe(domain: Domain, steps: int) -> np.ndarray:
    """Those of steps probe points marching toward the right endpoint (geometrically
    for b = inf) that lie in the domain: near a finite b they round to b itself."""
    start = max(domain.a, 1.0)
    if domain.unbounded:
        xs = start * 4.0 ** np.arange(steps, dtype=float)
    else:
        xs = domain.b - (domain.b - domain.a) * 0.5 ** np.arange(1, steps + 1, dtype=float)
    return xs[(xs >= domain.a) & (xs < domain.b)]


def _decays_to_zero(fun: Callable[[float], float], domain: Domain):
    """Heuristic check that fun -> 0 toward b: tail nonincreasing, final value halved.

    Reads fun at the _geometric_probe points of 24 steps.
    Slow but genuine decay (1/ln x) passes; constants and growth fail.
    Returns (ok, samples, max_abs); where fun first fails, (False, the samples
    before it, inf).
    """
    vals = probe(fun, _geometric_probe(domain, 24))
    failed = np.isnan(vals)
    if failed.any():
        return False, vals[: np.argmax(failed)].tolist(), math.inf
    vals = vals.tolist()
    if len(vals) < 3:
        return False, vals, max((abs(v) for v in vals), default=math.inf)
    tail = vals[len(vals) // 2 :]
    slack = 1e-12 * max(1.0, max(abs(v) for v in vals))
    nonincreasing = all(b <= c + slack for b, c in zip(tail[1:], tail[:-1]))
    small_enough = abs(vals[-1]) <= max(0.5 * abs(vals[0]), 1e-12)
    return nonincreasing and small_enough, vals, max(abs(v) for v in vals)


def _f0m_warnings(f: Function1D, m: Measure1D | None) -> list[str]:
    notes = []
    if f.tail.kind != "vanishing":
        notes.append("integrand tail is not declared vanishing (hypothesis lim f = 0)")
    if m is not None and not m.diverges:
        notes.append("measure is not declared divergent at the right endpoint")
    return notes


def _majorant_mean(f: Function1D, m: Measure1D, cfg: QuadratureConfig, grid: GridSpec):
    """D of decreasing_majorant_mean and d_from_Q, the right envelope it
    integrates, and its log entries: (D, env, log)."""
    env = envelope_function(f, RIGHT, grid)
    a = f.domain.a
    at_a = env.value_at(a)
    xs, T = env.xs, env.table
    # flat[j - 1] is the envelope's value between samples j - 1 and j when the
    # table is flat there, NaN otherwise; past the last sample it never is.
    flat = np.append(np.where(T[:-1] == T[1:], T[1:], np.nan), np.nan)

    @functools.cache
    def build():
        # Cut at the envelope's kinks (run ends and located plateau edges)
        # where the measure is defined, closed at the measure's window end
        # when the table runs past it.  A segment lies in one run of flat
        # gaps or of steep ones, the run of the gap that holds its right end;
        # over a flat run the envelope is that constant, integrated exactly.
        # A located plateau edge lies inside a steep gap, so the sliver from
        # it to the gap's flat end integrates value_at like any steep piece,
        # whether or not f stays below the plateau there.
        cuts = env.kinks(m.domain.b)
        if env.xs[-1] >= m.domain.b:
            end = window_end(m.domain, a)
            cuts = np.append(cuts[cuts < end], end)
        lo, hi = cuts[:-1], cuts[1:]
        level = flat[np.searchsorted(xs, hi) - 1]
        exact = ~np.isnan(level)
        ms = sample(m.m, np.concatenate([[a, cuts[-1]], lo[exact], hi[exact]]))
        span = positive_weight(ms[1] - ms[0])
        steep = segment_integrals(env.value_at, m, lo[~exact], hi[~exact], cfg,
                                  np.full(len(lo), span)[~exact])
        m_lo, m_hi = np.split(ms[2:], 2)
        parts = [(hi[exact], steep.hi), (level[exact] * positive_weight(m_hi - m_lo), steep.value),
                 (m_lo, steep.m_lo), (np.full(len(m_lo), np.nan), steep.y_lo)]
        order = np.argsort(np.concatenate(parts[0]))
        e_hi, value, m_e, y_e = (np.concatenate(v)[order] for v in parts)
        return (np.append(cuts[0], e_hi), np.append(0.0, np.cumsum(value)), np.append(m_e, ms[1]),
                y_e, span)

    def mean(R: np.ndarray) -> np.ndarray:
        # The mean over [a, R], R > a.  Inside the table, one _refine call
        # on [e_k, R] from what the table keeps at the edge e_k below R, or in
        # a flat gap m(R) alone; past the last edge, R integrates from it.
        edges, cum, m_e, y_e, span = build()
        k = np.searchsorted(edges, R, side="right") - 1
        out, m_R = cum[k], m_e[k]
        level = flat[np.searchsorted(xs, R) - 1]
        part = R > edges[k]
        steep = np.isnan(level) & (k < len(y_e))
        i = np.flatnonzero(part & steep)
        if len(i):
            done = _refine(env.value_at, m, edges[k[i]], R[i], np.arange(len(i)),
                           np.full(len(i), span), cfg, left=(m_e[k[i]], y_e[k[i]]))
            out[i] += np.bincount(done.origin, done.value, minlength=len(i))
            at_R = done.hi == R[i][done.origin]
            m_R[i[done.origin[at_R]]] = done.m_hi[at_R]
        rest = np.flatnonzero(part & ~steep)
        if len(rest):
            m_R[rest] = sample(m.m, R[rest])
            dm = positive_weight(m_R[rest] - m_e[k[rest]])
            far = np.isnan(level[rest])
            done = segment_integrals(env.value_at, m, edges[k[rest[far]]], R[rest[far]], cfg,
                                     dm[far])
            out[rest] += np.where(far, 0.0, level[rest] * dm)
            out[rest[far]] += np.bincount(done.origin, done.value, minlength=far.sum())
        return out / positive_weight(m_R - m_e[0])

    def D(R):
        Rs = in_domain(f.domain, R, "R")
        out = np.full(Rs.shape, at_a)
        q = Rs > a
        if q.any():
            check_interval(f, m, a, float(Rs[q].max()))
            out[q] = mean(Rs[q])
        return float(out) if out.ndim == 0 else out

    log = {
        "envelope_nodes": len(env.xs),
        "envelope_sampling_end": env.sampling_end,
        "eps_sup": env.eps_sup,
        "value_at_a": at_a,
    }
    return D, env, log


def decreasing_majorant_mean(
    f: Function1D,
    m: Measure1D,
    cfg: QuadratureConfig | None = None,
    grid: GridSpec | None = None,
) -> TransformResult:
    """D(R) = mean over [a, R] of the right maximization of f; D(a) extends by the sup at a.

    D decreases in R and dominates every mean of f over [r, R] with r >= a.
    The first query builds the cumulative integral of the envelope against m
    over the runs of the envelope table (see segment_integrals), keeping m
    at each edge and the integrand where a steep piece starts.  A query in
    the table then reads only what its edge lacks: in a steep gap, f at R
    and the 15 Kronrod nodes of its partial piece and m at R, more only if
    the piece is halved; in a flat gap, m at R.  D accepts arrays of R.
    """
    D, env, log = _majorant_mean(f, m, cfg or QuadratureConfig(), grid or GridSpec())
    notes = _f0m_warnings(f, m) + env.notes
    tail = Tail.vanishing() if not notes else Tail.unknown()
    fn = Function1D(eval=D, domain=f.domain, tail=tail, monotonicity=DECREASING)
    return TransformResult(fn=fn, log=log, warnings=notes)


def _double_envelope(f: Function1D, n: Callable[[float], float], grid: GridSpec):
    """The right envelope of f, the left one of n times it, and their log entries:
    (right_env, core_env, log)."""
    right_env = envelope_function(f, RIGHT, grid)

    def weighted(x: float) -> float:
        return n(x) * right_env.value_at(x)

    core_source = Function1D(eval=weighted, domain=f.domain)
    core_env = envelope_function(core_source, LEFT, grid)
    log = {
        "right_envelope_nodes": len(right_env.xs),
        "right_sampling_end": right_env.sampling_end,
        "core_envelope_nodes": len(core_env.xs),
        "core_sampling_end": core_env.sampling_end,
    }
    return right_env, core_env, log


def weighted_double_envelope(
    f: Function1D,
    n: WeightN,
    grid: GridSpec | None = None,
) -> TransformResult:
    """h(R) = (1/n(R)) * sup over [a, R] of n(x) * sup over [x, b) of f.

    n * h is increasing; h tends to 0 at the right endpoint under the standing
    hypotheses, and the mean of h over any [r, R] dominates f(R).
    """
    notes = _f0m_warnings(f, None) + n.spot_check()
    ne = n.n
    right_env, core_env, log = _double_envelope(f, ne, grid or GridSpec())
    notes += right_env.notes

    def h(R):
        nv = np.asarray(ne(R), dtype=float)
        ok = np.isfinite(nv) & (nv > 0)
        if not ok.all():
            k = int(np.argmin(ok))
            raise DomainError(
                f"weight must be positive and finite, got n({np.ravel(R)[k]})={nv.flat[k]}")
        out = core_env.value_at(R) / nv
        return float(out) if out.ndim == 0 else out

    tail = Tail.vanishing() if not notes else Tail.unknown()
    return TransformResult(fn=Function1D(eval=h, domain=f.domain, tail=tail), log=log,
                           warnings=notes)


def _duality_source(src: Function1D, name: str, r0: float, fun, decay_note: str,
                    monotonicity: str, bounded: bool = False):
    """The shared prologue of d_from_Q and Q_from_d, whose messages call src name.

    Checks r0 (and, if bounded, that src is locally bounded), probes fun for
    decay on [r0, b), and returns (f, ok, probe, notes): fun on [r0, b) with a
    vanishing tail if it decays, else one bounded by the largest probe |value|.
    """
    if not r0 > 0:
        raise ValueError(f"r0 must be positive, got {r0}")
    if not src.domain.contains(r0):
        raise DomainError(f"r0={r0} outside the domain of {name}")
    if bounded and not src.locally_bounded:
        raise UnboundedSupError("Q construction needs a locally bounded density")
    dom = Domain(r0, src.domain.b)
    ok, probe, max_abs = _decays_to_zero(fun, dom)
    notes = [] if ok else [decay_note]
    if any(v < -1e-12 * max(1.0, max_abs) for v in probe):
        notes.append(f"{name} takes negative values on probe points")
    tail = Tail.vanishing() if ok else Tail.bounded_by(max_abs)
    return Function1D(eval=fun, domain=dom, tail=tail, monotonicity=monotonicity), ok, probe, notes


def d_from_Q(
    Q: Function1D,
    r0: float,
    cfg: QuadratureConfig | None = None,
    grid: GridSpec | None = None,
) -> TransformResult:
    """The decreasing log-density d matching a sublinear growth scale Q.

    d(R) is the mean, against ln x over [r0, R], of the right maximization of
    Q(x)/x, extended at r0 by that maximization itself.  Then
    integral_r^R Q(x)/x^2 dx <= d(R) ln(R/r) for r0 <= r < R, and d -> 0.
    """
    qe = Q.eval
    f, ok, probe, notes = _duality_source(
        Q, "Q", r0, lambda x: qe(x) / x,
        "Q(x)/x does not tend to 0 on probe points (growth-scale hypothesis)", NONE)
    D, env, log = _majorant_mean(f, log_measure(r0, f.domain.b), cfg or QuadratureConfig(),
                                 grid or GridSpec())
    tail = Tail.vanishing() if ok else Tail.unknown()
    fn = Function1D(eval=D, domain=f.domain, tail=tail, monotonicity=DECREASING)
    return TransformResult(fn=fn, log={**log, "growth_ratio_probe": probe[-3:]},
                           warnings=notes + env.notes)


def Q_from_d(
    d: Function1D,
    r0: float,
    grid: GridSpec | None = None,
) -> TransformResult:
    """The increasing growth scale Q matching a vanishing density d.

    Q(R) = sup over [r0, R] of x * sup over [x, b) of d; then Q(x)/x -> 0 and
    d(R) ln(R/r) <= integral_r^R Q(x)/x^2 dx for r0 <= r < R.
    """
    f, _, probe, notes = _duality_source(
        d, "d", r0, d.eval, "d does not tend to 0 on probe points (density hypothesis)",
        d.monotonicity, bounded=True)
    right_env, core_env, log = _double_envelope(f, lambda x: x, grid or GridSpec())
    return TransformResult(fn=core_env.as_function(), log={**log, "density_probe": probe[-3:]},
                           warnings=notes + right_env.notes)
