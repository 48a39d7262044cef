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
be explored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, UnboundedSupError
from .func1d import (
    DECREASING,
    INCREASING,
    LEFT,
    NONE,
    RIGHT,
    Domain,
    Envelope,
    Function1D,
    GridSpec,
    Tail,
    batch_eval,
    envelope_function,
    evaluate,
)
from .stieltjes import (
    Measure1D,
    QuadratureConfig,
    check_interval,
    log_measure,
    measure_weight,
    segment_integrals,
)


@dataclass
class WeightN:
    """An increasing positive weight n with n(a) > 0 and n(x) -> +inf at b."""

    n: Callable[[float], float]
    domain: Domain

    def spot_check(self, samples: int = 64) -> list[str]:
        issues = []
        a = self.domain.a
        na = self.n(a)
        if not na > 0:
            raise ValueError(f"weight must be positive at the left endpoint, got n({a})={na}")
        xs = _geometric_probe(self.domain, samples)
        vals = [self.n(float(x)) for x in xs]
        if any(not math.isfinite(v) for v in vals):
            issues.append("weight produced non-finite values")
            return issues
        if any(b < c for b, c in zip(vals[1:], vals[:-1])):
            issues.append("weight is not increasing on probe points")
        if self.domain.unbounded and vals[-1] < 10.0 * max(na, 1.0):
            issues.append("weight does not appear to tend to +inf")
        return issues


@dataclass
class TransformResult:
    """A constructed function plus its construction log and hypothesis warnings."""

    fn: Function1D
    log: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def __call__(self, x: float) -> float:
        return evaluate(self.fn, x)


def _geometric_probe(domain: Domain, steps: int) -> np.ndarray:
    """Probe points marching toward the right endpoint (geometrically for b = inf)."""
    start = max(domain.a, 1.0)
    if domain.unbounded:
        return start * 4.0 ** np.arange(steps, dtype=float)
    gap = domain.b - domain.a
    return domain.b - gap * 0.5 ** np.arange(1, steps + 1, dtype=float)


def _decays_to_zero(fun: Callable[[float], float], domain: Domain, steps: int = 24):
    """Heuristic check that fun -> 0 toward b: tail nonincreasing, final value halved.

    Slow but genuine decay (1/ln x) passes; constants and growth fail.  Returns
    (ok, samples, max_abs).
    """
    xs = _geometric_probe(domain, steps)
    vals = []
    for x in xs:
        if not domain.contains(float(x)):
            break
        try:
            v = float(fun(float(x)))
        except (OverflowError, ValueError, ZeroDivisionError):
            return False, vals, math.inf
        if not math.isfinite(v):
            return False, vals, math.inf
        vals.append(v)
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


def decreasing_majorant_mean(
    f: Function1D,
    m: Measure1D,
    cfg: QuadratureConfig | None = None,
    grid: GridSpec | None = None,
) -> TransformResult:
    """D(R) = mean over [a, R] of the right maximization of f; D(a) extends by the sup at a.

    D decreases in R and dominates every mean of f over [r, R] with r >= a.
    The first query builds the cumulative integral of the envelope against m
    over the envelope's node gaps (see segment_integrals); every query is then
    a table lookup plus one partial piece.  D accepts arrays of R.
    """
    cfg = cfg or QuadratureConfig()
    grid = grid or GridSpec()
    notes = _f0m_warnings(f, m)
    env = envelope_function(f, RIGHT, grid)
    if not env.tail_certified:
        notes.append("vanishing-tail cutoff scan hit its cap; tail taken on trust")
    a = f.domain.a
    at_a = env.value_at(a)
    xs, T = env.xs, env.table
    # flat[j - 1] is the envelope's value on node gap j when the table is flat
    # there, NaN otherwise; the gap past the last node is never flat.
    flat = np.append(np.where(T[:-1] == T[1:], T[1:], np.nan), np.nan)
    table = None

    def pieces(lo, hi, span):
        # (right end, integral, segment index) of the accepted pieces of each
        # segment [lo, hi].  Each lies in the node gap of its right end; where
        # the table is flat the envelope is that constant, integrated exactly.
        gap = np.searchsorted(xs, hi)
        level = flat[gap - 1]
        exact = ~np.isnan(level)
        rest = np.flatnonzero(~exact)
        done = segment_integrals(lambda x, i: env.value_at(x, gap=gap[rest[i]]), m,
                                 lo[rest], hi[rest], cfg, np.broadcast_to(span, lo.shape)[rest])
        value = level[exact] * (batch_eval(m.m, hi[exact]) - batch_eval(m.m, lo[exact]))
        return (np.concatenate([hi[exact], done.hi]), np.concatenate([value, done.value]),
                np.concatenate([np.flatnonzero(exact), rest[done.origin]]))

    def build():
        # Every sample of the build inside the nodes the measure is defined
        # at cuts the node gaps, so no segment hides a sampled maximum.
        # Queries past the last node integrate from it, inside a single gap.
        last = xs[max(int(np.searchsorted(xs, m.domain.b)), 1) - 1]
        cuts = np.union1d(xs[xs <= last], env.sample_xs[env.sample_xs <= last])
        span = m.m(last) - m.m(a)
        hi, value, _ = pieces(cuts[:-1], cuts[1:], span)
        order = np.argsort(hi)
        edges = np.concatenate([cuts[:1], hi[order]])
        return edges, np.concatenate([[0.0], np.cumsum(value[order])]), span

    def integral(R: np.ndarray) -> np.ndarray:
        nonlocal table
        tab = table
        if tab is None:
            tab = build()
            table = tab  # one assignment publishes the table to every thread
        edges, cum, span = tab
        k = np.searchsorted(edges, R, side="right") - 1
        out = cum[k]
        part = R > edges[k]
        if part.any():
            hi = R[part]
            beyond = hi > edges[-1]
            span = np.where(beyond, batch_eval(m.m, hi) - m.m(edges[-1]), span)
            _, value, origin = pieces(edges[k[part]], hi, span)
            out[part] += np.bincount(origin, value, minlength=len(hi))
        return out

    def D(R):
        Rs = np.asarray(R, dtype=float)
        outside = ~((Rs >= a) & (Rs < f.domain.b))
        if outside.any():
            raise DomainError(f"R={Rs[outside].flat[0]} outside [{a}, {f.domain.b})")
        out = np.full(Rs.shape, at_a)
        q = Rs > a
        if q.any():
            check_interval(f, m, a, float(Rs[q].max()))
            out[q] = integral(Rs[q]) / measure_weight(m, a, Rs[q])
        return float(out) if out.ndim == 0 else out

    fn = Function1D(
        eval=D,
        domain=f.domain,
        tail=Tail.vanishing() if not notes else Tail.unknown(),
        monotonicity=DECREASING,
        locally_bounded=True,
    )
    return TransformResult(
        fn=fn,
        log={
            "envelope_nodes": len(env.xs),
            "envelope_sampling_end": env.sampling_end,
            "eps_sup": env.eps_sup,
            "value_at_a": at_a,
        },
        warnings=notes,
    )


def _double_envelope_parts(
    f: Function1D, n: WeightN, grid: GridSpec
) -> tuple[Envelope, Envelope, list[str]]:
    notes = _f0m_warnings(f, None)
    notes.extend(n.spot_check())
    right_env = envelope_function(f, RIGHT, grid)
    if not right_env.tail_certified:
        notes.append("vanishing-tail cutoff scan hit its cap; tail taken on trust")
    ne = n.n

    def weighted(x: float) -> float:
        return ne(x) * right_env.value_at(x)

    core_source = Function1D(eval=weighted, domain=f.domain, locally_bounded=True)
    core_env = envelope_function(core_source, LEFT, grid)
    return right_env, core_env, notes


def weighted_double_envelope(
    f: Function1D,
    n: WeightN,
    grid: GridSpec | None = None,
) -> TransformResult:
    """h(R) = (1/n(R)) * sup over [a, R] of n(x) * sup over [x, b) of f.

    n * h is increasing; h tends to 0 at the right endpoint under the standing
    hypotheses, and the mean of h over any [r, R] dominates f(R).
    """
    grid = grid or GridSpec()
    right_env, core_env, notes = _double_envelope_parts(f, n, grid)
    ne = n.n

    def h(R):
        nv = ne(R)
        if np.ndim(nv) == 0:
            nv = float(nv)
            if not (math.isfinite(nv) and nv > 0):
                raise DomainError(f"weight must be positive and finite, got n({R})={nv}")
        else:
            nv = np.asarray(nv, dtype=float)
            if np.any(~np.isfinite(nv)) or np.any(nv <= 0):
                raise DomainError("weight must be positive and finite on the queried points")
        return core_env.value_at(R) / nv

    fn = Function1D(
        eval=h,
        domain=f.domain,
        tail=Tail.vanishing() if not notes else Tail.unknown(),
        monotonicity=NONE,
        locally_bounded=True,
    )
    return TransformResult(
        fn=fn,
        log={
            "right_envelope_nodes": len(right_env.xs),
            "right_sampling_end": right_env.sampling_end,
            "core_envelope_nodes": len(core_env.xs),
            "core_sampling_end": core_env.sampling_end,
        },
        warnings=notes,
    )


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
    if not r0 > 0:
        raise ValueError(f"r0 must be positive, got {r0}")
    if not Q.domain.contains(r0):
        raise DomainError(f"r0={r0} outside the domain of Q")
    cfg = cfg or QuadratureConfig()
    grid = grid or GridSpec()
    dom = Domain(r0, Q.domain.b)
    qe = Q.eval

    def ratio(x: float) -> float:
        return qe(x) / x

    ok, probe, max_abs = _decays_to_zero(ratio, dom)
    notes = []
    if not ok:
        notes.append("Q(x)/x does not tend to 0 on probe points (growth-scale hypothesis)")
    f = Function1D(
        eval=ratio,
        domain=dom,
        tail=Tail.vanishing() if ok else Tail.bounded_by(max_abs),
        monotonicity=NONE,
        locally_bounded=True,
    )
    if any(v < -1e-12 * max(1.0, max_abs) for v in probe):
        notes.append("Q takes negative values on probe points")
    inner = decreasing_majorant_mean(f, log_measure(r0, dom.b), cfg, grid)
    notes.extend(w for w in inner.warnings if "vanishing-tail cutoff" in w)
    fn = Function1D(
        eval=inner.fn.eval,
        domain=dom,
        tail=Tail.vanishing() if ok else Tail.unknown(),
        monotonicity=DECREASING,
        locally_bounded=True,
    )
    log = dict(inner.log)
    log["growth_ratio_probe"] = probe[-3:]
    return TransformResult(fn=fn, log=log, warnings=notes)


def Q_from_d(
    d: Function1D,
    r0: float,
    grid: GridSpec | None = None,
) -> TransformResult:
    """The increasing growth scale Q matching a vanishing density d.

    Q(R) = sup over [r0, R] of x * sup over [x, b) of d; then Q(x)/x -> 0 and
    d(R) ln(R/r) <= integral_r^R Q(x)/x^2 dx for r0 <= r < R.
    """
    if not r0 > 0:
        raise ValueError(f"r0 must be positive, got {r0}")
    if not d.domain.contains(r0):
        raise DomainError(f"r0={r0} outside the domain of d")
    if not d.locally_bounded:
        raise UnboundedSupError("Q construction needs a locally bounded density")
    grid = grid or GridSpec()
    dom = Domain(r0, d.domain.b)
    ok, probe, max_abs = _decays_to_zero(d.eval, dom)
    notes = []
    if not ok:
        notes.append("d does not tend to 0 on probe points (density hypothesis)")
    if any(v < -1e-12 * max(1.0, max_abs) for v in probe):
        notes.append("d takes negative values on probe points")
    f = Function1D(
        eval=d.eval,
        domain=dom,
        tail=Tail.vanishing() if ok else Tail.bounded_by(max_abs),
        monotonicity=d.monotonicity,
        locally_bounded=True,
    )
    weight = WeightN(n=lambda x: x, domain=dom)
    right_env, core_env, part_notes = _double_envelope_parts(f, weight, grid)
    notes.extend(w for w in part_notes if "cutoff" in w)
    fn = Function1D(
        eval=core_env.value_at,
        domain=dom,
        tail=Tail.unknown(),
        monotonicity=INCREASING,
        locally_bounded=True,
    )
    return TransformResult(
        fn=fn,
        log={
            "right_envelope_nodes": len(right_env.xs),
            "right_sampling_end": right_env.sampling_end,
            "core_envelope_nodes": len(core_env.xs),
            "core_sampling_end": core_env.sampling_end,
            "density_probe": probe[-3:],
        },
        warnings=notes,
    )
