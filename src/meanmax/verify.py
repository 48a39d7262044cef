"""Numerical verification of the monotonicity, inequality, and limit claims.

Each check evaluates both sides of a claim through the quadrature/envelope
machinery, accounts slack as max(LHS - RHS) over its samples against the
budget 1e-8 * (1 + |RHS|), and reports holds / violated / inconclusive.
The monotonicity, sup-identity and pair checks get the means or integrals
they compare from one array call of integral_mean or stieltjes_integral, so
these share one refinement of the union of their intervals.
Candidate violations are re-checked against a brute-force midpoint oracle
before being reported, so a "violated" verdict never rests on the adaptive
path alone.  Limits at the right endpoint are operationalized as geometric
decay schedules: eventually nonincreasing samples ending below a threshold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateIntervalError
from .func1d import (
    DECREASING,
    RIGHT,
    Function1D,
    GridSpec,
    batch_eval,
    build_nodes,
    classify_monotonicity,
    envelope_function,
    evaluate,
)
from .stieltjes import (
    Measure1D,
    QuadratureConfig,
    identity_measure,
    integral_mean,
    log_measure,
    mean_partial_r,
    mean_partial_R,
    stieltjes_integral,
)
from .transforms import WeightN, decreasing_majorant_mean, weighted_double_envelope

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

ORACLE_PANELS = 10**6

# Tolerance scale for finite-difference agreement with analytic partials.
PARTIALS_REL_TOL = 1e-6


def slack_budget(rhs: float) -> float:
    """Additive tolerance accepted for LHS <= RHS checks."""
    return 1e-8 * (1.0 + abs(rhs))


def format_number(x: float) -> str:
    """x to 10 significant digits, as the reports and the CLI print numbers."""
    return f"{x:.10g}"


@dataclass
class VerifyReport:
    property_id: str
    verdict: str
    worst_slack: float
    samples_used: int
    witness: tuple | None = None
    note: str | None = None
    details: dict = field(default_factory=dict)

    def to_line(self) -> str:
        parts = [self.property_id, self.verdict, f"worst_slack={format_number(self.worst_slack)}",
                 f"samples={self.samples_used}"]
        if self.witness is not None:
            parts.append("witness=" + ",".join(format_number(v) for v in self.witness))
        if self.note:
            parts.append(f"note={self.note!r}")
        return " ".join(parts)

    def to_kv(self) -> str:
        lines = [
            f"property: {self.property_id}",
            f"verdict: {self.verdict}",
            f"worst_slack: {format_number(self.worst_slack)}",
            f"samples_used: {self.samples_used}",
        ]
        if self.witness is not None:
            lines.append("witness: " + " ".join(format_number(v) for v in self.witness))
        if self.note:
            lines.append(f"note: {self.note}")
        for key in sorted(self.details):
            val = self.details[key]
            if isinstance(val, (list, tuple, np.ndarray)):
                rendered = " ".join(format_number(float(v)) for v in val)
            elif isinstance(val, float):
                rendered = format_number(val)
            else:
                rendered = str(val)
            lines.append(f"{key}: {rendered}")
        return "\n".join(lines) + "\n"


@dataclass
class DecaySchedule:
    """Geometric probe start * ratio^k, k = 0..steps-1, against a threshold."""

    start: float
    ratio: float
    steps: int
    threshold: float

    def __post_init__(self):
        if not math.isfinite(self.start):
            raise ValueError(f"schedule start must be finite, got {self.start}")
        if not 1 < self.ratio < math.inf:
            raise ValueError(f"ratio must be finite and exceed 1, got {self.ratio}")
        if self.steps < 3:
            raise ValueError("need at least 3 steps")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")

    def points(self) -> list[float]:
        return [self.start * self.ratio**k for k in range(self.steps)]


def midpoint_stieltjes_oracle(g_eval, m_eval, r: float, R: float) -> float:
    """Midpoint Stieltjes sum on ORACLE_PANELS panels: the independent brute-force route."""
    ts = np.linspace(r, R, ORACLE_PANELS + 1)
    mids = 0.5 * (ts[:-1] + ts[1:])
    gs = batch_eval(g_eval, mids)
    ms = batch_eval(m_eval, ts)
    return float(np.sum(gs * np.diff(ms)))


def invert_measure(m: Measure1D, lo: float, hi: float, us) -> np.ndarray:
    """The points x of [lo, hi] with m(x) = u, for each u of us in [m(lo), m(hi)].

    m is interpolated linearly on build_nodes(lo, hi, 2049), whose ends are
    exact, so u = m(lo) and u = m(hi) give lo and hi.  Evenly spaced us give
    points evenly spread in m-coordinates.
    """
    xs = build_nodes(lo, hi, 2049)
    ms = batch_eval(m.m, xs)
    return np.interp(us, ms, xs)


def _sample_pairs(m: Measure1D, lo: float, hi: float, count: int, seed: int):
    """The arrays (rs, Rs) of seeded pairs r < R, drawn uniform in m-coordinates.

    A draw whose two ends lie closer than 1e-4 of the span in m is dropped.
    m must be finite at lo and hi, or no u between them can be drawn.
    """
    with np.errstate(all="ignore"):
        u_lo, u_hi = float(m.m(lo)), float(m.m(hi))
    for end, x, u in (("left", lo, u_lo), ("right", hi, u_hi)):
        if not math.isfinite(u):
            raise DegenerateIntervalError(f"measure is not finite at the {end} end x={x}")
    rng = random.Random(seed)
    span = u_hi - u_lo
    us = []
    while len(us) < 2 * count:
        u1 = u_lo + span * rng.random()
        u2 = u_lo + span * rng.random()
        if u2 < u1:
            u1, u2 = u2, u1
        if u2 - u1 < 1e-4 * span:
            continue
        us += [u1, u2]
    xs = invert_measure(m, lo, hi, us)
    return xs[::2], xs[1::2]


def _pair_claim(property_id: str, hypothesis_failures, m: Measure1D, lo: float,
                dom_b: float, sample_hi: float | None, pair_count: int, seed: int,
                sides, oracle_sides) -> VerifyReport:
    """LHS <= RHS on seeded pairs lo <= r < R <= hi, drawn uniform in m-coordinates.

    hi is sample_hi, or dom_b, the right end of the domain, when sample_hi is
    None; a finite dom_b caps it just inside the domain.  Any hypothesis
    failure, or an infinite hi, makes the claim inconclusive.  sides(rs, Rs)
    takes the arrays of every pair's r and R and returns the arrays (LHS, RHS)
    by the adaptive route, in one array call of the quadrature; a violation is
    reported only when oracle_sides(r, R), the brute-force midpoint route,
    confirms it at the worst pair.  pair_count below 1, or hi <= lo, raises
    ValueError.
    """
    if pair_count < 1:
        raise ValueError(f"{property_id}: need at least 1 pair, got {pair_count}")
    if hypothesis_failures:
        return VerifyReport(property_id, INCONCLUSIVE, 0.0, 0,
                            note="hypothesis failure: " + "; ".join(hypothesis_failures))
    hi = sample_hi if sample_hi is not None else dom_b
    if math.isinf(hi):
        return VerifyReport(property_id, INCONCLUSIVE, 0.0, 0,
                            note="unbounded domain: pass sample_hi to bound the sampled pairs")
    if math.isfinite(dom_b):
        hi = min(hi, dom_b - (dom_b - lo) * 1e-9)
    if not hi > lo:
        raise ValueError(f"{property_id}: empty sample window [{lo}, {hi}]")
    rs, Rs = _sample_pairs(m, lo, hi, pair_count, seed)
    lhs, rhs = sides(rs, Rs)
    gaps = lhs - rhs
    k = int(np.argmax(gaps))
    worst, witness = float(gaps[k]), (float(rs[k]), float(Rs[k]))
    verdict = HOLDS
    note = None
    if np.any(gaps > slack_budget(rhs)):
        lhs, rhs = oracle_sides(*witness)
        if lhs - rhs > slack_budget(rhs):
            verdict = VIOLATED
        else:
            verdict = INCONCLUSIVE
            note = ("adaptive route signalled a violation the brute-force oracle "
                    "does not confirm")
    return VerifyReport(property_id, verdict, worst, len(rs), witness=witness, note=note)


def check_mean_monotonicity(
    f: Function1D,
    m: Measure1D,
    r_grid,
    R_grid,
    cfg: QuadratureConfig | None = None,
    grid: GridSpec | None = None,
) -> VerifyReport:
    """For decreasing f the mean is nonincreasing in r and in R; partials are <= 0.

    Neighbouring grid cells r < R are compared, and, when m has a derivative,
    the signs of the partials at midpoints of consecutive grid values with
    a < r < R.  Raises ValueError when no grid pair has r < R, or when the
    grid leaves nothing to compare.
    """
    cfg = cfg or QuadratureConfig()
    r_grid = sorted(float(r) for r in r_grid)
    R_grid = sorted(float(R) for R in R_grid)
    cells = [(i, j) for i, r in enumerate(r_grid) for j, R in enumerate(R_grid) if r < R]
    if not cells:
        raise ValueError("monotonicity: no grid pair has r < R")
    r_mids = []
    if m.m_prime is not None:
        r_mids = [0.5 * (u + v) for u, v in zip(r_grid[:-1], r_grid[1:])]
    R_mids = [0.5 * (u + v) for u, v in zip(R_grid[:-1], R_grid[1:])]
    mid_pairs = [(r, R) for r in r_mids for R in R_mids if f.domain.a < r < R]
    in_grid = set(cells)
    steps = [(c, n) for c in cells for n in ((c[0] + 1, c[1]), (c[0], c[1] + 1)) if n in in_grid]
    if not steps and not mid_pairs:
        raise ValueError("monotonicity: the grid has no neighbouring cells r < R "
                         "and no midpoint pair to compare")
    if classify_monotonicity(f, grid) != DECREASING:
        return VerifyReport(
            "monotonicity", INCONCLUSIVE, 0.0, 0,
            note="precondition failed: f does not classify as decreasing",
        )
    i, j = np.array(cells).T
    values = integral_mean(f, m, np.take(r_grid, i), np.take(R_grid, j), cfg).value
    means = dict(zip(cells, values.tolist()))
    scale = 1.0 + max(abs(v) for v in means.values())
    slack = 1e-8 * scale
    samples = [(means[n], means[c], (r_grid[n[0]], R_grid[n[1]])) for c, n in steps]
    worst = max((lhs - rhs for lhs, rhs, _ in samples), default=-math.inf)
    witness = None
    ok = worst <= slack
    # Without m' there are no midpoint pairs: the grid comparisons decide alone.
    for r, R in mid_pairs:
        for val in (mean_partial_r(f, m, r, R, cfg), mean_partial_R(f, m, r, R, cfg)):
            if val > worst:
                worst = val
                witness = (r, R)
            if val > slack:
                ok = False
    verdict = HOLDS if ok else VIOLATED
    if not ok and witness is None:
        witness = max(samples, key=lambda s: s[0] - s[1])[2]
    return VerifyReport(
        "monotonicity", verdict, worst, len(samples) + 2 * len(mid_pairs),
        witness=witness if not ok else None,
        details={"grid_pairs": len(means)},
    )


def check_sup_identity(
    f: Function1D,
    m: Measure1D,
    R: float,
    r_grid,
    cfg: QuadratureConfig | None = None,
    grid: GridSpec | None = None,
) -> VerifyReport:
    """sup over r of the mean on [r, R] is the mean on [a, R], attained at r = a.

    Raises ValueError when no grid r has a <= r < R.
    """
    cfg = cfg or QuadratureConfig()
    a = f.domain.a
    rs = sorted(float(r) for r in r_grid if a <= r < R)
    if not rs:
        raise ValueError(f"sup-identity: no grid r has a <= r < R = {R}")
    if classify_monotonicity(f, grid) != DECREASING:
        return VerifyReport(
            "sup-identity", INCONCLUSIVE, 0.0, 0,
            note="precondition failed: f does not classify as decreasing",
        )
    # The mean on [a, R] and on every [r, R]; r = a gets the same value.
    base, *vals = integral_mean(f, m, np.array([a, *rs]), R, cfg).value.tolist()
    worst = max(vals) - base
    slack = slack_budget(base)
    attained_at_smallest = vals[0] >= max(vals) - slack
    ok = worst <= slack and attained_at_smallest
    witness = None if ok else (rs[int(np.argmax(vals))], R)
    note = None if attained_at_smallest else "maximum not attained at the smallest grid r"
    return VerifyReport(
        "sup-identity", HOLDS if ok else VIOLATED, worst, len(vals),
        witness=witness, note=note,
        details={"mean_at_a": base},
    )


def check_majorant_inequality(
    f: Function1D,
    m: Measure1D,
    pair_count: int,
    seed: int,
    cfg: QuadratureConfig | None = None,
    grid: GridSpec | None = None,
    sample_hi: float | None = None,
) -> VerifyReport:
    """mean(r, R; f) <= D(R) for the decreasing majorant mean D, on seeded pairs."""
    cfg = cfg or QuadratureConfig()
    grid = grid or GridSpec()
    maj = decreasing_majorant_mean(f, m, cfg, grid)
    lo = f.domain.a

    def sides(rs, Rs):
        return integral_mean(f, m, rs, Rs, cfg).value, maj.fn.eval(Rs)

    def oracle_sides(r, R):
        env = envelope_function(f, RIGHT, grid)
        lhs = midpoint_stieltjes_oracle(f.eval, m.m, r, R) / (m.m(R) - m.m(r))
        rhs = midpoint_stieltjes_oracle(env.value_at, m.m, lo, R) / (m.m(R) - m.m(lo))
        return lhs, rhs

    return _pair_claim("F1", maj.warnings, m, lo, f.domain.b, sample_hi, pair_count, seed,
                       sides, oracle_sides)


def check_pointwise_mean_bound(
    f: Function1D,
    n: WeightN,
    m: Measure1D,
    pair_count: int,
    seed: int,
    cfg: QuadratureConfig | None = None,
    grid: GridSpec | None = None,
    sample_hi: float | None = None,
) -> VerifyReport:
    """f(R) <= mean(r, R; h) for the weighted double envelope h, on seeded pairs."""
    cfg = cfg or QuadratureConfig()
    grid = grid or GridSpec()
    wde = weighted_double_envelope(f, n, grid)
    h = wde.fn

    def sides(rs, Rs):
        return evaluate(f, Rs), integral_mean(h, m, rs, Rs, cfg).value

    def oracle_sides(r, R):
        return evaluate(f, R), midpoint_stieltjes_oracle(h.eval, m.m, r, R) / (m.m(R) - m.m(r))

    return _pair_claim("AnmA", wde.warnings, m, f.domain.a, f.domain.b, sample_hi,
                       pair_count, seed, sides, oracle_sides)


def check_corollary_bounds(
    Q: Function1D,
    d: Function1D,
    r0: float,
    direction: str,
    pair_count: int,
    seed: int,
    cfg: QuadratureConfig | None = None,
    sample_hi: float | None = None,
) -> VerifyReport:
    """The duality inequalities between integral_r^R Q(x)/x^2 dx and d(R) ln(R/r).

    direction "dQ" checks integral <= d(R) ln(R/r); "Qd" checks the reverse.
    Pairs are drawn uniform in ln x.
    """
    if direction not in ("dQ", "Qd"):
        raise ValueError(f"direction must be 'dQ' or 'Qd', got {direction!r}")
    cfg = cfg or QuadratureConfig()
    dom_b = min(Q.domain.b, d.domain.b)
    lebesgue = identity_measure(r0, dom_b)
    qe = Q.eval
    density = Function1D(
        eval=lambda x: qe(x) / (x * x),
        domain=Q.domain,
        locally_bounded=True,
        breaks=Q.breaks,
    )

    def bound(r, R):
        return evaluate(d, R) * np.log(R / r)

    def ordered(integral, bounds):
        return (integral, bounds) if direction == "dQ" else (bounds, integral)

    def sides(rs, Rs):
        return ordered(stieltjes_integral(density, lebesgue, rs, Rs, cfg).value, bound(rs, Rs))

    def oracle_sides(r, R):
        return ordered(midpoint_stieltjes_oracle(density.eval, lebesgue.m, r, R), bound(r, R))

    return _pair_claim(direction, (), log_measure(r0, dom_b), r0, dom_b, sample_hi,
                       pair_count, seed, sides, oracle_sides)


def estimate_decay(g: Function1D, sched: DecaySchedule) -> VerifyReport:
    """Eventually-nonincreasing samples along the schedule, ending below the threshold."""
    points = sched.points()
    seq = evaluate(g, np.array(points))
    slack = 1e-12 * max(1.0, float(np.max(np.abs(seq))))
    # A sequence still rising at its final step is not eventually nonincreasing.
    diffs = np.append(np.diff(seq[int(np.argmax(seq)):]), seq[-1] - seq[-2])
    worst = float(max(seq[-1] - sched.threshold, diffs.max()))
    ok = bool(np.all(diffs <= slack) and seq[-1] < sched.threshold)
    witness = None if ok else (points[-1],)
    return VerifyReport(
        "decay", HOLDS if ok else VIOLATED, worst, len(seq),
        witness=witness,
        details={"points": points, "sequence": seq.tolist()},
    )


def finite_difference_check(
    f: Function1D,
    m: Measure1D,
    r: float,
    R: float,
    cfg: QuadratureConfig | None = None,
) -> VerifyReport:
    """Analytic partials of the mean against central differences of the mean itself.

    The finite-difference sides run at sharply tightened quadrature tolerances
    so the spec'd step h = 1e-5 (R - r) is not drowned by quadrature noise.
    Within h of a domain end the step shrinks to fit, and that side's noise
    floor grows with it; noise_floor reports the larger of the two floors.
    """
    cfg = cfg or QuadratureConfig()
    if not (f.domain.a < r < R < f.domain.b):
        raise ValueError(f"need a < r < R < b, got r={r}, R={R}")
    fd_cfg = cfg.scaled(1e-4)
    h = 1e-5 * (R - r)

    def A(rr: float, RR: float) -> float:
        return integral_mean(f, m, rr, RR, fd_cfg).value

    analytic_r = mean_partial_r(f, m, r, R, cfg)
    analytic_R = mean_partial_R(f, m, r, R, cfg)
    # Near a domain end both sides of a stencil shrink alike, so it stays
    # centred on r or R.
    hr = min(h, (r - f.domain.a) * (1 - 1e-9))
    hR = min(h, (f.domain.b - R) / 2)
    fd_r = (A(r + hr, R) - A(r - hr, R)) / ((r + hr) - (r - hr))
    fd_R = (A(r, R + hR) - A(r, R - hR)) / ((R + hR) - (R - hR))
    # Cancellation in the difference quotient leaves irreducible noise of
    # order (eps * |A| + atol) / step; below it the two routes cannot be told apart.
    scale = abs(integral_mean(f, m, r, R, cfg).value)
    noise_r, noise_R = (10.0 * (2.0 * 2.3e-16 * scale + 4.0 * fd_cfg.atol) / (2.0 * step)
                        for step in (hr, hR))
    rel_r = abs(analytic_r - fd_r) / max(abs(analytic_r), abs(fd_r), 1e-9)
    rel_R = abs(analytic_R - fd_R) / max(abs(analytic_R), abs(fd_R), 1e-9)
    ok_r = rel_r <= PARTIALS_REL_TOL or abs(analytic_r - fd_r) <= noise_r
    ok_R = rel_R <= PARTIALS_REL_TOL or abs(analytic_R - fd_R) <= noise_R
    worst = max(rel_r if not ok_r else min(rel_r, PARTIALS_REL_TOL),
                rel_R if not ok_R else min(rel_R, PARTIALS_REL_TOL)) - PARTIALS_REL_TOL
    return VerifyReport(
        "partials", HOLDS if ok_r and ok_R else VIOLATED, worst, 2,
        witness=None if ok_r and ok_R else (r, R),
        details={"rel_error_r": rel_r, "rel_error_R": rel_R,
                 "analytic_r": analytic_r, "analytic_R": analytic_R,
                 "noise_floor": max(noise_r, noise_R)},
    )
