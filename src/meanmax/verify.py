"""Numerical verification of the monotonicity, inequality, and limit claims.

Each check evaluates both sides of a claim through the quadrature/envelope
machinery, accounts slack as max(LHS - RHS) over its samples against the
budget 1e-8 * (1 + |RHS|), and reports holds / violated / inconclusive.
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

from .func1d import (
    DECREASING,
    RIGHT,
    Function1D,
    GridSpec,
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


def _fmt(x: float) -> str:
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
        parts = [self.property_id, self.verdict, f"worst_slack={_fmt(self.worst_slack)}",
                 f"samples={self.samples_used}"]
        if self.witness is not None:
            parts.append("witness=" + ",".join(_fmt(v) for v in self.witness))
        if self.note:
            parts.append(f"note={self.note!r}")
        return " ".join(parts)

    def to_kv(self) -> str:
        lines = [
            f"property: {self.property_id}",
            f"verdict: {self.verdict}",
            f"worst_slack: {_fmt(self.worst_slack)}",
            f"samples_used: {self.samples_used}",
        ]
        if self.witness is not None:
            lines.append("witness: " + " ".join(_fmt(v) for v in self.witness))
        if self.note:
            lines.append(f"note: {self.note}")
        for key in sorted(self.details):
            val = self.details[key]
            if isinstance(val, (list, tuple, np.ndarray)):
                rendered = " ".join(_fmt(float(v)) for v in val)
            elif isinstance(val, float):
                rendered = _fmt(val)
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
        if self.ratio <= 1:
            raise ValueError("ratio must exceed 1")
        if self.steps < 3:
            raise ValueError("need at least 3 steps")

    def points(self) -> list[float]:
        return [self.start * self.ratio**k for k in range(self.steps)]


def midpoint_stieltjes_oracle(g_eval, m_eval, r: float, R: float,
                              panels: int = ORACLE_PANELS) -> float:
    """Fixed-panel midpoint Riemann-Stieltjes sum, the independent brute-force route."""
    from .func1d import batch_eval

    ts = np.linspace(r, R, panels + 1)
    mids = 0.5 * (ts[:-1] + ts[1:])
    gs = batch_eval(g_eval, mids)
    ms = batch_eval(m_eval, ts)
    return float(np.sum(gs * np.diff(ms)))


def _m_coordinate_sampler(m: Measure1D, lo: float, hi: float, nodes: int = 2049):
    """Approximate inverse of m on [lo, hi] for sampling uniform in m-coordinates."""
    if lo > 0 and hi / lo > 100.0:
        xs = np.geomspace(lo, hi, nodes)
    else:
        xs = np.linspace(lo, hi, nodes)
    xs[0], xs[-1] = lo, hi
    ms = np.array([m.m(float(x)) for x in xs])

    def invert(u: float) -> float:
        return float(np.interp(u, ms, xs))

    return invert, float(ms[0]), float(ms[-1])


def _sample_pairs(m: Measure1D, lo: float, hi: float, count: int, seed: int,
                  min_sep: float = 1e-4):
    """Seeded (r, R) pairs with r < R, drawn uniform in m-coordinates."""
    invert, u_lo, u_hi = _m_coordinate_sampler(m, lo, hi)
    rng = random.Random(seed)
    span = u_hi - u_lo
    pairs = []
    while len(pairs) < count:
        u1 = u_lo + span * rng.random()
        u2 = u_lo + span * rng.random()
        if u2 < u1:
            u1, u2 = u2, u1
        if u2 - u1 < min_sep * span:
            continue
        pairs.append((invert(u1), invert(u2)))
    return pairs


def _inequality_verdict(property_id: str, samples, recheck=None) -> VerifyReport:
    """Aggregate (lhs, rhs, witness) triples into a report for LHS <= RHS claims."""
    if not samples:
        return VerifyReport(property_id, INCONCLUSIVE, 0.0, 0, note="no samples")
    worst = -math.inf
    worst_witness = None
    violated = False
    for lhs, rhs, witness in samples:
        gap = lhs - rhs
        if gap > worst:
            worst = gap
            worst_witness = witness
        if gap > slack_budget(rhs):
            violated = True
    count = len(samples)
    if not violated:
        return VerifyReport(property_id, HOLDS, worst, count, witness=worst_witness)
    if recheck is not None:
        confirmed = recheck(worst_witness)
        if not confirmed:
            return VerifyReport(
                property_id, INCONCLUSIVE, worst, count, witness=worst_witness,
                note="adaptive route signalled a violation the brute-force oracle does not confirm",
            )
    return VerifyReport(property_id, VIOLATED, worst, count, witness=worst_witness)


def check_mean_monotonicity(
    f: Function1D,
    m: Measure1D,
    r_grid,
    R_grid,
    cfg: QuadratureConfig | None = None,
    grid: GridSpec | None = None,
) -> VerifyReport:
    """For decreasing f the mean is nonincreasing in r and in R; partials are <= 0."""
    cfg = cfg or QuadratureConfig()
    if classify_monotonicity(f, grid) != DECREASING:
        return VerifyReport(
            "monotonicity", INCONCLUSIVE, 0.0, 0,
            note="precondition failed: f does not classify as decreasing",
        )
    r_grid = sorted(float(r) for r in r_grid)
    R_grid = sorted(float(R) for R in R_grid)
    means: dict[tuple[int, int], float] = {}
    for i, r in enumerate(r_grid):
        for j, R in enumerate(R_grid):
            if r < R:
                means[i, j] = integral_mean(f, m, r, R, cfg).value
    scale = 1.0 + max(abs(v) for v in means.values())
    slack = 1e-8 * scale
    samples = []
    for (i, j), val in means.items():
        if (i + 1, j) in means:
            samples.append((means[i + 1, j], val, (r_grid[i + 1], R_grid[j])))
        if (i, j + 1) in means:
            samples.append((means[i, j + 1], val, (r_grid[i], R_grid[j + 1])))
    worst = max((lhs - rhs for lhs, rhs, _ in samples), default=-math.inf)
    witness = None
    ok = worst <= slack
    # Sign of the analytic partials at midpoints of consecutive grid cells,
    # which need m'; without it the grid comparisons decide alone.
    r_mids = []
    if m.m_prime is not None:
        r_mids = [0.5 * (u + v) for u, v in zip(r_grid[:-1], r_grid[1:])]
    R_mids = [0.5 * (u + v) for u, v in zip(R_grid[:-1], R_grid[1:])]
    partial_count = 0
    for r in r_mids:
        for R in R_mids:
            if r >= R or r <= f.domain.a:
                continue
            dr = mean_partial_r(f, m, r, R, cfg)
            dR = mean_partial_R(f, m, r, R, cfg)
            partial_count += 2
            for val in (dr, dR):
                if val > worst:
                    worst = val
                    witness = (r, R)
                if val > slack:
                    ok = False
    verdict = HOLDS if ok else VIOLATED
    if not ok and witness is None:
        witness = max(samples, key=lambda s: s[0] - s[1])[2]
    return VerifyReport(
        "monotonicity", verdict, worst, len(samples) + partial_count,
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
    """sup over r of the mean on [r, R] is the mean on [a, R], attained at r = a."""
    cfg = cfg or QuadratureConfig()
    if classify_monotonicity(f, grid) != DECREASING:
        return VerifyReport(
            "sup-identity", INCONCLUSIVE, 0.0, 0,
            note="precondition failed: f does not classify as decreasing",
        )
    a = f.domain.a
    base = integral_mean(f, m, a, R, cfg).value
    rs = sorted(float(r) for r in r_grid if a <= r < R)
    vals = [base if r == a else integral_mean(f, m, r, R, cfg).value for r in rs]
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
    if maj.warnings:
        return VerifyReport(
            "F1", INCONCLUSIVE, 0.0, 0,
            note="hypothesis failure: " + "; ".join(maj.warnings),
        )
    lo = f.domain.a
    hi = sample_hi if sample_hi is not None else f.domain.b
    if math.isinf(hi):
        return VerifyReport(
            "F1", INCONCLUSIVE, 0.0, 0,
            note="unbounded domain: pass sample_hi to bound the sampled pairs",
        )
    hi = min(hi, f.domain.b) - (hi - lo) * 1e-9
    pairs = _sample_pairs(m, lo, hi, pair_count, seed)
    samples = []
    for r, R in pairs:
        lhs = integral_mean(f, m, r, R, cfg).value
        rhs = maj.fn(R)
        samples.append((lhs, rhs, (r, R)))

    def recheck(witness):
        r, R = witness
        env = envelope_function(f, RIGHT, grid)
        dm_rR = m.m(R) - m.m(r)
        dm_aR = m.m(R) - m.m(lo)
        lhs = midpoint_stieltjes_oracle(f.eval, m.m, r, R) / dm_rR
        rhs = midpoint_stieltjes_oracle(env.value_at, m.m, lo, R) / dm_aR
        return lhs - rhs > slack_budget(rhs)

    return _inequality_verdict("F1", samples, recheck)


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
    if wde.warnings:
        return VerifyReport(
            "AnmA", INCONCLUSIVE, 0.0, 0,
            note="hypothesis failure: " + "; ".join(wde.warnings),
        )
    lo = f.domain.a
    hi = sample_hi if sample_hi is not None else f.domain.b
    if math.isinf(hi):
        return VerifyReport(
            "AnmA", INCONCLUSIVE, 0.0, 0,
            note="unbounded domain: pass sample_hi to bound the sampled pairs",
        )
    hi = min(hi, f.domain.b) - (hi - lo) * 1e-9
    pairs = _sample_pairs(m, lo, hi, pair_count, seed)
    h = wde.fn
    samples = []
    for r, R in pairs:
        lhs = evaluate(f, R)
        rhs = integral_mean(h, m, r, R, cfg).value
        samples.append((lhs, rhs, (r, R)))

    def recheck(witness):
        r, R = witness
        dm = m.m(R) - m.m(r)
        rhs = midpoint_stieltjes_oracle(h.eval, m.m, r, R) / dm
        lhs = evaluate(f, R)
        return lhs - rhs > slack_budget(rhs)

    return _inequality_verdict("AnmA", samples, recheck)


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
    """
    if direction not in ("dQ", "Qd"):
        raise ValueError(f"direction must be 'dQ' or 'Qd', got {direction!r}")
    cfg = cfg or QuadratureConfig()
    hi = sample_hi if sample_hi is not None else min(Q.domain.b, d.domain.b)
    if math.isinf(hi):
        return VerifyReport(
            direction, INCONCLUSIVE, 0.0, 0,
            note="unbounded domain: pass sample_hi to bound the sampled pairs",
        )
    dom_b = min(Q.domain.b, d.domain.b)
    if math.isfinite(dom_b):
        hi = min(hi, dom_b - (dom_b - r0) * 1e-9)
    lebesgue = identity_measure(r0, dom_b)
    qe = Q.eval
    density = Function1D(
        eval=lambda x: qe(x) / (x * x),
        domain=Q.domain,
        locally_bounded=True,
    )
    pairs = _sample_pairs(log_measure(r0, dom_b), r0, hi, pair_count, seed)
    samples = []
    for r, R in pairs:
        integral = _plain_integral(density, lebesgue, r, R, cfg)
        bound = evaluate(d, R) * math.log(R / r)
        if direction == "dQ":
            samples.append((integral, bound, (r, R)))
        else:
            samples.append((bound, integral, (r, R)))

    def recheck(witness):
        r, R = witness
        integral = midpoint_stieltjes_oracle(density.eval, lebesgue.m, r, R)
        bound = evaluate(d, R) * math.log(R / r)
        lhs, rhs = (integral, bound) if direction == "dQ" else (bound, integral)
        return lhs - rhs > slack_budget(rhs)

    return _inequality_verdict(direction, samples, recheck)


def _plain_integral(g: Function1D, m: Measure1D, r: float, R: float,
                    cfg: QuadratureConfig) -> float:
    return stieltjes_integral(g, m, r, R, cfg).value


def estimate_decay(g: Function1D, sched: DecaySchedule) -> VerifyReport:
    """Eventually-nonincreasing samples along the schedule, ending below the threshold."""
    points = sched.points()
    seq = [evaluate(g, x) for x in points]
    scale = max(1.0, max(abs(v) for v in seq))
    slack = 1e-12 * scale
    k_star = int(np.argmax(seq))
    diffs = [b - a for a, b in zip(seq[k_star:-1], seq[k_star + 1 :])]
    # A sequence still rising at its final step is not eventually nonincreasing.
    diffs.append(seq[-1] - seq[-2])
    worst = max([seq[-1] - sched.threshold] + diffs)
    ok = all(dv <= slack for dv in diffs) and seq[-1] < sched.threshold
    witness = None if ok else (points[-1],)
    return VerifyReport(
        "decay", HOLDS if ok else VIOLATED, worst, len(seq),
        witness=witness,
        details={"points": points, "sequence": seq},
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
    lo_r = max(r - h, f.domain.a + (r - f.domain.a) * 1e-9)
    hi_R = R + h
    if hi_R >= f.domain.b:
        hi_R = R + (f.domain.b - R) * 0.5
    fd_r = (A(r + h, R) - A(lo_r, R)) / (r + h - lo_r)
    fd_R = (A(r, hi_R) - A(r, R - h)) / (hi_R - (R - h))
    # Cancellation in the difference quotient leaves irreducible noise of
    # order (eps * |A| + atol) / h; below it the two routes cannot be told apart.
    scale = abs(integral_mean(f, m, r, R, cfg).value)
    noise = 10.0 * (2.0 * 2.3e-16 * scale + 4.0 * fd_cfg.atol) / (2.0 * h)
    rel_r = abs(analytic_r - fd_r) / max(abs(analytic_r), abs(fd_r), 1e-9)
    rel_R = abs(analytic_R - fd_R) / max(abs(analytic_R), abs(fd_R), 1e-9)
    ok_r = rel_r <= PARTIALS_REL_TOL or abs(analytic_r - fd_r) <= noise
    ok_R = rel_R <= PARTIALS_REL_TOL or abs(analytic_R - fd_R) <= noise
    worst = max(rel_r if not ok_r else min(rel_r, PARTIALS_REL_TOL),
                rel_R if not ok_R else min(rel_R, PARTIALS_REL_TOL)) - PARTIALS_REL_TOL
    return VerifyReport(
        "partials", HOLDS if ok_r and ok_R else VIOLATED, worst, 2,
        witness=None if ok_r and ok_R else (r, R),
        details={"rel_error_r": rel_r, "rel_error_R": rel_R,
                 "analytic_r": analytic_r, "analytic_R": analytic_R,
                 "noise_floor": noise},
    )
