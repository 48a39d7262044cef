import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanmax.errors import (
    DegenerateIntervalError,
    MissingDerivativeError,
    NonFiniteValueError,
    QuadratureError,
)
from meanmax.func1d import GEOMETRIC_RATIO, Domain, Function1D
from meanmax.stieltjes import (
    BASE_PANELS,
    CUT_POINTS,
    END_WEIGHT,
    GAUSS_DIFF,
    GAUSS_WEIGHTS,
    INNER_WEIGHTS,
    KRONROD_DIFF,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    POINT_BUDGET,
    Measure1D,
    QuadratureConfig,
    identity_measure,
    integral_mean,
    log_measure,
    mean_partial_R,
    mean_partial_r,
    measure_weight,
    segment_integrals,
    stieltjes_integral,
)

from oracles import midpoint_stieltjes, table_log_integral


def fn(fun, a, b):
    return Function1D(eval=fun, domain=Domain(a, b))


ONE = fn(lambda x: 1.0 + 0 * x, 0.0, math.inf)
INV = fn(lambda x: 1 / x, 0.5, math.inf)
IDENT = fn(lambda x: x, 0.0, math.inf)
NEG = fn(lambda x: -x, 0.0, math.inf)
EXP = fn(lambda x: np.exp(-x), 0.0, math.inf)

M_LN = log_measure(0.5)
M_SQ = Measure1D(m=lambda x: x * x, m_prime=lambda x: 2 * x, domain=Domain(0.0, math.inf))
M_ID = identity_measure(0.0)

# the smooth suite with closed-form values
SMOOTH_SUITE = [
    (ONE, M_LN, 1.0, math.e, 1.0),
    (IDENT, M_SQ, 0.0, 1.0, 2.0 / 3.0),
    (INV, M_LN, 1.0, 4.0, 0.75),
]


class TestStieltjesIntegral:
    @pytest.mark.parametrize("g,m,r,R,want", SMOOTH_SUITE)
    def test_closed_forms(self, g, m, r, R, want):
        got = stieltjes_integral(g, m, r, R)
        assert got.value == pytest.approx(want, rel=1e-9)
        assert got.est_error <= max(1e-10, 1e-9 * abs(got.value)) * 16

    @pytest.mark.parametrize("g,m,r,R,want", SMOOTH_SUITE)
    def test_oracle_equivalence(self, g, m, r, R, want):
        oracle = midpoint_stieltjes(g.eval, m.m, r, R)
        got = stieltjes_integral(g, m, r, R).value
        assert got == pytest.approx(oracle, rel=1e-7)

    def test_derivative_from_values_matches_the_given_one(self):
        m_plain = Measure1D(m=math.log, domain=Domain(0.5, math.inf))
        with_dm = stieltjes_integral(INV, M_LN, 1.0, 4.0).value
        without = stieltjes_integral(INV, m_plain, 1.0, 4.0).value
        assert without == pytest.approx(with_dm, rel=1e-8)

    def test_wide_interval_log_substitution(self):
        # integral of x^-2 dx over [1, 1e6] = 1 - 1e-6
        g = fn(lambda x: 1 / (x * x), 0.5, math.inf)
        got = stieltjes_integral(g, identity_measure(0.5), 1.0, 1e6)
        assert got.value == pytest.approx(1.0 - 1e-6, rel=1e-9)

    def test_reversed_interval(self):
        with pytest.raises(DegenerateIntervalError):
            stieltjes_integral(ONE, M_LN, 2.0, 2.0)

    def test_non_finite_integrand(self):
        g = fn(lambda x: 1 / (x - 1.0), 0.5, math.inf)
        with pytest.raises(NonFiniteValueError):
            stieltjes_integral(g, M_LN, 1.0, 4.0)

    def test_non_convergence(self):
        # 5e6 periods: resolving them takes millions of pieces, far past the budget
        points = []
        wild = fn(counted(lambda x: np.sin(1e7 * x), points), 0.0, math.inf)
        with pytest.raises(QuadratureError, match="budget"):
            stieltjes_integral(wild, M_ID, 0.0, 1.0)
        assert sum(points) <= POINT_BUDGET

    def test_additivity(self):
        whole = stieltjes_integral(EXP, M_ID, 0.0, 3.0)
        tol = 2 * max(1e-10, 1e-9 * abs(whole.value))
        for s in (0.1, 1.0, 2.9):
            left = stieltjes_integral(EXP, M_ID, 0.0, s).value
            right = stieltjes_integral(EXP, M_ID, s, 3.0).value
            assert left + right == pytest.approx(whole.value, abs=tol)


def counted(fun, points):
    """fun, appending the number of points of each call that returned."""
    def wrapped(x):
        y = fun(x)
        points.append(np.size(x))
        return y
    return wrapped


def seen(fun, xs):
    """fun, appending every point it is called at."""
    def wrapped(x):
        xs.extend(np.atleast_1d(x).tolist())
        return fun(x)
    return wrapped


# x^-0.9 interpolated linearly on 40 geometric nodes over [1, 50]: a kink at
# every node.
TABLE_XS = np.geomspace(1.0, 50.0, 40)
TABLE_YS = TABLE_XS**-0.9
KINKED = fn(lambda x: np.interp(x, TABLE_XS, TABLE_YS), 1.0, 50.0)
TABULATED_LN = Measure1D(m=lambda x: np.interp(x, TABLE_XS, np.log(TABLE_XS)),
                         domain=Domain(1.0, 50.0))
# The same table and measure, declaring their nodes as breaks, as the CLI's
# CSV sources and measures do.
TABLE = Function1D(eval=KINKED.eval, domain=KINKED.domain, breaks=TABLE_XS)
TABLE_LN = Measure1D(m=TABULATED_LN.m, domain=TABULATED_LN.domain, breaks=TABLE_XS)


class TestKronrodRule:
    def test_kronrod_exact_to_degree_22(self):
        for k in range(23):
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(KRONROD_WEIGHTS @ KRONROD_NODES**k - want) <= 1e-15

    def test_gauss_nodes_are_legendre_7(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert KRONROD_NODES[1::2] == pytest.approx(nodes, abs=1e-15)
        assert GAUSS_WEIGHTS[1::2] == pytest.approx(weights, abs=1e-15)
        assert not GAUSS_WEIGHTS[::2].any()

    def test_end_rule_exact_to_degree_15(self):
        for k in range(16):
            want = 0.0 if k % 2 else 2.0 / (k + 1)
            got = INNER_WEIGHTS @ KRONROD_NODES**k + END_WEIGHT * ((-1.0) ** k + 1.0)
            assert abs(got - want) <= 1e-15
        assert END_WEIGHT > 0 and np.all(INNER_WEIGHTS[1:-1] > 0)
        assert INNER_WEIGHTS[0] == INNER_WEIGHTS[-1] == 0.0

    @pytest.mark.parametrize("diff,nodes", [(KRONROD_DIFF, KRONROD_NODES),
                                            (GAUSS_DIFF, KRONROD_NODES[1::2])],
                             ids=["17-point", "9-point"])
    def test_differentiation_matrix(self, diff, nodes):
        # On the ends of [-1, 1] and the rule's nodes: exact on every
        # polynomial the points determine, up to rounding of the matrix's size.
        t = np.concatenate([[-1.0], nodes, [1.0]])
        rounding = 4 * np.finfo(float).eps * np.abs(diff).sum(axis=1).max()
        for k in range(len(t)):
            want = k * t ** max(k - 1, 0)
            assert np.abs(diff @ t**k - want).max() <= rounding
        assert np.abs(diff.sum(axis=1)).max() <= rounding


class TestEvaluationBudget:
    def test_smooth_segment_reads_its_ends_and_15_points(self):
        # G7 is exact on x^2, so the first estimate is accepted
        points = []
        got = stieltjes_integral(fn(counted(lambda x: x * x, points), 0.0, math.inf),
                                 M_ID, 0.0, 1.0)
        assert points == [17]
        assert got.panels_used == 1
        assert got.value == pytest.approx(1 / 3, rel=1e-15)

    # A level reads 15 points for each piece it estimates, the first also the
    # n0 + 1 cuts of the n0 starting pieces.  Bisecting pieces from n0
    # starting ones to A accepted ones estimates 2A - n0 pieces.
    @pytest.mark.parametrize("source,m,r,R", [
        (lambda x: np.exp(-x), M_ID, 0.0, 3.0),
        (lambda x: 1 / x, M_LN, 1.0, 4.0),
        (lambda x: math.exp(-x), M_ID, 0.5, 3.0),
        (math.exp, identity_measure(0.0), 0.5, 3.0),
        (lambda x: 1 / (x * x), identity_measure(0.5), 1.0, 1e6),
        (lambda x: 1.0 / float(x), log_measure(1.0), 1.0, 1e4),
        (KINKED.eval, log_measure(1.0, 50.0), 1.5, 20.0),
    ], ids=["numpy", "numpy-ln", "math", "math.exp", "wide-log", "scalar-inverse-ln", "kinked"])
    def test_reads_15_points_per_piece(self, source, m, r, R):
        points = []
        got = stieltjes_integral(fn(counted(source, points), r, math.inf), m, r, R)
        start = BASE_PANELS if 0 < r and GEOMETRIC_RATIO * r < R else 1
        assert sum(points) == start + 1 + 15 * (2 * got.panels_used - start)
        assert (points[0] == start + 1 + 15 * start and all(p % 15 == 0 for p in points[1:])
                or set(points) == {1})

    # Without a derivative, m is read once at each cut and at the 15 Kronrod
    # nodes of every piece estimated, never twice at one point: the count of g.
    @pytest.mark.parametrize("m,r,R", [
        (Measure1D(m=np.log, domain=Domain(0.5, math.inf)), 1.0, 4.0),
        (TABULATED_LN, 1.5, 20.0),
        (TABULATED_LN, 1.0, 49.0),
    ], ids=["ln", "tabulated", "tabulated-wide"])
    def test_measure_read_at_cuts_and_nodes(self, m, r, R):
        xs = []
        got = stieltjes_integral(INV, Measure1D(m=seen(m.m, xs), domain=m.domain), r, R)
        start = BASE_PANELS if GEOMETRIC_RATIO * r < R else 1
        assert len(xs) == len(set(xs)) == start + 1 + 15 * (2 * got.panels_used - start)


class TestNoConvergence:
    def test_jump_exhausts_the_local_halvings(self):
        # A jump inside [0, 1] keeps its piece's error at the jump's size.
        jump = fn(lambda x: np.where(x > 0.3, 1.0, 0.0), 0.0, 2.0)
        with pytest.raises(QuadratureError, match=r"^no convergence after 52 local halvings "
                                                  r"\(1 pieces left, first at x=0\.2999"):
            stieltjes_integral(jump, identity_measure(0.0, 2.0), 0.0, 1.0)


class TestKinkedTable:
    # The table's kinks sit at its nodes, inside [r, R]: each piece of the
    # bisection that holds one converges only linearly.
    @pytest.mark.parametrize("r,R", [(1.5, 20.0), (3.0, 45.0)])
    def test_within_tolerance_of_closed_form(self, r, R):
        want = table_log_integral(TABLE_XS, TABLE_YS, r, R)
        got = stieltjes_integral(KINKED, log_measure(1.0, 50.0), r, R).value
        assert abs(got - want) <= max(1e-10, 1e-9 * abs(want))


class TestBreaks:
    # Cut at its rows, every gap of a table is smooth and G7/K15 accepts it
    # at the first level: its ends once, then 15 points a gap.
    @pytest.mark.parametrize("r,R", [(1.5, 20.0), (3.0, 45.0), (TABLE_XS[5], TABLE_XS[30])],
                             ids=["1.5-20", "3-45", "rows"])
    def test_table_source_cut_at_its_rows(self, r, R):
        points, bisected = [], []
        m = log_measure(1.0, 50.0)
        got = stieltjes_integral(Function1D(eval=counted(TABLE.eval, points),
                                            domain=TABLE.domain, breaks=TABLE_XS), m, r, R)
        stieltjes_integral(fn(counted(KINKED.eval, bisected), 1.0, 50.0), m, r, R)
        want = table_log_integral(TABLE_XS, TABLE_YS, r, R)
        assert abs(got.value - want) <= max(1e-10, 1e-9 * abs(want))
        gaps = int(np.sum((TABLE_XS > r) & (TABLE_XS < R))) + 1
        assert got.panels_used == gaps and sum(points) == gaps + 1 + 15 * gaps
        assert sum(points) < sum(bisected) / 10

    @pytest.mark.parametrize("rows", [257, 10_000])
    def test_table_measure_takes_kronrod_times_the_slope(self, rows):
        # x^-1.25 against ln x tabulated on geometric rows: on each gap the
        # measure's slope times the integral of x^-1.25 dx.  Cut at its rows,
        # m is linear on every piece, so the derivative of its interpolant is
        # that slope.  Every gap is accepted at the first level, 16 points a
        # gap: 4,001 points for 257 rows.
        xs = np.geomspace(1.0, 50.0, rows)
        xs[-1] = 50.0
        ms = np.log(xs)
        m = Measure1D(m=lambda x: np.interp(x, xs, ms), domain=Domain(1.0, 50.0), breaks=xs)
        r, R = 1.0, 45.0
        lo, hi = np.clip(xs[:-1], r, R), np.clip(xs[1:], r, R)
        slope = np.diff(ms) / np.diff(xs)
        want = math.fsum(slope * (lo**-0.25 - hi**-0.25) / 0.25) / (np.interp(R, xs, ms) - ms[0])
        points = []
        got = integral_mean(fn(counted(lambda x: x**-1.25, points), 1.0, 50.0), m, r, R)
        assert abs(got.value - want) <= 1e-12 * want
        gaps = int(np.sum((xs > r) & (xs < R))) + 1
        assert sum(points) == CUT_POINTS * gaps + 1
        assert rows > 257 or sum(points) <= 5000

    def test_many_segments_keep_the_table_path(self):
        # 9,000 intervals, one segment each, on the 40-row table measure: the
        # rows add one cut each, however many segments the call holds, so
        # every piece is linear in m, is accepted at once and meets the closed
        # form, up to the rounding of m(hi) - m(lo) on a narrow piece.
        grid = np.geomspace(1.0, 49.0, 9001)
        r, R = grid[:-1], grid[1:]
        points = []
        got = stieltjes_integral(fn(counted(lambda x: 1 / x, points), 1.0, 50.0),
                                 TABLE_LN, r, R)
        slope = np.diff(np.log(TABLE_XS)) / np.diff(TABLE_XS)
        k = np.searchsorted(TABLE_XS, r, side="right") - 1
        row = np.minimum(TABLE_XS[k + 1], R)
        tail = np.log(R / row) * slope[np.minimum(k + 1, len(slope) - 1)]
        want = slope[k] * np.log(row / r) + tail
        assert np.all(np.abs(got.value - want) <= 1e-11 * want)
        assert got.panels_used == len(r) + int(np.sum((TABLE_XS > 1.0) & (TABLE_XS < 49.0)))
        assert sum(points) == got.panels_used + 1 + 15 * got.panels_used

    def test_cuts_past_the_budget_are_dropped(self):
        # Cut at each of 160,001 rows, a table would spend more than
        # POINT_BUDGET on the cuts alone: the call refines as if no row were
        # declared.
        xs = np.geomspace(1.0, 50.0, 160_001)
        assert CUT_POINTS * np.sum((xs > 1.5) & (xs < 45.0)) > POINT_BUDGET
        dom, ln = Domain(1.0, 50.0), log_measure(1.0, 50.0)
        source = lambda x: np.interp(x, xs, xs**-0.9)  # noqa: E731
        weight = lambda x: np.interp(x, xs, np.log(xs))  # noqa: E731
        power = fn(lambda x: x**-1.25, 1.0, 50.0)
        for (g, m), (g0, m0) in [
            ((Function1D(eval=source, domain=dom, breaks=xs), ln), (fn(source, 1.0, 50.0), ln)),
            ((power, Measure1D(m=weight, domain=dom, breaks=xs)),
             (power, Measure1D(m=weight, domain=dom))),
        ]:
            got, want = stieltjes_integral(g, m, 1.5, 45.0), stieltjes_integral(g0, m0, 1.5, 45.0)
            assert (got.value, got.panels_used) == (want.value, want.panels_used)

    def test_empty_breaks_are_no_breaks(self):
        g = Function1D(eval=lambda x: 1 / x, domain=Domain(1.0, 50.0), breaks=TABLE_XS)
        got, want = (stieltjes_integral(g, Measure1D(m=np.log, domain=Domain(1.0, 50.0),
                                                     breaks=breaks), 1.5, 20.0)
                     for breaks in (np.array([]), None))
        assert (got.value, got.est_error, got.panels_used) == (
            want.value, want.est_error, want.panels_used)
        assert got.value == pytest.approx(1 / 1.5 - 1 / 20.0, rel=1e-9)

    def test_table_measure_partials_still_need_a_derivative(self):
        with pytest.raises(MissingDerivativeError):
            mean_partial_r(KINKED, TABLE_LN, 2.0, 10.0)

    def test_partials_cut_at_the_source_rows(self):
        r, R = 2.0, 10.0
        m, L = log_measure(1.0, 50.0), math.log(R / r)
        integral = table_log_integral(TABLE_XS, TABLE_YS, r, R)
        f_r, f_R = np.interp([r, R], TABLE_XS, TABLE_YS)
        points = []
        source = Function1D(eval=counted(TABLE.eval, points), domain=TABLE.domain,
                            breaks=TABLE_XS)
        got = mean_partial_r(source, m, r, R)
        assert got == pytest.approx((integral - f_r * L) / (r * L * L), rel=1e-8)
        gaps = int(np.sum((TABLE_XS > r) & (TABLE_XS < R))) + 1
        assert sum(points) == 1 + gaps + 1 + 15 * gaps  # f(r), then one level
        assert mean_partial_R(source, m, r, R) == pytest.approx(
            (f_R * L - integral) / (R * L * L), rel=1e-8)


def damped(x):
    return np.exp(-0.1 * x) * (2 + np.sin(x))


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def damped_against_table(xs, slopes, r, R):
    """integral_r^R damped dm for m linear with the given slopes between the rows xs."""
    lo, hi = np.clip(xs[:-1], r, R), np.clip(xs[1:], r, R)
    half, mid = (hi - lo) / 2, (hi + lo) / 2
    return math.fsum(slopes * half * (damped(mid[:, None] + half[:, None] * GL_NODES)
                                      @ GL_WEIGHTS))


class TestMeasureWithoutDerivative:
    def test_smooth_measure_without_breaks(self):
        # ln x, passed with no derivative and no breaks: m' from m's values.
        points = []
        got = stieltjes_integral(fn(counted(lambda x: x**-1.25, points), 1.0, 50.0),
                                 Measure1D(m=np.log, domain=Domain(1.0, 50.0)), 1.0, 45.0)
        want = (1 - 45.0**-1.25) / 1.25
        assert abs(got.value - want) <= 1e-12 * want
        assert sum(points) < 1000

    def random_tables(self, cfg, declared):
        # np.interp on random rows with random slopes, spanning four orders
        # of magnitude: every row is a kink.  Undeclared, each lies inside
        # some piece; declared as breaks, the pieces are cut at them.  On a
        # gap of small slope late in the table, m(hi) - m(lo) is a few
        # rounding units of m, which bounds what any rule can read from m's
        # values.
        g = fn(damped, 1.0, 50.0)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            xs = np.concatenate([[1.0], np.sort(rng.uniform(1.0, 50.0, rng.integers(1, 30))),
                                 [50.0]])
            slopes = rng.lognormal(0.0, 1.5, len(xs) - 1)
            ms = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
            m = Measure1D(m=lambda x: np.interp(x, xs, ms), domain=Domain(1.0, 50.0),
                          breaks=xs if declared else None)
            r = rng.uniform(1.0, 25.0)
            R = rng.uniform(r + 1.0, 49.9)
            want = damped_against_table(xs, slopes, r, R)
            got = stieltjes_integral(g, m, r, R, cfg).value
            assert abs(got - want) <= max(cfg.atol, cfg.rtol * abs(want)), seed

    @pytest.mark.parametrize("cfg", [QuadratureConfig(), QuadratureConfig(rtol=1e-12)],
                             ids=["default", "tight"])
    def test_random_tables_with_undeclared_kinks(self, cfg):
        self.random_tables(cfg, declared=False)

    @pytest.mark.parametrize("cfg", [QuadratureConfig(), QuadratureConfig(rtol=1e-12)],
                             ids=["default", "tight"])
    def test_random_tables_with_declared_kinks(self, cfg):
        self.random_tables(cfg, declared=True)

    def jump(self, breaks):
        # x + 3 [x >= 7.3]: the jump adds 3 g(7.3) to the integral.
        points = []
        m = Measure1D(m=lambda x: x + 3.0 * (x >= 7.3), domain=Domain(0.0, 50.0), breaks=breaks)
        got = stieltjes_integral(fn(counted(lambda x: np.exp(-0.1 * x), points), 0.0, 50.0),
                                 m, 2.0, 20.0)
        want = 10 * (math.exp(-0.2) - math.exp(-2.0)) + 3 * math.exp(-0.73)
        assert abs(got.value - want) <= 1e-9 * want
        assert sum(points) < 2000

    def test_measure_with_a_jump(self):
        self.jump(breaks=None)

    def test_measure_with_a_declared_jump(self):
        self.jump(breaks=np.array([7.3]))


class TestEndPeak:
    # The mass of exp(-1000 x) lies within 0.005 of x = 0, nearer the end of
    # [0, 10] than any Kronrod node, where both K15 and G7 read ~0.
    @pytest.mark.parametrize("peak", [lambda x: np.exp(-1000 * x),
                                      lambda x: np.exp(1000 * (x - 10))], ids=["left", "right"])
    def test_peak_at_an_end(self, peak):
        got = stieltjes_integral(fn(peak, 0.0, math.inf), M_ID, 0.0, 10.0).value
        want = -math.expm1(-1e4) / 1000
        assert abs(got - want) <= max(1e-10, 1e-9 * want)


class TestSegmentIntegrals:
    def per_segment(self, pieces, count):
        return np.bincount(pieces.origin, pieces.value, minlength=count)

    def test_closed_forms_both_paths(self):
        lo, hi = np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 4.0])
        want = (hi**3 - lo**3) / 3
        plain = Measure1D(m=lambda x: x, domain=Domain(0.0, 5.0))
        for m in (identity_measure(0.0), plain):
            pieces = segment_integrals(lambda x: x**2, m, lo, hi)
            assert self.per_segment(pieces, 3) == pytest.approx(want, rel=1e-9)
            assert np.all(np.diff(pieces.lo) > 0)

    def test_wide_segment(self):
        pieces = segment_integrals(lambda x: 1 / x, log_measure(1.0), [1.0], [1e25])
        assert pieces.value.sum() == pytest.approx(1 - 1e-25, rel=1e-9)

    def test_cut_at_breaks_strictly_inside(self):
        # Overlapping and nested segments, a break on an end, breaks of g and
        # of the measure: no piece straddles one.
        lo, hi = np.array([0.0, 0.5, 2.5, 1.0]), np.array([1.0, 3.0, 2.75, 4.0])
        knots = np.array([0.5, 2.0, 3.5])
        m = Measure1D(m=lambda x: x, m_prime=lambda x: 1.0 + 0 * x, domain=Domain(0.0, 5.0),
                      breaks=np.array([1.5, 2.0]))
        pieces = segment_integrals(lambda x: x**2, m, lo, hi, breaks=knots)
        assert self.per_segment(pieces, 4) == pytest.approx((hi**3 - lo**3) / 3, rel=1e-12)
        cuts = np.array([0.5, 1.5, 2.0, 3.5])
        assert not ((cuts > pieces.lo[:, None]) & (cuts < pieces.hi[:, None])).any()
        assert np.all(pieces.lo[1:] >= pieces.lo[:-1])


def tabulated_ln_of_inverse(r, R):
    """integral_r^R dm / x for m = TABULATED_LN: slope * ln(hi / lo) on each table gap."""
    xs = np.clip(TABLE_XS, r, R)
    slopes = np.diff(np.log(TABLE_XS)) / np.diff(TABLE_XS)
    return float(np.sum(slopes * np.log(xs[1:] / xs[:-1])))


# Overlapping, nested, touching and disjoint intervals, in no order.
ARRAY_CASES = [
    (INV, M_LN, [1.0, 1.5, 2.0, 7.0, 3.0, 2.5], [4.0, 20.0, 2.5, 45.0, 3.5, 1e4],
     lambda r, R: 1 / r - 1 / R),
    (EXP, M_ID, [0.0, 0.5, 2.0, 1.0, 5.0, 2.5], [1.0, 3.0, 2.5, 9.0, 6.0, 40.0],
     lambda r, R: math.exp(-r) - math.exp(-R)),
    (fn(lambda x: 1 / x, 1.0, 50.0), TABULATED_LN, [1.0, 1.5, 3.0, 7.0, 2.0],
     [45.0, 20.0, 4.5, 49.0, 2.2], tabulated_ln_of_inverse),
    (TABLE, log_measure(1.0, 50.0), [1.0, 1.5, 3.0, TABLE_XS[9], 2.0],
     [45.0, 20.0, 4.5, 49.0, TABLE_XS[9]],
     lambda r, R: table_log_integral(TABLE_XS, TABLE_YS, r, R)),
    (fn(lambda x: 1 / x, 1.0, 50.0), TABLE_LN, [1.0, 1.5, 3.0, 7.0, TABLE_XS[3]],
     [45.0, 20.0, 4.5, 49.0, TABLE_XS[20]], tabulated_ln_of_inverse),
]
ARRAY_IDS = ["ln", "identity", "table", "table-source", "table-measure"]


class TestArrayIntervals:
    @pytest.mark.parametrize("g,m,rs,Rs,closed", ARRAY_CASES, ids=ARRAY_IDS)
    def test_each_interval_within_tolerance(self, g, m, rs, Rs, closed):
        got = stieltjes_integral(g, m, np.array(rs), np.array(Rs))
        assert got.value.shape == got.est_error.shape == (len(rs),)
        for r, R, value in zip(rs, Rs, got.value):
            want = closed(r, R)
            tol = max(1e-10, 1e-9 * abs(want))
            assert abs(value - want) <= tol
            one = stieltjes_integral(g, m, r, R).value
            assert abs(value - one) <= 2 * tol

    @pytest.mark.parametrize("g,m,rs,Rs,closed", ARRAY_CASES, ids=ARRAY_IDS)
    def test_means_within_tolerance(self, g, m, rs, Rs, closed):
        got = integral_mean(g, m, np.array(rs), np.array(Rs)).value
        for r, R, value in zip(rs, Rs, got):
            dm = m.m(R) - m.m(r)
            want = closed(r, R) / dm
            tol = max(1e-10, 1e-9 * abs(closed(r, R))) / dm
            assert abs(value - want) <= tol
            assert abs(value - integral_mean(g, m, r, R).value) <= 2 * tol

    @pytest.mark.parametrize("g,m,rs,Rs,closed", ARRAY_CASES[:2], ids=["ln", "identity"])
    def test_one_refinement_for_all_intervals(self, g, m, rs, Rs, closed):
        # One segment_integrals call over the gaps between the sorted ends, all
        # of them covered here: the cuts once, then 15 points a piece.
        points = []
        counted_g = fn(counted(g.eval, points), g.domain.a, g.domain.b)
        got = stieltjes_integral(counted_g, m, np.array(rs), np.array(Rs))
        ends = np.unique(rs + Rs)
        wide = (ends[:-1] > 0) & (ends[1:] > GEOMETRIC_RATIO * ends[:-1])
        start = int(np.sum(np.where(wide, BASE_PANELS, 1)))
        assert isinstance(got.panels_used, int)
        assert sum(points) == start + 1 + 15 * (2 * got.panels_used - start)

    def test_scalar_call_is_one_segment(self):
        for g, m, r, R in [(INV, M_LN, 1.0, 1e4), (EXP, M_ID, 0.5, 3.0),
                           (fn(lambda x: 1 / x, 1.0, 50.0), TABULATED_LN, 1.5, 45.0)]:
            pieces = segment_integrals(g.eval, m, [r], [R])
            got = stieltjes_integral(g, m, r, R)
            assert type(got.value) is float and type(got.est_error) is float
            assert got.value == float(np.sum(pieces.value))
            assert got.est_error == float(np.sum(pieces.error))
            assert got.panels_used == len(pieces.value)

    def test_shapes_broadcast(self):
        rs = np.array([[1.0], [2.0]])
        Rs = np.array([3.0, 4.0, 5.0])
        got = integral_mean(INV, M_LN, rs, Rs)
        assert got.value.shape == (2, 3)
        for (i, j), value in np.ndenumerate(got.value):
            want = (1 / rs[i, 0] - 1 / Rs[j]) / math.log(Rs[j] / rs[i, 0])
            assert value == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("r,R", [(2.0, 2.0), (3.0, 2.0), (0.25, 2.0), (1.0, 60.0)],
                             ids=["empty", "reversed", "left-of-domain", "right-of-domain"])
    def test_bad_pair_raises_as_alone(self, r, R):
        g, m = fn(lambda x: 1 / x, 0.5, 50.0), log_measure(0.5, 50.0)
        with pytest.raises(DegenerateIntervalError) as alone:
            stieltjes_integral(g, m, r, R)
        for call in (stieltjes_integral, integral_mean):
            with pytest.raises(DegenerateIntervalError) as among:
                call(g, m, np.array([1.0, r, 1.0]), np.array([4.0, R, 3.0]))
            assert str(among.value) == str(alone.value)

    def test_flat_measure_raises_for_arrays(self):
        flat = Measure1D(m=lambda x: 1.0 + 0 * x, domain=Domain(0.0, 10.0))
        with pytest.raises(DegenerateIntervalError, match="not increasing"):
            integral_mean(ONE, flat, np.array([1.0, 2.0]), 3.0)

    def test_measure_not_finite_at_r(self):
        m = Measure1D(m=np.log, m_prime=lambda x: 1 / x, domain=Domain(0.0, math.inf))
        for call in (lambda: measure_weight(m, 0.0, 5.0),
                     lambda: integral_mean(fn(np.exp, 0.0, math.inf), m, 0.0, 5.0)):
            with pytest.raises(NonFiniteValueError, match=r"^non-finite value -inf at x=0\.0$"):
                call()

    def test_measure_weight_of_arrays(self):
        rs, Rs = np.array([1.0, 2.0, 3.0]), np.array([4.0, 4.0, 5.0])
        assert np.array_equal(measure_weight(M_LN, rs, Rs), np.log(Rs) - np.log(rs))
        assert np.array_equal(measure_weight(M_LN, rs, 4.0), math.log(4.0) - np.log(rs))


class TestIntegralMean:
    def test_constant_normalizes(self):
        for m, r, R in [(M_LN, 1.0, 7.0), (M_SQ, 0.2, 2.0), (M_ID, 0.0, 5.0)]:
            c = fn(lambda x: 4.25 + 0 * x, 0.0, math.inf)
            assert integral_mean(c, m, r, R).value == pytest.approx(4.25, rel=1e-9)

    def test_symmetry(self):
        assert integral_mean(IDENT, M_ID, 0.0, 1.0).value == pytest.approx(0.5, rel=1e-9)

    def test_inverse_log(self):
        got = integral_mean(INV, M_LN, 1.0, math.e**2).value
        assert got == pytest.approx((1 - math.e**-2) / 2, rel=1e-9)
        assert got == pytest.approx(0.4323323584, abs=1e-9)

    def test_degenerate_denominator(self):
        flat = Measure1D(m=lambda x: 1.0, domain=Domain(0.0, 10.0))
        with pytest.raises(DegenerateIntervalError):
            integral_mean(ONE, flat, 1.0, 2.0)

    def test_flat_measure_integrates_to_zero(self):
        # A measure of no weight is accepted at once, so integral_mean, which
        # integrates before it divides, reaches its weight check.
        flat = Measure1D(m=lambda x: 1.0 + 0 * x, domain=Domain(0.0, 10.0))
        got = stieltjes_integral(ONE, flat, 1.0, 2.0)
        assert (got.value, got.est_error, got.panels_used) == (0.0, 0.0, 1)

    @given(st.floats(min_value=0.01, max_value=4.9), st.floats(min_value=5.0, max_value=9.9))
    @settings(max_examples=20, deadline=None)
    def test_mean_value_bounds(self, r, R):
        got = integral_mean(EXP, M_ID, r, R).value
        lo, hi = math.exp(-R), math.exp(-r)
        tol = max(1e-10, 1e-9 * abs(got))
        assert lo - tol <= got <= hi + tol


class TestPartials:
    def test_constant_gives_zero(self):
        c = fn(lambda x: 2.5 + 0 * x, 0.0, math.inf)
        assert mean_partial_r(c, M_ID, 1.0, 3.0) == pytest.approx(0.0, abs=1e-12)
        assert mean_partial_R(c, M_ID, 1.0, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_linear_closed_form(self):
        # mean of -x against dx is -(r+R)/2; both partials equal -1/2
        for r, R in [(1.0, 3.0), (0.5, 7.0)]:
            assert mean_partial_r(NEG, M_ID, r, R) == pytest.approx(-0.5, rel=1e-9)
            assert mean_partial_R(NEG, M_ID, r, R) == pytest.approx(-0.5, rel=1e-9)

    def test_increasing_linear(self):
        assert mean_partial_R(IDENT, M_ID, 1.0, 3.0) == pytest.approx(0.5, rel=1e-9)

    def test_inverse_log_closed_form(self):
        got = mean_partial_r(INV, M_LN, 1.0, math.e)
        assert got == pytest.approx(-math.exp(-1), rel=1e-8)

    def test_requires_derivative(self):
        m_plain = Measure1D(m=math.log, domain=Domain(0.5, math.inf))
        with pytest.raises(MissingDerivativeError):
            mean_partial_r(INV, m_plain, 1.0, 2.0)

    def test_requires_interior_r(self):
        with pytest.raises(DegenerateIntervalError):
            mean_partial_r(EXP, M_ID, 0.0, 3.0)

    def test_sign_for_decreasing_f(self):
        for r, R in [(0.5, 2.0), (1.0, 8.0)]:
            assert mean_partial_r(EXP, M_ID, r, R) <= 1e-10
            assert mean_partial_R(EXP, M_ID, r, R) <= 1e-10

    def test_finite_difference_agreement(self):
        # central differences of the mean at tightened tolerances
        cfg = QuadratureConfig()
        fd_cfg = QuadratureConfig(cfg.rtol * 1e-4)
        for f, m, r, R in [(EXP, M_ID, 1.0, 3.0), (INV, M_LN, 1.0, math.e)]:
            h = 1e-5 * (R - r)
            fd_r = (
                integral_mean(f, m, r + h, R, fd_cfg).value
                - integral_mean(f, m, r - h, R, fd_cfg).value
            ) / (2 * h)
            fd_R = (
                integral_mean(f, m, r, R + h, fd_cfg).value
                - integral_mean(f, m, r, R - h, fd_cfg).value
            ) / (2 * h)
            assert mean_partial_r(f, m, r, R, cfg) == pytest.approx(fd_r, rel=1e-6)
            assert mean_partial_R(f, m, r, R, cfg) == pytest.approx(fd_R, rel=1e-6)


class TestMeasureValidation:
    def test_valid_log_measure(self):
        log_measure(1.0).validate()

    def test_rejects_nonincreasing(self):
        bad = Measure1D(m=lambda x: -x, domain=Domain(0.0, 10.0))
        with pytest.raises(DegenerateIntervalError):
            bad.validate()

    def test_steep_continuous_start(self):
        # m rises by 1.6e-3 over the first 4e-9 of [0, 1], and is continuous
        Measure1D(m=np.cbrt, domain=Domain(0.0, 1.0)).validate()

    def test_overflow_left_unchecked(self):
        # exp overflows long before the default horizon 1e6
        Measure1D(m=math.exp, m_prime=math.exp, domain=Domain(0.0, math.inf)).validate()

    def test_rejects_measure_not_finite_at_left_end(self):
        m = Measure1D(m=np.log, domain=Domain(0.0, 10.0))
        with pytest.raises(DegenerateIntervalError, match="not finite at the left end x=0.0"):
            m.validate()
        m.validate(1.0, 10.0)

    def test_checks_only_the_given_interval(self):
        m = Measure1D(m=lambda x: x + 2 * np.sin(x), domain=Domain(1.0, math.inf))
        m.validate(1.0, 2.0)
        with pytest.raises(DegenerateIntervalError, match="not strictly increasing"):
            m.validate(1.0, 12.0)

    def test_checks_every_row_of_a_table(self):
        # The measure falls between two rows 1e-7 apart, where no node lands.
        xs, ms = np.array([1.0, 7.0, 7.0000001, 50.0]), np.array([0.0, 1.0, 0.99, 5.0])
        m = Measure1D(m=lambda x: np.interp(x, xs, ms), domain=Domain(1.0, 50.0))
        m.validate(1.0, 40.0)
        m.breaks = xs
        with pytest.raises(DegenerateIntervalError,
                           match=r"^measure is not strictly increasing near x=7\.0$"):
            m.validate(1.0, 40.0)
        m.validate(7.5, 40.0)  # rows outside [lo, hi] are not read

    def test_accepts_a_curved_measure_with_breaks(self):
        # breaks say where m may fail to be smooth, as on a function: ln x
        # with 257 breaks and no derivative is valid input.
        xs = np.geomspace(1.0, 50.0, 257)
        m = Measure1D(m=np.log, domain=Domain(1.0, 50.0), breaks=xs)
        m.validate(1.0, 45.0)
        got = stieltjes_integral(fn(lambda x: x**-1.25, 1.0, 50.0), m, 1.0, 45.0).value
        want = (1 - 45.0**-1.25) / 1.25
        assert abs(got - want) <= 1e-12 * want
        TABLE_LN.validate(1.0, 45.0)
        TABLE_LN.validate(3.0, 3.5)  # inside one gap

    def test_rejects_nonpositive_derivative(self):
        bad = Measure1D(
            m=lambda x: x, m_prime=lambda x: -1.0, domain=Domain(0.0, 10.0)
        )
        with pytest.raises(DegenerateIntervalError):
            bad.validate()

    def test_numpy_measure_is_read_in_one_call(self):
        m_points, dm_points = [], []
        m = Measure1D(m=counted(np.log, m_points), m_prime=counted(lambda x: 1.0 / x, dm_points),
                      domain=Domain(1.0, 50.0))
        m.validate()
        assert m_points == [257] and dm_points == [255]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rtol=0.0)

    def test_atol_is_a_tenth_of_rtol(self):
        # Bit for bit: the default, and the finite-difference check's tightened config.
        assert QuadratureConfig().atol == 1e-10
        assert QuadratureConfig(1e-9 * 1e-4).atol == 1e-10 * 1e-4
        assert QuadratureConfig(1e-12).atol == 1e-13

    def test_empty_window_reads_no_point(self):
        points = []
        m = Measure1D(m=counted(np.log, points), domain=Domain(1.0, 50.0))
        m.validate(5.0, 5.0)
        m.validate(6.0, 5.0)
        assert points == []

    def test_log_measure_needs_positive_a(self):
        with pytest.raises(ValueError, match="^log measure needs a > 0$"):
            log_measure(0.0)

    def test_interval_outside_the_measure_domain(self):
        g = fn(lambda x: x, 1.0, 50.0)
        with pytest.raises(DegenerateIntervalError,
                           match=r"^\[1\.0, 3\.0\] not inside the measure domain \[2\.0, 50\.0\)$"):
            integral_mean(g, identity_measure(2.0, 50.0), 1.0, 3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["rtol"])
def test_config_needs_finite_tolerances(field, bad):
    with pytest.raises(ValueError, match="finite and positive"):
        QuadratureConfig(**{field: bad})
