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
    END_WEIGHT,
    GAUSS_WEIGHTS,
    INNER_WEIGHTS,
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

    def test_midpoint_path_matches_derivative_path(self):
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

    # the cuts are the ends and the midpoint of every accepted piece
    def assert_reads_each_cut_once(self, m, r, R):
        xs = []
        got = stieltjes_integral(INV, Measure1D(m=seen(m.m, xs), domain=m.domain), r, R)
        assert len(xs) == len(set(xs)) == 2 * got.panels_used + 1

    def test_midpoint_reads_each_cut_once(self):
        self.assert_reads_each_cut_once(Measure1D(m=np.log, domain=Domain(0.5, math.inf)), 1.0, 4.0)

    @pytest.mark.parametrize("r,R", [(1.5, 20.0), (1.0, 49.0)], ids=["tabulated", "tabulated-wide"])
    def test_midpoint_reads_each_table_cut_once(self, r, R):
        self.assert_reads_each_cut_once(TABULATED_LN, r, R)


class TestKinkedTable:
    # The table's kinks sit at its nodes, inside [r, R]: each piece of the
    # bisection that holds one converges only linearly.
    @pytest.mark.parametrize("r,R", [(1.5, 20.0), (3.0, 45.0)])
    def test_within_tolerance_of_closed_form(self, r, R):
        want = table_log_integral(TABLE_XS, TABLE_YS, r, R)
        got = stieltjes_integral(KINKED, log_measure(1.0, 50.0), r, R).value
        assert abs(got - want) <= max(1e-10, 1e-9 * abs(want))


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
]


class TestArrayIntervals:
    @pytest.mark.parametrize("g,m,rs,Rs,closed", ARRAY_CASES, ids=["ln", "identity", "table"])
    def test_each_interval_within_tolerance(self, g, m, rs, Rs, closed):
        got = stieltjes_integral(g, m, np.array(rs), np.array(Rs))
        assert got.value.shape == got.est_error.shape == (len(rs),)
        for r, R, value in zip(rs, Rs, got.value):
            want = closed(r, R)
            tol = max(1e-10, 1e-9 * abs(want))
            assert abs(value - want) <= tol
            one = stieltjes_integral(g, m, r, R).value
            assert abs(value - one) <= 2 * tol

    @pytest.mark.parametrize("g,m,rs,Rs,closed", ARRAY_CASES, ids=["ln", "identity", "table"])
    def test_means_within_tolerance(self, g, m, rs, Rs, closed):
        got = integral_mean(g, m, np.array(rs), np.array(Rs)).value
        for r, R, value in zip(rs, Rs, got):
            dm = m.m(R) - m.m(r)
            want = closed(r, R) / dm
            assert abs(value - want) <= max(1e-10, 1e-9 * abs(closed(r, R))) / dm

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
        fd_cfg = cfg.scaled(1e-4)
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
            QuadratureConfig(atol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["atol", "rtol"])
def test_config_needs_finite_tolerances(field, bad):
    with pytest.raises(ValueError, match="finite and positive"):
        QuadratureConfig(**{field: bad})
