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
from meanmax.func1d import GEOMETRIC_RATIO, Domain, Function1D, batch_eval
from meanmax.stieltjes import (
    BASE_PANELS,
    MeanValue,
    Measure1D,
    QuadratureConfig,
    identity_measure,
    integral_mean,
    log_measure,
    mean_partial_R,
    mean_partial_r,
    segment_integrals,
    stieltjes_integral,
)

from oracles import midpoint_stieltjes


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
        wild = fn(lambda x: np.sin(1e7 * x), 0.0, math.inf)
        cfg = QuadratureConfig(max_halvings=3)
        with pytest.raises(QuadratureError):
            stieltjes_integral(wild, M_ID, 0.0, 1.0, cfg)

    def test_additivity(self):
        whole = stieltjes_integral(EXP, M_ID, 0.0, 3.0)
        tol = 2 * max(1e-10, 1e-9 * abs(whole.value))
        for s in (0.1, 1.0, 2.9):
            left = stieltjes_integral(EXP, M_ID, 0.0, s).value
            right = stieltjes_integral(EXP, M_ID, s, 3.0).value
            assert left + right == pytest.approx(whole.value, abs=tol)


def reference_integral(g, m, r, R, cfg=None):
    """stieltjes_integral as a loop that evaluates every node of every level afresh."""
    cfg = cfg or QuadratureConfig()
    ge = g.eval
    use_log = r > 0 and R / r > GEOMETRIC_RATIO

    def values(fun, xs):
        ys = batch_eval(fun, xs)
        assert np.all(np.isfinite(ys))
        return ys

    if m.m_prime is not None:
        dm = m.m_prime
        lo, hi = (math.log(r), math.log(R)) if use_log else (r, R)

        def integrand(x):
            if use_log:
                x = np.exp(x)
                return ge(x) * dm(x) * x
            return ge(x) * dm(x)

        def level_sum(n):
            ys = values(integrand, np.linspace(lo, hi, n + 1))
            h = (hi - lo) / n
            return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum()
                                    + 2.0 * ys[2:-2:2].sum()))

        richardson = 15.0
    else:
        def level_sum(n):
            if use_log:
                ts = np.exp(np.linspace(math.log(r), math.log(R), n + 1))
                ts[0], ts[-1] = r, R
                mids = np.sqrt(ts[:-1] * ts[1:])
            else:
                ts = np.linspace(r, R, n + 1)
                mids = 0.5 * (ts[:-1] + ts[1:])
            return float(np.sum(values(ge, mids) * np.diff(values(m.m, ts))))

        richardson = 3.0
    n = BASE_PANELS
    prev = level_sum(n)
    for _ in range(cfg.max_halvings):
        n *= 2
        cur = level_sum(n)
        diff = abs(cur - prev)
        if diff <= cfg.tolerance(cur):
            return MeanValue(value=cur + (cur - prev) / richardson, est_error=diff, panels_used=n)
        prev = cur
    raise AssertionError("the reference did not converge")


# x^-0.9 interpolated linearly on 40 geometric nodes over [1, 50]: a kink at
# every node, which Simpson resolves only after many halvings.
TABLE_XS = np.geomspace(1.0, 50.0, 40)
KINKED = fn(lambda x: np.interp(x, TABLE_XS, TABLE_XS**-0.9), 1.0, 50.0)
TABULATED_LN = Measure1D(m=lambda x: np.interp(x, TABLE_XS, np.log(TABLE_XS)),
                         domain=Domain(1.0, 50.0))


class TestNodeReuse:
    @pytest.mark.parametrize("g,m,r,R", [
        (EXP, M_ID, 0.0, 3.0),
        (INV, M_LN, 1.0, 4.0),
        (fn(lambda x: math.exp(-x), 0.0, math.inf), M_ID, 0.5, 3.0),
        (fn(lambda x: 1 / (x * x), 0.5, math.inf), M_ID, 1.0, 1e6),
        (KINKED, log_measure(1.0, 50.0), 1.5, 20.0),
        (INV, TABULATED_LN, 1.5, 20.0),
        (INV, TABULATED_LN, 1.0, 49.0),
    ], ids=["numpy", "numpy-ln", "math", "wide-log", "kinked", "tabulated", "tabulated-wide"])
    def test_equals_the_re_evaluating_loop(self, g, m, r, R):
        assert stieltjes_integral(g, m, r, R) == reference_integral(g, m, r, R)

    def test_kinked_source_takes_many_halvings(self):
        assert stieltjes_integral(KINKED, log_measure(1.0, 50.0), 1.5, 20.0).panels_used >= 2**15


def counted(fun, points):
    """fun, appending the number of points of each call that returned."""
    def wrapped(x):
        y = fun(x)
        points.append(np.size(x))
        return y
    return wrapped


class TestEvaluationBudget:
    # Exact counts: each halving evaluates only the nodes new to it.
    @pytest.mark.parametrize("source,m,r,R", [
        (math.exp, identity_measure(0.0), 0.5, 3.0),
        (lambda x: 1.0 / float(x), log_measure(1.0), 1.0, 1e4),
    ], ids=["math.exp", "scalar-inverse-ln"])
    def test_simpson_reads_each_node_once(self, source, m, r, R):
        points = []
        got = stieltjes_integral(fn(counted(source, points), 0.5, math.inf), m, r, R)
        assert set(points) == {1}
        assert sum(points) == got.panels_used + 1

    def test_midpoint_reads_each_cut_once(self):
        g_points, m_points = [], []
        g = fn(counted(lambda x: 1 / x, g_points), 0.5, math.inf)
        m = Measure1D(m=counted(np.log, m_points), domain=Domain(0.5, math.inf))
        got = stieltjes_integral(g, m, 1.0, 4.0)
        assert sum(m_points) == got.panels_used + 1
        # midpoints do not nest: every level evaluates g at all of its panels
        assert sum(g_points) == 2 * got.panels_used - BASE_PANELS


class TestSegmentIntegrals:
    def per_segment(self, pieces, count):
        return np.bincount(pieces.origin, pieces.value, minlength=count)

    def test_closed_forms_both_paths(self):
        lo, hi = np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 4.0])
        want = (hi**3 - lo**3) / 3
        plain = Measure1D(m=lambda x: x, domain=Domain(0.0, 5.0))
        for m in (identity_measure(0.0), plain):
            pieces = segment_integrals(lambda x, i: x**2, m, lo, hi)
            assert self.per_segment(pieces, 3) == pytest.approx(want, rel=1e-9)
            assert np.all(np.diff(pieces.lo) > 0)

    def test_wide_segment(self):
        pieces = segment_integrals(lambda x, i: 1 / x, log_measure(1.0), [1.0], [1e25])
        assert pieces.value.sum() == pytest.approx(1 - 1e-25, rel=1e-9)


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(atol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_halvings=0)
