import math
import warnings

import numpy as np
import pytest

from meanmax import verify
from meanmax.errors import DegenerateIntervalError
from meanmax.func1d import Domain, Function1D, Tail
from meanmax.stieltjes import Measure1D, identity_measure, log_measure
from meanmax.transforms import Q_from_d, WeightN, d_from_Q
from meanmax.verify import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    DecaySchedule,
    check_corollary_bounds,
    check_majorant_inequality,
    check_mean_monotonicity,
    check_pointwise_mean_bound,
    check_sup_identity,
    estimate_decay,
    finite_difference_check,
    invert_measure,
    slack_budget,
)


def fn(fun, a, b, tail=None, hint="none"):
    return Function1D(
        eval=fun, domain=Domain(a, b), tail=tail or Tail.unknown(), monotonicity=hint
    )


def exp_on(a, b):
    return fn(lambda x: np.exp(-x), a, b, tail=Tail.vanishing())


class TestMeanMonotonicity:
    def test_exponential_grid(self):
        f = exp_on(0.0, 10.5)
        m = identity_measure(0.0, 10.5)
        pts = list(np.linspace(0.0, 10.0, 20))
        report = check_mean_monotonicity(f, m, pts, pts)
        assert report.verdict == HOLDS
        assert report.worst_slack <= 1e-8 * (1 + 1.0)

    def test_constant(self):
        f = fn(lambda x: 2.0 + 0 * x, 0.0, 10.5)
        m = identity_measure(0.0, 10.5)
        pts = list(np.linspace(0.0, 10.0, 8))
        report = check_mean_monotonicity(f, m, pts, pts)
        assert report.verdict == HOLDS
        assert report.worst_slack <= 1e-12

    def test_increasing_f_inconclusive(self):
        f = fn(lambda x: x, 0.0, 10.5)
        m = identity_measure(0.0, 10.5)
        pts = list(np.linspace(0.0, 10.0, 5))
        report = check_mean_monotonicity(f, m, pts, pts)
        assert report.verdict == INCONCLUSIVE
        assert "decreasing" in report.note


class TestSupIdentity:
    def test_exponential(self):
        f = exp_on(0.0, 10.5)
        m = identity_measure(0.0, 10.5)
        rs = list(np.linspace(0.0, 4.9, 15))
        report = check_sup_identity(f, m, 5.0, rs)
        assert report.verdict == HOLDS

    def test_constant(self):
        f = fn(lambda x: 1.5 + 0 * x, 0.0, 12.0)
        m = identity_measure(0.0, 12.0)
        report = check_sup_identity(f, m, 5.0, list(np.linspace(0.0, 4.5, 10)))
        assert report.verdict == HOLDS

    def test_increasing_f_inconclusive(self):
        f = fn(lambda x: x, 0.0, 10.0)
        report = check_sup_identity(f, identity_measure(0.0, 10.0), 5.0, [0.0, 1.0, 2.0])
        assert report.verdict == INCONCLUSIVE
        assert report.note == "precondition failed: f does not classify as decreasing"

    def test_inverse_log_value(self):
        f = fn(lambda x: 1 / x, 1.0, 20.0)
        m = log_measure(1.0, 20.0)
        report = check_sup_identity(f, m, 10.0, list(np.linspace(1.0, 9.9, 12)))
        assert report.verdict == HOLDS
        assert report.details["mean_at_a"] == pytest.approx(0.3908650337, abs=1e-9)


class TestEmptyGrid:
    def test_monotonicity_without_r_below_R(self):
        f, m = exp_on(0.0, 10.5), identity_measure(0.0, 10.5)
        with pytest.raises(ValueError, match="monotonicity: no grid pair has r < R"):
            check_mean_monotonicity(f, m, [5.0, 6.0], [1.0, 5.0])

    def test_monotonicity_with_nothing_to_compare(self):
        # Two grid points leave one cell r < R: no neighbouring cell, and the
        # one pair of midpoints has r = R.  It raises before reading f.
        calls = []
        f = fn(lambda x: calls.append(x) or 1 / x, 1.0, 50.0, tail=Tail.vanishing())
        with pytest.raises(ValueError, match="monotonicity: the grid has no neighbouring cells"):
            check_mean_monotonicity(f, log_measure(1.0, 50.0), [1.0, 49.0], [1.0, 49.0])
        assert calls == []

    def test_sup_identity_without_r_below_R(self):
        f, m = exp_on(0.0, 10.5), identity_measure(0.0, 10.5)
        with pytest.raises(ValueError, match="sup-identity: no grid r has a <= r < R"):
            check_sup_identity(f, m, 5.0, [5.0, 7.0])


class TestPointCount:
    def test_sup_identity_against_a_table_shares_its_refinement(self):
        # x^-1.25 against ln x tabulated on 257 geometric nodes (no derivative,
        # so midpoint sums), r on 8 geometric points of [1, 0.99 R], R = 45:
        # 418,966 source points with one integral for every r (the
        # classifier's 4,097 included), 1,373,881 with one each.
        points = []

        def source(x):
            points.append(np.size(x))
            return np.power(x, -1.25)

        xs = np.geomspace(1.0, 50.0, 257)
        table = Measure1D(m=lambda x: np.interp(x, xs, np.log(xs)), domain=Domain(1.0, 50.0))
        f = fn(source, 1.0, 50.0, tail=Tail.vanishing())
        report = check_sup_identity(f, table, 45.0, np.geomspace(1.0, 0.99 * 45.0, 8))
        assert report.verdict == HOLDS
        assert sum(points) <= 500_000


class TestMajorantInequality:
    def test_exponential_holds(self):
        f = exp_on(0.0, 50.0)
        m = identity_measure(0.0, 50.0)
        m.diverges = True
        report = check_majorant_inequality(f, m, 200, 7)
        assert report.verdict == HOLDS
        assert report.samples_used == 200

    def test_zero_function(self):
        f = fn(lambda x: 0.0 * x, 0.0, 50.0, tail=Tail.vanishing())
        m = identity_measure(0.0, 50.0)
        m.diverges = True
        report = check_majorant_inequality(f, m, 50, 1)
        assert report.verdict == HOLDS
        assert report.worst_slack == pytest.approx(0.0, abs=1e-15)

    def test_hypothesis_failure_is_inconclusive(self):
        f = fn(lambda x: np.exp(-x), 0.0, 50.0, tail=Tail.unknown(), hint="decreasing")
        m = identity_measure(0.0, 50.0)
        m.diverges = False
        report = check_majorant_inequality(f, m, 10, 1)
        assert report.verdict == INCONCLUSIVE

    def test_deterministic_under_seed(self):
        f = exp_on(0.0, 50.0)
        m = identity_measure(0.0, 50.0)
        m.diverges = True
        a = check_majorant_inequality(f, m, 40, 42).to_line()
        b = check_majorant_inequality(f, m, 40, 42).to_line()
        assert a == b


class TestPointwiseMeanBound:
    def test_exponential(self):
        f = fn(lambda x: np.exp(-x), 1.0, 100.0, tail=Tail.vanishing(), hint="decreasing")
        m = log_measure(1.0, 100.0)
        m.diverges = True
        w = WeightN(n=lambda x: x, domain=f.domain)
        report = check_pointwise_mean_bound(f, w, m, 200, 7)
        assert report.verdict == HOLDS

    def test_zero_function(self):
        f = fn(lambda x: 0.0 * x, 1.0, 100.0, tail=Tail.vanishing())
        m = log_measure(1.0, 100.0)
        m.diverges = True
        w = WeightN(n=lambda x: x, domain=f.domain)
        report = check_pointwise_mean_bound(f, w, m, 50, 3)
        assert report.verdict == HOLDS

    def test_inverse_log(self):
        f = fn(lambda x: 1 / np.log(x), math.e, 1e6, tail=Tail.vanishing(),
               hint="decreasing")
        m = log_measure(math.e, 1e6)
        m.diverges = True
        w = WeightN(n=lambda x: x, domain=f.domain)
        report = check_pointwise_mean_bound(f, w, m, 200, 7)
        assert report.verdict == HOLDS


class TestCorollaryBounds:
    def test_sqrt_forward(self):
        Q = fn(lambda x: np.sqrt(x), 1.0, math.inf)
        d = d_from_Q(Q, 1.0)
        report = check_corollary_bounds(Q, d.fn, 1.0, "dQ", 200, 11, sample_hi=1e4)
        assert report.verdict == HOLDS

    def test_inverse_log_backward(self):
        d = fn(lambda x: 1 / np.log(x), math.e, math.inf, hint="decreasing")
        Q = Q_from_d(d, math.e)
        report = check_corollary_bounds(Q.fn, d, math.e, "Qd", 200, 11, sample_hi=1e6)
        assert report.verdict == HOLDS

    def test_zero_functions(self):
        Q = fn(lambda x: 0.0 * x, 1.0, math.inf)
        d = fn(lambda x: 0.0 * x, 1.0, math.inf)
        for direction in ("dQ", "Qd"):
            report = check_corollary_bounds(Q, d, 1.0, direction, 30, 5, sample_hi=100.0)
            assert report.verdict == HOLDS
            assert report.worst_slack == pytest.approx(0.0, abs=1e-15)

    def test_violation_detected_with_witness(self):
        # a density far too small for Q = sqrt(x) must violate the dQ bound
        Q = fn(lambda x: np.sqrt(x), 1.0, math.inf)
        tiny = fn(lambda x: 1e-6 + 0 * x, 1.0, math.inf)
        report = check_corollary_bounds(Q, tiny, 1.0, "dQ", 30, 5, sample_hi=100.0)
        assert report.verdict == VIOLATED
        assert report.witness is not None
        r, R = report.witness
        assert 1.0 <= r < R <= 100.0

    def test_one_density_query_for_all_pairs(self):
        Q = fn(np.sqrt, 1.0, math.inf)
        D = d_from_Q(Q, 1.0).fn
        sizes = []
        d = fn(lambda x: sizes.append(np.size(x)) or D.eval(x), 1.0, math.inf)
        report = check_corollary_bounds(Q, d, 1.0, "dQ", 200, 11, sample_hi=1e4)
        assert report.verdict == HOLDS
        assert sizes == [200]

    def test_direction_validation(self):
        Q = fn(lambda x: np.sqrt(x), 1.0, math.inf)
        with pytest.raises(ValueError):
            check_corollary_bounds(Q, Q, 1.0, "qq", 10, 0, sample_hi=10.0)


class TestPairChecks:
    def test_unbounded_window_is_inconclusive(self):
        f = exp_on(0.0, math.inf)
        m = identity_measure(0.0)
        n = WeightN(n=lambda x: 1.0 + x, domain=f.domain)
        Q = fn(np.sqrt, 1.0, math.inf)
        d = fn(lambda x: 1 / np.sqrt(x), 1.0, math.inf)
        for report in (check_majorant_inequality(f, m, 10, 1),
                       check_pointwise_mean_bound(f, n, m, 10, 1),
                       check_corollary_bounds(Q, d, 1.0, "dQ", 10, 1)):
            assert report.verdict == INCONCLUSIVE
            assert report.samples_used == 0
            assert report.note.startswith("unbounded domain")

    @pytest.mark.parametrize("claim", ["F1", "AnmA"])
    def test_measure_not_finite_at_left_end(self, claim):
        # ln x is -inf at the left end 0 of the sampled window
        f = exp_on(0.0, 50.0)
        m = Measure1D(m=np.log, m_prime=lambda x: 1.0 / x, domain=Domain(0.0, 50.0),
                      diverges=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateIntervalError,
                               match="measure is not finite at the left end x=0.0"):
                if claim == "F1":
                    check_majorant_inequality(f, m, 10, 1)
                else:
                    n = WeightN(n=lambda x: 1.0 + x, domain=f.domain)
                    check_pointwise_mean_bound(f, n, m, 10, 1)

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_pair_count_below_one_raises(self, pairs):
        f = exp_on(0.0, 50.0)
        m = identity_measure(0.0, 50.0)
        m.diverges = True
        Q = fn(np.sqrt, 1.0, math.inf)
        for claim in (lambda: check_majorant_inequality(f, m, pairs, 1),
                      lambda: check_pointwise_mean_bound(
                          f, WeightN(n=lambda x: 1.0 + x, domain=f.domain), m, pairs, 1),
                      lambda: check_corollary_bounds(Q, Q, 1.0, "dQ", pairs, 1,
                                                     sample_hi=10.0)):
            with pytest.raises(ValueError, match=f"need at least 1 pair, got {pairs}"):
                claim()

    def test_empty_sample_window_raises(self):
        f = exp_on(0.0, 50.0)
        m = identity_measure(0.0, 50.0)
        m.diverges = True
        with pytest.raises(ValueError, match=r"^F1: empty sample window \[0.0, 0.0\]$"):
            check_majorant_inequality(f, m, 5, 1, sample_hi=0.0)
        Q = fn(np.sqrt, 1.0, math.inf)
        d = d_from_Q(Q, 1.0).fn
        with pytest.raises(ValueError, match=r"^dQ: empty sample window \[1.0, 0.5\]$"):
            check_corollary_bounds(Q, d, 1.0, "dQ", 5, 1, sample_hi=0.5)

    def test_f1_violation_the_oracle_does_not_confirm(self, monkeypatch):
        # D under-reports by half, so the adaptive route sees violations; the
        # oracle integrates the right envelope itself and does not.
        build = verify.decreasing_majorant_mean

        def halved(*args):
            res = build(*args)
            D = res.fn.eval
            res.fn.eval = lambda R: 0.5 * D(R)
            return res

        monkeypatch.setattr(verify, "decreasing_majorant_mean", halved)
        f = exp_on(0.0, 50.0)
        m = identity_measure(0.0, 50.0)
        m.diverges = True
        report = check_majorant_inequality(f, m, 40, 3)
        assert report.verdict == INCONCLUSIVE
        assert report.worst_slack > slack_budget(0.0)
        assert report.note == ("adaptive route signalled a violation the brute-force oracle "
                               "does not confirm")

    def test_anma_violation_the_oracle_confirms(self, monkeypatch):
        # h is halved, and the oracle integrates the same h.
        build = verify.weighted_double_envelope

        def halved(*args):
            res = build(*args)
            h = res.fn.eval
            res.fn.eval = lambda R: 0.5 * h(R)
            return res

        monkeypatch.setattr(verify, "weighted_double_envelope", halved)
        f = exp_on(0.0, 5.0)
        m = identity_measure(0.0, 5.0)
        m.diverges = True
        report = check_pointwise_mean_bound(f, WeightN(n=lambda x: 1.0 + x, domain=f.domain),
                                            m, 40, 3)
        assert report.verdict == VIOLATED
        assert report.note is None
        r, R = report.witness
        assert 0.0 <= r < R < 5.0

    def test_invert_measure(self):
        us = np.linspace(0.0, math.log(1e4), 9)
        xs = invert_measure(log_measure(1.0), 1.0, 1e4, us)
        assert xs[0] == 1.0 and xs[-1] == 1e4
        assert xs == pytest.approx(np.exp(us), rel=1e-5)


class TestEstimateDecay:
    def test_majorant_closed_form(self):
        g = fn(lambda R: (1 - 1 / R) / np.log(R), 2.0, math.inf)
        report = estimate_decay(g, DecaySchedule(start=10, ratio=10, steps=4, threshold=0.12))
        assert report.verdict == HOLDS
        assert report.details["sequence"][-1] == pytest.approx(0.1085627631, abs=1e-9)

    def test_zero(self):
        g = fn(lambda x: 0.0 * x, 0.5, math.inf)
        report = estimate_decay(g, DecaySchedule(start=1, ratio=2, steps=5, threshold=1e-6))
        assert report.verdict == HOLDS

    def test_inverse_log_schedule(self):
        g = fn(lambda R: 1 / np.log(R), 2.0, math.inf)
        sched = DecaySchedule(start=math.e, ratio=math.e, steps=10, threshold=0.11)
        report = estimate_decay(g, sched)
        assert report.verdict == HOLDS
        assert report.details["sequence"][-1] == pytest.approx(0.1, abs=1e-12)

    def test_growth_is_violated(self):
        g = fn(lambda x: np.log(x), 2.0, math.inf)
        report = estimate_decay(g, DecaySchedule(start=4, ratio=2, steps=5, threshold=10.0))
        assert report.verdict == VIOLATED

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            DecaySchedule(start=1, ratio=1.0, steps=5, threshold=0.1)
        with pytest.raises(ValueError):
            DecaySchedule(start=1, ratio=2.0, steps=2, threshold=0.1)


@pytest.mark.parametrize("field, bad, message", [
    ("start", math.nan, "start must be finite"),
    ("start", -math.inf, "start must be finite"),
    ("ratio", math.nan, "ratio must be finite and exceed 1"),
    ("ratio", math.inf, "ratio must be finite and exceed 1"),
    ("threshold", math.nan, "threshold must be finite"),
    ("threshold", math.inf, "threshold must be finite"),
])
def test_schedule_needs_finite_values(field, bad, message):
    values = dict(start=2.0, ratio=2.0, steps=8, threshold=0.1)
    values[field] = bad
    with pytest.raises(ValueError, match=message):
        DecaySchedule(**values)


class TestFiniteDifference:
    def test_linear_exact(self):
        f = fn(lambda x: -x, 0.0, 10.0)
        report = finite_difference_check(f, identity_measure(0.0, 10.0), 1.0, 3.0)
        assert report.verdict == HOLDS
        assert report.details["analytic_r"] == pytest.approx(-0.5, rel=1e-9)
        assert report.details["analytic_R"] == pytest.approx(-0.5, rel=1e-9)

    def test_constant(self):
        f = fn(lambda x: 3.0 + 0 * x, 0.0, 10.0)
        report = finite_difference_check(f, identity_measure(0.0, 10.0), 2.0, 5.0)
        assert report.verdict == HOLDS

    def test_inverse_log(self):
        f = fn(lambda x: 1 / x, 0.5, math.inf)
        report = finite_difference_check(f, log_measure(0.5), 1.0, math.e)
        assert report.verdict == HOLDS
        assert report.details["analytic_r"] == pytest.approx(-math.exp(-1), rel=1e-7)

    @pytest.mark.parametrize("r, R", [(2.0, 49.9999), (1.00001, 10.0)],
                             ids=["R-near-b", "r-near-a"])
    def test_near_a_domain_end(self, r, R):
        # A stencil clipped on one side only estimated the slope at its
        # midpoint: rel_error_R 6.3e-6 and rel_error_r 7.1e-5.
        f = fn(lambda x: 1 / x, 1.0, 50.0)
        report = finite_difference_check(f, log_measure(1.0, 50.0), r, R)
        assert report.verdict == HOLDS
        assert report.details["rel_error_r"] < 1e-6
        assert report.details["rel_error_R"] < 1e-6

    def test_rejects_endpoints(self):
        f = fn(lambda x: -x, 0.0, 10.0)
        with pytest.raises(ValueError):
            finite_difference_check(f, identity_measure(0.0, 10.0), 0.0, 5.0)


class TestReports:
    def test_line_format(self):
        f = exp_on(0.0, 10.5)
        m = identity_measure(0.0, 10.5)
        rep = check_sup_identity(f, m, 5.0, [0.0, 1.0, 2.0])
        line = rep.to_line()
        assert line.startswith("sup-identity holds")
        assert "worst_slack=" in line and "samples=3" in line

    def test_kv_format(self):
        g = fn(lambda x: 0.0 * x, 0.5, math.inf)
        rep = estimate_decay(g, DecaySchedule(start=1, ratio=2, steps=4, threshold=1.0))
        kv = rep.to_kv()
        assert "property: decay" in kv
        assert "verdict: holds" in kv
        assert "sequence:" in kv
        assert kv.endswith("\n")

    def test_witness_present_when_violated(self):
        g = fn(lambda x: np.log(x), 2.0, math.inf)
        rep = estimate_decay(g, DecaySchedule(start=4, ratio=2, steps=4, threshold=0.1))
        assert rep.verdict == VIOLATED
        assert rep.witness is not None

    def test_slack_budget_scale(self):
        assert slack_budget(0.0) == pytest.approx(1e-8)
        assert slack_budget(99.0) == pytest.approx(1e-6)
