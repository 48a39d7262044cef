import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanmax.errors import (
    DomainError,
    NonFiniteValueError,
    UnboundedSupError,
    UncertifiableTailError,
)
from meanmax.func1d import (
    TAIL_CAP_NOTE,
    Domain,
    Function1D,
    GridSpec,
    Tail,
    batch_eval,
    build_nodes,
    classify_monotonicity,
    envelope_function,
    evaluate,
    left_maximization,
    probe,
    right_maximization,
    sample,
)

from oracles import (
    dense_maxima,
    grid_sup,
    table_from_samples,
    wave,
    wave_left_max,
    wave_maximum,
    wave_right_max,
)

TWO_PI = 2 * math.pi


def make(fun, a, b, tail=None, hint="none", locally_bounded=True):
    return Function1D(
        eval=fun,
        domain=Domain(a, b),
        tail=tail or Tail.unknown(),
        monotonicity=hint,
        locally_bounded=locally_bounded,
    )


@pytest.fixture
def f_sin():
    return make(np.sin, 0.0, TWO_PI)


@pytest.fixture
def f_exp():
    return make(lambda x: np.exp(-x), 0.0, math.inf, tail=Tail.vanishing())


class TestEvaluate:
    XS = np.array([[0.5, 1.0, 2.0], [3.0, 4.5, 6.0]])

    def test_direct(self):
        f = make(lambda x: np.exp(-x), 0.0, math.inf)
        assert evaluate(f, 1.0) == pytest.approx(0.3678794412, abs=1e-10)

    def test_domain_violation(self):
        f = make(lambda x: 1 / x, 1.0, math.inf)
        with pytest.raises(DomainError):
            evaluate(f, 0.5)

    def test_log(self):
        f = make(np.log, 1.0, math.inf)
        assert evaluate(f, math.e) == pytest.approx(1.0, abs=1e-14)

    def test_non_finite(self):
        f = make(lambda x: 1 / (x - 5.0), 0.0, 10.0)
        with pytest.raises(NonFiniteValueError):
            evaluate(f, 5.0)

    def test_array_in_one_call_shaped_like_x(self):
        sizes = []
        f = make(lambda x: sizes.append(np.size(x)) or np.exp(-x), 0.0, math.inf)
        got = evaluate(f, self.XS)
        assert sizes == [6]
        assert got.shape == (2, 3)
        assert np.array_equal(got, [[evaluate(f, x) for x in row] for row in self.XS.tolist()])

    def test_scalar_only_source_read_pointwise(self):
        f = make(math.exp, 0.0, math.inf)
        assert evaluate(f, self.XS).tolist() == [[math.exp(x) for x in row]
                                                 for row in self.XS.tolist()]

    def test_array_names_the_first_point_outside(self):
        f = make(lambda x: 1 / x, 1.0, 4.0)
        with pytest.raises(DomainError, match=r"^x=0\.5 outside \[1\.0, 4\.0\)$"):
            evaluate(f, self.XS)

    def test_array_names_the_non_finite_x(self):
        f = make(lambda x: 1 / (x - 4.5), 0.0, 10.0)
        with pytest.raises(NonFiniteValueError, match=r"^non-finite value inf at x=4\.5$"):
            evaluate(f, self.XS)


class TestBatchEval:
    XS = np.linspace(-2.0, 3.0, 11)

    @pytest.mark.parametrize("fun", [math.exp, lambda x: x if x > 0 else -2.0 * x],
                             ids=["math.exp", "branching"])
    def test_scalar_only_falls_back_pointwise(self, fun):
        want = [fun(float(x)) for x in self.XS]
        assert batch_eval(fun, self.XS).tolist() == want

    def test_pointwise_fallback_matches_an_element_loop(self):
        xs = np.geomspace(1.0, 50.0, 4226)
        fun = lambda x: math.pow(x, -0.9)  # noqa: E731
        want = np.empty(len(xs))
        for i, x in enumerate(xs):
            want[i] = fun(float(x))
        assert np.array_equal(batch_eval(fun, xs), want)

    # math.exp rejects the array, so each of these is evaluated pointwise
    @pytest.mark.parametrize("wrap", [lambda y: np.array([y]), lambda y: "e^x"],
                             ids=["one-element-array", "str"])
    def test_pointwise_values_must_be_floats(self, wrap):
        with pytest.raises(ValueError):
            batch_eval(lambda x: wrap(math.exp(x)), self.XS)

    def test_pointwise_none_reads_nan(self):
        assert np.isnan(batch_eval(lambda x: math.exp(x) and None, self.XS)).all()

    def test_other_errors_propagate_from_the_array_call(self):
        seen = []

        def fails(x):
            seen.append(x)
            raise RuntimeError("no value")

        with pytest.raises(RuntimeError, match="no value"):
            batch_eval(fails, self.XS)
        assert len(seen) == 1 and seen[0] is self.XS


def calls_of(fun, sizes):
    """fun, appending the size of each call's argument."""
    def wrapped(x):
        sizes.append(np.size(x))
        return fun(x)
    return wrapped


def domain_error_at_3(x):
    if x == 3.0:
        raise DomainError("x=3.0 outside the source")
    return math.exp(x)


class TestSampleAndProbe:
    XS = np.array([1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("read", [sample, probe], ids=["sample", "probe"])
    def test_numpy_source_is_one_call(self, read):
        sizes = []
        ys = read(calls_of(np.exp, sizes), self.XS)
        assert sizes == [4]
        assert np.array_equal(ys, np.exp(self.XS))

    @pytest.mark.parametrize("read", [sample, probe], ids=["sample", "probe"])
    def test_scalar_only_source(self, read):
        assert read(math.exp, self.XS).tolist() == [math.exp(x) for x in self.XS.tolist()]

    def test_sample_raises_at_the_first_failure(self):
        with pytest.raises(NonFiniteValueError, match="evaluation failed while sampling"):
            sample(lambda x: math.log(x - 2.0), self.XS)
        with pytest.raises(NonFiniteValueError, match="non-finite value inf at x=3.0"):
            sample(lambda x: 1.0 / (3.0 - x) ** 2, self.XS)

    def test_sample_passes_library_errors_on(self):
        with pytest.raises(DomainError, match="x=3.0"):
            sample(domain_error_at_3, self.XS)

    @pytest.mark.parametrize("source", [
        lambda x: 1.0 / (3.0 - x) ** 2,  # numpy: inf at 3
        lambda x: math.exp(x) / (3.0 - x) ** 2,  # math: ZeroDivisionError at 3
        domain_error_at_3,  # MeanmaxError at 3
    ], ids=["numpy-inf", "math-raises", "meanmax-error"])
    def test_probe_reads_nan_only_where_the_source_fails(self, source):
        ys = probe(source, self.XS)
        assert np.isnan(ys).tolist() == [False, False, True, False]
        assert ys[3] == pytest.approx(source(4.0), rel=1e-15)


class TestRightMaximization:
    def test_decreasing_vanishing(self, f_exp):
        assert right_maximization(f_exp, 2.0) == pytest.approx(math.exp(-2), abs=1e-9)

    def test_sin_past_peak(self, f_sin):
        want = grid_sup(np.sin, 2.0, TWO_PI, n=10**6)
        got = right_maximization(f_sin, 2.0)
        assert got == pytest.approx(want, abs=2e-9)
        assert got == pytest.approx(math.sin(2.0), abs=1e-9)

    def test_sin_with_peak(self, f_sin):
        assert right_maximization(f_sin, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_hint_shortcut_is_exact(self):
        f = make(lambda x: 1 / x, 1.0, math.inf, hint="decreasing")
        assert right_maximization(f, 3.0) == 1 / 3.0

    def test_uncertifiable_tail(self):
        f = make(np.sin, 0.0, math.inf)
        with pytest.raises(UncertifiableTailError):
            right_maximization(f, 1.0)

    def test_bounded_tail_uses_grid_max(self):
        f = make(lambda x: np.exp(-x), 0.0, math.inf, tail=Tail.bounded_by(5.0))
        with pytest.warns(RuntimeWarning, match="tail bound"):
            got = right_maximization(f, 0.0)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_tail_scan_cap_warns_once(self):
        # 1/ln x never drops below 0.5e-9 before TAIL_SCAN_CAP
        f = make(lambda x: 1 / np.log(x), math.e, math.inf, tail=Tail.vanishing())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = right_maximization(f, math.e)
        assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning,
                                                                   TAIL_CAP_NOTE)]
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_unattained_bound_warns_once(self):
        f = make(lambda x: np.exp(-x), 0.0, math.inf, tail=Tail.bounded_by(5.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = right_maximization(f, 0.0)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "tail bound 5.0 not attained by the sampled maximum 1.0")]
        assert got == 1.0

    def test_overflow_guard(self):
        f = make(np.exp, 0.0, 695.0)  # e^695 = 6.8e301 is finite, past the guard
        for sup in (right_maximization, left_maximization):
            with pytest.raises(NonFiniteValueError,
                               match="^envelope values exceed the overflow guard$"):
                sup(f, 694.0)

    # The shortcut suprema read one point of f and pass the same guard.
    @pytest.mark.parametrize("sup,hint,r", [
        (right_maximization, "decreasing", 0.1),
        (left_maximization, "increasing", 0.1),
        (left_maximization, "decreasing", 0.1),
        (left_maximization, "none", 0.0),
    ], ids=["right-decreasing", "left-increasing", "left-decreasing", "left-at-a"])
    def test_overflow_guard_on_shortcuts(self, sup, hint, r):
        f = make(lambda x: 1e305 * np.exp(-x), 0.0, 50.0, hint=hint)
        with pytest.raises(NonFiniteValueError,
                           match="^envelope values exceed the overflow guard$"):
            sup(f, r)

    def test_result_at_least_f_r(self, f_sin):
        for r in (0.5, 2.5, 4.0):
            assert right_maximization(f_sin, r) >= math.sin(r) - 1e-12


class TestLeftMaximization:
    def test_increasing(self):
        f = make(lambda x: x, 0.0, 10.0)
        assert left_maximization(f, 3.0) == pytest.approx(3.0, abs=1e-9)

    def test_decreasing(self, f_exp):
        assert left_maximization(f_exp, 5.0) == pytest.approx(1.0, abs=1e-9)

    def test_sin(self, f_sin):
        want = grid_sup(np.sin, 0.0, 3.0, n=10**6)
        assert left_maximization(f_sin, 3.0) == pytest.approx(want, abs=2e-9)
        assert left_maximization(f_sin, 3.0) == pytest.approx(1.0, abs=1e-9)

    def test_closed_right_endpoint(self):
        # the interval [a, r] includes r, so an increasing function attains it
        f = make(lambda x: x**2, 0.0, 2.0)
        assert left_maximization(f, 1.5) == pytest.approx(2.25, abs=1e-9)

    def test_at_left_endpoint(self, f_exp):
        assert left_maximization(f_exp, 0.0) == 1.0

    def test_increasing_hint_reads_f_at_r(self):
        # The hint is trusted: sin is not increasing on [0, 3], and sup is 1.
        f = make(np.sin, 0.0, 5.0, hint="increasing")
        assert left_maximization(f, 3.0) == math.sin(3.0)

    def test_decreasing_hint_reads_f_at_a(self):
        f = make(np.sin, 0.5, 5.0, hint="decreasing")
        assert left_maximization(f, 3.0) == math.sin(0.5)

    def test_at_left_endpoint_reads_one_point(self):
        seen = []
        f = make(lambda x: seen.append(np.size(x)) or np.sin(x), 0.5, 5.0)
        assert left_maximization(f, 0.5) == math.sin(0.5)
        assert seen == [1]

    def test_unbounded_flag(self):
        f = make(lambda x: 1 / (1 - x), 0.0, 1.0, locally_bounded=False)
        with pytest.raises(UnboundedSupError):
            left_maximization(f, 0.5)

    def test_envelope_to_the_horizon_from_0(self):
        # The left envelope of an unbounded domain samples [0, 1e6]; nodes
        # about 244 apart read 0.037 at x = 3 and 0.0 at x = 10.
        f = make(lambda x: np.exp(-x / 50) * np.sin(x), 0.0, math.inf, tail=Tail.vanishing())
        env = envelope_function(f, "left")
        for x in (3.0, 10.0):
            assert abs(env.value_at(x) - left_maximization(f, x)) <= env.eps_sup


class TestEnvelope:
    def test_notes(self, f_exp):
        inv_log = make(lambda x: 1 / np.log(x), math.e, math.inf, tail=Tail.vanishing())
        assert envelope_function(inv_log, "right").notes == [TAIL_CAP_NOTE]
        assert envelope_function(inv_log, "left").notes == []
        assert envelope_function(f_exp, "right").notes == []

    def test_right_of_decreasing_is_f(self, f_exp):
        env = envelope_function(f_exp, "right")
        fs = np.exp(-env.xs)
        assert np.allclose(env.table, fs, rtol=0, atol=1e-12)

    def test_left_of_sin(self, f_sin):
        env = envelope_function(f_sin, "left")
        for r in (0.3, 1.0, 1.5):
            assert env.value_at(r) == pytest.approx(math.sin(min(r, math.pi / 2)), abs=1e-8)
        for r in (2.0, 4.0, 6.0):
            assert env.value_at(r) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_kinks_bound_runs_of_one_kind(self, side):
        f = make(wave, 0.0, math.inf, tail=Tail.vanishing())
        env = envelope_function(f, side)
        kinks = env.kinks()
        assert np.array_equal(env.as_function().breaks, kinks)
        assert kinks[0] == env.xs[0] and kinks[-1] == env.xs[-1]
        # Between two kinks the table is flat throughout or steep throughout.
        steep = env.table[:-1] != env.table[1:]
        at = np.searchsorted(env.xs, kinks)
        assert all(len(set(steep[i:j])) == 1 for i, j in zip(at[:-1], at[1:]))
        assert len(kinks) < len(env.xs) / 10
        below = env.kinks(20.0)
        assert np.array_equal(below[:-1], kinks[kinks < below[-1]])
        assert below[-1] == env.xs[env.xs < 20.0][-1]

    def test_kinks_of_a_decreasing_function_are_its_ends(self, f_exp):
        env = envelope_function(f_exp, "right")
        assert env.kinks().tolist() == [env.xs[0], env.xs[-1]]

    def test_right_of_constant(self):
        f = make(lambda x: 7.0 + 0 * x, 0.0, 5.0)
        env = envelope_function(f, "right")
        assert np.all(env.table == 7.0)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_constant_costs_only_the_grid(self, side):
        points = 0

        def counted(x):
            nonlocal points
            points += np.size(x)
            return 7.0 + 0 * x

        grid = GridSpec()
        env = envelope_function(make(counted, 0.0, 5.0), side, grid)
        assert points == grid.node_count
        assert len(env.xs) == grid.node_count

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_wave_exact_beside_every_maximum(self, side):
        f = make(wave, 0.0, math.inf, tail=Tail.vanishing())
        env = envelope_function(f, side)
        maxima = [wave_maximum(k) for k in range(24)]  # every maximum below x = 30
        qs = np.array([x + s * dx for x in maxima for dx in (1e-7, 1e-5, 1e-3) for s in (-1, 1)])
        want = wave_right_max(qs) if side == "right" else wave_left_max(qs)
        assert np.all(np.abs(env.value_at(qs) - want) <= env.eps_sup)

    def test_tables_are_exactly_monotone(self, f_sin):
        right = envelope_function(f_sin, "right")
        left = envelope_function(f_sin, "left")
        assert np.all(np.diff(right.table) <= 0)
        assert np.all(np.diff(left.table) >= 0)

    def test_table_matches_brute_force(self, f_sin):
        env = envelope_function(f_sin, "right", GridSpec(node_count=257))
        want = table_from_samples(env.xs, env.xs, np.sin(env.xs), "right")
        assert np.array_equal(env.table, want)

    def test_pointwise_domination(self, f_sin):
        env = envelope_function(f_sin, "right")
        assert np.all(env.table >= np.sin(env.xs))

    def test_sup_identity(self, f_sin):
        env = envelope_function(f_sin, "right")
        assert abs(float(env.table.max()) - float(np.sin(env.xs).max())) <= 2 * env.eps_sup

    def test_idempotence_exact(self, f_sin):
        grid = GridSpec(node_count=257)
        env1 = envelope_function(f_sin, "right", grid)
        env2 = envelope_function(env1.as_function(), "right", grid)
        assert np.array_equal(env2.value_at(env1.xs), env1.table)

    def test_vectorized_queries_match_scalar(self, f_sin):
        env = envelope_function(f_sin, "right")
        qs = np.linspace(0.1, 6.0, 37)
        vec = env.value_at(qs)
        assert vec == pytest.approx([env.value_at(float(q)) for q in qs], abs=0)

    def test_query_errors(self):
        armed = False

        def scalar_only(x):
            x = float(x)  # rejects arrays of more than one point
            return 1.0 / (x - 3.5) if armed and x == 3.5 else math.exp(-x)

        env = envelope_function(make(scalar_only, 0.0, 10.0), "right", GridSpec(node_count=257))
        armed = True
        for x in (-1.0, 10.0, math.nan, np.array([1.0, 10.0])):
            with pytest.raises(DomainError):
                env.value_at(x)
        for x in (3.5, np.array([1.0, 3.5])):
            with pytest.raises(NonFiniteValueError):
                env.value_at(x)
        got = env.value_at(2.0)
        assert type(got) is float and got == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_oracle_equivalence(self, f_sin, f_exp):
        grid = GridSpec()
        for r in (0.5, 2.0, 4.5):
            want = grid_sup(np.sin, r, TWO_PI, n=10**6)
            assert abs(right_maximization(f_sin, r, grid) - want) <= 2e-9
        for r in (0.0, 1.0, 3.0):
            want = math.exp(-r)
            assert abs(right_maximization(f_exp, r, grid) - want) <= 2e-9


class TestMaximaRefinement:
    def test_wave_refinement_takes_few_calls(self):
        # The tail scan reads one point per call before the node grid; every
        # call after the grid's is a refinement step, shared by all 26 peaks.
        sizes = []
        grid = GridSpec()
        f = make(calls_of(wave, sizes), 0.0, math.inf, tail=Tail.vanishing())
        envelope_function(f, "right", grid)
        assert len(sizes) - 1 - sizes.index(grid.node_count) <= 12

    @pytest.mark.parametrize("side,hint,steps", [
        ("right", "decreasing", [3]),
        # Near x = 20, 1 - exp(-x) is flat to rounding: the point 2^-20 of the
        # end gap inside ties with the end node, and one more step settles it.
        ("left", "increasing", [3, 1]),
    ])
    def test_a_monotone_side_takes_few_refinement_points(self, side, hint, steps):
        # exp(-x) has its one peak at the window's left end, 1 - exp(-x) at its
        # right end, and refinement finds nothing above it.
        fun = (lambda x: np.exp(-x)) if hint == "decreasing" else (lambda x: 1 - np.exp(-x))
        sizes = []
        grid = GridSpec()
        env = envelope_function(make(calls_of(fun, sizes), 0.0, 20.0, hint=hint), side, grid)
        assert sizes == [grid.node_count] + steps
        assert np.array_equal(env.table, fun(env.xs))
        assert env.table.max() == fun(0.0 if hint == "decreasing" else env.xs[-1])

    @pytest.mark.parametrize("fun,x_max", [
        # a hump that the end gap's golden-section points see
        (lambda x: np.exp(-x) + 0.6 * np.exp(-(((x - 0.035) / 0.01) ** 2)), None),
        # a maximum 3e-4 inside the gap, 1.7e-7 above the end node: a parabola
        # through the golden-section points puts its vertex left of 0
        (lambda x: (x + 0.0997) * np.exp(-10 * (x + 0.0997)), 0.0003),
    ], ids=["hump", "beside-the-end"])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_maximum_inside_the_first_gap_of_an_end_peak(self, fun, x_max, side):
        grid = GridSpec(node_count=129)  # the first gap is [0, 0.078125]
        env = envelope_function(make(fun, 0.0, 10.0), side, grid)
        assert fun(0.0) > fun(10.0 / 128)  # the left end node is a peak
        top = fun(x_max) if x_max else grid_sup(fun, 0.0, 10.0 / 128, 2_000_001)
        assert abs(float(env.table.max()) - top) <= env.eps_sup
        assert fun(0.0) < top - 100 * env.eps_sup

    def test_a_vertex_that_lands_on_the_best_point_is_checked(self):
        # The parabola through a best point 6.1e-5 from the maximum at 6.59734
        # and two far points puts its vertex within 4e-8 of the best point:
        # it predicts no gain, by chance.
        fun = _damped([
            (-0.31748691716373934, 1.38480951807973, 3.2590691761612733, 3.1909497746156026),
            (0.09402634234866536, 0.12618681506758805, 2.9206870181171882, 1.0986473236331924),
            (-1.984270072697432, 1.2188386306891104, 1.447906917173969, 2.840957594771738),
        ])
        env = envelope_function(make(fun, 0.0, 10.0), "right", GridSpec(node_count=129))
        top = grid_sup(fun, 6.5970, 6.5977, 10**6)
        assert abs(env.value_at(6.5965) - top) <= 4 * 2.0**-52

    def test_wave_maxima_within_a_rounding_unit(self):
        # Every refined maximum below the sampling end is within one rounding
        # unit of the closed form, on eps_sup's scale max(1, |f|).
        env = envelope_function(make(wave, 0.0, math.inf, tail=Tail.vanishing()), "right")
        maxima = np.array([wave_maximum(k) for k in range(24)])
        maxima = maxima[maxima < env.sampling_end]
        assert len(maxima) == 24
        nearest = env.xs[np.abs(env.xs[:, None] - maxima).argmin(axis=0)]
        want = wave(maxima)
        assert np.all(np.abs(wave(nearest) - want) <= 2.0**-52 * np.maximum(1.0, want))


class TestClassify:
    def test_decreasing(self):
        assert classify_monotonicity(make(lambda x: -x, 0.0, 10.0)) == "decreasing"

    def test_increasing(self):
        assert classify_monotonicity(make(lambda x: x**2, 0.0, 1.0)) == "increasing"

    def test_neither(self):
        assert classify_monotonicity(make(np.sin, 0.0, TWO_PI)) == "neither"

    def test_constant_counts_as_decreasing(self):
        assert classify_monotonicity(make(lambda x: 3.0 + 0 * x, 0.0, 5.0)) == "decreasing"

    def test_rising_start_on_unbounded_domain(self):
        # Rises on [0, 1.1], then decays with ripples; nodes about 244 apart
        # from 0 to the horizon 1e6 saw only the decay.
        f = make(lambda x: np.exp(-x / 50) * (1 + 0.5 * np.sin(x)), 0.0, math.inf)
        assert classify_monotonicity(f) == "neither"


class TestBuildNodes:
    @pytest.mark.parametrize("lo,hi", [(0.0, 1e6), (-3.0, 1e6), (0.0, 101.0), (-5.0, 2e9)])
    def test_uniform_to_1_then_geometric(self, lo, hi):
        xs = build_nodes(lo, hi, 4097)
        assert len(xs) == 4097 and xs[0] == lo and xs[-1] == hi
        gaps = np.diff(xs)
        assert np.all(gaps > 0)
        low, high = xs[xs <= 1.0], xs[xs >= 1.0]
        step = gaps[0]
        assert np.allclose(np.diff(low), step, rtol=1e-6)
        assert np.allclose(high[1:] / high[:-1], 1 + step, rtol=1e-3)
        assert np.allclose(np.diff(np.log(high[1:])), np.log(high[2] / high[1]), rtol=1e-6)

    @pytest.mark.parametrize("lo,hi", [(0.0, 100.0), (-2.0, 150.0), (-1e6, 1e6)])
    def test_uniform_when_the_positive_part_is_narrow(self, lo, hi):
        xs = build_nodes(lo, hi, 129)
        assert np.array_equal(xs, np.linspace(lo, hi, 129))

    @pytest.mark.parametrize("lo,hi", [(1.0, 1e6), (0.5, 20.0), (1e-3, 1.0)])
    def test_positive_windows_unchanged(self, lo, hi):
        xs = build_nodes(lo, hi, 257)
        want = np.geomspace(lo, hi, 257) if hi / lo > 100 else np.linspace(lo, hi, 257)
        want[0], want[-1] = lo, hi
        assert np.array_equal(xs, want)


@st.composite
def damped_oscillations(draw):
    terms = draw(st.integers(min_value=1, max_value=3))
    coeffs = []
    for _ in range(terms):
        c = draw(st.floats(min_value=-2.0, max_value=2.0))
        decay = draw(st.floats(min_value=0.1, max_value=1.5))
        freq = draw(st.floats(min_value=0.5, max_value=6.0))
        phase = draw(st.floats(min_value=0.0, max_value=6.0))
        coeffs.append((c, decay, freq, phase))
    return coeffs


def _damped(coeffs):
    def fun(x):
        total = 0.0 * x
        for c, d, w, p in coeffs:
            total = total + c * np.exp(-d * x) * np.sin(w * x + p)
        return total

    return fun


# 2 e^(-0.1x) sin(6x + p) peaks 2e-5 inside [0, 10], within one dense_maxima step
# of 0, where it lies 1.4e-8 above f(0).
@given(damped_oscillations(), st.sampled_from(["right", "left"]))
@example([(2.0, 0.1, 6.0, math.atan(60.0) - 6.0 * 2e-5)], "left")
@settings(max_examples=25, deadline=None)
def test_envelope_invariants_random(coeffs, side):
    fun = _damped(coeffs)
    env = envelope_function(make(fun, 0.0, 10.0), side, GridSpec(node_count=129))
    diffs = np.diff(env.table)
    if side == "right":
        assert np.all(diffs <= 0)
    else:
        assert np.all(diffs >= 0)
    assert np.all(env.table >= fun(env.xs) - 1e-15)
    assert float(env.table.max()) == float(fun(env.xs).max())
    # eps_sup beside every local maximum, against dense-grid maxima, when the
    # grid resolves the function: no two of its extrema share a bracket of
    # two node gaps (a max-min pair inside one gap is invisible to the nodes).
    xk, mk = dense_maxima(fun, 0.0, 10.0)
    troughs, _ = dense_maxima(lambda x: -fun(x), 0.0, 10.0)
    if np.any(np.diff(np.sort(np.concatenate([xk, troughs]))) <= 2 * 10.0 / 128):
        return
    # dense_maxima sees interior grid maxima only: a maximum within one grid
    # step of 0 or 10 is read from the end gap itself.
    step = 10.0 / 200_000
    for q in np.concatenate([xk - 1e-3, xk + 1e-3]):
        if not 0.0 <= q < 10.0:
            continue
        if side == "right":
            end = grid_sup(fun, 10.0 - step, 10.0, 4001)
            want = max(fun(q), end, mk[xk >= q].max(initial=-math.inf))
        else:
            end = grid_sup(fun, 0.0, step, 4001)
            want = max(fun(q), end, mk[xk <= q].max(initial=-math.inf))
        assert abs(env.value_at(q) - want) <= env.eps_sup


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(node_count=2)

    def test_effective_eps_scales(self):
        g = GridSpec()
        assert g.effective_eps(0.5) == pytest.approx(1e-9)
        assert g.effective_eps(100.0) == pytest.approx(1e-7)


class TestDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            Domain(2.0, 1.0)
        with pytest.raises(ValueError):
            Domain(math.inf, math.inf)

    def test_contains_half_open(self):
        d = Domain(0.0, 1.0)
        assert d.contains(0.0) and d.contains(0.999) and not d.contains(1.0)
