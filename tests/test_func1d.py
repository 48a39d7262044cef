import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanmax.errors import (
    DomainError,
    NonFiniteValueError,
    UnboundedSupError,
    UncertifiableTailError,
)
from meanmax.func1d import (
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
    right_maximization,
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


@given(damped_oscillations(), st.sampled_from(["right", "left"]))
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
    for q in np.concatenate([xk - 1e-3, xk + 1e-3]):
        if not 0.0 <= q < 10.0:
            continue
        if side == "right":
            want = max(fun(q), fun(10.0), mk[xk >= q].max(initial=-math.inf))
        else:
            want = max(fun(q), fun(0.0), mk[xk <= q].max(initial=-math.inf))
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
