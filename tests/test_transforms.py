import math
import sys
import threading

import numpy as np
import pytest

from meanmax.errors import UnboundedSupError
from meanmax.func1d import RIGHT, Domain, Function1D, GridSpec, Tail, envelope_function
from meanmax.stieltjes import Measure1D, identity_measure, integral_mean, log_measure
from meanmax.transforms import (
    Q_from_d,
    WeightN,
    d_from_Q,
    decreasing_majorant_mean,
    weighted_double_envelope,
)

from oracles import midpoint_stieltjes, piecewise_midpoint


def fn(fun, a, b, tail=None, hint="none"):
    return Function1D(
        eval=fun, domain=Domain(a, b), tail=tail or Tail.unknown(), monotonicity=hint
    )


class TestDecreasingMajorantMean:
    def test_exponential_identity_measure(self):
        f = fn(lambda x: np.exp(-x), 0.0, math.inf, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, identity_measure(0.0))
        assert not res.warnings
        for R in (0.5, 1.0, 5.0, 20.0):
            assert res.fn(R) == pytest.approx((1 - math.exp(-R)) / R, rel=1e-8)

    def test_zero_function(self):
        f = fn(lambda x: 0.0 * x, 0.0, math.inf, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, identity_measure(0.0))
        for R in (1.0, 10.0):
            assert res.fn(R) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_log_measure(self):
        f = fn(lambda x: 1 / x, 1.0, math.inf, tail=Tail.vanishing(), hint="decreasing")
        res = decreasing_majorant_mean(f, log_measure(1.0))
        # 1e25 lies far past the sampling end, 1e6
        for R in (10.0, 100.0, 1e4, 1e25):
            assert res.fn(R) == pytest.approx((1 - 1 / R) / math.log(R), rel=1e-9)

    def test_decreasing_in_R(self):
        f = fn(lambda x: 1 / x, 1.0, math.inf, tail=Tail.vanishing(), hint="decreasing")
        res = decreasing_majorant_mean(f, log_measure(1.0))
        Rs = np.geomspace(2.0, 1e4, 25)
        vals = [res.fn(float(R)) for R in Rs]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_extension_at_left_endpoint(self):
        f = fn(lambda x: np.exp(-x), 0.0, math.inf, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, identity_measure(0.0))
        assert res.fn(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_dominates_means_oracle(self):
        f = fn(lambda x: np.exp(-x), 0.0, 50.0, tail=Tail.vanishing())
        m = identity_measure(0.0, 50.0)
        res = decreasing_majorant_mean(f, m)
        rng = np.random.default_rng(3)
        for _ in range(50):
            r, R = np.sort(rng.uniform(0.0, 40.0, size=2))
            if R - r < 1e-3:
                continue
            lhs = integral_mean(f, m, float(r), float(R)).value
            rhs = res.fn(float(R))
            assert lhs <= rhs + 1e-8 * (1 + abs(rhs))

    def test_hypothesis_warnings(self):
        f = fn(lambda x: np.exp(-x), 0.0, math.inf, tail=Tail.unknown(), hint="decreasing")
        m = identity_measure(0.0)
        m.diverges = False
        res = decreasing_majorant_mean(f, m)
        assert len(res.warnings) == 2

    def test_cache_reuse_and_thread_safety(self):
        f = fn(lambda x: np.exp(-x), 0.0, math.inf, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, identity_measure(0.0))
        first = res.fn(3.0)
        values = []

        def worker():
            values.append(res.fn(3.0))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert values == [first] * 4


def wave(x):
    return np.exp(-x) * (1 + 0.5 * np.sin(5 * x))


# Local maxima of wave: 2.5 cos 5x - 0.5 sin 5x = 1 on the falling side.
WAVE_MAXIMA = [
    (math.acos(1 / math.sqrt(6.5)) - math.atan2(0.5, 2.5) + 2 * math.pi * k) / 5
    for k in range(26)
]


class TestMajorantTable:
    """D(R) against piecewise midpoint sums of the same envelope, gap by gap."""

    def check_against_reference(self, res, f, m, Rs, panels):
        env = envelope_function(f, RIGHT)  # the same build as the one inside res
        a = f.domain.a
        Rs = np.asarray(Rs, dtype=float)
        ref = piecewise_midpoint(env.value_at, m.m, env.xs, a, Rs, panels)
        for R, I in zip(Rs, ref):
            dm = m.m(R) - m.m(a)
            tol = max(1e-10, 1e-9 * abs(I)) / dm
            assert abs(res.fn(float(R)) - I / dm) <= tol, R
        return env

    def test_wave_identity_measure(self):
        f = fn(wave, 0.0, math.inf, tail=Tail.vanishing())
        m = identity_measure(0.0)
        res = decreasing_majorant_mean(f, m)
        assert res.log["envelope_sampling_end"] < 40.0
        beside = [x + s for x in WAVE_MAXIMA for s in (-1e-3, 1e-3)]
        Rs = [1.0, 2.5 + 1 / 300, 7.1, *beside, 40.0]
        env = self.check_against_reference(res, f, m, Rs, panels=1000)
        assert 1.0 in env.xs and not np.isin(Rs[1:3], env.xs).any()

    def test_maximum_inside_a_gap(self):
        # The first maximum, x = 0.2782, lies inside the node gap [0.25, 0.28125],
        # where the envelope rises above its lower table value only over the
        # last quarter of the gap: none of the five Simpson points of the gap
        # sees that, the refinement samples around the maximum do.
        f = fn(lambda x: np.exp(-0.3 * x) * (1 + 0.5 * np.sin(5 * x)), 0.0, math.inf,
               tail=Tail.vanishing())
        m = identity_measure(0.0)
        res = decreasing_majorant_mean(f, m)
        self.check_against_reference(res, f, m, [0.27, 0.99, 3.0], panels=4000)

    def test_inverse_log_measure(self):
        f = fn(lambda x: 1 / x, 1.0, math.inf, tail=Tail.vanishing(), hint="decreasing")
        m = log_measure(1.0)
        res = decreasing_majorant_mean(f, m)
        self.check_against_reference(res, f, m, [1.5, 10.0, 123.4, 1e4], panels=200)

    def test_tabulated_measure(self):
        xs = np.geomspace(1.0, 50.0, 257)
        ms = np.log(xs)
        m = Measure1D(m=lambda x: np.interp(x, xs, ms), domain=Domain(1.0, 50.0),
                      diverges=True)
        f = fn(wave, 1.0, 50.0, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, m)
        self.check_against_reference(res, f, m, [1.2, 3.3, 17.0, 49.0], panels=1000)

    def test_array_queries_match_scalar_ones(self):
        f = fn(wave, 0.0, math.inf, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, identity_measure(0.0))
        Rs = np.array([0.0, 0.3, 2.0, 33.0])
        want = [res.fn(float(R)) for R in Rs]
        assert res.fn.eval(Rs) == pytest.approx(want, rel=1e-14)

    def test_concurrent_first_queries(self):
        f = fn(wave, 0.0, math.inf, tail=Tail.vanishing())
        Rs = [0.7, 3.0, 12.0, 40.0]
        want = [decreasing_majorant_mean(f, identity_measure(0.0)).fn(R) for R in Rs]
        res = decreasing_majorant_mean(f, identity_measure(0.0))
        got = {}

        def worker(k):
            got[k] = [res.fn(R) for R in Rs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {k: want for k in range(8)}

    def test_flat_gaps_read_no_source_point(self):
        read = []

        def recorded(x):
            read.append(np.array(x, dtype=float).ravel())
            return wave(x)

        f = fn(recorded, 0.0, math.inf, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, identity_measure(0.0))
        read.clear()
        res.fn(40.0)
        x = np.concatenate(read)
        env = envelope_function(fn(wave, 0.0, math.inf, tail=Tail.vanishing()), RIGHT)
        j = np.searchsorted(env.xs, x)
        inside = (j > 0) & (j < len(env.xs)) & ~np.isin(x, env.xs)
        flat = env.table[j[inside] - 1] == env.table[j[inside]]
        assert (env.table[:-1] == env.table[1:]).sum() > 10
        assert len(x) and not flat.any()

    def test_source_point_budget(self):
        points = 0

        def counted(x):
            nonlocal points
            points += np.size(x)
            return wave(x)

        f = fn(counted, 0.0, math.inf, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, identity_measure(0.0))
        points = 0
        for R in np.geomspace(1.0, 40.0, 16):
            res.fn(float(R))
        assert points <= 50_000


class TestWeightedDoubleEnvelope:
    def test_constant_function(self):
        f = fn(lambda x: 7.0 + 0 * x, 1.0, math.inf, hint="decreasing")
        res = weighted_double_envelope(f, WeightN(n=lambda x: x, domain=f.domain))
        for R in (1.0, 4.0, 100.0):
            assert res.fn(R) == pytest.approx(7.0, rel=1e-12)

    def test_inverse_log(self):
        f = fn(lambda x: 1 / np.log(x), math.e, math.inf,
               tail=Tail.vanishing(), hint="decreasing")
        res = weighted_double_envelope(f, WeightN(n=lambda x: x, domain=f.domain))
        assert not res.warnings
        for R in np.geomspace(5.0, 2e4, 10):
            assert res.fn(float(R)) == pytest.approx(1 / math.log(R), rel=1e-9)

    def test_exponential(self):
        # x * exp(-x) decreases past x = 1, so the left max sits at the endpoint
        f = fn(lambda x: np.exp(-x), 1.0, math.inf, tail=Tail.vanishing(), hint="decreasing")
        res = weighted_double_envelope(f, WeightN(n=lambda x: x, domain=f.domain))
        for R in (2.0, 10.0, 1e3):
            assert res.fn(R) == pytest.approx(math.exp(-1) / R, rel=1e-9)

    def test_core_is_increasing(self):
        f = fn(lambda x: 1 / np.log(x), math.e, 1e6, tail=Tail.vanishing(), hint="decreasing")
        res = weighted_double_envelope(f, WeightN(n=lambda x: x, domain=f.domain))
        Rs = np.geomspace(3.0, 9e5, 40)
        core = [R * res.fn(float(R)) for R in Rs]
        assert np.all(np.diff(core) >= -1e-9)

    def test_pointwise_bound_oracle(self):
        f = fn(lambda x: np.exp(-x), 1.0, 100.0, tail=Tail.vanishing(), hint="decreasing")
        m = log_measure(1.0, 100.0)
        m.diverges = True
        res = weighted_double_envelope(f, WeightN(n=lambda x: x, domain=f.domain))
        rng = np.random.default_rng(5)
        for _ in range(50):
            r, R = np.sort(np.exp(rng.uniform(0.0, math.log(90.0), size=2)))
            if R / r < 1.001:
                continue
            lhs = math.exp(-R)
            rhs = integral_mean(res.fn, m, float(r), float(R)).value
            # closed form of the mean: e^-1 (1/r - 1/R) / ln(R/r)
            want = math.exp(-1) * (1 / r - 1 / R) / math.log(R / r)
            assert rhs == pytest.approx(want, rel=1e-8)
            assert lhs <= rhs + 1e-8 * (1 + abs(rhs))

    def test_weight_must_be_positive(self):
        f = fn(lambda x: np.exp(-x), 0.0, 10.0)
        with pytest.raises(ValueError):
            weighted_double_envelope(f, WeightN(n=lambda x: x, domain=f.domain))


class TestDFromQ:
    def test_sqrt_closed_form(self):
        Q = fn(lambda x: np.sqrt(x), 1.0, math.inf)
        res = d_from_Q(Q, 1.0)
        assert not res.warnings
        assert res.fn(math.e**2) == pytest.approx(1 - math.exp(-1), abs=1e-9)
        for R in (10.0, 1e3):
            want = 2 * (1 - R**-0.5) / math.log(R)
            assert res.fn(R) == pytest.approx(want, rel=1e-9)

    def test_constant_Q(self):
        Q = fn(lambda x: 3.0 + 0 * x, 1.0, math.inf)
        res = d_from_Q(Q, 1.0)
        for R in (5.0, 50.0):
            assert res.fn(R) == pytest.approx(3 * (1 - 1 / R) / math.log(R), rel=1e-9)

    def test_linear_Q_warns(self):
        Q = fn(lambda x: x, 1.0, math.inf)
        res = d_from_Q(Q, 1.0)
        assert any("does not tend to 0" in w for w in res.warnings)
        # construction still evaluable: the ratio is constant 1, so d == 1
        assert res.fn(10.0) == pytest.approx(1.0, rel=1e-9)

    def test_extension_at_r0(self):
        Q = fn(lambda x: np.sqrt(x), 1.0, math.inf)
        res = d_from_Q(Q, 1.0)
        assert res.fn(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_requires_positive_r0(self):
        Q = fn(lambda x: np.sqrt(x), 0.0, math.inf)
        with pytest.raises(ValueError):
            d_from_Q(Q, 0.0)

    def test_bound_holds_oracle(self):
        Q = fn(lambda x: np.sqrt(x), 1.0, math.inf)
        res = d_from_Q(Q, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(25):
            r, R = np.sort(np.exp(rng.uniform(0.0, math.log(1e4), size=2)))
            if R / r < 1.001:
                continue
            integral = 2 * (r**-0.5 - R**-0.5)
            bound = res.fn(float(R)) * math.log(R / r)
            assert integral <= bound + 1e-8 * (1 + bound)


class TestQFromD:
    def test_inverse_log_closed_form(self):
        d = fn(lambda x: 1 / np.log(x), math.e, math.inf, hint="decreasing")
        res = Q_from_d(d, math.e)
        assert not res.warnings
        for R in np.geomspace(5.0, 1e6, 10):
            assert res.fn(float(R)) == pytest.approx(R / math.log(R), rel=1e-9)

    def test_inverse_gives_constant(self):
        d = fn(lambda x: 1 / x, 1.0, math.inf)
        res = Q_from_d(d, 1.0)
        for R in (2.0, 7.0, 1e3):
            assert res.fn(R) == pytest.approx(1.0, rel=1e-9)

    def test_constant_d_warns_but_builds(self):
        d = fn(lambda x: 2.0 + 0 * x, 1.0, math.inf, hint="decreasing")
        res = Q_from_d(d, 1.0)
        assert any("does not tend to 0" in w for w in res.warnings)
        assert res.fn(5.0) == pytest.approx(10.0, rel=1e-12)

    def test_Q_is_increasing(self):
        d = fn(lambda x: 1 / np.log(x), math.e, math.inf, hint="decreasing")
        res = Q_from_d(d, math.e)
        Rs = np.geomspace(3.0, 1e5, 30)
        vals = [res.fn(float(R)) for R in Rs]
        assert np.all(np.diff(vals) >= 0)

    def test_rejects_unbounded_density(self):
        d = Function1D(
            eval=lambda x: 1 / (2 - x), domain=Domain(1.0, 2.0), locally_bounded=False
        )
        with pytest.raises(UnboundedSupError):
            Q_from_d(d, 1.0)

    def test_bound_holds_quadrature_oracle(self):
        d = fn(lambda x: 1 / np.log(x), math.e, math.inf, hint="decreasing")
        res = Q_from_d(d, math.e)
        # pointwise spec example: d(e^2) ln(e) = 0.5 <= integral = ln 2
        r, R = math.e, math.e**2
        integral = midpoint_stieltjes(
            lambda x: res.fn.eval(x) / x**2, lambda x: x, r, R, panels=20000
        )
        bound = d.eval(R) * math.log(R / r)
        assert bound == pytest.approx(0.5, abs=1e-12)
        assert integral == pytest.approx(math.log(2), rel=1e-4)
        assert bound <= integral


class TestDuality:
    def test_round_trip_stays_sublinear(self):
        grid = GridSpec(node_count=65)
        Q = fn(lambda x: np.sqrt(x), 1.0, math.inf)
        d1 = d_from_Q(Q, 1.0, grid=grid)
        q2 = Q_from_d(d1.fn, 1.0, grid=grid)
        assert not q2.warnings
        ratios = [q2.fn(X) / X for X in (10.0, 1e2, 1e3, 1e4)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.5 * ratios[0]
