import math
import re
import sys
import threading

import numpy as np
import pytest

from meanmax.cli import TabulatedFunction
from meanmax.errors import DomainError, MeanmaxError, UnboundedSupError
from meanmax.exprparse import compile_expression, parse_expression
from meanmax.func1d import (RIGHT, TAIL_CAP_NOTE, Domain, Function1D, GridSpec, Tail,
                            envelope_function, evaluate)
from meanmax.stieltjes import Measure1D, identity_measure, integral_mean, log_measure
from meanmax.transforms import (
    Q_from_d,
    WeightN,
    _decays_to_zero,
    d_from_Q,
    decreasing_majorant_mean,
    weighted_double_envelope,
)

from oracles import (
    midpoint_stieltjes,
    piecewise_midpoint,
    wave,
    wave_maximum,
    wave_right_max_integral,
)


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

    def test_peak_at_the_left_end(self):
        # exp(-1000 x) + 10 - x decreases, so it is its own envelope.  The
        # table is one run from a = 0, on which G7 and K15 are exact for the
        # linear part; the mass of exp(-1000 x) lies within 0.005 of a.
        f = fn(lambda x: np.exp(-1000 * x) + (10 - x), 0.0, 10.0)
        res = decreasing_majorant_mean(f, identity_measure(0.0, 10.0))
        for R in (1e-3, 0.1, 5.0, 9.9):
            want = -math.expm1(-1000 * R) / 1000 + 10 * R - R * R / 2
            assert abs(res.fn(R) * R - want) <= max(1e-10, 1e-9 * want), R

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


WAVE_MAXIMA = [wave_maximum(k) for k in range(26)]


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

    def test_wave_against_closed_form(self):
        # Beside every maximum the envelope must come within eps_sup of the
        # right maximization, so D stays within eps_sup plus the quadrature
        # tolerance of the integral of the exact right maximization.
        f = fn(wave, 0.0, math.inf, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, identity_measure(0.0))
        for R in (1.0, WAVE_MAXIMA[3] - 1e-3, 7.1, 40.0):
            want = wave_right_max_integral(R) / R
            tol = res.log["eps_sup"] + max(1e-10, 1e-9 * want * R) / R
            assert abs(res.fn(R) - want) <= tol, R

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

    def test_tabulated_measure_with_rows(self):
        # D's segments and partial pieces are cut at the rows, and each piece
        # takes G7/K15 times its slope.
        xs = np.geomspace(1.0, 50.0, 257)
        m = Measure1D(m=lambda x: np.interp(x, xs, np.log(xs)), domain=Domain(1.0, 50.0),
                      diverges=True, breaks=xs)
        f = fn(wave, 1.0, 50.0, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, m)
        self.check_against_reference(res, f, m, [1.2, 3.3, xs[100], 17.0, 49.0], panels=1000)

    def test_frozen_values(self):
        # Bit for bit what D returned before the envelope's cut rule moved
        # into Envelope.kinks.
        wave_D = decreasing_majorant_mean(fn(wave, 0.0, math.inf, tail=Tail.vanishing()),
                                          identity_measure(0.0)).fn
        inv_D = decreasing_majorant_mean(fn(lambda x: 1 / x, 1.0, math.inf,
                                            tail=Tail.vanishing()), log_measure(1.0)).fn
        for D, Rs, want in [
            (wave_D, (0.3, 1.0, 7.1, 40.0), ("0x1.28358ee045f37p+0", "0x1.85288801e33f3p-1",
                                             "0x1.54786df6d38abp-3", "0x1.e3d6286cf1396p-6")),
            (inv_D, (1.5, 10.0, 123.4, 1e4), ("0x1.a4ea7145f210ap-1", "0x1.903eec63c9af4p-2",
                                              "0x1.a5da57788bf8fp-3", "0x1.bcac4ed231394p-4")),
        ]:
            assert [D(R).hex() for R in Rs] == list(want)

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

    def test_core_build_reads_f_only_off_the_right_table(self):
        # The core envelope's nodes are the right envelope's own samples, so
        # its source n * right-max reads f only at its few refinement points.
        points = 0

        def exp(x):
            nonlocal points
            points += np.size(x)
            return np.exp(-0.8 * x)

        f = fn(exp, 0.0, 50.0, tail=Tail.vanishing())
        grid = GridSpec()
        weighted_double_envelope(f, WeightN(n=lambda x: 1.0 + x, domain=f.domain), grid)
        assert points <= grid.node_count + 10

    def test_weight_must_be_positive(self):
        f = fn(lambda x: np.exp(-x), 0.0, 10.0)
        with pytest.raises(ValueError):
            weighted_double_envelope(f, WeightN(n=lambda x: x, domain=f.domain))


class TestWeightSpotCheck:
    UNBOUNDED = Domain(1.0, math.inf)

    def test_positive_at_the_left_end(self):
        with pytest.raises(ValueError, match=r"positive at the left endpoint, got n\(1.0\)=0.0"):
            WeightN(n=lambda x: x - 1.0, domain=self.UNBOUNDED).spot_check()

    def test_increasing_weight_has_no_notes(self):
        assert WeightN(n=lambda x: x, domain=self.UNBOUNDED).spot_check() == []

    def test_not_increasing(self):
        notes = WeightN(n=lambda x: 2.0 + np.sin(x), domain=self.UNBOUNDED).spot_check()
        assert "weight is not increasing on probe points" in notes

    def test_not_tending_to_infinity(self):
        weight = WeightN(n=lambda x: 2.0 - 1.0 / x, domain=self.UNBOUNDED)
        assert weight.spot_check() == ["weight does not appear to tend to +inf"]

    def test_probe_points_stay_inside_a_bounded_domain(self):
        # 11 of the 64 points b - b * 2^-k round to b = 10, where n is infinite.
        weight = WeightN(n=lambda x: 1.0 / (10.0 - x), domain=Domain(0.0, 10.0))
        assert weight.spot_check() == []

    @pytest.mark.parametrize("exp", [math.exp, np.exp], ids=["math", "numpy"])
    def test_overflow_is_a_note(self, exp):
        weight = WeightN(n=exp, domain=Domain(0.0, math.inf))
        assert weight.spot_check() == ["weight produced non-finite values"]

    def test_double_envelope_of_an_overflowing_weight_raises_a_library_error(self):
        f = fn(lambda x: np.exp(-x), 0.0, math.inf, tail=Tail.vanishing())
        with pytest.raises(MeanmaxError):
            weighted_double_envelope(f, WeightN(n=math.exp, domain=f.domain))


class TestDecayProbe:
    # The probe points toward inf are 4^k; the source fails at 256 = 4^4.
    @pytest.mark.parametrize("source", [
        lambda x: 1.0 / (x * (x - 256.0) ** 2),
        lambda x: 1.0 / (x * math.pow(x - 256.0, 2)),
    ], ids=["numpy-inf", "math-raises"])
    def test_stops_at_the_first_failure(self, source):
        ok, samples, max_abs = _decays_to_zero(source, Domain(1.0, math.inf))
        assert (ok, max_abs) == (False, math.inf)
        assert samples == pytest.approx([source(x) for x in (1.0, 4.0, 16.0, 64.0)], rel=1e-15)

    def test_reads_only_points_inside_the_domain(self):
        # Toward b = 2^53 + 2^10 the points b - 2^(10 - k) round to b from k = 10 on.
        seen = []
        b = 2.0**53 + 2.0**10
        _decays_to_zero(lambda x: seen.append(np.atleast_1d(x)) or 1.0 / x, Domain(2.0**53, b))
        assert np.concatenate(seen).tolist() == [b - 2.0**j for j in range(9, 0, -1)]


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


class TestNotes:
    # 1/ln x never drops below the cutoff threshold before the scan's cap, so
    # every transform of it carries the cap note once, and nothing else.
    INV_LOG = staticmethod(lambda x: 1 / np.log(x))

    def test_majorant_mean(self):
        f = fn(self.INV_LOG, math.e, math.inf, tail=Tail.vanishing())
        res = decreasing_majorant_mean(f, identity_measure(math.e))
        assert res.warnings == [TAIL_CAP_NOTE]
        assert res.fn.tail.kind == "unknown"

    def test_double_envelope(self):
        f = fn(self.INV_LOG, math.e, math.inf, tail=Tail.vanishing())
        res = weighted_double_envelope(f, WeightN(n=lambda x: x, domain=f.domain))
        assert res.warnings == [TAIL_CAP_NOTE]

    def test_d_from_Q(self):
        res = d_from_Q(fn(lambda x: x / np.log(x), 2.0, math.inf), 3.0)
        assert res.warnings == [TAIL_CAP_NOTE]

    def test_Q_from_d(self):
        res = Q_from_d(fn(self.INV_LOG, math.e, math.inf), math.e)
        assert res.warnings == [TAIL_CAP_NOTE]

    def test_d_from_Q_of_a_negative_Q(self):
        res = d_from_Q(fn(lambda x: np.sqrt(x) - 2.0, 1.0, math.inf), 1.0)
        assert res.warnings == ["Q takes negative values on probe points"]

    def test_d_from_Q_r0_outside_the_domain(self):
        with pytest.raises(DomainError, match="r0=0.5 outside the domain of Q"):
            d_from_Q(fn(np.sqrt, 1.0, math.inf), 0.5)


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


class TestEvaluateArrays:
    # evaluate on an array equals the number path entry by entry, for every
    # kind of source the CLI tabulates.
    XS = np.concatenate([np.linspace(3.0, 6.0, 31), np.geomspace(6.5, 45.0, 50)])
    WAVE = Function1D(eval=wave, domain=Domain(0.0, math.inf), tail=Tail.vanishing())
    SOURCES = {
        "expression": lambda: Function1D(
            eval=compile_expression(parse_expression("exp(-x)*(1+0.5*sin(5*x))")),
            domain=Domain(0.0, math.inf)),
        "csv": lambda: TabulatedFunction(np.geomspace(1.0, 50.0, 40),
                                         np.geomspace(1.0, 50.0, 40) ** -0.9).as_function1d(),
        "envelope": lambda: envelope_function(TestEvaluateArrays.WAVE, RIGHT).as_function(),
        "h": lambda: weighted_double_envelope(
            TestEvaluateArrays.WAVE,
            WeightN(n=lambda x: 1.0 + x, domain=TestEvaluateArrays.WAVE.domain)).fn,
        "Q_from_d": lambda: Q_from_d(fn(lambda x: 1 / np.log(x), math.e, math.inf,
                                        hint="decreasing"), math.e).fn,
    }

    @pytest.mark.parametrize("name", SOURCES)
    def test_equals_the_number_path(self, name):
        g = self.SOURCES[name]()
        assert np.array_equal(evaluate(g, self.XS), [evaluate(g, x) for x in self.XS.tolist()])

    def test_majorant_mean(self):
        D = decreasing_majorant_mean(self.WAVE, identity_measure(0.0)).fn
        got = evaluate(D, self.XS)
        assert np.array_equal(got, D.eval(self.XS))
        # D's pieces sum their Kronrod nodes with BLAS (ys @ weights), whose
        # row sums can move by a rounding unit with the rows in one call.
        np.testing.assert_allclose(got, [evaluate(D, x) for x in self.XS.tolist()],
                                   rtol=2.0**-50, atol=0)

    def test_weight_check_names_the_first_bad_point(self):
        f = fn(lambda x: np.exp(-x), 0.0, 10.0, tail=Tail.vanishing())
        weight = WeightN(n=lambda x: 1.0 - 0.5 * x, domain=f.domain)
        h = weighted_double_envelope(f, weight).fn
        want = re.escape("weight must be positive and finite, got n(3.0)=-0.5")
        for R in (3.0, np.array([1.0, 3.0, 4.0])):
            with pytest.raises(DomainError, match=f"^{want}$"):
                h.eval(R)
