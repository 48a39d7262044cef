import math
import re
import sys
import threading

import numpy as np
import pytest

from meanmax import transforms
from meanmax.cli import TabulatedFunction
from meanmax.errors import (DegenerateIntervalError, DomainError, MeanmaxError,
                            NonFiniteValueError, UnboundedSupError)
from meanmax.exprparse import compile_expression, parse_expression
from meanmax.func1d import (RIGHT, TAIL_CAP_NOTE, Domain, Function1D, GridSpec, Tail,
                            envelope_function, evaluate)
from meanmax.stieltjes import (Measure1D, QuadratureConfig, _refine, identity_measure,
                               integral_mean, log_measure, segment_integrals)
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
    wave_plateau_edge,
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

    def test_wave_within_1e14_of_closed_form(self):
        # The table cuts at each located plateau edge, so D meets the closed
        # form to rounding: at the frozen R and just either side of three
        # edges, where a query's partial piece starts or ends at the edge.
        f = fn(wave, 0.0, math.inf, tail=Tail.vanishing())
        D = decreasing_majorant_mean(f, identity_measure(0.0)).fn
        edges = [wave_plateau_edge(k) for k in (1, 5, 12)]
        for R in (0.3, 1.0, 7.1, 40.0, *(c + s for c in edges for s in (-1e-7, 1e-7))):
            assert D(R) == pytest.approx(wave_right_max_integral(R) / R, rel=1e-14, abs=0), R

    def test_wave_table_cost(self, monkeypatch):
        # No segment of the wave's table holds a kink, so each is accepted at
        # its first level: 983 points for the table and D(40)'s partial
        # piece, where cutting at both ends of each kinked gap took 5,366.
        points, calls = 0, []

        def counted(x):
            nonlocal points
            points += np.size(x)
            return wave(x)

        def spy(g, m, lo, hi, *args):
            out = segment_integrals(g, m, lo, hi, *args)
            calls.append((len(lo), len(out.hi)))
            return out

        res = decreasing_majorant_mean(fn(counted, 0.0, math.inf, tail=Tail.vanishing()),
                                       identity_measure(0.0))
        monkeypatch.setattr(transforms, "segment_integrals", spy)
        points = 0
        res.fn(40.0)
        assert points <= 2_000
        assert len(calls) == 2 and all(segments == pieces for segments, pieces in calls)

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
        # A hinted source's table is its window's two ends, too coarse a
        # partition for the midpoint reference: D meets the closed form
        # (1 - 1/R) / ln R at the reference's tolerance instead.
        f = fn(lambda x: 1 / x, 1.0, math.inf, tail=Tail.vanishing(), hint="decreasing")
        res = decreasing_majorant_mean(f, log_measure(1.0))
        for R in (1.5, 10.0, 123.4, 1e4):
            I, dm = 1 - 1 / R, math.log(R)
            assert abs(res.fn(R) - I / dm) <= max(1e-10, 1e-9 * I) / dm, R

    def test_hinted_table_past_the_measure_end(self):
        # The table of a hinted 1/x runs from 1 to 10^6, past the measure's
        # end 50.  The build closes its cuts at the measure's window end;
        # without that cut every query integrates from a, 16,992 points here.
        points = 0

        def counted(x):
            nonlocal points
            points += np.size(x)
            return 1 / x

        f = fn(counted, 1.0, math.inf, tail=Tail.vanishing(), hint="decreasing")
        res = decreasing_majorant_mean(f, log_measure(1.0, 50.0))
        for R in np.random.default_rng(5).uniform(1.0, 50.0, 100).tolist():
            I, dm = 1 - 1 / R, math.log(R)
            assert abs(res.fn(R) - I / dm) <= max(1e-10, 1e-9 * I) / dm, R
        assert points <= 3_000

    def test_a_table_node_at_the_measure_window_end(self):
        # On [0, 2) the uniform node 2048 is 1 - 1e-12, the window end of the
        # measure's [0, 1): the closing cut replaces it rather than repeat it.
        # Bit for bit what D returns with its plateau edge located (each
        # within 1e-14 of the closed form, which holds up to R = 1 on [0, 2)).
        f = fn(wave, 0.0, 2.0)
        D = decreasing_majorant_mean(f, identity_measure(0.0, 1.0)).fn
        Rs = (0.3, 0.9, 1 - 1e-12, 1 - 1e-13)
        assert [D(R).hex() for R in Rs] == [
            "0x1.28358ee045f37p+0", "0x1.9d8fd751dab03p-1", "0x1.85288801e430bp-1",
            "0x1.85288801e3576p-1"]
        for R in Rs:
            assert D(R) == pytest.approx(wave_right_max_integral(R) / R, rel=1e-14, abs=0), R

    def test_measure_not_finite_at_a(self):
        # ln x is -inf at a = 0: D names the point instead of returning NaN.
        f = fn(wave, 0.0, math.inf, tail=Tail.vanishing())
        m = Measure1D(m=np.log, m_prime=lambda x: 1 / x, domain=Domain(0.0, math.inf))
        res = decreasing_majorant_mean(f, m)
        for call in (res.fn.eval, res.fn):
            for R in (0.1, np.array([0.1, 2.0])):
                with pytest.raises(NonFiniteValueError, match=r"^non-finite value -inf at x=0\.0$"):
                    call(R)

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
        # Bit for bit what D returns with the plateau edges located; the
        # wave's values are within 1e-14 of the closed form
        # (test_wave_within_1e14_of_closed_form), the 1/x ones unchanged
        # since the envelope's cut rule moved into Envelope.kinks.
        wave_D = decreasing_majorant_mean(fn(wave, 0.0, math.inf, tail=Tail.vanishing()),
                                          identity_measure(0.0)).fn
        inv_D = decreasing_majorant_mean(fn(lambda x: 1 / x, 1.0, math.inf,
                                            tail=Tail.vanishing()), log_measure(1.0)).fn
        for D, Rs, want in [
            (wave_D, (0.3, 1.0, 7.1, 40.0), ("0x1.28358ee045f37p+0", "0x1.85288801e33f3p-1",
                                             "0x1.54786df6d38aep-3", "0x1.e3d6286cf1382p-6")),
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

    def test_a_number_a_0d_and_a_1_element_array_agree(self):
        # D.eval, not evaluate: a number and a 0-d array take the scalar
        # path and return a float, a shape-(1,) array the array path.
        res = decreasing_majorant_mean(fn(wave, 0.0, math.inf, tail=Tail.vanishing()),
                                       identity_measure(0.0))
        D = res.fn.eval
        for R in (0.0, 0.3, 2.0, 7.1, 33.0, 2 * float(envelope_function(
                fn(wave, 0.0, math.inf, tail=Tail.vanishing()), RIGHT).xs[-1])):
            number, zero_d, one = D(R), D(np.array(R)), D(np.array([R]))
            assert type(number) is float and type(zero_d) is float, R
            assert isinstance(one, np.ndarray) and one.shape == (1,), R
            assert number.hex() == zero_d.hex() == float(one[0]).hex(), R

    def test_R_at_a_reads_nothing(self):
        reads = []

        def f_read(x):
            reads.append(np.size(x))
            return wave(x)

        def m_read(x):
            reads.append(np.size(x))
            return x

        res = decreasing_majorant_mean(
            fn(f_read, 0.0, math.inf, tail=Tail.vanishing()),
            Measure1D(m=m_read, m_prime=lambda x: 1.0, domain=Domain(0.0, math.inf)))
        reads.clear()
        for R in (0.0, np.array(0.0)):
            assert res.fn.eval(R) == res.log["value_at_a"]
        assert reads == []

    def test_scalar_R_outside_the_domain(self):
        D = decreasing_majorant_mean(fn(wave, 0.0, math.inf, tail=Tail.vanishing()),
                                     identity_measure(0.0)).fn.eval
        for R, name in ((-1.0, r"-1\.0"), (math.nan, "nan"), (np.array(-1.0), r"-1\.0")):
            with pytest.raises(DomainError, match=rf"^R={name} outside \[0\.0, inf\)$"):
                D(R)

    def test_scalar_R_past_a_bounded_measure(self):
        D = decreasing_majorant_mean(fn(wave, 0.0, math.inf, tail=Tail.vanishing()),
                                     identity_measure(0.0, 5.0)).fn.eval
        assert D(4.0) > 0
        for R in (5.0, 6.0, np.array(5.0)):
            with pytest.raises(DegenerateIntervalError, match="not inside the measure domain"):
                D(R)

    def test_a_halved_query_matches_an_array_call(self):
        # At rtol 1e-15 some partial pieces miss their first estimate by
        # rounding and are halved: f read at 16 points, then 30.  Such a
        # query sums its pieces like an array call does.  Beside R, 0.03 lies
        # in the flat gap before the peak and reads no f, so the call
        # refines R's piece alone, row for row as the number does.
        reads = []

        def f(x):
            reads.append(np.size(x))
            return x / (1 + x**3)

        D = decreasing_majorant_mean(fn(f, 0.0, math.inf, tail=Tail.vanishing()),
                                     identity_measure(0.0), QuadratureConfig(1e-15)).fn.eval
        D(1.0)
        halved = []
        for R in np.linspace(1.5, 2.5, 41).tolist():
            reads.clear()
            got = D(R)
            if sum(reads) > 16:
                halved.append(R)
                assert D(np.array([0.03, R]))[1].hex() == got.hex(), R
                assert D(np.array([R, 20.0]))[0] == pytest.approx(got, rel=1e-14), R
        assert halved

    def test_refine_sorts_pieces_that_pass_at_once(self):
        lo, hi = np.array([2.0, 0.0, 1.0]), np.array([3.0, 1.0, 2.0])
        pieces = _refine(lambda x: x, identity_measure(0.0), lo, hi, np.arange(3), None,
                         QuadratureConfig())
        assert pieces.lo.tolist() == [0.0, 1.0, 2.0] and pieces.hi.tolist() == [1.0, 2.0, 3.0]
        assert pieces.origin.tolist() == [1, 2, 0]
        assert pieces.value == pytest.approx([0.5, 1.5, 2.5], rel=1e-15)
        assert pieces.m_hi.tolist() == [1.0, 2.0, 3.0] and pieces.y_lo.tolist() == [0.0, 1.0, 2.0]

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

    def test_queries_read_only_what_the_table_lacks(self):
        # The table keeps m and the integrand at each edge, and m(a).  So R
        # in a steep gap reads f once, at R and the 15 Kronrod nodes of its
        # partial piece, accepted at its first estimate, and m at R alone, as
        # does R in a flat gap, which reads no f.  No query reads m(a), a = 0,
        # again, and a repeated query returns the same bits.
        f_reads, m_reads = [], []

        def f_read(x):
            f_reads.append(np.array(x, dtype=float).ravel())
            return wave(x)

        def m_read(x):
            m_reads.append(np.array(x, dtype=float).ravel())
            return x

        D = decreasing_majorant_mean(
            fn(f_read, 0.0, math.inf, tail=Tail.vanishing()),
            Measure1D(m=m_read, m_prime=lambda x: 1.0, domain=Domain(0.0, math.inf))).fn
        D(1.0)
        env = envelope_function(fn(wave, 0.0, math.inf, tail=Tail.vanishing()), RIGHT)
        gaps = np.flatnonzero((env.xs[1:] > 1.0) & (env.xs[1:] < 10.0))
        steep = gaps[env.table[gaps] != env.table[gaps + 1]]
        flat = gaps[env.table[gaps] == env.table[gaps + 1]]
        assert len(steep) > 10 and len(flat) > 10
        queries = [(float(env.xs[j] + 0.3 * (env.xs[j + 1] - env.xs[j])), kind)
                   for kind, js in (("steep", steep[::5]), ("flat", flat[::5])) for j in js]
        for R, kind in [*queries, (2 * float(env.xs[-1]), "past the table")]:
            f_reads.clear()
            m_reads.clear()
            got = D(R)
            assert 0.0 not in np.concatenate(m_reads), R
            if kind == "steep":
                assert [len(x) for x in f_reads] == [16] and f_reads[0][0] == R, R
            if kind == "flat":
                assert f_reads == [], R
            if kind != "past the table":
                assert [x.tolist() for x in m_reads] == [[R]], R
            assert D(R).hex() == got.hex(), R

    def test_first_query_locates_only_the_edges_below_the_measure_end(self):
        # m = x on [0, 5) ends inside the envelope's window, so the table
        # cuts at the plateau edges below 5 alone: 4 of the wave's 25, where
        # locating all of them took 178 of the 317 points this query read.
        points = 0

        def counted(x):
            nonlocal points
            points += np.size(x)
            return wave(x)

        res = decreasing_majorant_mean(fn(counted, 0.0, math.inf, tail=Tail.vanishing()),
                                       identity_measure(0.0, 5.0))
        points = 0
        res.fn(4.0)
        assert points <= 200

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

    def test_result_is_callable(self):
        res = decreasing_majorant_mean(self.WAVE, identity_measure(0.0))
        assert np.array_equal(res(self.XS), evaluate(res.fn, self.XS))
        assert res(3.0) == evaluate(res.fn, 3.0)
        with pytest.raises(DomainError):
            res(-1.0)

    def test_weight_check_names_the_first_bad_point(self):
        f = fn(lambda x: np.exp(-x), 0.0, 10.0, tail=Tail.vanishing())
        weight = WeightN(n=lambda x: 1.0 - 0.5 * x, domain=f.domain)
        h = weighted_double_envelope(f, weight).fn
        want = re.escape("weight must be positive and finite, got n(3.0)=-0.5")
        for R in (3.0, np.array([1.0, 3.0, 4.0])):
            with pytest.raises(DomainError, match=f"^{want}$"):
                h.eval(R)
