"""mpmath at 30 digits as a third oracle for the means and the majorant mean.

The oracle functions use mpmath alone: nothing from meanmax, numpy or the
other oracles.  Each library result must come within its stated tolerance,
max(atol, rtol·|I|) on the integral I (defaults 1e-10 and 1e-9), divided by
the weight of the interval.
"""

import math

import numpy as np
import pytest

from meanmax.func1d import Domain, Function1D, Tail
from meanmax.stieltjes import identity_measure, integral_mean, log_measure
from meanmax.transforms import decreasing_majorant_mean

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

ATOL, RTOL = 1e-10, 1e-9


def log_mean_oracle(f, r, R):
    """(1 / ln(R/r)) ∫_r^R f(x) dx/x, and the integral itself."""
    with mpmath.workdps(30):
        r, R = mp.mpf(r), mp.mpf(R)
        integral = mpmath.quad(lambda x: f(x) / x, [r, R])
        return integral / mpmath.log(R / r), integral


def wave_mp(x):
    return mpmath.exp(-x) * (1 + mpmath.sin(5 * x) / 2)


def wave_majorant_oracle(R):
    """(1/R) ∫_0^R sup_{t >= x} wave(t) dx, integrated between the kinks of the sup.

    wave' = e^-x (sqrt(6.5) cos(5x + phi) - 1), phi = atan(1/5), so the maxima
    are x_k = (theta - phi + 2 pi k)/5 and the minima (-theta - phi + 2 pi k)/5,
    theta = acos(1/sqrt(6.5)); the maxima fall with k.  The sup is wave(x_0)
    up to x_0; after x_(k-1) it is wave down to the crossing c_k where wave
    falls to wave(x_k), then wave(x_k) up to x_k.
    """
    with mpmath.workdps(30):
        R = mp.mpf(R)
        theta, phi = mpmath.acos(1 / mpmath.sqrt(mp.mpf("6.5"))), mpmath.atan(mp.mpf("0.2"))
        top = (theta - phi) / 5
        total = min(R, top) * wave_mp(top)
        k = 1
        while R > top:
            nxt = (theta - phi + 2 * mpmath.pi * k) / 5
            bottom = (-theta - phi + 2 * mpmath.pi * k) / 5
            level = wave_mp(nxt)
            cut = mpmath.findroot(lambda x: wave_mp(x) - level, (top, bottom), solver="anderson")
            total += mpmath.quad(wave_mp, [top, min(R, cut)])
            total += max(0, min(R, nxt) - cut) * level
            top, k = nxt, k + 1
        return total / R, total


def fn(fun, a, tail=None, hint="none"):
    return Function1D(eval=fun, domain=Domain(a, math.inf), tail=tail or Tail.unknown(),
                      monotonicity=hint)


def tolerance(integral, weight):
    return max(ATOL, RTOL * abs(float(integral))) / weight


def test_readme_mean():
    # README: meanmax mean --f "1/x" --m "ln(x)" --a 1 --b inf --r 1 --R e^2
    R = math.exp(2.0)
    want, integral = log_mean_oracle(lambda x: 1 / x, 1, R)
    got = integral_mean(fn(lambda x: 1 / x, 1.0, Tail.vanishing(), "decreasing"),
                        log_measure(1.0), 1.0, R)
    assert abs(got.value - float(want)) <= tolerance(integral, math.log(R))
    assert mpmath.nstr(want, 10) == "0.4323323584"


@pytest.mark.parametrize("p,r,R", [(0.9, 1.5, 20.0), (-0.5, 2.0, 45.0), (2.48, 1.0, 44.0)])
def test_power_mean_under_log(p, r, R):
    want, integral = log_mean_oracle(lambda x: x**-p, r, R)
    got = integral_mean(fn(lambda x: x**-p, 1.0), log_measure(1.0), r, R)
    assert abs(got.value - float(want)) <= tolerance(integral, math.log(R / r))


def test_wave_majorant_mean_between_kinks():
    f = fn(lambda x: np.exp(-x) * (1 + 0.5 * np.sin(5 * x)), 0.0, Tail.vanishing())
    res = decreasing_majorant_mean(f, identity_measure(0.0))
    for R in (0.9, 7.1, 40.0):
        want, integral = wave_majorant_oracle(R)
        # the envelope itself is within eps_sup of the exact sup
        tol = res.log["eps_sup"] + tolerance(integral, R)
        assert abs(res.fn(R) - float(want)) <= tol, R
