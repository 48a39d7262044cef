"""Reference values for the benchmark, computed apart from the library.

Nothing here imports meanmax.  The damped wave exp(-c x) (1 + 0.5 sin(w x))
has its local maxima in closed form, so its right and left maximizations and
the majorant mean D(R) under m(x) = x follow from the maxima, one bisection
per crossing point and the closed-form antiderivative.  The monotone sources
have closed-form means, majorant means and partials.  ``self_test`` checks
these formulas against brute-force fixed-panel sums and dense grids.
"""

from __future__ import annotations

import math

import numpy as np


class DampedWave:
    """f(x) = exp(-c x) (1 + 0.5 sin(w x)) on [0, inf), with w > c * sqrt(3).

    f' = exp(-c x) (0.5 w cos(w x) - 0.5 c sin(w x) - c) vanishes where
    A cos(w x + phi) = c with A = 0.5 sqrt(w^2 + c^2) and phi = atan(c / w):
    maxima at w x + phi = arccos(c / A) + 2 k pi, minima at
    w x + phi = -arccos(c / A) + 2 k pi.  For (c, w) = (1, 5) this is
    5 x + atan(0.2) = arccos(1 / sqrt(6.5)) + 2 k pi.  The maxima values fall
    by exp(-2 pi c / w) from one to the next, so the supremum over [x, inf)
    is the larger of f(x) and the first maximum at or after x.
    """

    def __init__(self, c: float, w: float):
        amp = 0.5 * math.hypot(w, c)
        if not c < amp:
            raise ValueError("need w > c * sqrt(3) for interior maxima")
        self.c, self.w = c, w
        self._phi = math.atan(c / w)
        self._theta = math.acos(c / amp)

    def f(self, x):
        return np.exp(-self.c * x) * (1.0 + 0.5 * np.sin(self.w * x))

    def fprime(self, x):
        c, w = self.c, self.w
        return np.exp(-c * x) * (0.5 * w * np.cos(w * x) - 0.5 * c * np.sin(w * x) - c)

    def xmax(self, k: int) -> float:
        return (self._theta - self._phi + 2.0 * math.pi * k) / self.w

    def xmin(self, k: int) -> float:
        """The local minimum between maxima k - 1 and k."""
        return (-self._theta - self._phi + 2.0 * math.pi * k) / self.w

    def maxima_below(self, hi: float) -> list[float]:
        out, k = [], 0
        while self.xmax(k) < hi:
            out.append(self.xmax(k))
            k += 1
        return out

    def _first_max_index(self, x):
        # Smallest k with xmax(k) >= x.
        k = np.ceil((self.w * np.asarray(x, dtype=float) + self._phi - self._theta)
                    / (2.0 * math.pi))
        return np.maximum(k, 0.0)

    def right_max(self, x):
        """sup of f over [x, inf)."""
        k = self._first_max_index(x)
        nxt = (self._theta - self._phi + 2.0 * math.pi * k) / self.w
        return np.maximum(self.f(x), self.f(nxt))

    def left_max(self, x):
        """sup of f over [0, x]: f rises to the first maximum, then the first maximum."""
        x0 = self.xmax(0)
        return np.where(np.asarray(x) < x0, self.f(x), float(self.f(x0)))

    def antiderivative(self, x: float) -> float:
        c, w = self.c, self.w
        e = math.exp(-c * x)
        return -e / c + 0.5 * e * (-c * math.sin(w * x) - w * math.cos(w * x)) / (c * c + w * w)

    def crossing(self, k: int) -> float:
        """The point on the descent after maximum k - 1 where f falls to f(xmax(k))."""
        target = float(self.f(self.xmax(k)))
        lo, hi = self.xmax(k - 1), self.xmin(k)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self.f(mid)) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def right_max_integral(self, R: float) -> float:
        """integral_0^R of the right maximization, piece by piece between its kinks.

        On [0, x_0] it is the constant f(x_0); on [x_{k-1}, c_k] it is f itself;
        on [c_k, x_k] it is the constant f(x_k).
        """
        x0 = self.xmax(0)
        total = min(R, x0) * float(self.f(x0))
        if R <= x0:
            return total
        F = self.antiderivative
        k = 1
        while True:
            a, cut, b = self.xmax(k - 1), self.crossing(k), self.xmax(k)
            if R <= cut:
                return total + F(R) - F(a)
            total += F(cut) - F(a)
            level = float(self.f(b))
            if R <= b:
                return total + (R - cut) * level
            total += (b - cut) * level
            k += 1

    def majorant_mean(self, R: float) -> float:
        """D(R) under m(x) = x on [0, inf)."""
        return self.right_max_integral(R) / R


def recip_majorant_mean(R: float) -> float:
    """D(R) for f = 1/x under m = ln x, a = 1: (1 - 1/R) / ln R."""
    return (1.0 - 1.0 / R) / math.log(R)


def power_density(p: float, R: float) -> float:
    """d(R) of d_from_Q for Q = x^p (0 < p < 1), r0 = 1: (1 - R^(p-1)) / ((1-p) ln R).

    Q(x)/x = x^(p-1) is decreasing, so its right maximization is itself; for
    p = 1/2 this is 2 (1 - R^(-1/2)) / ln R.
    """
    return (1.0 - R ** (p - 1.0)) / ((1.0 - p) * math.log(R))


def power_mean_log(p: float, r: float, R: float) -> float:
    """Mean of x^(-p) (p > 0) against ln x over [r, R]: (r^-p - R^-p) / (p ln(R/r))."""
    return (r ** -p - R ** -p) / (p * math.log(R / r))


def recip_mean(r: float, R: float) -> float:
    """Mean of 1/x against ln x over [r, R]; 0.4323323584 for [1, e^2]."""
    return power_mean_log(1.0, r, R)


def recip_mean_partials(r: float, R: float) -> tuple[float, float]:
    """Closed-form d/dr and d/dR of (1/r - 1/R) / ln(R/r)."""
    L = math.log(R / r)
    num = 1.0 / r - 1.0 / R
    return (-L / r**2 + num / r) / L**2, (L / R**2 - num / R) / L**2


def exp_mean_identity(c: float, r: float, R: float) -> float:
    """Mean of exp(-c x) against m(x) = x over [r, R]."""
    return (math.exp(-c * r) - math.exp(-c * R)) / (c * (R - r))


def interp(xs, ys, x: float) -> float:
    """Linear interpolation through sorted rows, by bisection."""
    lo, hi = 0, len(xs) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xs[mid] <= x:
            lo = mid
        else:
            hi = mid
    t = (x - xs[lo]) / (xs[hi] - xs[lo])
    return ys[lo] + t * (ys[hi] - ys[lo])


def table_mean_log(xs, ys, r: float, R: float) -> float:
    """Mean against ln x of the piecewise-linear table through (xs, ys) over [r, R].

    On a segment the table is alpha + beta x, whose integral against dx / x is
    alpha ln x + beta x.
    """
    total = 0.0
    for i in range(len(xs) - 1):
        lo, hi = max(xs[i], r), min(xs[i + 1], R)
        if lo >= hi:
            continue
        beta = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        alpha = ys[i] - beta * xs[i]
        total += alpha * math.log(hi / lo) + beta * (hi - lo)
    return total / math.log(R / r)


def midpoint_sum(g, lo: float, hi: float, panels: int, chunk: int = 100_000) -> float:
    """Fixed-panel midpoint sum of a vectorized integrand over [lo, hi].

    Summed in chunks so that the self-test does not raise the peak memory the
    workloads report.
    """
    h = (hi - lo) / panels
    total = 0.0
    for start in range(0, panels, chunk):
        k = np.arange(start, min(start + chunk, panels), dtype=float)
        total += float(np.sum(g(lo + (k + 0.5) * h)))
    return total * h


def self_test() -> list[str]:
    """Check the oracles against one another; returns the failures found."""
    bad = []

    def expect(name, got, want, rtol):
        if not abs(got - want) <= rtol * max(abs(want), 1e-300):
            bad.append(f"{name}: {got!r} vs {want!r}")

    wave = DampedWave(1.0, 5.0)
    for k in range(4):
        x = wave.xmax(k)
        if abs(float(wave.fprime(x))) > 1e-12 or not float(wave.fprime(x - 1e-4)) > 0 > float(
            wave.fprime(x + 1e-4)
        ):
            bad.append(f"xmax({k}) = {x} is not a local maximum")
    expect("first maximum", wave.xmax(0), 0.19406873849578, 1e-12)
    xs = np.linspace(0.0, 6.0, 601)
    for x in xs[::25]:
        dense = np.linspace(x, x + 12.0, 120_001)
        expect(f"right_max({x:.3f})", float(wave.right_max(x)), float(np.max(wave.f(dense))), 1e-8)
        dense = np.linspace(0.0, x, 120_001)
        expect(f"left_max({x:.3f})", float(wave.left_max(x)), float(np.max(wave.f(dense))), 1e-8)
    for R in (1.5, 10.0, 40.0):
        brute = midpoint_sum(wave.right_max, 0.0, R, 2_000_000) / R
        expect(f"wave D({R})", wave.majorant_mean(R), brute, 1e-9)
        brute = midpoint_sum(lambda x: x**-2.0, 1.0, R, 1_000_000) / math.log(R)
        expect(f"1/x D({R})", recip_majorant_mean(R), brute, 1e-9)
        brute = midpoint_sum(lambda x: x**-1.5, 1.0, R, 1_000_000) / math.log(R)
        expect(f"sqrt d({R})", power_density(0.5, R), brute, 1e-9)
        expect(f"sqrt d({R}) closed form", power_density(0.5, R),
               2.0 * (1.0 - R**-0.5) / math.log(R), 1e-13)
    expect("README mean", recip_mean(1.0, math.e**2), 0.4323323584, 1e-10)
    expect("README mean closed form", recip_mean(1.0, math.e**2), (1.0 - math.exp(-2.0)) / 2.0,
           1e-14)
    r, R, h = 2.0, 9.0, 1e-5
    dr, dR = recip_mean_partials(r, R)
    expect("partial r", dr, (recip_mean(r + h, R) - recip_mean(r - h, R)) / (2 * h), 1e-7)
    expect("partial R", dR, (recip_mean(r, R + h) - recip_mean(r, R - h)) / (2 * h), 1e-7)
    expect("exp mean", exp_mean_identity(0.7, 0.5, 3.0),
           midpoint_sum(lambda x: np.exp(-0.7 * x), 0.5, 3.0, 100_000) / 2.5, 1e-9)
    txs = [1.0, 2.0, 5.0, 9.0]
    tys = [1.0, 0.4, 0.3, 0.05]
    expect("table mean", table_mean_log(txs, tys, 1.5, 7.0),
           midpoint_sum(lambda x: np.interp(x, txs, tys) / x, 1.5, 7.0, 1_000_000)
           / math.log(7.0 / 1.5), 1e-9)
    expect("interp", interp(txs, tys, 3.5), float(np.interp(3.5, txs, tys)), 1e-15)
    return bad


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print("FAIL", line)
    print("oracle self-test:", "ok" if not problems else f"{len(problems)} failure(s)")
    raise SystemExit(1 if problems else 0)
