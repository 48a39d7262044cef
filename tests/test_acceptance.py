"""Acceptance suite: one test per stated criterion, each printing a PASS/FAIL line.

Expected values marked "closed form" below were derived from the independent
oracles in oracles.py (dense-grid maxima, fixed-panel midpoint sums) or from
pencil-and-paper antiderivatives, then frozen.
"""

import math
import random

import numpy as np
import pytest

from meanmax.cli import load_csv_function, run_command
from meanmax.func1d import Domain, Function1D, GridSpec, Tail, envelope_function
from meanmax.stieltjes import (
    Measure1D,
    identity_measure,
    integral_mean,
    log_measure,
    mean_partial_R,
    mean_partial_r,
    stieltjes_integral,
)
from meanmax.transforms import (
    Q_from_d,
    WeightN,
    d_from_Q,
    decreasing_majorant_mean,
    weighted_double_envelope,
)
from meanmax.verify import (
    HOLDS,
    DecaySchedule,
    check_corollary_bounds,
    check_majorant_inequality,
    check_mean_monotonicity,
    check_pointwise_mean_bound,
    check_sup_identity,
    estimate_decay,
    finite_difference_check,
)

from oracles import midpoint_stieltjes, table_from_samples


def report(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def fn(fun, a, b, tail=None, hint="none"):
    return Function1D(
        eval=fun, domain=Domain(a, b), tail=tail or Tail.unknown(), monotonicity=hint
    )


def test_criterion_1_quadrature_oracle():
    suite = [
        (fn(lambda x: 1.0 + 0 * x, 0.5, math.inf), log_measure(0.5), 1.0, math.e, 1.0),
        (
            fn(lambda x: x, 0.0, math.inf),
            Measure1D(m=lambda x: x * x, m_prime=lambda x: 2 * x, domain=Domain(0.0, math.inf)),
            0.0, 1.0, 2.0 / 3.0,
        ),
        (fn(lambda x: 1 / x, 0.5, math.inf), log_measure(0.5), 1.0, 4.0, 0.75),
    ]
    ok = True
    for g, m, r, R, want in suite:
        got = stieltjes_integral(g, m, r, R).value
        oracle = midpoint_stieltjes(g.eval, m.m, r, R, panels=10**6)
        ok &= abs(got - want) <= 1e-9 * abs(want)
        ok &= abs(got - oracle) <= 1e-7 * abs(oracle)
    report(1, "quadrature oracle", ok)


def test_criterion_2_proposition():
    f = fn(lambda x: np.exp(-x), 0.0, 10.5, tail=Tail.vanishing())
    m = identity_measure(0.0, 10.5)
    pts = list(np.linspace(0.0, 10.0, 20))
    mono = check_mean_monotonicity(f, m, pts, pts)
    ok = mono.verdict == HOLDS and mono.worst_slack <= 1e-8 * 2.0
    # closed form (e^-r - e^-R)/(R - r) is nonincreasing along both axes
    for R in (2.0, 5.0, 9.0):
        sup = check_sup_identity(f, m, R, [r for r in pts if r < R])
        ok &= sup.verdict == HOLDS
    report(2, "proposition monotonicity and sup identity", ok)


def test_criterion_3_partials():
    rng = random.Random(31)
    triples = [
        (fn(lambda x: -x, 0.0, 12.0), identity_measure(0.0, 12.0), 0.5, 10.0),
        (fn(lambda x: 1 / x, 0.5, 120.0), log_measure(0.5, 120.0), 1.0, 100.0),
        (fn(lambda x: np.exp(-x), 0.0, 12.0), identity_measure(0.0, 12.0), 0.5, 10.0),
    ]
    ok = True
    for f, m, lo, hi in triples:
        done = 0
        while done < 50:
            r = lo + (hi - lo) * rng.random()
            R = lo + (hi - lo) * rng.random()
            if abs(R - r) < 0.05 * (hi - lo):
                continue
            r, R = min(r, R), max(r, R)
            rep = finite_difference_check(f, m, r, R)
            ok &= rep.verdict == HOLDS
            done += 1
    # exact checks: f = -x against dx has both partials equal to -1/2
    f_neg, m_id = triples[0][0], triples[0][1]
    ok &= abs(mean_partial_r(f_neg, m_id, 1.0, 3.0) + 0.5) <= 1e-9
    ok &= abs(mean_partial_R(f_neg, m_id, 1.0, 3.0) + 0.5) <= 1e-9
    report(3, "analytic partials vs central differences", ok)


def test_criterion_4_majorant_mean():
    f = fn(lambda x: 1 / x, 1.0, math.inf, tail=Tail.vanishing(), hint="decreasing")
    maj = decreasing_majorant_mean(f, log_measure(1.0))
    ok = not maj.warnings
    for R in (10.0, 100.0, 1000.0, 10000.0):
        want = (1 - 1 / R) / math.log(R)  # closed form
        ok &= abs(maj.fn(R) - want) <= 1e-6 * abs(want)
    # frozen from the closed form; the spec sheet's 0.1085608 is a typo for this
    ok &= abs(maj.fn(1e4) - 0.1085627631) <= 1e-6
    f_win = fn(lambda x: 1 / x, 1.0, 1.001e4, tail=Tail.vanishing(), hint="decreasing")
    m_win = log_measure(1.0, 1.001e4)
    m_win.diverges = True
    f1 = check_majorant_inequality(f_win, m_win, 200, 7, sample_hi=1e4)
    ok &= f1.verdict == HOLDS and f1.worst_slack <= 1e-8 * 2.0
    report(4, "decreasing majorant mean and mean bound", ok)


def test_criterion_5_double_envelope():
    f = fn(lambda x: 1 / np.log(x), math.e, math.inf, tail=Tail.vanishing(),
           hint="decreasing")
    wde = weighted_double_envelope(f, WeightN(n=lambda x: x, domain=f.domain))
    ok = not wde.warnings
    for R in np.geomspace(5.0, 2e4, 10):
        want = 1 / math.log(R)
        ok &= abs(wde.fn(float(R)) - want) <= 1e-6 * abs(want)
    f_win = fn(lambda x: 1 / np.log(x), math.e, 1e6, tail=Tail.vanishing(),
               hint="decreasing")
    m_win = log_measure(math.e, 1e6)
    m_win.diverges = True
    anma = check_pointwise_mean_bound(
        f_win, WeightN(n=lambda x: x, domain=f_win.domain), m_win, 200, 7
    )
    ok &= anma.verdict == HOLDS
    ok &= abs(wde.fn(math.exp(10.0)) - 0.1) <= 1e-6
    report(5, "weighted double envelope and pointwise bound", ok)


def test_criterion_6_corollary_forward():
    Q = fn(lambda x: np.sqrt(x), 1.0, math.inf)
    d = d_from_Q(Q, 1.0)
    ok = not d.warnings
    ok &= abs(d.fn(math.e**2) - 0.6321205588) <= 1e-6  # 1 - 1/e, closed form
    dq = check_corollary_bounds(Q, d.fn, 1.0, "dQ", 200, 7, sample_hi=1e4)
    ok &= dq.verdict == HOLDS
    decay = estimate_decay(d.fn, DecaySchedule(start=10, ratio=10, steps=4, threshold=0.7))
    seq = decay.details["sequence"]
    ok &= decay.verdict == HOLDS
    ok &= all(b < a for a, b in zip(seq, seq[1:]))
    report(6, "growth scale to density (forward duality)", ok)


def test_criterion_7_corollary_backward():
    d = fn(lambda x: 1 / np.log(x), math.e, math.inf, hint="decreasing")
    Q = Q_from_d(d, math.e)
    ok = not Q.warnings
    for R in np.geomspace(5.0, 1e6, 10):
        want = R / math.log(R)  # closed form
        ok &= abs(Q.fn(float(R)) - want) <= 1e-6 * abs(want)
    qd = check_corollary_bounds(Q.fn, d, math.e, "Qd", 200, 7, sample_hi=1e6)
    ok &= qd.verdict == HOLDS
    ok &= abs(Q.fn(1e6) / 1e6 - 0.0723824137) <= 1e-6  # 1/ln(1e6), closed form
    report(7, "density to growth scale (backward duality)", ok)


def test_criterion_8_envelope_properties():
    rng = np.random.default_rng(2024)
    ok = True
    grid = GridSpec(node_count=257)
    for _ in range(50):
        terms = rng.integers(1, 4)
        cs = rng.uniform(-2, 2, terms)
        ds = rng.uniform(0.1, 1.5, terms)
        ws = rng.uniform(0.5, 6.0, terms)
        ps = rng.uniform(0, 2 * math.pi, terms)

        def fun(x, cs=cs, ds=ds, ws=ws, ps=ps):
            total = 0.0 * x
            for c, dd, w, p in zip(cs, ds, ws, ps):
                total = total + c * np.exp(-dd * x) * np.sin(w * x + p)
            return total

        f = fn(fun, 0.0, 10.0)
        for side, sign in (("right", -1), ("left", 1)):
            env = envelope_function(f, side, grid)
            diffs = np.diff(env.table)
            ok &= bool(np.all(sign * diffs >= 0))                    # monotone, exact
            ok &= bool(np.all(env.table >= fun(env.xs) - 2 * env.eps_sup))  # dominates
            ok &= abs(float(env.table.max()) - float(fun(env.xs).max())) <= 2 * env.eps_sup
            brute = table_from_samples(env.xs, env.xs, fun(env.xs), side)
            ok &= bool(np.array_equal(env.table, brute))             # suffix/prefix max
            env2 = envelope_function(env.as_function(), side, grid)
            ok &= bool(np.array_equal(env2.value_at(env.xs), env.table))  # idempotent, exact
    report(8, "envelope properties on random corpus", ok)


def test_criterion_9_parser():
    from meanmax.exprparse import derive_expression, parse_expression
    from oracles import eval_expression

    ok = eval_expression(parse_expression("2+3*4"), 0.0) == 14.0
    ok &= eval_expression(parse_expression("2*3^2"), 0.0) == 18.0
    ok &= eval_expression(parse_expression("-2^2"), 0.0) == -4.0
    from test_exprparse import DIFFERENTIABLE, ROUND_TRIP_CORPUS

    rng = random.Random(17)
    for text, direct, (lo, hi) in ROUND_TRIP_CORPUS:
        ast = parse_expression(text)
        for _ in range(100):
            x = lo + (hi - lo) * rng.random()
            ok &= math.isclose(
                eval_expression(ast, x), direct(x), rel_tol=1e-12, abs_tol=1e-12
            )
    for text, direct, (lo, hi) in DIFFERENTIABLE:
        deriv = derive_expression(parse_expression(text))
        for _ in range(20):
            x = lo + (hi - lo) * rng.random()
            h = 1e-6 * max(1.0, abs(x))
            if x - h <= lo or x + h >= hi:
                continue
            fd = (direct(x + h) - direct(x - h)) / (2 * h)
            got = eval_expression(deriv, x)
            ok &= abs(got - fd) / max(abs(fd), abs(got), 1e-6) <= 1e-7
    report(9, "expression parser and derivatives", ok)


def test_criterion_10_cli_determinism(capsys):
    invocations = [
        ["mean", "--f", "1/x", "--m", "ln(x)", "--a", "1", "--b", "inf",
         "--r", "1", "--R", "7.389056099"],
        ["transform", "--kind", "q-from-d", "--d", "1/ln(x)",
         "--r0", "2.718281828", "--table", "10:1e6:geometric:25"],
        ["verify", "--property", "F1", "--f", "exp(-x)", "--m", "x",
         "--a", "0", "--b", "50", "--pairs", "200", "--seed", "7"],
    ]
    ok = True
    for argv in invocations:
        code1 = run_command(argv)
        out1 = capsys.readouterr().out
        code2 = run_command(argv)
        out2 = capsys.readouterr().out
        ok &= code1 == code2 == 0
        ok &= out1 == out2 and len(out1) > 0
    with capsys.disabled():
        report(10, "CLI determinism", ok)
