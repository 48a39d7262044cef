"""The benchmark's workloads: fixed, seeded lists of operations on meanmax.

A workload builds its operation list once from the seed.  One round runs the
whole list: it rebuilds whatever the operations query (timed as set-up), runs
every operation in order (timed one by one and as a whole) and then checks
every output against the oracles in ``oracles.py`` or against a property the
method must have.  Before every build and every operation, and after the last
operation, a round times a fixed kernel that does not touch meanmax
(``speed_probe``); the end-to-end times are scaled by how fast the machine ran
that kernel during the round (``RoundResult.scale``).  Operations marked with
a ``fault`` exercise a known fault of the library; their inputs do not depend
on the seed, so they fail in every round of every run alike.  Such a failure
counts as the known fault only when the operation returned and its output
misses in the way and by no more than the fault's documented size
(``fault_check``); any other failure is unexpected.

The library is reached through the ``meanmax`` package attributes at call
time, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import meanmax as mm
import meanmax.cli  # noqa: F401  (loads cli and exprparse for the replay and the tracer)
import oracles
from meanmax.exprparse import parse_expression
from tracing import perf

# The library's default quadrature tolerances (QuadratureConfig) and the CLI's
# (--tol 1e-9, atol = tol / 10): the accuracy a D(R) or mean value is held to,
# on top of the envelope's own eps_sup.
ATOL, RTOL = 1e-10, 1e-9


def quad_tol(expected: float, dm: float) -> float:
    """Stated accuracy of a mean whose weight grows by dm over the interval."""
    return max(ATOL, RTOL * abs(expected) * dm) / dm


def partial_tol(expected: float, t: float, dm: float) -> float:
    """Stated accuracy of a partial m'(t) * integral / dm^2 under m = ln x.

    The integral is held to the quadrature tolerance; m'(t) = 1/t.
    """
    scale = t * dm * dm
    return max(ATOL, RTOL * abs(expected) * scale) / scale


# Known faults that make some operations miss their stated accuracy, and the
# largest miss each is documented to cause on the benchmark's inputs.
ENVELOPE = "envelope_function under-reports near maxima"
KINKED = "Simpson with Richardson misses its tolerance on a kinked CSV source"
# Relative under-report of the wave's D(R): 2.7e-6 at R = 1, 8.45e-6 from R = 4.
WAVE_UNDER_REPORT = 1e-5
# Error of cli-session call 9's mean: 4e-10 against a tolerance of 2.7e-10.
KINKED_ERROR = 1e-9
# Set-up is timed this many times per round of a library workload; the
# operations query the last build.
SETUP_REPEATS = 3
# The shared host's speed drifts by up to a factor of two over tens of
# seconds, and the CPU time of a fixed computation drifts with it.  A round's
# times are divided by the median time of speed_probe over the round and
# multiplied by this reference, so they read as seconds on a machine that runs
# the probe in 1.5 ms.  The probe shares no code with meanmax, so a change to
# the library moves the scaled times fully.
PROBE_REF_S = 1.5e-3
_PROBE_X = np.linspace(1.0, 2.0, 4096)


def speed_probe() -> float:
    """Seconds taken by a fixed mix of Python float arithmetic and numpy ufuncs."""
    t = perf()
    s = 0.0
    for i in range(3000):
        s += math.exp(-1e-4 * i)
    for _ in range(20):
        np.exp(-_PROBE_X) * (1.0 + 0.5 * np.sin(5.0 * _PROBE_X))
    return perf() - t


@dataclass
class Op:
    label: str
    run: object  # () -> output
    check: object  # (output) -> failure message or None
    fault: str | None = None  # a known fault this operation exercises
    # (output) -> None when a failed output misses only as the fault does
    fault_check: object = None


@dataclass
class RoundResult:
    setup_samples: list[float]
    wall_s: float
    latencies: list[float]
    failures: list[tuple[str, str, str | None]] = field(default_factory=list)
    source_points: int = 0
    source_calls: int = 0
    probes: list[float] = field(default_factory=list)  # speed_probe times of the round

    @property
    def scale(self) -> float:
        """Factor that turns the round's times into seconds at the reference speed."""
        return PROBE_REF_S / statistics.median(self.probes)


def run_ops(ops: list[Op], tracer, counter,
            probes: list[float]) -> tuple[list, list[float], float, int, int]:
    """Run the operations in order, each after a speed probe appended to probes.

    Returns outputs, latencies, wall (the probes left out), points, calls.
    """
    outputs, latencies = [], []
    p0, c0 = counter.points, counter.calls
    probed = 0.0
    start = perf()
    for i, op in enumerate(ops):
        probes.append(speed_probe())
        probed += probes[-1]
        tracer.set_op(i)
        t = perf()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed operation
            out = exc
        latencies.append(perf() - t)
        outputs.append(out)
        tracer.set_op(None)
    wall = perf() - start - probed
    probes.append(speed_probe())
    return outputs, latencies, wall, counter.points - p0, counter.calls - c0


def run_check(check, out) -> str | None:
    try:
        return check(out)
    except Exception as exc:  # an output the check cannot read fails it
        return f"check raised {exc!r}"


def check_all(ops: list[Op], outputs: list) -> list[tuple[str, str, str | None]]:
    """(label, message, fault) per failed operation; fault is None when the
    failure is not the operation's known fault, or not within its size."""
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failures.append((op.label, f"raised {out!r}", None))
            continue
        msg = run_check(op.check, out)
        if not msg:
            continue
        fault = None
        if op.fault:
            beyond = run_check(op.fault_check, out)
            if beyond:
                msg = f"{msg}; beyond the known fault: {beyond}"
            else:
                fault = op.fault
        failures.append((op.label, msg, fault))
    return failures


def timed_setup(build, repeats: int, probes: list[float]) -> tuple[list[float], object]:
    """Run build repeats times, each after a speed probe appended to probes;
    returns the times and the last build."""
    times = []
    for _ in range(repeats):
        probes.append(speed_probe())
        start = perf()
        built = build()
        times.append(perf() - start)
    return times, built


def stratified_log(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n values on [lo, hi], one in each of n equal strata of ln x, each within
    a tenth of its stratum's width of the stratum's middle.

    The panel count of a smooth majorant query doubles at thresholds in R;
    values spread over whole strata moved the median query across such a
    threshold for some seeds and not others, so op_p50_ms jumped by seed.
    """
    a, w = math.log(lo), (math.log(hi) - math.log(lo)) / n
    return [math.exp(a + (i + 0.5 + 0.2 * (rng.random() - 0.5)) * w) for i in range(n)]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------- majorant-sweep

WAVE = oracles.DampedWave(1.0, 5.0)
# Per source: distinct R values and repeats of earlier ones.  62 queries a
# round, 14 of them repeats (23%).  With 62 operations the tail percentile,
# p83, leaves 10.5 operations a round above it: it falls inside the spread of
# one operation's latencies (the wave query at R = 3.4), not on the edge
# between two.
SWEEP_SHAPE = {"wave": (16, 4), "recip": (16, 5), "sqrt": (16, 5)}
# Fixed R for the non-monotone source: every D(R) past the first maximum
# (0.194) misses its stated accuracy through the envelope under-report, so
# these queries fail alike whatever the seed.  Each costs 65k to 2.1M source
# points, so the eleven slowest operations of a round, which set op_tail_ms,
# are always among them.
WAVE_RS = [float(r) for r in np.geomspace(1.0, 40.0, SWEEP_SHAPE["wave"][0])]
# The query order, and which wave R repeat, do not depend on the seed.  A
# wave query's latency depends on the queries before it (the same D(2.7) took
# 7.5 ms in one seeded order and 11 ms in another, round after round), and the
# queries at the tail percentile are wave queries, so a seeded order moved
# op_tail_ms between seeds.
ORDER_SEED = 0


class MajorantSweep:
    """Prebuilt D queried one R at a time, for three sources.

    wave: exp(-x)(1 + 0.5 sin 5x) under m(x) = x on [0, inf), R fixed;
    recip: 1/x (decreasing hint) under ln x on [1, inf), R seeded;
    sqrt: d_from_Q(sqrt) with r0 = 1, R seeded.
    Each round rebuilds the three transforms, so the dict cache inside
    decreasing_majorant_mean starts empty and only repeats within a round hit it.
    """

    name = "majorant-sweep"
    warmup_rounds = 1

    def __init__(self, seed: int, counter):
        self.counter = counter
        rng = random.Random(seed)
        fixed = random.Random(ORDER_SEED)
        queries = []
        for source, (distinct, repeats) in SWEEP_SHAPE.items():
            if source == "wave":
                rs = WAVE_RS
                queries += [(source, R) for R in rs + fixed.sample(rs, repeats)]
            else:
                rs = stratified_log(rng, 1.1, 40.0, distinct)
                queries += [(source, R) for R in rs + rng.sample(rs, repeats)]
        # The same permutation of slots for every seed: slot i holds the same
        # wave query, or a seeded R from the same stratum, in every run.
        fixed.shuffle(queries)
        seen = set()
        self.queries = []
        for source, R in queries:
            self.queries.append((source, R, (source, R) in seen))
            seen.add((source, R))
        self.expected = {
            ("wave", R): WAVE.majorant_mean(R) for R in WAVE_RS
        }
        for source, R, _ in self.queries:
            if source == "recip":
                self.expected[source, R] = oracles.recip_majorant_mean(R)
            elif source == "sqrt":
                self.expected[source, R] = oracles.power_density(0.5, R)
        # m(R) - m(a) for each source's weight.
        self.dm = {"wave": lambda R: R, "recip": math.log, "sqrt": math.log}

    def build(self):
        wrap = self.counter.wrap
        wave = mm.Function1D(eval=wrap(lambda x: np.exp(-x) * (1.0 + 0.5 * np.sin(5.0 * x))),
                             domain=mm.Domain(0.0, math.inf), tail=mm.Tail.vanishing())
        recip = mm.Function1D(eval=wrap(lambda x: 1.0 / x), domain=mm.Domain(1.0, math.inf),
                              tail=mm.Tail.vanishing(), monotonicity="decreasing")
        sqrt = mm.Function1D(eval=wrap(np.sqrt), domain=mm.Domain(1.0, math.inf))
        return {
            "wave": mm.decreasing_majorant_mean(wave, mm.identity_measure(0.0)),
            "recip": mm.decreasing_majorant_mean(recip, mm.log_measure(1.0)),
            "sqrt": mm.d_from_Q(sqrt, 1.0),
        }

    def run_round(self, tracer, setup_repeats: int = SETUP_REPEATS) -> RoundResult:
        probes: list[float] = []
        setup, built = timed_setup(self.build, setup_repeats, probes)

        def query(source, R, repeat):
            def run():
                with tracer.span("transforms.query", repeat=repeat):
                    return built[source](R)
            return run

        ops = [Op(f"{source} D({R:.6g}){' repeat' if repeat else ''}",
                  query(source, R, repeat), None, fault=ENVELOPE if source == "wave" else None)
               for source, R, repeat in self.queries]
        outputs, lat, wall, points, calls = run_ops(ops, tracer, self.counter, probes)
        first: dict[tuple, float] = {}
        for op, (source, R, repeat), out in zip(ops, self.queries, outputs):
            op.check, op.fault_check = self._checker(built[source], source, R, repeat, first)
            if not isinstance(out, Exception) and not repeat:
                first[source, R] = out
        return RoundResult(setup, wall, lat, check_all(ops, outputs), points, calls, probes)

    def _checker(self, result, source, R, repeat, first):
        """The check of one query and the bound of the envelope fault on it."""
        expected = self.expected[source, R]
        tol = result.log["eps_sup"] + quad_tol(expected, self.dm[source](R))

        def same_as_first(out):
            if repeat and out != first.get((source, R)):
                return f"repeat gave {out!r}, first query gave {first.get((source, R))!r}"
            return None

        def check(out):
            err = abs(out - expected)
            if not err <= tol:
                return f"D={out!r}, oracle {expected!r}, error {err:.3g} > tolerance {tol:.3g}"
            return same_as_first(out)

        def within_fault(out):
            under = (expected - out) / expected
            if not 0.0 < under <= WAVE_UNDER_REPORT:
                return f"relative under-report {under:.3g} outside (0, {WAVE_UNDER_REPORT:g}]"
            return same_as_first(out)

        return check, within_fault


# ---------------------------------------------------------------- verify-suite

PROBE_OFFSETS = (1e-3, 3e-3)
# Worst under-report of the envelope probes that exercise the envelope fault,
# by (wave, side): 8.04e-6, 4.35e-5 and 5.44e-7 today.  The left envelope of
# the (0.5, 3.0) wave is within eps_sup and carries no fault.
PROBE_UNDER_REPORT = {((1.0, 5.0), "right"): 1e-5, ((1.0, 5.0), "left"): 5e-5,
                      ((0.5, 3.0), "right"): 1e-6}


def log_weight(lo: float, hi: float):
    return mm.Measure1D(m=np.log, m_prime=lambda x: 1.0 / x, domain=mm.Domain(lo, hi),
                        diverges=True)


def linear_weight(lo: float, hi: float):
    return mm.Measure1D(m=lambda x: x, m_prime=lambda x: 1.0, domain=mm.Domain(lo, hi),
                        diverges=True)


def tabulated_log_weight(lo: float, hi: float):
    """ln x tabulated on 257 geometric nodes; no derivative, so midpoint sums."""
    xs = np.geomspace(lo, hi, 257)
    ms = np.log(xs)
    return mm.Measure1D(m=lambda x: np.interp(x, xs, ms), domain=mm.Domain(lo, hi),
                        diverges=True)


PAIRS = 8
INSTANCES = 6
# Pair seeds of instance 0, 1, ... of every seeded check (see stratified).
PAIR_SEEDS = (101, 202, 303, 404, 505, 606)
# Seeded parameter ranges per check.  Each of the INSTANCES draws falls in its
# own stratum of the range, so every seed covers the range alike; odd
# instances get scalar-only math.* sources.
TRUE_CLAIMS = [
    ("F1", {"c": (0.5, 1.5)}),
    ("AnmA", {"c": (0.5, 1.5)}),
    ("dQ-lib", {"p": (0.3, 0.7)}),
    ("dQ-closed", {"p": (0.3, 0.7)}),
    ("Qd-lib", {"q": (0.3, 0.7)}),
    ("Qd-closed", {"q": (0.3, 0.7)}),
    ("monotonicity", {"p": (0.5, 1.5)}),
    ("sup-identity", {"p": (0.5, 1.5), "R": (10.0, 45.0)}),
    ("decay", {"p": (0.5, 1.5)}),
]
FALSE_CLAIMS = [
    ("dQ-false", {"p": (0.3, 0.7)}),
    ("Qd-false", {"q": (0.3, 0.7)}),
    ("decay-false", {}),
]
# Seed-independent specs.  The partials check runs its central differences at
# 1e-4 times the quadrature tolerance, where the number of halvings (and the
# cost, by up to 16x) jumps with (r, R); midpoint sums against the tabulated
# measure jump likewise.  Fixed inputs keep these costs the same in every run.
# The envelope probes exercise the envelope_function fault.
FIXED_SPECS = [
    ("partials", scalar, {"r": r, "R": R})
    for scalar, (r, R) in zip((False, True) * 3,
                              [(2.0, 10.0), (1.5, 12.0), (3.0, 20.0), (2.5, 16.0),
                               (4.0, 30.0), (1.8, 24.0)])
] + [
    ("sup-identity-tab", False, {"p": 0.75, "R": 30.0}),
    ("sup-identity-tab", False, {"p": 1.25, "R": 45.0}),
    ("probe", False, {"wave": (1.0, 5.0), "side": "right", "b": math.inf}),
    ("probe", False, {"wave": (1.0, 5.0), "side": "left", "b": 30.0}),
    ("probe", True, {"wave": (0.5, 3.0), "side": "right", "b": 12.0}),
    ("probe", True, {"wave": (0.5, 3.0), "side": "left", "b": 12.0}),
]


def stratified(rng: random.Random, ranges: dict, n: int) -> list[dict]:
    """n parameter sets; set i draws each parameter from stratum i of its range.

    The pair seed handed to the check is fixed per instance, not drawn: a
    check's cost is set mostly by where its pairs fall (F1 on a scalar-only
    source took 49k to 148k source points by pair seed, for like c), and the
    slowest checks set op_tail_ms, which moved by a fifth between seeds.
    """
    out = []
    for i in range(n):
        params = {"seed": PAIR_SEEDS[i]}
        for key, (lo, hi) in ranges.items():
            params[key] = lo + (i + rng.random()) * (hi - lo) / n
        out.append(params)
    return out


class VerifySuite:
    """Every check in verify, on true claims, on constructed false claims and as
    envelope probes.

    True claims come in INSTANCES instances per check, half with numpy sources
    and half with scalar-only math.* sources, with seeded parameters and fixed
    pair seeds.  Two more run sup-identity against a tabulated measure (midpoint
    sums).  False claims (dQ against d/10, Qd against 10 d, decay of x/(1+x))
    come in three instances each.  Those use numpy sources only: midpoint sums
    and the 10^6-panel oracle re-check evaluate millions of points, which a
    scalar-only source would take seconds over.
    """

    name = "verify-suite"
    # The first round in a process ran about a fifth slower than the rest.
    warmup_rounds = 1

    def __init__(self, seed: int, counter):
        self.counter = counter
        rng = random.Random(seed)
        self.specs = []
        for kind, ranges in TRUE_CLAIMS:
            for i, params in enumerate(stratified(rng, ranges, INSTANCES)):
                self.specs.append((kind, i % 2 == 1, params))
        for kind, ranges in FALSE_CLAIMS:
            self.specs += [(kind, False, params) for params in stratified(rng, ranges, 3)]
        self.specs += FIXED_SPECS

    def _power(self, p, scalar, scale=1.0):
        """x^p as a counted source; scalar-only sources reject arrays."""
        if scalar:
            return self.counter.wrap(lambda x: scale * math.pow(x, p))
        return self.counter.wrap(lambda x: scale * np.power(x, p))

    def _exp(self, c, scalar):
        if scalar:
            return self.counter.wrap(lambda x: math.exp(-c * x))
        return self.counter.wrap(lambda x: np.exp(-c * x))

    def build(self, spec):
        """Set-up for one spec: the transform or envelope its check queries."""
        kind, scalar, p = spec
        if kind == "dQ-lib":
            Q = mm.Function1D(eval=self._power(p["p"], scalar), domain=mm.Domain(1.0, math.inf))
            return Q, mm.d_from_Q(Q, 1.0)
        if kind == "Qd-lib":
            d = mm.Function1D(eval=self._power(-p["q"], scalar), domain=mm.Domain(1.0, math.inf))
            return d, mm.Q_from_d(d, 1.0)
        if kind == "probe":
            c, w = p["wave"]
            if scalar:
                fn = self.counter.wrap(lambda x: math.exp(-c * x) * (1.0 + 0.5 * math.sin(w * x)))
            else:
                fn = self.counter.wrap(lambda x: np.exp(-c * x) * (1.0 + 0.5 * np.sin(w * x)))
            f = mm.Function1D(eval=fn, domain=mm.Domain(0.0, p["b"]), tail=mm.Tail.vanishing())
            return f, mm.envelope_function(f, p["side"])
        return None

    def op(self, spec, built) -> Op:
        kind, scalar, p = spec
        label = f"{kind}{' math' if scalar else ''} {sorted(p.items())}"
        F = mm.Function1D
        D = mm.Domain
        inf = math.inf
        verdict = expect_verdict("violated" if kind.endswith("-false") else "holds")
        seed = p.get("seed")

        if kind in ("F1", "AnmA"):
            f = F(eval=self._exp(p["c"], scalar), domain=D(0.0, 50.0), tail=mm.Tail.vanishing())
            m = linear_weight(0.0, 50.0)
            if kind == "F1":
                return Op(label, lambda: mm.check_majorant_inequality(f, m, PAIRS, seed), verdict)
            n = mm.WeightN(n=lambda x: 1.0 + x, domain=f.domain)
            return Op(label, lambda: mm.check_pointwise_mean_bound(f, n, m, PAIRS, seed), verdict)
        if kind in ("dQ-lib", "Qd-lib"):
            given, res = built
            if kind == "dQ-lib":
                args = (given, res.fn, 1.0, "dQ")
            else:
                args = (res.fn, given, 1.0, "Qd")
            return Op(label, lambda: mm.check_corollary_bounds(*args, PAIRS, seed, sample_hi=40.0),
                      verdict)
        if kind in ("dQ-closed", "dQ-false"):
            pp = p["p"]
            scale = 0.1 if kind == "dQ-false" else 1.0
            Q = F(eval=self._power(pp, scalar), domain=D(1.0, inf))
            d = F(eval=lambda x: scale * oracles.power_density(pp, x), domain=D(1.0, inf))
            return Op(label, lambda: mm.check_corollary_bounds(Q, d, 1.0, "dQ", PAIRS, seed,
                                                               sample_hi=40.0), verdict)
        if kind in ("Qd-closed", "Qd-false"):
            q = p["q"]
            Q = F(eval=self._power(1.0 - q, scalar), domain=D(1.0, inf))
            d = F(eval=self._power(-q, scalar, 10.0 if kind == "Qd-false" else 1.0),
                  domain=D(1.0, inf))
            return Op(label, lambda: mm.check_corollary_bounds(Q, d, 1.0, "Qd", PAIRS, seed,
                                                               sample_hi=40.0), verdict)
        if kind == "monotonicity":
            f = F(eval=self._power(-p["p"], scalar), domain=D(1.0, 50.0), tail=mm.Tail.vanishing())
            grid = np.geomspace(1.0, 49.0, 5)
            return Op(label, lambda: mm.check_mean_monotonicity(f, log_weight(1.0, 50.0), grid,
                                                                grid), verdict)
        if kind in ("sup-identity", "sup-identity-tab"):
            f = F(eval=self._power(-p["p"], scalar), domain=D(1.0, 50.0), tail=mm.Tail.vanishing())
            R = p["R"]
            rs = np.geomspace(1.0, 0.99 * R, 8)
            if kind == "sup-identity-tab":
                m = tabulated_log_weight(1.0, 50.0)
                return Op(label, lambda: mm.check_sup_identity(f, m, R, rs), verdict)
            expected = oracles.power_mean_log(p["p"], 1.0, R)
            tol = quad_tol(expected, math.log(R))
            return Op(label, lambda: mm.check_sup_identity(f, log_weight(1.0, 50.0), R, rs),
                      both(verdict, detail_close("mean_at_a", expected, tol)))
        if kind == "partials":
            r, R = p["r"], p["R"]
            f = F(eval=self._power(-1.0, scalar), domain=D(1.0, 50.0))
            exp_r, exp_R = oracles.recip_mean_partials(r, R)
            dm = math.log(R / r)
            return Op(label, lambda: mm.finite_difference_check(f, log_weight(1.0, 50.0), r, R),
                      both(verdict, detail_close("analytic_r", exp_r, partial_tol(exp_r, r, dm)),
                           detail_close("analytic_R", exp_R, partial_tol(exp_R, R, dm))))
        if kind == "decay":
            g = F(eval=self._power(-p["p"], scalar), domain=D(1.0, inf))
            threshold = 2.0 * 256.0 ** -p["p"]
            sched = mm.DecaySchedule(2.0, 2.0, 8, threshold)
            return Op(label, lambda: mm.estimate_decay(g, sched), verdict)
        if kind == "decay-false":
            g = F(eval=self.counter.wrap(lambda x: x / (1.0 + x)), domain=D(1.0, inf))
            sched = mm.DecaySchedule(2.0, 2.0, 8, 0.5)
            return Op(label, lambda: mm.estimate_decay(g, sched), verdict)
        if kind == "probe":
            f, env = built
            wave = oracles.DampedWave(*p["wave"])
            hi = min(env.sampling_end, p["b"]) - 2 * max(PROBE_OFFSETS)
            qs = np.array(sorted(x + s * dx for x in wave.maxima_below(hi)
                                 for dx in PROBE_OFFSETS for s in (-1, 1) if x - dx > 0))
            truth = wave.right_max(qs) if p["side"] == "right" else wave.left_max(qs)
            under = PROBE_UNDER_REPORT.get((p["wave"], p["side"]))
            return Op(label, lambda: env.value_at(qs), probe_check(qs, truth, env.eps_sup),
                      fault=ENVELOPE if under else None,
                      fault_check=(probe_under_report(qs, truth, env.eps_sup, under)
                                   if under else None))
        raise ValueError(kind)

    def run_round(self, tracer, setup_repeats: int = SETUP_REPEATS) -> RoundResult:
        probes: list[float] = []
        setup, built = timed_setup(lambda: [self.build(spec) for spec in self.specs],
                                   setup_repeats, probes)
        ops = [self.op(spec, b) for spec, b in zip(self.specs, built)]
        outputs, lat, wall, points, calls = run_ops(ops, tracer, self.counter, probes)
        return RoundResult(setup, wall, lat, check_all(ops, outputs), points, calls, probes)


def expect_verdict(want):
    def check(report):
        if report.verdict != want:
            return f"verdict {report.verdict} ({report.note}), expected {want}"
        return None
    return check


def detail_close(key, expected, tol):
    def check(report):
        got = report.details[key]
        if not abs(got - expected) <= tol:
            return f"{key}={got!r}, oracle {expected!r}, tolerance {tol:.3g}"
        return None
    return check


def both(*checks):
    def check(out):
        for c in checks:
            msg = c(out)
            if msg:
                return msg
        return None
    return check


def probe_check(qs, truth, eps):
    def check(values):
        err = np.abs(np.asarray(values) - truth)
        k = int(np.argmax(err))
        if not err[k] <= eps:
            return (f"{int(np.sum(err > eps))}/{len(qs)} queries off; worst at x={qs[k]:.6g}: "
                    f"{values[k]!r} vs right/left maximization {truth[k]!r}, "
                    f"error {err[k]:.3g} > eps_sup {eps:.3g}")
        return None
    return check


def probe_under_report(qs, truth, eps, bound):
    """The envelope fault: values never above the maximization by more than
    eps, and below it by at most bound."""
    def check(values):
        diff = np.asarray(values) - truth
        k, j = int(np.argmax(diff)), int(np.argmin(diff))
        if not diff[k] <= eps:
            return f"{diff[k]:.3g} above the maximization at x={qs[k]:.6g}"
        if not -diff[j] <= bound:
            return f"{-diff[j]:.3g} below the maximization at x={qs[j]:.6g} > {bound:g}"
        return None
    return check


# ---------------------------------------------------------------- cli-session

BARE_STARTS = 5  # `meanmax --help` starts per round; set-up is their median


def half_digit(v: float) -> float:
    """Rounding error of a value printed with 10 significant digits."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 9) if v else 1e-300


class CliCall:
    """One meanmax subprocess call: its arguments, exit code and output check."""

    def __init__(self, argv, code=0, check=None, source=None, same_as=None, fault=None,
                 fault_check=None):
        self.argv = [str(a) for a in argv]
        self.code = code
        self.check = check  # (stdout) -> failure message or None
        self.source = source  # the --f/--Q/--d text whose points are counted
        self.same_as = same_as  # index of an identical earlier call
        self.fault = fault
        self.fault_check = fault_check  # (stdout) -> None when it misses only as the fault does


def value_check(expected, tol):
    def check(stdout):
        got = float(stdout.strip())
        if not abs(got - expected) <= tol + half_digit(expected):
            return f"printed {got!r}, oracle {expected!r}, tolerance {tol:.3g}"
        return None
    return check


def kv_check(expected: dict, tols: dict):
    """Key-value lines ("key,value" or "key: value") against oracle values."""
    def check(stdout):
        found = {}
        for line in stdout.splitlines():
            key, sep, val = line.replace(": ", ",", 1).partition(",")
            if sep:
                found[key.strip()] = val.strip()
        for key, want in expected.items():
            if key not in found:
                return f"no {key!r} in output"
            if isinstance(want, str):
                if found[key] != want:
                    return f"{key}: {found[key]!r}, expected {want!r}"
                continue
            got = float(found[key])
            tol = tols.get(key, 0.0) + half_digit(want)
            if not abs(got - want) <= tol:
                return f"{key}: printed {got!r}, oracle {want!r}, tolerance {tol:.3g}"
        return None
    return check


def table_check(fn, xs, tol_of):
    """CSV rows x,value: each x as requested and each value within tol of fn(x)."""
    def check(stdout):
        lines = stdout.splitlines()
        if len(lines) != len(xs):
            return f"{len(lines)} rows, expected {len(xs)}"
        for line, x in zip(lines, xs):
            px, pv = (float(t) for t in line.split(","))
            if not abs(px - x) <= half_digit(x):
                return f"row x={px!r}, expected {x!r}"
            want = fn(x)
            tol = tol_of(want) + half_digit(want)
            if not abs(pv - want) <= tol:
                return f"at x={x!r}: printed {pv!r}, oracle {want!r}, tolerance {tol:.3g}"
        return None
    return check


def grid(lo, hi, spacing, count):
    """The points a lo:hi:spacing:count range spec names (first and last exact)."""
    xs = list(np.geomspace(lo, hi, count) if spacing == "geometric"
              else np.linspace(lo, hi, count))
    xs[0], xs[-1] = lo, hi
    return [float(x) for x in xs], f"{lo!r}:{hi!r}:{spacing}:{count}"


def expect_text(pattern):
    def check(stdout):
        return None if pattern in stdout else f"output lacks {pattern!r}"
    return check


class CliSession:
    """A fixed script of meanmax subprocess calls, run one at a time.

    Covers the six subcommands, expression and CSV sources, --partials, the
    report and line formats, usage errors (exit 2), numeric failures (exit 3)
    and a violated property (exit 1).  The only majorant call has a decreasing
    hint, so quadrature stays light and start-up, imports, parsing, CSV loading
    and formatting dominate.  Six calls are repeated verbatim later in the
    script; their stdout must match byte for byte.
    """

    name = "cli-session"
    warmup_rounds = 0  # every call is a fresh process

    def __init__(self, seed: int, counter, root: Path, workdir: Path):
        self.counter = counter
        self.root = root
        # No bytecode cache: every start compiles meanmax from source, whatever
        # an earlier run or the caller's environment left behind.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        rng = random.Random(seed)
        u = rng.uniform
        workdir.mkdir(parents=True, exist_ok=True)
        # A decreasing table of x^-0.9 on 40 geometric nodes over [1, 50].  It
        # and the intervals of the two means over it are fixed: Simpson over
        # its kinks needs 2^16 to 2^20 panels, depending erratically on where
        # the kinks fall, which would make source_evals jump between seeds.
        txs = [float(x) for x in np.geomspace(1.0, 50.0, 40)]
        txs[-1] = 50.0
        tys = [x ** -0.9 for x in txs]
        csv = workdir / "decreasing.csv"
        csv.write_text("# x, x^-0.9\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(txs, tys)))
        self.csv = str(csv)
        table_at = lambda x: oracles.interp(txs, tys, x)  # noqa: E731

        calls = []
        log_m = ["--m", "ln(x)"]
        for _ in range(4):
            r, R = u(1.0, 3.0), u(5.0, 40.0)
            exp = oracles.recip_mean(r, R)
            calls.append(CliCall(["mean", "--f", "1/x", *log_m, "--a", 1, "--b", "inf",
                                  "--r", r, "--R", R], check=value_check(
                                      exp, quad_tol(exp, math.log(R / r))), source="1/x"))
        for _ in range(2):
            r, R = u(1.5, 4.0), u(6.0, 40.0)
            exp = oracles.recip_mean(r, R)
            dr, dR = oracles.recip_mean_partials(r, R)
            dm = math.log(R / r)
            calls.append(CliCall(
                ["mean", "--f", "1/x", *log_m, "--a", 1, "--r", r, "--R", R, "--partials"],
                check=kv_check({"mean": exp, "partial_r": dr, "partial_R": dR},
                               {"mean": quad_tol(exp, dm), "partial_r": partial_tol(dr, r, dm),
                                "partial_R": partial_tol(dR, R, dm)}),
                source="1/x"))
        # The README example: 0.4323323584.
        calls.append(CliCall(["mean", "--f", "1/x", *log_m, "--a", 1, "--b", "inf",
                              "--r", 1, "--R", 7.389056099],
                             check=expect_text("0.4323323584\n"), source="1/x"))
        for _ in range(2):
            c, r, R = u(0.5, 1.5), u(0.0, 2.0), u(3.0, 10.0)
            exp = oracles.exp_mean_identity(c, r, R)
            calls.append(CliCall(["mean", "--f", f"exp(-{c!r}*x)", "--m", "x", "--a", 0,
                                  "--r", r, "--R", R],
                                 check=value_check(exp, quad_tol(exp, R - r)),
                                 source=f"exp(-{c!r}*x)"))
        for r, R in ((1.5, 20.0), (3.0, 45.0)):
            exp = oracles.table_mean_log(txs, tys, r, R)
            # Over [1.5, 20] the mean misses its tolerance through the kinks.
            kinked = (r, R) == (1.5, 20.0)
            calls.append(CliCall(["mean", "--f", self.csv, *log_m, "--a", 1, "--b", 50,
                                  "--r", r, "--R", R],
                                 check=value_check(exp, quad_tol(exp, math.log(R / r))),
                                 source=self.csv, fault=KINKED if kinked else None,
                                 fault_check=value_check(exp, KINKED_ERROR) if kinked else None))
        exact = lambda v: 1e-15 * abs(v)  # noqa: E731
        xs, spec = grid(0.0, u(5.0, 10.0), "uniform", 11)
        calls.append(CliCall(["table", "--f", "1/(1+x^2)", "--a", 0, "--table", spec],
                             check=table_check(lambda x: 1.0 / (1.0 + x * x), xs, exact),
                             source="1/(1+x^2)"))
        xs, spec = grid(1.0, u(20.0, 49.0), "geometric", 9)
        calls.append(CliCall(["table", "--f", self.csv, "--a", 1, "--table", spec],
                             check=table_check(table_at, xs, exact), source=self.csv))
        sup_tol = lambda v: 1e-9 * max(1.0, abs(v))  # noqa: E731  eps_sup
        xs, spec = grid(0.0, u(10.0, 20.0), "uniform", 11)
        calls.append(CliCall(["envelope", "--f", "1/(1+x)", "--side", "right", "--a", 0,
                              "--tail", "vanishing", "--table", spec],
                             check=table_check(lambda x: 1.0 / (1.0 + x), xs, sup_tol),
                             source="1/(1+x)"))
        xs, spec = grid(0.0, u(50.0, 90.0), "uniform", 10)
        calls.append(CliCall(["envelope", "--f", "x/(1+x)", "--side", "left", "--a", 0,
                              "--b", 100, "--table", spec],
                             check=table_check(lambda x: x / (1.0 + x), xs, sup_tol),
                             source="x/(1+x)"))
        xs, spec = grid(1.0, u(20.0, 49.0), "geometric", 9)
        calls.append(CliCall(["envelope", "--f", self.csv, "--side", "right", "--a", 1,
                              "--table", spec],
                             check=table_check(table_at, xs, sup_tol), source=self.csv))
        xs, spec = grid(2.0, u(20.0, 40.0), "geometric", 6)
        calls.append(CliCall(
            ["transform", "--kind", "majorant", "--f", "1/x", *log_m, "--a", 1,
             "--hint", "decreasing", "--table", spec],
            check=table_check(oracles.recip_majorant_mean, xs,
                              lambda v: 1e-9 + quad_tol(v, math.log(xs[-1]))),
            source="1/x"))
        xs, spec = grid(2.0, u(100.0, 1000.0), "geometric", 6)
        calls.append(CliCall(["transform", "--kind", "q-from-d", "--d", "1/sqrt(x)", "--r0", 1,
                              "--hint", "decreasing", "--table", spec],
                             check=table_check(math.sqrt, xs, sup_tol), source="1/sqrt(x)"))
        xs, spec = grid(0.5, u(10.0, 20.0), "geometric", 6)
        # (1+x) exp(-x) decreases from 1, so h = 1/(1+x).
        calls.append(CliCall(["transform", "--kind", "double-envelope", "--f", "exp(-x)",
                              "--n", "1+x", "--a", 0, "--table", spec],
                             check=table_check(lambda x: 1.0 / (1.0 + x), xs, sup_tol),
                             source="exp(-x)"))
        holds = {"verdict": "holds"}
        calls.append(CliCall(["verify", "--property", "monotonicity", "--f", "1/x", *log_m,
                              "--a", 1, "--b", 50, "--steps", 5],
                             check=kv_check(holds, {}), source="1/x"))
        calls.append(CliCall(["verify", "--property", "monotonicity", "--f", "1/x", *log_m,
                              "--a", 1, "--b", 50, "--steps", 5, "--format", "line"],
                             check=expect_text("monotonicity holds "), source="1/x"))
        pw, R = u(0.6, 1.4), u(10.0, 45.0)
        exp = oracles.power_mean_log(pw, 1.0, R)
        calls.append(CliCall(["verify", "--property", "sup-identity", "--f", f"x^(-{pw!r})",
                              *log_m, "--a", 1, "--b", 50, "--R", R, "--steps", 6],
                             check=kv_check({**holds, "mean_at_a": exp},
                                            {"mean_at_a": quad_tol(exp, math.log(R))}),
                             source=f"x^(-{pw!r})"))
        r, R = 2.0, 10.0  # fixed, as in verify-suite: its cost jumps with (r, R)
        dr, dR = oracles.recip_mean_partials(r, R)
        dm = math.log(R / r)
        calls.append(CliCall(["verify", "--property", "partials", "--f", "1/x", *log_m,
                              "--a", 1, "--b", 50, "--r", r, "--R", R],
                             check=kv_check({**holds, "analytic_r": dr, "analytic_R": dR},
                                            {"analytic_r": partial_tol(dr, r, dm),
                                             "analytic_R": partial_tol(dR, R, dm)}),
                             source="1/x"))
        calls.append(CliCall(["verify", "--property", "AnmA", "--f", "exp(-x)", "--n", "1+x",
                              "--m", "x", "--a", 0, "--b", 20, "--pairs", 8,
                              "--seed", rng.randrange(10**6), "--format", "line"],
                             check=expect_text("AnmA holds "), source="exp(-x)"))
        calls.append(CliCall(["verify", "--property", "Qd", "--d", "1/sqrt(x)", "--r0", 1,
                              "--b", 40, "--pairs", 8, "--seed", rng.randrange(10**6),
                              "--hint", "decreasing"],
                             check=kv_check(holds, {}), source="1/sqrt(x)"))
        calls.append(CliCall(["decay", "--f", "1/x", "--a", 1, "--schedule", "2:2:8:0.01"],
                             check=kv_check(holds, {}), source="1/x"))
        calls.append(CliCall(["decay", "--f", "exp(-x)", "--a", 0, "--schedule", "1:2:6:1e-3",
                              "--format", "line"],
                             check=expect_text("decay holds "), source="exp(-x)"))
        calls.append(CliCall(["decay", "--f", "x/(1+x)", "--a", 0, "--schedule", "1:2:8:0.5",
                              "--format", "line"], code=1,
                             check=expect_text("decay violated "), source="x/(1+x)"))
        calls.append(CliCall(["verify", "--property", "sup-identity", "--f", "1/x", *log_m,
                              "--a", 1, "--b", 50, "--R", 40, "--steps", 6, "--format", "line"],
                             check=expect_text("sup-identity holds "), source="1/x"))
        xs, spec = grid(1.0, u(20.0, 49.0), "geometric", 9)
        calls.append(CliCall(["envelope", "--f", self.csv, "--side", "left", "--a", 1,
                              "--table", spec],
                             check=table_check(lambda x: tys[0], xs, sup_tol), source=self.csv))
        empty = lambda out: None if out == "" else f"stdout {out[:60]!r}"  # noqa: E731
        calls += [
            CliCall(["mean", "--f", "1/x", *log_m, "--a", 1, "--r", 2, "--R", 1], code=3,
                    check=empty),
            CliCall(["envelope", "--f", "sin(x)", "--side", "right", "--a", 0,
                     "--table", "0:1:uniform:3"], code=3, check=empty),
            CliCall(["mean", "--f", "1/", *log_m, "--a", 1, "--r", 1, "--R", 2], code=2,
                    check=empty),
            CliCall(["table", "--f", "1/x", "--a", 1, "--table", "1:10:cubic:5"], code=2,
                    check=empty),
            CliCall(["mean", "--f", "1/x", "--r", 1, "--R", 2], code=2, check=empty),
            CliCall(["verify", "--help"], check=expect_text("--property")),
        ]
        xs, spec = grid(0.0, u(2.0, 4.0), "uniform", 7)
        calls.append(CliCall(["table", "--f", "exp(-x)*(1+0.5*sin(5*x))", "--a", 0,
                              "--table", spec], check=table_check(
                                  lambda x: float(WAVE.f(x)), xs, lambda v: 1e-14 * abs(v)),
                             source="exp(-x)*(1+0.5*sin(5*x))"))
        xs, spec = grid(1.0, u(20.0, 40.0), "geometric", 6)
        calls.append(CliCall(["envelope", "--f", "1/x", "--side", "right", "--a", 1,
                              "--hint", "decreasing", "--table", spec],
                             check=table_check(lambda x: 1.0 / x, xs, sup_tol), source="1/x"))
        # Repeat seven calls verbatim; stdout must be byte-identical.
        for i in (0, 4, 11, 16, 19, 21, 24):
            c = calls[i]
            calls.append(CliCall(c.argv, c.code, c.check, c.source, same_as=i))
        self.calls = calls
        # Parsed here, before any tracing, so that the replay's own parses of
        # the sources are not counted as the CLI's.
        self.source_asts = [parse_expression(c.source)
                            if c.source and not c.source.endswith(".csv") else None
                            for c in calls]

    def run_cli(self, argv):
        return subprocess.run([sys.executable, "-m", "meanmax", *argv], env=self.env,
                              capture_output=True, text=True, cwd=self.root)

    def bare_starts(self, probes: list[float]) -> list[float]:
        """BARE_STARTS timed `meanmax --help` starts, each after a speed probe."""
        starts = []
        for _ in range(BARE_STARTS):
            probes.append(speed_probe())
            t = perf()
            done = self.run_cli(["--help"])
            starts.append(perf() - t)
            if done.returncode != 0:
                raise RuntimeError(f"meanmax --help exited {done.returncode}: {done.stderr}")
        return starts

    def run_round(self, tracer) -> RoundResult:
        probes: list[float] = []
        starts = self.bare_starts(probes)
        ops = [Op(" ".join(c.argv), (lambda c=c: self.run_cli(c.argv)), None, c.fault)
               for c in self.calls]
        outputs, lat, wall, _, _ = run_ops(ops, tracer, self.counter, probes)
        self._set_checks(ops, outputs)
        return RoundResult(starts, wall, lat, check_all(ops, outputs), probes=probes)

    def _set_checks(self, ops, outputs):
        for op, call in zip(ops, self.calls):
            op.check = self._checker(call, call.check, outputs)
            if call.fault:
                op.fault_check = self._checker(call, call.fault_check, outputs)

    @staticmethod
    def _checker(call, check_stdout, outputs):
        def check(done):
            if done.returncode != call.code:
                return f"exit {done.returncode}, expected {call.code}: {done.stderr.strip()[-200:]}"
            if call.same_as is not None and done.stdout != outputs[call.same_as].stdout:
                return "stdout differs from the identical earlier call"
            return check_stdout(done.stdout) if check_stdout else None
        return check

    def replay(self, tracer=None):
        """Run the script in-process through meanmax.cli.run_command.

        Counts the points of each call's source (its --f/--Q/--d expression or
        CSV table), checks each call as the subprocess round does, and returns
        (source points, wall seconds, failures).
        """
        cli = sys.modules["meanmax.cli"]
        counter = self.counter
        compile_orig, load_orig = cli.compile_expression, cli.load_csv_function
        current = {"ast": None, "path": None}

        class CountedTable(cli.TabulatedFunction):
            def __call__(self, x):
                out = super().__call__(x)
                counter.calls += 1
                counter.points += int(np.size(x))
                return out

        def compile_counted(node):
            # Sources load before measures and weights, so the first match is
            # the source (the derivative of ln(x) is 1/x too).
            fn = compile_orig(node)
            if node != current["ast"]:
                return fn
            current["ast"] = None
            return counter.wrap(fn)

        def load_counted(path):
            tab = load_orig(path)
            if str(path) == current["path"]:
                return CountedTable(xs=tab.xs, ys=tab.ys)
            return tab

        cli.compile_expression, cli.load_csv_function = compile_counted, load_counted
        p0 = counter.points
        outputs = []
        start = perf()
        try:
            for i, (call, ast) in enumerate(zip(self.calls, self.source_asts)):
                current["ast"] = ast
                current["path"] = call.source if ast is None else None
                if tracer is not None:
                    tracer.set_op(i)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run_command(call.argv)
                outputs.append(subprocess.CompletedProcess(call.argv, code, out.getvalue(),
                                                           err.getvalue()))
        finally:
            cli.compile_expression, cli.load_csv_function = compile_orig, load_orig
        wall = perf() - start
        ops = [Op(" ".join(c.argv), None, None, c.fault) for c in self.calls]
        self._set_checks(ops, outputs)
        return counter.points - p0, wall, check_all(ops, outputs)
