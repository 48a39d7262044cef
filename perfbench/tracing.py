"""Source-point counting and span tracing, applied to meanmax from outside.

Every source callable the benchmark hands the library goes through
``SourceCounter.wrap``, which counts the points it is asked for.  A traced run
additionally replaces the public functions of each meanmax module with
wrappers that record a span per call: name, start, end, parent span, the
operation being run and the source points counted during the call.  The
wrapper is installed under every module attribute that refers to the
function, so calls between library modules are traced too.  Spans stay in
memory until the run writes them out; ``layer_metrics`` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

import numpy as np

perf = time.perf_counter


class SourceCounter:
    """Counts the calls and points of every source callable it wrapped."""

    def __init__(self):
        self.points = 0
        self.calls = 0

    def wrap(self, fn):
        def counted(x):
            y = fn(x)
            # Counted after the call: a call that rejects an array costs no points.
            self.calls += 1
            self.points += int(np.size(x))
            return y

        return counted


class NullTracer:
    """Tracer stand-in for untraced runs."""

    def span(self, name, **extra):
        return contextlib.nullcontext()

    def set_op(self, op):
        pass


# (module, function, span name).  A span name of None means the name is
# chosen per call by _dynamic_name.
TRACED = [
    ("func1d", "envelope_function", "func1d.envelope_build"),
    ("func1d", "right_maximization", "func1d.sup"),
    ("func1d", "left_maximization", "func1d.sup"),
    ("func1d", "classify_monotonicity", "func1d.sup"),
    ("stieltjes", "stieltjes_integral", None),
    ("stieltjes", "integral_mean", "stieltjes.mean"),
    ("stieltjes", "mean_partial_r", "stieltjes.partials"),
    ("stieltjes", "mean_partial_R", "stieltjes.partials"),
    ("transforms", "decreasing_majorant_mean", "transforms.build"),
    ("transforms", "weighted_double_envelope", "transforms.build"),
    ("transforms", "d_from_Q", "transforms.build"),
    ("transforms", "Q_from_d", "transforms.build"),
    ("verify", "check_majorant_inequality", "verify.F1"),
    ("verify", "check_pointwise_mean_bound", "verify.AnmA"),
    ("verify", "check_corollary_bounds", None),
    ("verify", "check_mean_monotonicity", "verify.monotonicity"),
    ("verify", "check_sup_identity", "verify.sup-identity"),
    ("verify", "finite_difference_check", "verify.partials"),
    ("verify", "estimate_decay", "verify.decay"),
    ("verify", "midpoint_stieltjes_oracle", "verify.oracle"),
    ("exprparse", "parse_expression", "exprparse.parse"),
    ("exprparse", "derive_expression", "exprparse.derive"),
    ("exprparse", "compile_expression", "exprparse.compile"),
    ("cli", "run_command", "cli.run"),
    ("cli", "load_csv_function", "cli.csv_load"),
]


def _dynamic_name(func_name, args, kwargs):
    if func_name == "stieltjes_integral":
        m = args[1] if len(args) > 1 else kwargs["m"]
        return "stieltjes.midpoint" if m.m_prime is None else "stieltjes.integral"
    direction = args[3] if len(args) > 3 else kwargs["direction"]
    return f"verify.{direction}"


def _result_extra(name, result):
    if name == "func1d.envelope_build":
        return {"bytes": sum(v.nbytes for v in vars(result).values()
                             if isinstance(v, np.ndarray))}
    if name in ("stieltjes.integral", "stieltjes.midpoint"):
        return {"panels": result.panels_used}
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "points", "child_time",
                 "child_points", "extra")

    def __init__(self, name, start, parent, op, points):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.points = points
        self.child_time = 0.0
        self.child_points = 0
        self.extra = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time

    @property
    def self_points(self):
        return self.points - self.child_points


class Tracer:
    def __init__(self, counter: SourceCounter):
        self.counter = counter
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._restore: list[tuple] = []

    def set_op(self, op):
        self._op = op

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, perf(), parent, self._op, self.counter.points)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span, extra=None):
        span.end = perf()
        span.points = self.counter.points - span.points
        span.extra = extra
        self._stack.pop()
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.child_time += span.duration
            parent.child_points += span.points

    class _SpanContext:
        def __init__(self, tracer, name, extra):
            self.tracer, self.name, self.extra = tracer, name, extra

        def __enter__(self):
            self.span = self.tracer._open(self.name)
            return self.span

        def __exit__(self, *exc):
            self.tracer._close(self.span, self.extra)
            return False

    def span(self, name, **extra):
        return self._SpanContext(self, name, extra or None)

    def _wrapper(self, fn, name, func_name):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name or _dynamic_name(func_name, args, kwargs))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span, _result_extra(span.name, result)
                              if result is not None else None)

        return traced

    def install(self):
        """Replace every traced function wherever a meanmax module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "meanmax" or n.startswith("meanmax."))]
        for mod_name, func_name, span_name in TRACED:
            original = getattr(sys.modules[f"meanmax.{mod_name}"], func_name)
            wrapper = self._wrapper(original, span_name, func_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        envelope = sys.modules["meanmax.func1d"].Envelope
        original = envelope.value_at
        self._restore.append((envelope, "value_at", original))
        envelope.value_at = self._wrapper(original, "func1d.envelope_query", "value_at")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self):
        """Spans as rows: name, start, end, parent index, operation, source points."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - t0, s.end - t0, s.parent, s.op, s.points]
                for s in self.spans]


def layer_metrics(spans, source_calls: int, source_points: int) -> dict[str, float]:
    """Per-layer metrics of the spans of one round.  Times are self times in ms."""
    ms: dict[str, float] = {}
    count: dict[str, int] = {}
    for s in spans:
        ms[s.name] = ms.get(s.name, 0.0) + 1e3 * s.self_time
        count[s.name] = count.get(s.name, 0) + 1

    def t(*names):
        return sum(ms.get(n, 0.0) for n in names)

    integral_names = ("stieltjes.integral", "stieltjes.midpoint")
    integrals = [s for s in spans if s.name in integral_names]
    panels = [s.extra["panels"] for s in integrals if s.extra]
    # Source points spent inside integrals, counting nested integrals once.
    outer = [s for s in integrals if not _has_ancestor(spans, s, integral_names)]
    integral_points = sum(s.points for s in outer)
    queries = [s for s in spans if s.name == "transforms.query"]
    out = {
        "func1d.envelope_builds": count.get("func1d.envelope_build", 0),
        "func1d.envelope_build_ms": t("func1d.envelope_build"),
        "func1d.table_bytes": sum(s.extra["bytes"] for s in spans
                                  if s.name == "func1d.envelope_build" and s.extra),
        "func1d.envelope_query_ms": t("func1d.envelope_query"),
        "func1d.envelope_query_points": sum(s.self_points for s in spans
                                            if s.name == "func1d.envelope_query"),
        "func1d.sup_ms": t("func1d.sup"),
        "func1d.source_calls": source_calls,
        "func1d.points_per_call": source_points / source_calls if source_calls else 0.0,
        "stieltjes.integrals": len(integrals),
        "stieltjes.integral_ms": t("stieltjes.integral", "stieltjes.mean"),
        "stieltjes.panels": sum(panels),
        "stieltjes.panels_max": max(panels, default=0),
        "stieltjes.evals_per_integral": integral_points / len(integrals) if integrals else 0.0,
        "stieltjes.midpoint_ms": t("stieltjes.midpoint"),
        "stieltjes.partials_ms": t("stieltjes.partials"),
        "transforms.build_ms": t("transforms.build"),
        "transforms.queries": len(queries),
        "transforms.repeat_queries": sum(1 for s in queries if s.extra and s.extra["repeat"]),
        "transforms.query_ms": t("transforms.query"),
    }
    for check in ("F1", "AnmA", "dQ", "Qd", "monotonicity", "sup-identity", "partials",
                  "decay"):
        out[f"verify.{check}_ms"] = t(f"verify.{check}")
    out["verify.oracle_calls"] = count.get("verify.oracle", 0)
    out["verify.oracle_ms"] = t("verify.oracle")
    out["exprparse.parse_ms"] = t("exprparse.parse")
    out["exprparse.derive_ms"] = t("exprparse.derive")
    out["exprparse.compile_ms"] = t("exprparse.compile")
    out["cli.run_ms"] = t("cli.run")
    out["cli.csv_load_ms"] = t("cli.csv_load")
    return out


def _has_ancestor(spans, span, names):
    p = span.parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {k: float(statistics.median(r[k] for r in per_round)) for k in per_round[0]}
