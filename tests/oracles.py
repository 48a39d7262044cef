"""Independent brute-force oracles used to derive expected test values.

These deliberately avoid the library's adaptive/refined code paths: dense-grid
maxima, fixed-panel midpoint Stieltjes sums, plain numpy cumulative maxima, the
closed-form maxima of a damped wave, and the reference expression evaluator
eval_expression, a scalar tree-walker on the math module that checks the
library's numpy-compiled expressions.

The expression oracles own their syntax trees: the node dataclasses Num, Var,
Const, Neg, BinOp and Call, compared, hashed and printed by the dataclass
methods.  The recursive-descent reference_parse, the recursive
reference_derive and reference_compile, which renders a tree as one nested
numpy expression, check the library's parser, derivative and compiler draw
for draw.  to_tree turns a library program into such a tree, the one place
the two representations meet; eval_expression and to_text call it when given
a program.  From the library they take the FUNCTIONS and CONSTANTS tables and
the error types alone.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from meanmax.errors import ExpressionSyntaxError, NonDifferentiableError
from meanmax.exprparse import CONSTANTS, FUNCTIONS


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


X = Var()


def to_tree(program):
    """The reference tree of a library program, one loop over its steps."""
    nodes = []
    for op, value, args in program:
        operands = [nodes[k] for k in args]
        if op == "num":
            nodes.append(Num(value))
        elif op == "x":
            nodes.append(X)
        elif op == "const":
            nodes.append(Const(value))
        elif op == "neg":
            nodes.append(Neg(*operands))
        elif op in FUNCTIONS:
            nodes.append(Call(op, tuple(operands)))
        else:
            nodes.append(BinOp(op, *operands))
    return nodes[-1]


class ExpressionEvalError(Exception):
    """The reference evaluator met a non-finite value; names the offending subexpression."""


def to_text(node) -> str:
    """Render a tree, or a program's tree, back to expression syntax, fully parenthesized."""
    if isinstance(node, tuple):
        node = to_tree(node)
    if isinstance(node, Num):
        return f"{node.value:g}"
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_text(node.arg)})"
    if isinstance(node, BinOp):
        return f"({to_text(node.left)} {node.op} {to_text(node.right)})"
    return f"{node.name}({', '.join(to_text(a) for a in node.args)})"


_REFERENCE_CALLS = {
    "ln": math.log, "exp": math.exp, "sqrt": math.sqrt, "sin": math.sin,
    "cos": math.cos, "abs": abs, "min": min, "max": max,
}
_REFERENCE_OPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "/": lambda a, b: a / b, "^": math.pow,
}


def eval_expression(node, x: float) -> float:
    """Evaluate a tree, or a program's tree, at x; non-finite intermediate
    results raise, never propagate."""
    if isinstance(node, tuple):
        node = to_tree(node)
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -eval_expression(node.arg, x)
    if isinstance(node, BinOp):
        fn, args = _REFERENCE_OPS[node.op], (node.left, node.right)
    else:
        fn, args = _REFERENCE_CALLS[node.name], node.args
    values = [eval_expression(a, x) for a in args]
    try:
        out = fn(*values)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise ExpressionEvalError(f"non-finite value in {to_text(node)}: {exc}") from exc
    if not math.isfinite(out):
        raise ExpressionEvalError(f"non-finite value in {to_text(node)}")
    return out


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[a-z]+")


class _ReferenceParser:
    """Recursive descent over the grammar in the exprparse module docstring."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # 0-based cursor; reported positions are 1-based

    def error(self, message: str, pos: int | None = None):
        raise ExpressionSyntaxError(message, (self.pos if pos is None else pos) + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def parse(self):
        node = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            ch = self.peek()
            if ch and ch in "+-":
                self.pos += 1
                node = BinOp(ch, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            ch = self.peek()
            if ch and ch in "*/":
                self.pos += 1
                node = BinOp(ch, node, self.factor())
            else:
                return node

    def factor(self):
        if self.take("-"):
            return Neg(self.factor())
        node = self.atom()
        if self.take("^"):
            return BinOp("^", node, self.factor())
        return node

    def atom(self):
        ch = self.peek()
        if ch == "":
            self.error("expected a value, found end of input")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            value = float(m.group())
            if math.isinf(value):
                self.error(f"number {m.group()} is out of range")
            self.pos = m.end()
            return Num(value)
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if name == "x":
                return X
            if name in CONSTANTS:
                return Const(name)
            if name in FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                while self.take(","):
                    args.append(self.expr())
                self.expect(")")
                if len(args) != FUNCTIONS[name]:
                    self.error(
                        f"{name} expects {FUNCTIONS[name]} argument(s), got {len(args)}",
                        pos=start,
                    )
                return Call(name, tuple(args))
            self.error(f"unknown identifier {name!r}", pos=start)
        self.error(f"unexpected character {ch!r}")


def reference_parse(text: str):
    """The syntax tree of text, or the ExpressionSyntaxError parse_expression raises."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 1)
    return _ReferenceParser(text).parse()


def _add(a, b):
    if isinstance(a, Num) and a.value == 0:
        return b
    if isinstance(b, Num) and b.value == 0:
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if isinstance(b, Num) and b.value == 0:
        return a
    if isinstance(a, Num) and a.value == 0:
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    for u, v in ((a, b), (b, a)):
        if isinstance(u, Num):
            if u.value == 0:
                return Num(0.0)
            if u.value == 1:
                return v
    return BinOp("*", a, b)


def _div(a, b):
    if isinstance(a, Num) and a.value == 0:
        return Num(0.0)
    if isinstance(b, Num) and b.value == 1:
        return a
    return BinOp("/", a, b)


def reference_derive(node):
    """d/dx of the tree, recursively, by the rules derive_expression applies."""
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return Neg(reference_derive(node.arg))
    if isinstance(node, BinOp):
        u, v = node.left, node.right
        du, dv = reference_derive(u), reference_derive(v)
        if node.op == "+":
            return _add(du, dv)
        if node.op == "-":
            return _sub(du, dv)
        if node.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if node.op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), BinOp("^", v, Num(2.0)))
        if isinstance(v, Num):
            return _mul(_mul(v, BinOp("^", u, Num(v.value - 1.0))), du)
        if isinstance(u, (Num, Const)):
            base = u.value if isinstance(u, Num) else CONSTANTS[u.name]
            if not base > 0:
                raise NonDifferentiableError(f"constant base {base} of ^ is not positive")
            return _mul(_mul(node, Num(math.log(base))), dv)
        return _mul(node, _add(_mul(dv, Call("ln", (u,))), _mul(v, _div(du, u))))
    if node.name in ("abs", "min", "max"):
        raise NonDifferentiableError(f"{node.name} is not differentiable")
    (arg,) = node.args
    da = reference_derive(arg)
    if node.name == "ln":
        return _div(da, arg)
    if node.name == "exp":
        return _mul(node, da)
    if node.name == "sqrt":
        return _div(da, _mul(Num(2.0), node))
    if node.name == "sin":
        return _mul(Call("cos", (arg,)), da)
    return Neg(_mul(Call("sin", (arg,)), da))


def _render(node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return repr(CONSTANTS[node.name])
    if isinstance(node, Neg):
        return f"(-{_render(node.arg)})"
    if isinstance(node, BinOp):
        if node.op in "^/":
            ufunc = "power" if node.op == "^" else "divide"
            return f"np.{ufunc}({_render(node.left)}, {_render(node.right)})"
        return f"({_render(node.left)} {node.op} {_render(node.right)})"
    fn = {"ln": "log", "min": "minimum", "max": "maximum"}.get(node.name, node.name)
    return f"np.{fn}({', '.join(_render(a) for a in node.args)})"


def reference_compile(node):
    """The tree as one nested numpy expression, evaluated as compile_expression's callable is."""
    code = compile(_render(node), "<expression>", "eval")
    env = {"__builtins__": {}, "np": np}

    def fn(x):
        with np.errstate(all="ignore"):
            return eval(code, env, {"x": x})

    return fn


def grid_sup(fun, lo: float, hi: float, n: int = 10**6) -> float:
    """Dense-grid supremum estimate over [lo, hi] with n points."""
    xs = np.linspace(lo, hi, n)
    return float(np.max(fun(xs)))


def dense_maxima(fun, lo: float, hi: float, n: int = 200_001):
    """Interior local maxima of fun on an n-point grid over [lo, hi].

    Returns (positions, values): each position is a grid point no lower than
    either neighbour and strictly above one, each value the grid_sup over the
    two grid gaps around it.
    """
    xs = np.linspace(lo, hi, n)
    ys = fun(xs)
    mid, left, right = ys[1:-1], ys[:-2], ys[2:]
    k = np.flatnonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right))) + 1
    return xs[k], np.array([grid_sup(fun, xs[i - 1], xs[i + 1], 4001) for i in k])


def midpoint_stieltjes(g, m, r: float, R: float, panels: int = 10**6) -> float:
    """Fixed-panel midpoint Riemann-Stieltjes sum of g against m over [r, R]."""
    ts = np.linspace(r, R, panels + 1)
    mids = 0.5 * (ts[:-1] + ts[1:])
    return float(np.sum(g(mids) * (m(ts[1:]) - m(ts[:-1]))))


def suffix_max(ys: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(ys[::-1])[::-1]


def prefix_max(ys: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(ys)


def table_from_samples(node_xs, sample_xs, sample_ys, side: str) -> np.ndarray:
    """Suffix/prefix maximum of an arbitrary sample cloud, read off at nodes."""
    node_xs = np.asarray(node_xs)
    sample_xs = np.asarray(sample_xs)
    sample_ys = np.asarray(sample_ys)
    out = np.empty(len(node_xs))
    for i, x in enumerate(node_xs):
        if side == "right":
            mask = sample_xs >= x
        else:
            mask = sample_xs <= x
        out[i] = sample_ys[mask].max()
    return out


def piecewise_midpoint(g, m, nodes, a: float, Rs, panels: int) -> np.ndarray:
    """integral_a^R g dm for each R, as fixed-panel midpoint Stieltjes sums per node gap.

    The gaps are those between consecutive nodes in (a, R), plus [last node, R];
    each gets its own `panels` equal panels, so an integrand whose kinks and
    jumps sit at the nodes (an envelope table) is smooth on every panel but
    the ones a kink inside a gap crosses.  g and m take 1-d arrays.
    """
    Rs = np.asarray(Rs, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    edges = np.concatenate([[a], nodes[(nodes > a) & (nodes < Rs.max())]])
    k = np.searchsorted(edges, Rs, side="right") - 1
    lo = np.concatenate([edges[:-1], edges[k]])
    hi = np.concatenate([edges[1:], Rs])
    t = np.arange(panels + 1) / panels
    sums = np.empty(len(lo))
    for s in range(0, len(lo), 64):
        ts = lo[s : s + 64, None] + (hi - lo)[s : s + 64, None] * t
        mids = 0.5 * (ts[:, :-1] + ts[:, 1:])
        gs = g(mids.ravel()).reshape(mids.shape)
        ms = m(ts.ravel()).reshape(ts.shape)
        sums[s : s + 64] = np.sum(gs * np.diff(ms, axis=1), axis=1)
    gaps = len(edges) - 1
    cum = np.concatenate([[0.0], np.cumsum(sums[:gaps])])
    return cum[k] + sums[gaps:]


def wave(x):
    """The damped wave exp(-x) (1 + 0.5 sin 5x) on [0, inf)."""
    return np.exp(-x) * (1 + 0.5 * np.sin(5 * x))


# wave' = exp(-x) (2.5 cos 5x - 0.5 sin 5x - 1) = exp(-x) (sqrt(6.5) cos(5x + phi) - 1)
# with phi = atan2(0.5, 2.5): maxima at 5x + phi = THETA + 2 pi k, minima at
# 5x + phi = -THETA + 2 pi k.
_THETA = math.acos(1 / math.sqrt(6.5))
_PHI = math.atan2(0.5, 2.5)


def wave_maximum(k):
    """The k-th local maximum of wave, k = 0, 1, ...; their values fall with k."""
    return (_THETA - _PHI + 2 * math.pi * k) / 5


def wave_right_max(x):
    """sup of wave over [x, inf): the larger of wave(x) and the first maximum at or after x."""
    k = np.maximum(np.ceil((5 * np.asarray(x, dtype=float) + _PHI - _THETA) / (2 * math.pi)), 0)
    return np.maximum(wave(x), wave(wave_maximum(k)))


def wave_left_max(x):
    """sup of wave over [0, x]: wave rises from wave(0) = 1 to its first maximum,
    which no later value reaches."""
    x0 = wave_maximum(0)
    return np.where(np.asarray(x) < x0, wave(x), wave(x0))


def wave_plateau_edge(k):
    """The crossing c_k, k = 1, 2, ..., where wave, falling from maximum k - 1
    toward the minimum after it, reaches the level of maximum k: the kink
    where wave_right_max leaves wave for that level.  Found by bisection."""
    level = float(wave(wave_maximum(k)))
    lo, hi = wave_maximum(k - 1), (-_THETA - _PHI + 2 * math.pi * k) / 5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if float(wave(mid)) > level else (lo, mid)
    return 0.5 * (lo + hi)


def _wave_antiderivative(x):
    e = math.exp(-x)
    return -e - e * (math.sin(5 * x) + 5 * math.cos(5 * x)) / 52


def wave_right_max_integral(R: float) -> float:
    """integral_0^R of wave_right_max, piece by piece between its kinks.

    It is the constant wave(x_0) on [0, x_0]; after maximum k - 1 it is wave
    itself down to the crossing c_k = wave_plateau_edge(k), then the level of
    maximum k up to x_k.
    """
    x0 = wave_maximum(0)
    total = min(R, x0) * float(wave(x0))
    k = 1
    while R > wave_maximum(k - 1):
        top, nxt = wave_maximum(k - 1), wave_maximum(k)
        level = float(wave(nxt))
        cut = wave_plateau_edge(k)
        total += _wave_antiderivative(min(R, cut)) - _wave_antiderivative(top)
        total += max(0.0, min(R, nxt) - cut) * level
        k += 1
    return total


def table_log_integral(xs, ys, r: float, R: float) -> float:
    """integral_r^R of the linear interpolant of (xs, ys) against ln x, in closed form.

    On a gap where the interpolant is y0 + s (x - x0), the integral of it dx/x
    between u and v is (y0 - s x0) ln(v / u) + s (v - u).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    total = 0.0
    for k in range(len(xs) - 1):
        u, v = max(r, xs[k]), min(R, xs[k + 1])
        if u < v:
            s = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
            total += (ys[k] - s * xs[k]) * math.log(v / u) + s * (v - u)
    return total
