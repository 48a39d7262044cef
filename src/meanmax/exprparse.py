"""A small arithmetic expression language over the variable x.

Grammar (whitespace-insensitive, identifiers lowercase)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | 'x' | 'pi' | 'e' | name '(' expr (',' expr)? ')' | '(' expr ')'

'^' is right-associative and unary minus applies to a whole power, so
-x^2 parses as -(x^2).  Functions: ln, exp, sqrt, sin, cos, abs, min, max.
A number too large for a double is an error.  Error positions are 1-based
character offsets.  Parsing, differentiating or compiling an expression nested
too deeply for Python raises ExpressionSyntaxError.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ExpressionSyntaxError, NonDifferentiableError

FUNCTIONS = {"ln": 1, "exp": 1, "sqrt": 1, "sin": 1, "cos": 1, "abs": 1, "min": 2, "max": 2}
CONSTANTS = {"pi": math.pi, "e": math.e}

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[a-z]+")


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
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple

    def __post_init__(self):
        if self.name not in FUNCTIONS:
            raise ValueError(f"unknown function {self.name!r}")
        if len(self.args) != FUNCTIONS[self.name]:
            raise ValueError(f"{self.name} expects {FUNCTIONS[self.name]} argument(s)")


Expression = Num | Var | Const | Neg | BinOp | Call

X = Var()


class _Parser:
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

    def parse(self) -> Expression:
        node = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def expr(self) -> Expression:
        node = self.term()
        while True:
            ch = self.peek()
            if ch and ch in "+-":
                self.pos += 1
                node = BinOp(ch, node, self.term())
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            ch = self.peek()
            if ch and ch in "*/":
                self.pos += 1
                node = BinOp(ch, node, self.factor())
            else:
                return node

    def factor(self) -> Expression:
        if self.take("-"):
            return Neg(self.factor())
        node = self.atom()
        if self.take("^"):
            return BinOp("^", node, self.factor())
        return node

    def atom(self) -> Expression:
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


def parse_expression(text: str) -> Expression:
    """Parse an expression string into its syntax tree."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 1)
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply to parse") from None


def _is_const(node: Expression) -> bool:
    return isinstance(node, (Num, Const))


def _num(node: Expression) -> float:
    return node.value if isinstance(node, Num) else CONSTANTS[node.name]


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


def derive_expression(node: Expression) -> Expression:
    """Symbolic derivative with respect to x; abs/min/max are rejected."""
    try:
        return _derive(node)
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply to differentiate") from None


def _derive(node: Expression) -> Expression:
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return Neg(_derive(node.arg))
    if isinstance(node, BinOp):
        u, v = node.left, node.right
        du, dv = _derive(u), _derive(v)
        if node.op == "+":
            return _add(du, dv)
        if node.op == "-":
            return _sub(du, dv)
        if node.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if node.op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), BinOp("^", v, Num(2.0)))
        # u ^ v
        if isinstance(v, Num):
            return _mul(_mul(v, BinOp("^", u, Num(v.value - 1.0))), du)
        if _is_const(u):
            if not _num(u) > 0:
                raise NonDifferentiableError(f"constant base {_num(u)} of ^ is not positive")
            return _mul(_mul(node, Num(math.log(_num(u)))), dv)
        return _mul(
            node,
            _add(_mul(dv, Call("ln", (u,))), _mul(v, _div(du, u))),
        )
    if node.name in ("abs", "min", "max"):
        raise NonDifferentiableError(f"{node.name} is not differentiable")
    (arg,) = node.args
    da = _derive(arg)
    if node.name == "ln":
        return _div(da, arg)
    if node.name == "exp":
        return _mul(node, da)
    if node.name == "sqrt":
        return _div(da, _mul(Num(2.0), node))
    if node.name == "sin":
        return _mul(Call("cos", (arg,)), da)
    # cos
    return Neg(_mul(Call("sin", (arg,)), da))


def compile_expression(node: Expression):
    """Compile the tree into a callable, the library's one evaluator.

    Built on numpy ufuncs, so the result accepts numbers and arrays alike;
    out-of-domain inputs surface as non-finite values, which the callers
    check.
    """
    import numpy as np

    def render(n: Expression) -> str:
        if isinstance(n, Num):
            return repr(n.value)
        if isinstance(n, Var):
            return "x"
        if isinstance(n, Const):
            return repr(CONSTANTS[n.name])
        if isinstance(n, Neg):
            return f"(-{render(n.arg)})"
        if isinstance(n, BinOp):
            if n.op in "^/":
                ufunc = "power" if n.op == "^" else "divide"
                return f"np.{ufunc}({render(n.left)}, {render(n.right)})"
            return f"({render(n.left)} {n.op} {render(n.right)})"
        fn = {"ln": "log", "min": "minimum", "max": "maximum"}.get(n.name, n.name)
        return f"np.{fn}({', '.join(render(a) for a in n.args)})"

    env = {"__builtins__": {}, "np": np}
    try:
        code = compile(render(node), "<expression>", "eval")
    except (RecursionError, SyntaxError):
        raise ExpressionSyntaxError("expression nested too deeply to compile") from None

    def fn(x):
        with np.errstate(all="ignore"):
            return eval(code, env, {"x": x})

    return fn
