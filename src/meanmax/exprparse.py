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
character offsets.  Parsing, differentiating and compiling, and comparing,
hashing and printing trees, use no recursion, so they accept any nesting
depth, whatever the caller's stack depth.
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


class _Tree:
    """Structural ==, hash and repr of a syntax tree, each one loop over its nodes.

    The methods dataclasses generate recurse once a level, so they would fail
    on the trees deeper than the recursion limit that the parser accepts.  A
    node's label is what it holds besides its operands: a value, a constant's
    or function's name, an operator.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs, seen = [(self, other)], set()
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if type(a) is not type(b) or _label(a) != _label(b):
                return False
            pairs.extend(zip(_children(a), _children(b)))  # equal labels, equal arity
        return True

    def __hash__(self):
        hashes = {}
        for n in _postorder(self):
            hashes[id(n)] = hash((type(n).__name__, _label(n),
                                  *(hashes[id(c)] for c in _children(n))))
        return hashes[id(self)]

    def __repr__(self):
        # The dataclass repr, written from a stack of text and nodes still to write.
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts = [f"{type(item).__name__}("]
            for k, (name, v) in enumerate(vars(item).items()):
                parts.append(f"{', ' if k else ''}{name}=")
                if isinstance(v, tuple):  # a Call's one or two arguments
                    parts += ["(", v[0], ",)"] if len(v) == 1 else ["(", v[0], ", ", v[1], ")"]
                else:
                    parts.append(v if isinstance(v, _Tree) else repr(v))
            stack.extend(reversed([*parts, ")"]))
        return "".join(out)


def _label(node) -> tuple:
    return tuple(v for v in vars(node).values() if not isinstance(v, (_Tree, tuple)))


@dataclass(frozen=True, eq=False, repr=False)
class Num(_Tree):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Tree):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Tree):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Tree):
    arg: "Expression"


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Tree):
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Tree):
    name: str
    args: tuple

    def __post_init__(self):
        if self.name not in FUNCTIONS:
            raise ValueError(f"unknown function {self.name!r}")
        if len(self.args) != FUNCTIONS[self.name]:
            raise ValueError(f"{self.name} expects {FUNCTIONS[self.name]} argument(s)")


Expression = Num | Var | Const | Neg | BinOp | Call

X = Var()


# How tightly each operator binds; "neg" is unary minus.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fail(message: str, pos: int):
    raise ExpressionSyntaxError(message, pos + 1)


def _skip_space(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t\r\n":
        pos += 1
    return pos


def _reduce(ops: list, vals: list, prec: int):
    """Apply the operators above the innermost open bracket that bind at least prec."""
    while ops and isinstance(ops[-1], str) and _PRECEDENCE[ops[-1]] >= prec:
        op, arg = ops.pop(), vals.pop()
        vals.append(Neg(arg) if op == "neg" else BinOp(op, vals.pop(), arg))


def parse_expression(text: str) -> Expression:
    """Parse an expression string into its syntax tree.

    Dijkstra's operator-precedence ("shunting-yard") algorithm: one loop over
    an operand stack and an operator stack, which also holds each open bracket
    as (function name or None, its start, the operands below it).  Each step
    expects either a value or what may follow one: an operator, a comma, a
    closing bracket or the end.
    """
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 1)
    vals, ops = [], []
    pos, want_value = 0, True  # 0-based cursor; reported positions are 1-based
    while True:
        pos = _skip_space(text, pos)
        ch = text[pos] if pos < len(text) else ""
        if want_value:
            if ch in ("-", "("):
                ops.append("neg" if ch == "-" else (None, pos, len(vals)))
                pos += 1
                continue
            if ch == "":
                _fail("expected a value, found end of input", pos)
            m = _NUMBER_RE.match(text, pos)
            if m:
                if math.isinf(float(m.group())):
                    _fail(f"number {m.group()} is out of range", pos)
                vals.append(Num(float(m.group())))
            elif m := _IDENT_RE.match(text, pos):
                name = m.group()
                if name in FUNCTIONS:
                    paren = _skip_space(text, m.end())
                    if text[paren:paren + 1] != "(":
                        _fail("expected '('", paren)
                    ops.append((name, pos, len(vals)))
                    pos = paren + 1
                    continue
                if name != "x" and name not in CONSTANTS:
                    _fail(f"unknown identifier {name!r}", pos)
                vals.append(X if name == "x" else Const(name))
            else:
                _fail(f"unexpected character {ch!r}", pos)
            pos, want_value = m.end(), False
        elif ch and ch in "+-*/^":
            if ch != "^":  # '^' is right-associative
                _reduce(ops, vals, _PRECEDENCE[ch])
            ops.append(ch)
            pos, want_value = pos + 1, True
        else:
            _reduce(ops, vals, 0)
            if not ops:
                if ch:
                    _fail(f"unexpected {ch!r}", pos)
                return vals[0]
            name, start, base = ops[-1]
            if ch == "," and name:
                pos, want_value = pos + 1, True
                continue
            if ch != ")":
                _fail("expected ')'", pos)
            ops.pop()
            args = tuple(vals[base:])
            del vals[base:]
            if name and len(args) != FUNCTIONS[name]:
                _fail(f"{name} expects {FUNCTIONS[name]} argument(s), got {len(args)}", start)
            vals.append(Call(name, args) if name else args[0])
            pos += 1


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


def _children(node: Expression) -> tuple:
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return node.args if isinstance(node, Call) else ()


def _postorder(root: Expression) -> list:
    """The distinct nodes of the tree (by identity), each after its children."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(_children(node)))
    return order


def derive_expression(node: Expression) -> Expression:
    """Symbolic derivative with respect to x; abs/min/max are rejected."""
    derived = {}
    for n in _postorder(node):
        derived[id(n)] = _derive(n, *(derived[id(c)] for c in _children(n)))
    return derived[id(node)]


def _derive(node: Expression, du=None, dv=None) -> Expression:
    """The derivative of node, given those of its operands (du, dv)."""
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return Neg(du)
    if isinstance(node, BinOp):
        u, v = node.left, node.right
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
        if isinstance(u, (Num, Const)):
            if not _num(u) > 0:
                raise NonDifferentiableError(f"constant base {_num(u)} of ^ is not positive")
            return _mul(_mul(node, Num(math.log(_num(u)))), dv)
        return _mul(node, _add(_mul(dv, Call("ln", (u,))), _mul(v, _div(du, u))))
    if node.name in ("abs", "min", "max"):
        raise NonDifferentiableError(f"{node.name} is not differentiable")
    (arg,) = node.args
    if node.name == "ln":
        return _div(du, arg)
    if node.name == "exp":
        return _mul(node, du)
    if node.name == "sqrt":
        return _div(du, _mul(Num(2.0), node))
    if node.name == "sin":
        return _mul(Call("cos", (arg,)), du)
    # cos
    return Neg(_mul(Call("sin", (arg,)), du))


_UFUNCS = {"^": "power", "/": "divide", "ln": "log", "min": "minimum", "max": "maximum"}


def compile_expression(node: Expression):
    """Compile the tree into a callable, the library's one evaluator.

    The generated function assigns each distinct operation of the tree once,
    after its operands (t3 = np.power(t1, t2)), so its code never nests,
    whatever the depth of the tree.  Built on numpy ufuncs, so the result
    accepts numbers and arrays alike; it runs with no builtins and under
    np.errstate(all="ignore"): out-of-domain inputs surface as non-finite
    values, which the callers check.
    """
    import numpy as np

    names, lines = {}, []
    for n in _postorder(node):
        args = [names[id(c)] for c in _children(n)]
        if not args:
            names[id(n)] = "x" if isinstance(n, Var) else repr(_num(n))
            continue
        if isinstance(n, Neg):
            value = f"-{args[0]}"
        elif isinstance(n, BinOp) and n.op in "+-*":
            value = f"{args[0]} {n.op} {args[1]}"
        else:
            name = n.op if isinstance(n, BinOp) else n.name
            value = f"np.{_UFUNCS.get(name, name)}({', '.join(args)})"
        names[id(n)] = f"t{len(lines)}"
        lines.append(f" {names[id(n)]} = {value}\n")
    env = {"__builtins__": {}, "np": np}
    source = "".join(["def body(x):\n", *lines, f" return {names[id(node)]}\n"])
    exec(compile(source, "<expression>", "exec"), env)
    body = env["body"]

    def fn(x):
        with np.errstate(all="ignore"):
            return body(x)

    return fn
