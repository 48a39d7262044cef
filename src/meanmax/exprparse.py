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
character offsets.

An expression is a program, a tuple of steps (op, value, args): ("num", 2.0, ()),
("x", None, ()), ("const", "pi", ()), ("neg", None, (i,)), ("+", None, (i, j))
for + - * / ^, and ("ln", None, (i,)) for a function.  args index earlier
steps; the last step is the result.  A program is canonical: each distinct
subexpression is one step, placed where it is first met when the tree is read
operands first, left to right.  So the tuple's own ==, hash and repr compare,
hash and print the expression as a tree, and since parsing, differentiating
and compiling each loop over the steps, any nesting depth works, whatever the
caller's stack depth.
"""

import math
import operator
import re

from .errors import ExpressionSyntaxError, NonDifferentiableError

FUNCTIONS = {"ln": 1, "exp": 1, "sqrt": 1, "sin": 1, "cos": 1, "abs": 1, "min": 2, "max": 2}
CONSTANTS = {"pi": math.pi, "e": math.e}

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[a-z]+")

# How tightly each operator binds; "neg" is unary minus.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


class _Program:
    """Steps under construction, each distinct step stored once (hash-consed)."""

    def __init__(self, steps=()):
        self.steps = list(steps)
        self.index = {step: k for k, step in enumerate(self.steps)}

    def put(self, op: str, *args: int, value=None) -> int:
        """The index of the step (op, value, args), appended if it is new."""
        step = (op, value, args)
        k = self.index.get(step)
        if k is None:
            k = self.index[step] = len(self.steps)
            self.steps.append(step)
        return k

    def number(self, k: int):
        """The value of step k if it is a number or a constant, else None."""
        op, value, _ = self.steps[k]
        return value if op == "num" else CONSTANTS[value] if op == "const" else None


def _fail(message: str, pos: int):
    raise ExpressionSyntaxError(message, pos + 1)


def _skip_space(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t\r\n":
        pos += 1
    return pos


def _reduce(ops: list, vals: list, prog: _Program, prec: int):
    """Apply the operators above the innermost open bracket that bind at least prec."""
    while ops and isinstance(ops[-1], str) and _PRECEDENCE[ops[-1]] >= prec:
        op, arg = ops.pop(), vals.pop()
        vals.append(prog.put("neg", arg) if op == "neg" else prog.put(op, vals.pop(), arg))


def parse_expression(text: str) -> tuple:
    """Parse an expression string into its program.

    Dijkstra's operator-precedence ("shunting-yard") algorithm: one loop over
    an operand stack of step indices and an operator stack, which also holds
    each open bracket as (function name or None, its start, the operands below
    it).  Each step expects either a value or what may follow one: an
    operator, a comma, a closing bracket or the end.  Steps are put operands
    first, left to right, the canonical order.
    """
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 1)
    prog, vals, ops = _Program(), [], []
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
                vals.append(prog.put("num", value=float(m.group())))
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
                vals.append(prog.put("x") if name == "x" else prog.put("const", value=name))
            else:
                _fail(f"unexpected character {ch!r}", pos)
            pos, want_value = m.end(), False
        elif ch and ch in "+-*/^":
            if ch != "^":  # '^' is right-associative
                _reduce(ops, vals, prog, _PRECEDENCE[ch])
            ops.append(ch)
            pos, want_value = pos + 1, True
        else:
            _reduce(ops, vals, prog, 0)
            if not ops:
                if ch:
                    _fail(f"unexpected {ch!r}", pos)
                return tuple(prog.steps)
            name, start, base = ops[-1]
            if ch == "," and name:
                pos, want_value = pos + 1, True
                continue
            if ch != ")":
                _fail("expected ')'", pos)
            ops.pop()
            args = vals[base:]
            del vals[base:]
            if name and len(args) != FUNCTIONS[name]:
                _fail(f"{name} expects {FUNCTIONS[name]} argument(s), got {len(args)}", start)
            vals.append(prog.put(name, *args) if name else args[0])
            pos += 1


def derive_expression(program: tuple) -> tuple:
    """Symbolic derivative with respect to x; abs/min/max are rejected.

    One pass over the steps appends the derivative of each to a copy of the
    program, simplifying sums and products with 0 and 1; the steps the result
    reaches are then renumbered into canonical order.
    """
    prog = _Program(program)
    put, number = prog.put, prog.number

    def add(a, b):
        return b if number(a) == 0 else a if number(b) == 0 else put("+", a, b)

    def sub(a, b):
        return a if number(b) == 0 else put("neg", b) if number(a) == 0 else put("-", a, b)

    def mul(a, b):
        if 0 in (number(a), number(b)):
            return put("num", value=0.0)
        return b if number(a) == 1 else a if number(b) == 1 else put("*", a, b)

    def div(a, b):
        return put("num", value=0.0) if number(a) == 0 else a if number(b) == 1 else put("/", a, b)

    d = []  # d[k] is the step of the derivative of step k
    for k, (op, _, args) in enumerate(program):
        if not args:
            d.append(put("num", value=1.0 if op == "x" else 0.0))
            continue
        u, v = args[0], args[-1]
        du, dv = d[u], d[v]
        if op == "neg":
            d.append(put("neg", du))
        elif op == "+":
            d.append(add(du, dv))
        elif op == "-":
            d.append(sub(du, dv))
        elif op == "*":
            d.append(add(mul(du, v), mul(u, dv)))
        elif op == "/":
            d.append(div(sub(mul(du, v), mul(u, dv)), put("^", v, put("num", value=2.0))))
        elif op == "^" and prog.steps[v][0] == "num":
            d.append(mul(mul(v, put("^", u, put("num", value=number(v) - 1.0))), du))
        elif op == "^" and number(u) is not None:
            if not number(u) > 0:
                raise NonDifferentiableError(f"constant base {number(u)} of ^ is not positive")
            d.append(mul(mul(k, put("num", value=math.log(number(u)))), dv))
        elif op == "^":
            d.append(mul(k, add(mul(dv, put("ln", u)), mul(v, div(du, u)))))
        elif op in ("abs", "min", "max"):
            raise NonDifferentiableError(f"{op} is not differentiable")
        elif op == "ln":
            d.append(div(du, u))
        elif op == "exp":
            d.append(mul(k, du))
        elif op == "sqrt":
            d.append(div(du, mul(put("num", value=2.0), k)))
        elif op == "sin":
            d.append(mul(put("cos", u), du))
        else:  # cos
            d.append(put("neg", mul(put("sin", u), du)))
    return _canonical(prog.steps, d[-1])


def _canonical(steps: list, root: int) -> tuple:
    """The steps root reaches, renumbered in canonical order (operands first, left to right)."""
    new, out, stack = {}, [], [(root, False)]
    while stack:
        k, ready = stack.pop()
        if k in new:
            continue
        op, value, args = steps[k]
        if ready:
            new[k] = len(out)
            out.append((op, value, tuple(new[a] for a in args)))
        else:
            stack.append((k, True))
            stack.extend((a, False) for a in reversed(args))
    return tuple(out)


def compile_expression(program: tuple):
    """A callable that runs the program's steps in order, the library's one evaluator.

    A step is a numpy ufunc, or the Python operator for + - * and unary minus
    (so a Python float stays one); the callable takes numbers and arrays alike.
    It runs under np.errstate(all="ignore"): out-of-domain inputs surface as
    non-finite values, which the callers check.
    """
    import numpy as np

    table = {"neg": operator.neg, "+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": np.divide, "^": np.power, "ln": np.log, "exp": np.exp, "sqrt": np.sqrt,
             "sin": np.sin, "cos": np.cos, "abs": np.abs, "min": np.minimum, "max": np.maximum}
    leaves = [value if op == "num" else CONSTANTS.get(value) for op, value, _ in program]
    at_x = [k for k, (op, _, _) in enumerate(program) if op == "x"]
    calls = [(k, table[op], args[0], args[-1] if len(args) == 2 else None)
             for k, (op, _, args) in enumerate(program) if args]

    def fn(x):
        vals = leaves.copy()
        for k in at_x:
            vals[k] = x
        with np.errstate(all="ignore"):
            for k, f, i, j in calls:
                vals[k] = f(vals[i]) if j is None else f(vals[i], vals[j])
        return vals[-1]

    return fn
