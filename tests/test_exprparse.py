import inspect
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanmax.errors import ExpressionSyntaxError, NonDifferentiableError
from meanmax.exprparse import FUNCTIONS, compile_expression, derive_expression, parse_expression
from oracles import (
    BinOp,
    Call,
    ExpressionEvalError,
    Num,
    eval_expression,
    reference_compile,
    reference_derive,
    reference_parse,
    to_text,
    to_tree,
)

# (text, direct evaluation, safe sampling interval)
ROUND_TRIP_CORPUS = [
    ("x", lambda x: x, (-10.0, 10.0)),
    ("x^2", lambda x: x**2, (-10.0, 10.0)),
    ("x^3 - 2*x + 1", lambda x: x**3 - 2 * x + 1, (-5.0, 5.0)),
    ("exp(-x)", lambda x: math.exp(-x), (-5.0, 5.0)),
    ("ln(x)", math.log, (0.1, 50.0)),
    ("sqrt(x)", math.sqrt, (0.0, 50.0)),
    ("sin(x)", math.sin, (-10.0, 10.0)),
    ("cos(x)", math.cos, (-10.0, 10.0)),
    ("exp(-x)*sin(x)", lambda x: math.exp(-x) * math.sin(x), (-3.0, 6.0)),
    ("1/x", lambda x: 1 / x, (0.2, 30.0)),
    ("x/(1+x^2)", lambda x: x / (1 + x**2), (-10.0, 10.0)),
    ("2^x", lambda x: 2.0**x, (-8.0, 8.0)),
    ("x^x", lambda x: x**x, (0.2, 4.0)),
    ("exp(-x^2/2)", lambda x: math.exp(-(x**2) / 2), (-4.0, 4.0)),
    ("ln(1+x^2)", lambda x: math.log(1 + x**2), (-10.0, 10.0)),
    ("sin(x)*cos(x)", lambda x: math.sin(x) * math.cos(x), (-6.0, 6.0)),
    ("(x+1)^3", lambda x: (x + 1) ** 3, (-4.0, 4.0)),
    ("sqrt(1+x^2)", lambda x: math.sqrt(1 + x**2), (-8.0, 8.0)),
    ("pi*x + e", lambda x: math.pi * x + math.e, (-10.0, 10.0)),
    ("abs(x-1) + max(x, 2*x) - min(x, cos(x))",
     lambda x: abs(x - 1) + max(x, 2 * x) - min(x, math.cos(x)), (-5.0, 5.0)),
]

DIFFERENTIABLE = [c for c in ROUND_TRIP_CORPUS
                  if not any(s in c[0] for s in ("abs", "min", "max"))]


class TestPrecedence:
    def test_add_mul(self):
        assert eval_expression(parse_expression("2+3*4"), 0.0) == 14.0

    def test_mul_pow(self):
        assert eval_expression(parse_expression("2*3^2"), 0.0) == 18.0

    def test_unary_minus_pow(self):
        assert eval_expression(parse_expression("-2^2"), 0.0) == -4.0

    def test_pow_right_associative(self):
        assert eval_expression(parse_expression("2^3^2"), 0.0) == 512.0

    def test_negative_exponent(self):
        assert eval_expression(parse_expression("2^-2"), 0.0) == 0.25

    def test_parenthesized_base(self):
        assert eval_expression(parse_expression("(-2)^2"), 0.0) == 4.0


class TestParsing:
    def test_division_shape(self):
        ast = to_tree(parse_expression("1/x"))
        assert isinstance(ast, BinOp) and ast.op == "/"

    def test_nested_shape(self):
        ast = to_tree(parse_expression("exp(-x) + x^2*ln(x)"))
        assert isinstance(ast, BinOp) and ast.op == "+"
        assert isinstance(ast.left, Call) and ast.left.name == "exp"

    def test_whitespace_insensitive(self):
        a = parse_expression("1 +  2 * x")
        b = parse_expression("1+2*x")
        assert to_text(a) == to_text(b)

    def test_scientific_literals(self):
        assert eval_expression(parse_expression("1.5e3 + 2E-2"), 0.0) == 1500.02

    def test_number_out_of_range(self):
        # A literal that overflows a double is refused where it starts.
        with pytest.raises(ExpressionSyntaxError,
                           match=r"^number 1e999 is out of range \(at position 3\)$"):
            parse_expression("x*1e999")
        assert to_tree(parse_expression("1e308")) == Num(1e308)

    def test_trailing_operator(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("x +")
        assert err.value.position == 4

    def test_bad_character(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("2 $ 3")

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
            parse_expression("foo(x)")

    def test_arity_mismatch(self):
        with pytest.raises(ExpressionSyntaxError, match="argument"):
            parse_expression("min(x)")
        with pytest.raises(ExpressionSyntaxError, match="argument"):
            parse_expression("sin(x, 1)")

    def test_unclosed_paren(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("ln(x")

    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_nested_too_deeply(self):
        # Nesting past Python's recursion limit parses, differentiates and
        # compiles, even for a caller 60 frames short of that limit (numpy,
        # which compiling imports, is imported already).
        shapes = {  # text: (value, derivative) at x = 2
            "(" * 300 + "x" + ")" * 300: (2.0, 1.0),
            "1+(" * 210 + "x" + ")" * 210: (212.0, 1.0),
            "-" * 300 + "x": (2.0, 1.0),
            "+".join(["x"] * 400): (800.0, 400.0),
            "+".join(["x"] * 1200): (2400.0, 1200.0),
        }

        def values(text):
            tree = parse_expression(text)
            return (float(compile_expression(tree)(2.0)),
                    float(compile_expression(derive_expression(tree))(2.0)))

        def nested(frames, fn):
            return fn() if frames == 0 else nested(frames - 1, fn)

        frames = sys.getrecursionlimit() - 60 - len(inspect.stack(0))
        for text, want in shapes.items():
            assert nested(frames, lambda: values(text)) == want

    @pytest.mark.parametrize("text", ["+".join(["x"] * 1200),
                                      "1+(" * 3000 + "x" + ")" * 3000,
                                      "(" * 3000 + "x" + ")" * 3000],
                             ids=["sum-1200", "nested-3000", "brackets-3000"])
    def test_deep_trees_compare_hash_and_print(self, text):
        # Deeper than the recursion limit: equal to a re-parse, hashed alike
        # and printed, each without recursing.
        tree, again = parse_expression(text), parse_expression(text)
        assert tree == again and not tree != again
        assert hash(tree) == hash(again)
        assert repr(tree) == repr(again)
        assert tree != parse_expression(text + "+1")

    def test_trees_compare_by_structure(self):
        assert parse_expression("x+1") != parse_expression("x+2")
        assert parse_expression("x+1") != parse_expression("1+x")
        assert parse_expression("sin(x)") != parse_expression("cos(x)")
        assert parse_expression("min(x, 2)") == parse_expression("min( x,2 )")
        assert hash(parse_expression("-x^2")) == hash(parse_expression("-(x^2)"))
        assert parse_expression("x") != "x"
        assert repr(to_tree(parse_expression("min(x, 2) - ln(pi)"))) == (
            "BinOp(op='-', left=Call(name='min', args=(Var(), Num(value=2.0))), "
            "right=Call(name='ln', args=(Const(name='pi'),)))")

    def test_uppercase_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("Ln(x)")


class TestEvaluation:
    def test_round_trip_corpus(self):
        rng = random.Random(123)
        for text, direct, (lo, hi) in ROUND_TRIP_CORPUS:
            ast = parse_expression(text)
            for _ in range(100):
                x = lo + (hi - lo) * rng.random()
                want = direct(x)
                got = eval_expression(ast, x)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), text

    def test_compiled_matches_tree_walk(self):
        rng = random.Random(7)
        for text, _, (lo, hi) in ROUND_TRIP_CORPUS:
            ast = parse_expression(text)
            fast = compile_expression(ast)
            for _ in range(20):
                x = lo + (hi - lo) * rng.random()
                assert math.isclose(
                    float(fast(x)), eval_expression(ast, x), rel_tol=1e-14, abs_tol=1e-300
                ), text

    def test_every_function_and_operator_compiles(self):
        # Each name of FUNCTIONS, '^' and '/' agree with the tree-walker on
        # numbers and, read at once, on arrays.
        texts = [f"{name}(x)" if arity == 1 else f"{name}(x, 2 - x)"
                 for name, arity in FUNCTIONS.items()] + ["x^2.5", "2/x"]
        xs = np.linspace(0.25, 3.0, 12)
        for text in texts:
            ast = parse_expression(text)
            fast = compile_expression(ast)
            want = [eval_expression(ast, x) for x in xs.tolist()]
            assert [float(fast(x)) for x in xs.tolist()] == pytest.approx(want, rel=1e-14), text
            assert fast(xs).tolist() == pytest.approx(want, rel=1e-14), text

    def test_division_by_zero(self):
        with pytest.raises(ExpressionEvalError, match="1 / x"):
            eval_expression(parse_expression("1/x"), 0.0)

    def test_log_of_negative(self):
        with pytest.raises(ExpressionEvalError, match="ln"):
            eval_expression(parse_expression("ln(x)"), -1.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(ExpressionEvalError, match="sqrt"):
            eval_expression(parse_expression("sqrt(x)"), -4.0)

    def test_overflow(self):
        with pytest.raises(ExpressionEvalError):
            eval_expression(parse_expression("exp(x)"), 1e6)

    def test_constants(self):
        assert eval_expression(parse_expression("pi"), 0.0) == math.pi
        assert eval_expression(parse_expression("e"), 0.0) == math.e


class TestDerivative:
    def test_ln(self):
        d = derive_expression(parse_expression("ln(x)"))
        assert eval_expression(d, 4.0) == pytest.approx(0.25, rel=1e-14)

    def test_power(self):
        d = derive_expression(parse_expression("x^2"))
        assert eval_expression(d, 3.0) == pytest.approx(6.0, rel=1e-14)

    def test_non_differentiable(self):
        for text in ("abs(x)", "min(x, 1)", "max(x, 0)"):
            with pytest.raises(NonDifferentiableError):
                derive_expression(parse_expression(text))

    def test_against_finite_differences(self):
        rng = random.Random(99)
        for text, direct, (lo, hi) in DIFFERENTIABLE:
            ast = parse_expression(text)
            d = derive_expression(ast)
            for _ in range(25):
                x = lo + (hi - lo) * rng.random()
                # keep away from domain edges so the centered stencil stays valid
                h = 1e-6 * max(1.0, abs(x))
                if x - h <= lo or x + h >= hi:
                    continue
                fd = (direct(x + h) - direct(x - h)) / (2 * h)
                got = eval_expression(d, x)
                denom = max(abs(fd), abs(got), 1e-6)
                assert abs(got - fd) / denom <= 1e-7, (text, x)

    def test_constant_base_that_is_not_positive(self):
        # d/dx c^v is c^v ln(c) v', which has no value for c <= 0.
        message = r"^constant base 0\.0 of \^ is not positive$"
        for text in ("0^x", "0^(2*x)"):
            with pytest.raises(NonDifferentiableError, match=message):
                derive_expression(parse_expression(text))
        d = derive_expression(parse_expression("e^x"))
        assert eval_expression(d, 2.0) == pytest.approx(math.exp(2.0), rel=1e-14)

    def test_derivative_of_constant(self):
        d = to_tree(derive_expression(parse_expression("pi")))
        assert isinstance(d, Num) and d.value == 0.0

    def test_derivatives_share_subexpressions(self):
        # The derivative is canonical: it equals the parse of the same tree.
        assert derive_expression(parse_expression("ln(x)")) == parse_expression("1/x")
        assert derive_expression(parse_expression("x*x")) == parse_expression("x+x")


class TestToText:
    def test_renders_parseable(self):
        for text, _, _ in ROUND_TRIP_CORPUS:
            rendered = to_text(parse_expression(text))
            reparsed = parse_expression(rendered)
            assert eval_expression(reparsed, 2.0) == pytest.approx(
                eval_expression(parse_expression(text), 2.0), rel=1e-12, abs=1e-12
            )


# The differential test: the iterative parser, derivative and compiler against
# the recursive references in oracles.
TOKENS = ["x", "0", "2", "0.5", "1e-3", "12.5e2", "1e999", "pi", "e", *FUNCTIONS, "foo",
          "+", "-", "*", "/", "^", "(", ")", ",", " ", "$", "X"]
XS = np.array([-2.0, -0.5, 0.0, 0.3, 1.0, 2.0, 7.5])


def _grammar(inner):
    unary = st.sampled_from(["ln", "exp", "sqrt", "sin", "cos", "abs"])
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*", "/ ", "^"]), inner).map("".join),
        inner.map(lambda s: "-" + s),
        inner.map(lambda s: f"({s})"),
        st.tuples(unary, inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["min", "max"]), inner, inner).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"),
    )


GRAMMAR = st.recursive(st.sampled_from(["x", "2", "0.5", "1e-3", "pi", "e", "0"]), _grammar,
                       max_leaves=12)


def _parsed(parse, text):
    """(the program or tree, None), or (None, the error's message and position)."""
    try:
        return parse(text), None
    except ExpressionSyntaxError as exc:
        return None, (str(exc), exc.position)


def _same_values(fast, ref):
    """Bit for bit on an array, and in type and bits number by number."""
    assert np.asarray(fast(XS)).tobytes() == np.asarray(ref(XS)).tobytes()
    got, want = [fast(x) for x in XS.tolist()], [ref(x) for x in XS.tolist()]
    assert [type(v) for v in got] == [type(v) for v in want]
    assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


def _derived(derive, tree):
    try:
        return derive(tree)
    except NonDifferentiableError:
        return NonDifferentiableError  # which node it names may differ


def _assert_matches_reference(text):
    program, error = _parsed(parse_expression, text)
    tree, want_error = _parsed(reference_parse, text)
    assert error == want_error
    if error:
        return
    assert to_tree(program) == tree
    _same_values(compile_expression(program), reference_compile(tree))
    d = _derived(derive_expression, program)
    want = _derived(reference_derive, tree)
    if d is NonDifferentiableError:
        assert want is NonDifferentiableError
        return
    assert to_tree(d) == want
    _same_values(compile_expression(d), reference_compile(want))


# Messages and positions of malformed input, and the shapes precedence gives.
CORPUS = ["x +", "2 $ 3", "min(x)", "sin(x, 1)", "ln(x", "Ln(x)", "x*1e999", "(x, 1)", "x, 1",
          "sin x", "()", "x )", "2x", "1e", "max(x,)", "x ** 2", "cos(x)(x)", "(x $", "sin(x $",
          "min(x, 1, 2)", "2^3^2", "-x^2*3", "2^-x^3-x", "x--x/-2"]


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_matches_the_reference(text):
    _assert_matches_reference(text)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=16).map("".join))
def test_token_strings_match_the_reference(text):
    _assert_matches_reference(text)


@settings(max_examples=500, deadline=None)
@given(GRAMMAR, st.integers(0, 10**6), st.lists(st.sampled_from(TOKENS), max_size=2),
       st.integers(0, 2))
def test_grammar_expressions_match_the_reference(text, at, inserted, dropped):
    # A grammar-built expression, and the same with a few characters dropped
    # and tokens inserted at one place.
    _assert_matches_reference(text)
    at %= len(text) + 1
    _assert_matches_reference(text[:at] + "".join(inserted) + text[at + dropped:])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.recursive(st.sampled_from(["x", "2", "0.5", "pi", "0"]), _grammar,
                             max_leaves=4), min_size=1, max_size=4))
def test_programs_are_equal_exactly_when_their_trees_are(texts):
    # Parsed and derived programs of small grammar draws, and the parses of
    # their fully parenthesized renderings, which are the same trees.
    programs = []
    for text in texts:
        program = parse_expression(text)
        programs += [program, parse_expression(to_text(program))]
        d = _derived(derive_expression, program)
        if d is not NonDifferentiableError:
            programs.append(d)
    for a in programs:
        for b in programs:
            assert (a == b) == (to_tree(a) == to_tree(b))
            assert a != b or hash(a) == hash(b)
