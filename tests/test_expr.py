import math
import random
import struct
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcframe.arrays import ARRAY
from lcframe import catalog, expr
from lcframe.expr import (
    Add, Call, CompiledField, Const, Dag, Div, EvalDomainError, Expr,
    ExprError, ExprSyntaxError, Mul, Neg, Pow, Sub, UnknownIdentifierError,
    Var, compile_field, compile_grid_program, compile_program, constant_value,
    differentiate, evaluate, parse, simplify, to_source,
)
from lcframe.surface import _invariant_trees, _traced_tree


def same_bits(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b)


class TestParse:
    def test_function_call(self):
        assert parse("sin(u)") == Call("sin", Var("u"))

    def test_product_of_calls(self):
        assert parse("cos(u)*sin(v)") == Mul(Call("cos", Var("u")), Call("sin", Var("v")))

    def test_precedence(self):
        assert parse("1 + u^2 * v") == Add(Const(1.0), Mul(Pow(Var("u"), 2), Var("v")))

    def test_left_association(self):
        assert parse("1-2-3") == Sub(Sub(Const(1.0), Const(2.0)), Const(3.0))
        assert evaluate(parse("1-2-3"), 0, 0) == -4.0
        assert parse("8/4/2") == Div(Div(Const(8.0), Const(4.0)), Const(2.0))

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-u^2") == Neg(Pow(Var("u"), 2))

    def test_negative_literal_folds(self):
        assert parse("-3.5") == Const(-3.5)

    def test_negative_exponent_forms(self):
        assert parse("u^-2") == Pow(Var("u"), -2)
        assert parse("u^(-2)") == Pow(Var("u"), -2)

    def test_pi_constant(self):
        assert parse("pi") == Const(math.pi)
        assert constant_value("-pi/2") == -math.pi / 2

    def test_scientific_literals(self):
        assert parse("1.5e-3") == Const(1.5e-3)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("sin(u) + w")
        assert err.value.name == "w"
        assert err.value.offset == 9

    def test_syntax_error_carries_position_and_expectations(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("u + ")
        assert err.value.offset == 4
        assert err.value.line == 1
        assert err.value.column == 5
        assert err.value.expected

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("sin(u")
        assert ")" in err.value.expected

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("u^1.5")

    def test_infinite_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="power exponent must be an integer"):
            parse("u^1e999")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("u v")


class TestEvaluate:
    def test_sum(self):
        assert evaluate(parse("u+v"), 1.0, 2.0) == 3.0

    def test_sine_at_quarter_turn(self):
        assert evaluate(parse("sin(u)"), math.pi / 2, 0.0) == 1.0

    def test_product_of_cosines(self):
        val = evaluate(parse("cos(u)*cos(v)"), math.pi / 3, 0.0)
        assert abs(val - 0.5) < 1e-15

    def test_division_by_zero_is_an_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/u"), 0.0, 1.0)

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(u)"), -1.0, 0.0)
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(u)"), 0.0, 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(u)"), -1.0, 0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("u^-2"), 0.0, 0.0)

    def test_overflow_never_silent(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("exp(u)"), 1e9, 0.0)
        with pytest.raises(EvalDomainError):
            evaluate(parse("exp(u)*exp(u)"), 700.0, 0.0)

    def test_function_of_overflowed_argument(self):
        # 1/u overflows to inf at this subnormal u, and sin(inf) is a
        # math domain error; both evaluators must report EvalDomainError
        u = 2.225073858507203e-309
        e = parse("sin(1/u)")
        with pytest.raises(EvalDomainError):
            evaluate(e, u, 0.0)
        with pytest.raises(EvalDomainError):
            CompiledField(e, 0).eval(u, 0.0)


class TestDifferentiate:
    def test_sin(self):
        assert differentiate(parse("sin(u)"), "u") == Call("cos", Var("u"))

    def test_product(self):
        d = differentiate(parse("cos(u)*sin(v)"), "u")
        assert d == Mul(Neg(Call("sin", Var("u"))), Call("sin", Var("v")))

    def test_other_variable(self):
        assert differentiate(parse("sin(u)"), "v") == Const(0.0)

    def test_abs_derivative_is_sign_and_flagged(self):
        d = differentiate(parse("abs(u)"), "u")
        assert d == Call("sign", Var("u"))

    def test_simplified_derivative_is_stable_under_simplify(self):
        for src in ("sin(u)*cos(v)", "u^3/(1+v^2)", "exp(u)*log(2+v)"):
            d = differentiate(parse(src), "u")
            assert simplify(d) == d

    @given(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False),
           st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
    def test_linearity(self, a, b, u, v):
        f, g = parse("sin(u)*v"), parse("cos(v)+u^2")
        combo = Add(Mul(Const(a), f), Mul(Const(b), g))
        lhs = evaluate(differentiate(combo, "u"), u, v)
        rhs = (a * evaluate(differentiate(f, "u"), u, v)
               + b * evaluate(differentiate(g, "u"), u, v))
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs) + abs(rhs))


FD_CORPUS = (
    "sin(u)*cos(v)",
    "u^3*v - 2*u*v^2",
    "exp(u/2)",
    "log(3 + u^2 + v^2)",
    "sqrt(4 + u*v)",
    "tan(u/4)",
    "sinh(u/2)*cosh(v/2)",
    "(u + v)/(3 + u^2)",
    "cos(u)^2*sin(v)^3",
    "1/(2 + sin(u))",
)


class TestDerivativeFiniteDifferenceOracle:
    def test_corpus_matches_central_differences(self):
        # independent oracle: central finite differences, step 1e-5
        rng = random.Random(20240)
        h = 1e-5
        checked = 0
        for src in FD_CORPUS:
            e = parse(src)
            du = differentiate(e, "u")
            dv = differentiate(e, "v")
            for _ in range(100):
                u = rng.uniform(-2.0, 2.0)
                v = rng.uniform(-2.0, 2.0)
                fd_u = (evaluate(e, u + h, v) - evaluate(e, u - h, v)) / (2 * h)
                fd_v = (evaluate(e, u, v + h) - evaluate(e, u, v - h)) / (2 * h)
                assert abs(evaluate(du, u, v) - fd_u) <= 1e-6
                assert abs(evaluate(dv, u, v) - fd_v) <= 1e-6
                checked += 1
        assert checked == 1000


# hypothesis strategy for random trees (printable round trip)
leaf = st.one_of(
    st.builds(Const, st.floats(min_value=-9, max_value=9, allow_nan=False)),
    st.builds(Var, st.sampled_from(["u", "v"])),
)


def _exprs(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Neg, children),
        st.builds(Pow, children, st.integers(min_value=-3, max_value=4)),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]), children),
    )


expr_trees = st.recursive(leaf, _exprs, max_leaves=25)


class TestRoundTrip:
    @settings(max_examples=300)
    @given(expr_trees)
    def test_print_parse_round_trip(self, e):
        assert parse(to_source(e)) == e

    @settings(max_examples=300)
    @given(expr_trees)
    @example(Mul(Const(-1.0), Neg(Var("u"))))
    @example(Add(Call("sin", Const(0.0)), Call("sin", Const(-0.0))))
    def test_simplify_is_idempotent(self, e):
        # by source: dataclass == takes 0.0 and -0.0 for equal
        once = simplify(e)
        assert to_source(simplify(once)) == to_source(once)

    @settings(max_examples=200)
    @given(expr_trees, st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
    def test_compiled_matches_tree_walker(self, e, u, v):
        field = CompiledField(e, 0)
        try:
            walked = evaluate(simplify(e), u, v)
        except EvalDomainError:
            with pytest.raises(EvalDomainError):
                field.eval(u, v)
            return
        assert same_bits(field.eval(u, v), walked)


class TestCompiledField:
    def test_derivative_table_closed_under_order(self):
        f = compile_field("sin(u)*v^2", order=2)
        for i in range(3):
            for j in range(3 - i):
                f.derivative_expr(i, j)
        with pytest.raises(Exception):
            f.derivative_expr(2, 1)

    def test_derivative_values(self):
        f = compile_field("sin(u)*v^2", order=2)
        u, v = 0.7, 1.3
        assert abs(f.eval_derivative(1, 0, u, v) - math.cos(u) * v * v) < 1e-14
        assert abs(f.eval_derivative(1, 1, u, v) - math.cos(u) * 2 * v) < 1e-14
        assert abs(f.eval_derivative(2, 0, u, v) + math.sin(u) * v * v) < 1e-14

    @pytest.mark.parametrize("source", ["1/(1e200*1e200)", "u + 1e999 - 1e999"])
    def test_non_finite_constants(self, source):
        # folded or literal infinities must compile to values, not names
        field = compile_field(source)
        try:
            walked = evaluate(parse(source), 1.0, 0.0)
        except EvalDomainError as exc:
            with pytest.raises(EvalDomainError) as err:
                field.eval(1.0, 0.0)
            assert str(err.value) == str(exc)
            return
        assert same_bits(field.eval(1.0, 0.0), walked)

    @pytest.mark.parametrize("source", ["0^-1", "1e300^2", "exp(1000)"])
    def test_constant_value_words_faults_like_a_point(self, source):
        with pytest.raises(EvalDomainError) as at_point:
            compile_field(source).eval(0.0, 0.0)
        with pytest.raises(EvalDomainError) as constant:
            constant_value(source)
        assert str(constant.value) == str(at_point.value)

    @pytest.mark.parametrize("source", ["0", "-0", "-0.4", "pi", "1e999",
                                        "0.30000000000000004"])
    def test_constant_value_of_one_constant_is_the_compiled_root(self, source, monkeypatch):
        # the parser folds each of these to one Const, which is returned
        # without compiling a program
        tree = parse(source)
        assert type(tree) is Const
        try:
            want = compile_program([tree])(0.0, 0.0)[0]
        except EvalDomainError as exc:
            want = exc
        monkeypatch.setattr("lcframe.expr.compile_program", None)
        if isinstance(want, EvalDomainError):
            with pytest.raises(EvalDomainError) as err:
                constant_value(source)
            assert str(err.value) == str(want)
        else:
            assert same_bits(constant_value(source), want)

    def test_constant_value_rejects_variables(self):
        with pytest.raises(Exception):
            constant_value("2*u")


# Lists of trees that share subtrees, by object and by structure, and
# carry both signed zeros: templates whose slots are filled from a pool.
signed_leaf = st.one_of(leaf, st.sampled_from([Const(0.0), Const(-0.0)]))


@dataclass(frozen=True)
class Slot(Expr):
    index: int
    copy: bool  # fill with an equal tree rather than the pool's object


def _fill(e, pool):
    if isinstance(e, Slot):
        tree = pool[e.index % len(pool)]
        return parse(to_source(tree)) if e.copy else tree
    if isinstance(e, (Const, Var)):
        return e
    parts = (getattr(e, f.name) for f in fields(e))
    return type(e)(*(_fill(x, pool) if isinstance(x, Expr) else x for x in parts))


templates = st.recursive(
    st.one_of(signed_leaf, st.builds(Slot, st.integers(0, 3), st.booleans())),
    _exprs, max_leaves=6)
tree_lists = st.tuples(
    st.lists(st.recursive(signed_leaf, _exprs, max_leaves=8), min_size=1, max_size=4),
    st.lists(templates, min_size=1, max_size=5),
).map(lambda pair: [_fill(t, pair[0]) for t in pair[1]])


def _first_error(trees, u, v):
    """Message of the first tree, in list order, that fails alone.

    evaluate decides which trees fail; the message is that of the tree
    compiled alone, since evaluate words some failures differently."""
    for e in trees:
        try:
            evaluate(e, u, v)
        except EvalDomainError:
            with pytest.raises(EvalDomainError) as err:
                compile_program([e])(u, v)
            return str(err.value)
    return None


class TestCompileProgram:
    @settings(max_examples=200)
    @given(tree_lists, st.floats(-2, 2, allow_nan=False),
           st.sampled_from([0.0, -0.0, 1.5, -2.0]))
    def test_matches_tree_walker(self, trees, u, v):
        program = compile_program(trees)
        message = _first_error(trees, u, v)
        if message is not None:
            with pytest.raises(EvalDomainError) as err:
                program(u, v)
            assert str(err.value) == message
            return
        values = program(u, v)
        assert len(values) == len(trees)
        for e, value in zip(trees, values):
            assert same_bits(value, evaluate(e, u, v))

    def test_signed_zeros_are_distinct_subtrees(self):
        trees = [Mul(Call("sin", Const(0.0)), Var("u")),
                 Mul(Call("sin", Const(-0.0)), Var("u"))]
        a, b = compile_program(trees)(1.0, 0.0)
        assert same_bits(a, 0.0) and same_bits(b, -0.0)

    def test_shared_subtree_is_not_computed_early(self):
        # 1/v is shared with the second tree, but sqrt(u) fails first
        trees = [parse("sqrt(u) + 1/v"), parse("1/v")]
        with pytest.raises(EvalDomainError, match="sqrt of a negative argument"):
            compile_program(trees)(-1.0, 0.0)
        with pytest.raises(EvalDomainError, match="division by zero"):
            compile_program(trees)(1.0, 0.0)

    def test_trees_are_checked_finite_in_order(self):
        trees = [parse("exp(u)*exp(u)"), parse("1/v")]
        with pytest.raises(EvalDomainError, match="non-finite result inf"):
            compile_program(trees)(700.0, 0.0)
        with pytest.raises(EvalDomainError, match="division by zero"):
            compile_program(trees[::-1])(700.0, 0.0)

    def test_repeated_and_leaf_trees(self):
        e = parse("sin(u)*v")
        assert compile_program([e, Var("v"), e, Const(-0.0)])(1.0, 2.0) == (
            math.sin(1.0) * 2.0, 2.0, math.sin(1.0) * 2.0, -0.0)


def _point_loop(program, us, vs):
    """The program at every point of us x vs in row-major order, as
    float.hex, or the text of the first error."""
    try:
        return [[[x.hex() for x in program(u, v)] for v in vs] for u in us]
    except EvalDomainError as exc:
        return str(exc)


def _hex_rows(rows):
    return [[[x.hex() for x in point] for point in row] for row in rows]


class TestGridProgram:
    @settings(max_examples=200, deadline=None)
    @given(tree_lists,
           st.lists(st.one_of(st.floats(-2, 2), st.sampled_from([0.0, -0.0])), max_size=4),
           st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 0.25]), max_size=4))
    def test_matches_the_point_loop(self, trees, us, vs):
        want = _point_loop(compile_program(trees), us, vs)
        grid = compile_grid_program(trees)
        if isinstance(want, str):
            with pytest.raises(EvalDomainError) as err:
                grid(us, vs)
            assert str(err.value) == want
        else:
            assert _hex_rows(grid(us, vs)) == want

    # each pair: the point loop's first fault, and one that a grid
    # computing constants, columns or rows first would reach before it
    @pytest.mark.parametrize("source, us, vs, message", [
        ("log(u) + 1/v", [0.0, 1.0], [1.0, 0.0], "log of a nonpositive argument"),
        ("1/v + log(u)", [0.0, 1.0], [0.0, 1.0], "division by zero"),
        ("1/v + log(0.0 - 2.0)", [1.0], [0.0], "division by zero"),
        ("u/v + sqrt(0.0 - 1.0)", [1.0], [0.0], "division by zero"),
    ])
    def test_a_fault_raises_the_point_loop_error(self, source, us, vs, message):
        tree = parse(source)
        assert _point_loop(compile_program([tree]), us, vs) == message
        for grid in (compile_grid_program([tree]), compile_field(tree).grid):
            with pytest.raises(EvalDomainError) as err:
                grid(us, vs)
            assert str(err.value) == message

    def test_computes_each_value_where_its_variables_change(self, monkeypatch):
        calls = {"sin": 0, "cos": 0, "exp": 0}
        for name in calls:
            def counted(x, fn=getattr(math, name), name=name):
                calls[name] += 1
                return fn(x)

            monkeypatch.setitem(expr._SCALAR_NAMESPACE, name, counted)
        tree = parse("sin(u)*cos(v) + exp(1.5)*u*v")
        us, vs = [0.1 * i for i in range(5)], [0.2 * j for j in range(7)]
        rows = compile_grid_program([tree])(us, vs)
        assert calls == {"sin": 5, "cos": 7, "exp": 1}
        assert _hex_rows(rows) == _point_loop(compile_program([tree]), us, vs)

    def test_empty_grids(self):
        grid = compile_grid_program([parse("log(u) + 1/v")])
        assert grid([], [0.0]) == []
        assert grid([0.0, 1.0], []) == [[], []]

    def test_a_tree_simplified_in_its_context_is_not_simplified_again(self, monkeypatch):
        dag = Dag()
        tree = dag.simplify(parse("sin(u)*1 + 0*v - -(-u)"))
        simplified = []
        original = Dag.simplify

        def counted(self, e):
            simplified.append(e)
            return original(self, e)

        monkeypatch.setattr(Dag, "simplify", counted)
        field = CompiledField(tree, 0, dag)
        assert field.expr is tree
        assert simplified == [tree]  # one memo hit at the root


# The array program: the same numbering spelled for numpy arrays of
# points, with a fault mask in place of raising.
PROGRAM_CALLS = ["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "sign", "sinh", "cosh"]


def _program_exprs(children):
    return st.one_of(_exprs(children),
                     st.builds(Call, st.sampled_from(PROGRAM_CALLS), children))


program_trees = st.lists(st.recursive(signed_leaf, _program_exprs, max_leaves=10),
                         min_size=1, max_size=3)


def _constants(e):
    if isinstance(e, Const):
        return [e.value]
    return [c for f in fields(e) if isinstance(getattr(e, f.name), Expr)
            for c in _constants(getattr(e, f.name))]


class TestArrayProgram:
    @settings(max_examples=200, deadline=None)
    @given(program_trees, st.lists(st.floats(-3, 3), max_size=4))
    # 1/inf and sign(inf) are finite, so only the divisor's mask catches these
    @example([Div(Const(1.0), Div(Const(1.0), Var("u")))], [])
    @example([Call("sign", Div(Var("v"), Var("u")))], [])
    # u * 1e300 * 1e300 overflows without raising; sign(inf - inf) is 0.0
    @example([Call("sign", Sub(*[Mul(Mul(Var("u"), Const(1e300)), Const(1e300))] * 2))], [])
    # numpy's exp differs from math.exp in the last bit on a few percent of these
    @example([Call("exp", Var("u"))], [k / 37.0 for k in range(-111, 112)])
    def test_matches_the_point_program(self, trees, extra):
        # a grid over 0, -0, +-1, the trees' constants and their negatives,
        # so that divisors such as u - c meet exact zeros
        candidates = [0.0, -0.0, 1.0, -1.0, *extra]
        for c in (c for e in trees for c in _constants(e)):
            candidates += [c, -c]
        values = list({x.hex(): x for x in candidates}.values())
        u = np.array([a for a in values for _ in values])
        v = np.array([b for _ in values for b in values])
        columns, bad = compile_program(trees, ARRAY)(u, v)
        point = compile_program(trees)
        for i, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
            try:
                want = point(a, b)
            except EvalDomainError:
                assert bad[i], (a, b)
                continue
            assert not bad[i], (a, b)
            assert [x.hex() for x in want] == [float(c[i]).hex() for c in columns], (a, b)


# Reference: the plain chain rule and a recursive simplify over trees, with
# no sharing.  differentiate(e, var) must equal ref_simplify(ref_diff(e, var))
# and simplify(e) must equal ref_simplify(e), as source text.


def _ref_is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def _ref_neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def ref_simplify(e):
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Neg):
        return _ref_neg(ref_simplify(e.arg))
    if isinstance(e, Add):
        a, b = ref_simplify(e.left), ref_simplify(e.right)
        if _ref_is_const(a, 0.0):
            return b
        if _ref_is_const(b, 0.0):
            return a
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value + b.value)
        return Add(a, b)
    if isinstance(e, Sub):
        a, b = ref_simplify(e.left), ref_simplify(e.right)
        if _ref_is_const(b, 0.0):
            return a
        if _ref_is_const(a, 0.0):
            return _ref_neg(b)
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value - b.value)
        return Sub(a, b)
    if isinstance(e, Mul):
        a, b = ref_simplify(e.left), ref_simplify(e.right)
        if _ref_is_const(a, 0.0) or _ref_is_const(b, 0.0):
            return Const(0.0)
        if _ref_is_const(a, 1.0):
            return b
        if _ref_is_const(b, 1.0):
            return a
        if _ref_is_const(a, -1.0):
            return _ref_neg(b)
        if _ref_is_const(b, -1.0):
            return _ref_neg(a)
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value * b.value)
        return Mul(a, b)
    if isinstance(e, Div):
        a, b = ref_simplify(e.left), ref_simplify(e.right)
        if _ref_is_const(a, 0.0):
            return Const(0.0)
        if _ref_is_const(b, 1.0):
            return a
        return Div(a, b)
    if isinstance(e, Pow):
        a = ref_simplify(e.base)
        if e.exponent == 0:
            return Const(1.0)
        if e.exponent == 1:
            return a
        return Pow(a, e.exponent)
    if isinstance(e, Call):
        return Call(e.fn, ref_simplify(e.arg))
    raise ExprError(f"malformed expression node: {e!r}")


_REF_OUTER = {
    "sin": lambda f: Call("cos", f),
    "cos": lambda f: Neg(Call("sin", f)),
    "tan": lambda f: Div(Const(1.0), Pow(Call("cos", f), 2)),
    "exp": lambda f: Call("exp", f),
    "log": lambda f: Div(Const(1.0), f),
    "sqrt": lambda f: Div(Const(0.5), Call("sqrt", f)),
    "abs": lambda f: Call("sign", f),
    "sinh": lambda f: Call("cosh", f),
    "cosh": lambda f: Call("sinh", f),
    "sign": lambda f: Const(0.0),
}


def ref_diff(e, var):
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return Neg(ref_diff(e.arg, var))
    if isinstance(e, Add):
        return Add(ref_diff(e.left, var), ref_diff(e.right, var))
    if isinstance(e, Sub):
        return Sub(ref_diff(e.left, var), ref_diff(e.right, var))
    if isinstance(e, Mul):
        return Add(Mul(ref_diff(e.left, var), e.right), Mul(e.left, ref_diff(e.right, var)))
    if isinstance(e, Div):
        num = Sub(Mul(ref_diff(e.left, var), e.right), Mul(e.left, ref_diff(e.right, var)))
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        return Mul(Mul(Const(float(e.exponent)), Pow(e.base, e.exponent - 1)),
                   ref_diff(e.base, var))
    if isinstance(e, Call):
        return Mul(_REF_OUTER[e.fn](e.arg), ref_diff(e.arg, var))
    raise ExprError(f"malformed expression node: {e!r}")


def twins(roots):
    """Node objects reachable from roots whose structure, keyed as
    compile_program keys it (constants by repr), an earlier object has."""
    numbers, first, seen, out = {}, {}, {}, []

    def number(e):
        hit = seen.get(id(e))
        if hit is not None:
            return hit[0]
        if type(e) is Const:
            key = (Const, repr(e.value))
        else:
            key = (type(e), *(number(x) if isinstance(x, Expr) else x
                              for x in (getattr(e, f.name) for f in fields(e))))
        n = numbers.setdefault(key, len(numbers))
        if first.setdefault(n, e) is not e:
            out.append(e)
        seen[id(e)] = (n, e)
        return n

    for e in roots:
        number(e)
    return out


ALL_CALLS = st.builds(Call, st.sampled_from(sorted(_REF_OUTER)),
                      st.recursive(signed_leaf, _exprs, max_leaves=4))
SIGNED_ZERO_SINES = [Add(Call("sin", Const(0.0)), Call("sin", Const(-0.0))),
                     Mul(Call("sin", Const(-0.0)), Call("sin", Const(0.0)))]


class TestDag:
    @settings(max_examples=300, deadline=None)
    @given(tree_lists)
    @example(SIGNED_ZERO_SINES)
    @example([Pow(Var("u"), 0), Pow(Var("v"), 1), Div(Const(0.0), Const(0.0))])
    def test_matches_chain_rule_then_simplify(self, trees):
        dag = Dag()  # shared by every tree and both variables
        for e in trees:
            want = to_source(ref_simplify(e))
            assert to_source(simplify(e)) == want
            assert to_source(dag.simplify(e)) == want
            for var in ("u", "v"):
                want = to_source(ref_simplify(ref_diff(e, var)))
                assert to_source(differentiate(e, var)) == want
                assert to_source(dag.differentiate(e, var)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(ALL_CALLS, min_size=1, max_size=3))
    def test_every_function_matches_the_chain_rule(self, trees):
        dag = Dag()
        for e in trees:
            for var in ("u", "v"):
                want = to_source(ref_simplify(ref_diff(e, var)))
                assert to_source(dag.differentiate(e, var)) == want

    @settings(max_examples=200, deadline=None)
    @given(tree_lists)
    @example(SIGNED_ZERO_SINES)
    def test_results_share_equal_subexpressions(self, trees):
        dag = Dag()
        results = [dag.simplify(e) for e in trees]
        results += [dag.differentiate(e, var) for e in trees for var in ("u", "v")]
        assert twins(results) == []
        for e in trees:
            assert twins([simplify(e)]) == []
            assert twins([differentiate(e, "u")]) == []

    @pytest.mark.parametrize("name", catalog.names())
    def test_invariant_trees_share_equal_subexpressions(self, name):
        dag, inputs = Dag(), catalog.load(name)._tree_inputs
        trees = _invariant_trees(dag, *inputs)
        traced = [_traced_tree(dag, field, *inputs[:4]) for field in ("lambda_til", "c2")]
        assert twins(trees + traced) == []

    def test_signed_zeros_stay_distinct_nodes(self):
        e = SIGNED_ZERO_SINES[0]
        assert to_source(simplify(e)) == "sin(0.0) + sin(-0.0)"
        dag = Dag()
        assert dag.simplify(Const(0.0)) is not dag.simplify(Const(-0.0))

    def test_derivatives_are_kept_per_variable(self):
        dag = Dag()
        e = parse("u^2*v^3")
        assert to_source(dag.differentiate(e, "u")) == "2.0*u*v^3"
        assert to_source(dag.differentiate(e, "v")) == "u^2*(3.0*v^2)"

    def test_bad_variable_is_an_error(self):
        with pytest.raises(ExprError, match="differentiation variable"):
            differentiate(Const(1.0), "w")
