import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcframe.expr import (
    Add, Call, CompiledField, Const, Div, EvalDomainError, ExprSyntaxError,
    Mul, Neg, Pow, Sub, UnknownIdentifierError, Var, compile_field,
    constant_value, differentiate, evaluate, is_nonsmooth, parse, simplify,
    to_source,
)


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
        assert is_nonsmooth(d)
        assert not is_nonsmooth(parse("sin(u)"))
        assert is_nonsmooth(parse("abs(u) + v"))

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
        compiled = field.eval(u, v)
        assert compiled == walked or abs(compiled - walked) <= 1e-12 * (1 + abs(walked))


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

    def test_nonsmooth_flag(self):
        assert compile_field("abs(u)").nonsmooth
        assert not compile_field("sin(u)").nonsmooth

    def test_constant_value_rejects_variables(self):
        with pytest.raises(Exception):
            constant_value("2*u")
