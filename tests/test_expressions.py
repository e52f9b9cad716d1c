import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintensor.expressions import (
    Call,
    EvaluationError,
    Expression,
    Num,
    ParseError,
    parse_ast,
    Var,
    values_at,
)

POINTS = st.tuples(*[st.floats(-2.0, 2.0) for _ in range(4)])


def ev(text, point=(0.0, 0.0, 0.0, 0.0)):
    return Expression.parse(text)(point)


def test_basic_arithmetic():
    assert ev("1+2*3") == 7.0
    assert ev("(1+2)*3") == 9.0
    assert ev("7/2") == 3.5
    assert ev("1+x0", (0.5, 0, 0, 0)) == 1.5


def test_power_is_right_associative():
    assert ev("2^3^2") == 512.0


def test_unary_minus_binds_looser_than_power():
    assert ev("-(1+x0)^2", (0.5, 0, 0, 0)) == -2.25
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0


def test_unary_minus_binds_tighter_than_multiplication():
    assert ev("-2*3") == -6.0
    assert ev("3*-2") == -6.0


@settings(max_examples=100, deadline=None)
@given(point=POINTS)
def test_composed_functions_match_host_math(point):
    expr = Expression.parse("sin(x1)*exp(x2) + cosh(x0) - sinh(x3)/2")
    expected = (
        math.sin(point[1]) * math.exp(point[2])
        + math.cosh(point[0])
        - math.sinh(point[3]) / 2
    )
    assert abs(expr(point) - expected) < 1e-14


def test_sqrt_and_literals():
    assert abs(ev("sqrt(2.25)") - 1.5) < 1e-15
    assert ev("1e2") == 100.0
    assert ev(".5") == 0.5


MALFORMED = [
    "",
    "   ",
    "1+",
    "(1+2",
    "1+*2",
    "sin 3",
    "bogus(1)",
    "x4",
    "1 2",
    "2^",
    "1+2)",
    "sin()",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_are_rejected_with_positions(text):
    with pytest.raises(ParseError) as err:
        parse_ast(text)
    assert err.value.position >= 0
    assert err.value.position <= len(text)
    assert err.value.expected  # the error names what it wanted


def test_parse_error_position_points_at_the_problem():
    with pytest.raises(ParseError) as err:
        parse_ast("1 + bogus")
    assert err.value.position == 4


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse_ast("1 + $")


def test_evaluation_domain_errors_are_not_parse_errors():
    expr = Expression.parse("sqrt(x0)")  # parses fine
    assert expr((4.0, 0, 0, 0)) == 2.0
    with pytest.raises(EvaluationError):
        expr((-1.0, 0, 0, 0))
    with pytest.raises(EvaluationError):
        Expression.parse("1/x0")((0.0, 0, 0, 0))


def test_symbolic_partials_match_finite_differences():
    expr = Expression.parse("sin(x1)*exp(x2) + x0^3 - x3/(1+x0)")
    point = (0.3, -0.7, 0.4, 1.1)
    h = 1e-6
    for var in range(4):
        shifted = list(point)
        shifted[var] += h
        plus = expr(tuple(shifted))
        shifted[var] -= 2 * h
        minus = expr(tuple(shifted))
        fd = (plus - minus) / (2 * h)
        assert abs(expr.partial(var)(point) - fd) < 1e-8


def test_general_power_derivative():
    # u^v with non-constant exponent goes through the log form
    expr = Expression.parse("(1+x0)^x1")
    point = (0.5, 1.5, 0, 0)
    h = 1e-6
    fd = (expr((0.5 + h, 1.5, 0, 0)) - expr((0.5 - h, 1.5, 0, 0))) / (2 * h)
    assert abs(expr.partial(0)(point) - fd) < 1e-8


def test_partials_are_cached():
    expr = Expression.parse("x0*x1")
    assert expr.partial(0) is expr.partial(0)


def test_variable_free_subtrees_differentiate_to_zero():
    assert Expression.parse("-1").partial(0).ast == Num(0.0)
    # unfolded, the partial of sqrt(0) is 0.5/sqrt(0)*0: a division by zero
    assert Expression.parse("sqrt(0)").partial(0)((0.0, 0.0, 0.0, 0.0)) == 0.0
    assert Expression.parse("x0*sqrt(x1)").partial(0)((0.5, 0.0, 0.0, 0.0)) == 0.0


def test_the_first_failure_in_batch_then_expression_then_evaluation_order():
    # the second point fails in both operands of the second expression,
    # the third point in the first expression
    points = [[1.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    expressions = [Expression.parse("1/x0"), Expression.parse("sqrt(x0) + 1/x1")]
    with pytest.raises(EvaluationError) as err:
        values_at(expressions, points)
    assert str(err.value) == "sqrt(-1.0): math domain error"
    assert err.value.index == (1,)
    # at one point, the first expression fails first
    expressions = [Expression.parse("1/x1"), Expression.parse("sqrt(x0)")]
    with pytest.raises(EvaluationError) as err:
        values_at(expressions, points[1])
    assert str(err.value) == "division by zero" and err.value.index == ()


@pytest.mark.parametrize(
    "text, point, message",
    [
        (Call("log", Var(0)), 0.0, "log(0.0): math domain error"),
        ("cosh(x0)", 1e3, "cosh(1000.0): math range error"),
        ("x0^3", 1e200, "(34, 'Numerical result out of range')"),
        ("x0-1e308", -1e308, "overflow in '-'"),
        ("(-x0)^0.5", 1.0, "non-real power"),
        ("0^(x0-2)", 1.0, "0.0 cannot be raised to a negative power"),
        ("x0/x0", 0.0, "division by zero"),
    ],
)
def test_failures_name_the_operation(text, point, message):
    # log is not in the surface grammar: the differentiator makes it
    expression = Expression(text) if isinstance(text, Call) else Expression.parse(text)
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        expression((point, 0.0, 0.0, 0.0))


def test_a_literal_past_the_float_range_is_a_parse_error():
    with pytest.raises(ParseError, match="out of range"):
        parse_ast("x0 + 1e400")
