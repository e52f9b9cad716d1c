"""Scenario expression DSL.

Arithmetic expressions over the chart coordinates x0..x3 with
+, -, *, /, ^ (right associative), parentheses, unary minus, the
functions sin, cos, exp, sqrt, cosh, sinh, and numeric literals.
Parsed by precedence climbing.  Unary minus binds looser than ^, so
-x0^2 means -(x0^2).

ASTs evaluate to floats and differentiate symbolically, which gives
scenario fields exact analytic partial derivatives.  An Expression
compiles its AST once into numpy ufunc calls over a point array of
shape (..., 4) and returns one value per point; a floating-point error
anywhere in the batch re-evaluates it point by point through the AST,
which raises the same EvaluationError a single point raises.
evaluate_all does the same for a whole list of expressions at once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Syntax error with a byte offset and the tokens that were expected."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected: " + ", ".join(expected) + ")"
        super().__init__(detail)


class EvaluationError(ArithmeticError):
    """Domain error raised while evaluating a parsed expression."""


FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "cosh": math.cosh,
    "sinh": math.sinh,
    # log is not part of the surface grammar; the differentiator
    # produces it for general u^v exponents
    "log": math.log,
}

VARIABLES = {"x0": 0, "x1": 1, "x2": 2, "x3": 3}

# the numpy ufunc of every operator and function, for compiled ASTs
UFUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "log": np.log,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    position: int


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = pos + (len(text[pos:]) - len(stripped))
            raise ParseError(f"unexpected character {text[bad]!r}", bad,
                             ["number", "identifier", "operator"])
        kind = match.lastgroup
        tokens.append(Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# --- AST -------------------------------------------------------------

class Node:
    def evaluate(self, point):
        raise NotImplementedError

    def compile(self):
        """Function of a point array x (..., 4) returning the value at
        every point; floating-point errors follow numpy's errstate."""
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def evaluate(self, point):
        return self.value

    def compile(self):
        value = self.value
        return lambda x: value

    def diff(self, var):
        return Num(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Node):
    index: int

    def evaluate(self, point):
        return float(point[self.index])

    def compile(self):
        index = self.index
        return lambda x: x[..., index]

    def diff(self, var):
        return Num(1.0 if var == self.index else 0.0)

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True)
class Neg(Node):
    operand: Node

    def evaluate(self, point):
        return -self.operand.evaluate(point)

    def compile(self):
        operand = self.operand.compile()
        return lambda x: np.negative(operand(x))

    def diff(self, var):
        return Neg(self.operand.diff(var))

    def __str__(self):
        return f"(-{self.operand})"


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def evaluate(self, point):
        a = self.left.evaluate(point)
        b = self.right.evaluate(point)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if b == 0.0:
                raise EvaluationError("division by zero")
            return a / b
        if self.op == "^":
            try:
                result = a ** b
            except (OverflowError, ValueError, ZeroDivisionError) as exc:
                raise EvaluationError(str(exc)) from exc
            if isinstance(result, complex):
                raise EvaluationError("non-real power")
            return result
        raise AssertionError(self.op)

    def compile(self):
        op, left, right = UFUNCS[self.op], self.left.compile(), self.right.compile()
        return lambda x: op(left(x), right(x))

    def diff(self, var):
        u, v = self.left, self.right
        du, dv = u.diff(var), v.diff(var)
        if self.op == "+":
            return BinOp("+", du, dv)
        if self.op == "-":
            return BinOp("-", du, dv)
        if self.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if self.op == "/":
            # (u/v)' = u'/v - u v'/v^2
            return BinOp(
                "-",
                BinOp("/", du, v),
                BinOp("/", BinOp("*", u, dv), BinOp("*", v, v)),
            )
        if self.op == "^":
            if isinstance(v, Num):
                # power rule for constant exponents
                return BinOp(
                    "*",
                    BinOp("*", v, BinOp("^", u, Num(v.value - 1.0))),
                    du,
                )
            # general case u^v * (v' log u + v u'/u)
            return BinOp(
                "*",
                self,
                BinOp(
                    "+",
                    BinOp("*", dv, Call("log", u)),
                    BinOp("/", BinOp("*", v, du), u),
                ),
            )
        raise AssertionError(self.op)

    def __str__(self):
        return f"({self.left}{self.op}{self.right})"


_DERIVATIVES = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "exp": lambda u: Call("exp", u),
    "sqrt": lambda u: BinOp("/", Num(0.5), Call("sqrt", u)),
    "cosh": lambda u: Call("sinh", u),
    "sinh": lambda u: Call("cosh", u),
    "log": lambda u: BinOp("/", Num(1.0), u),
}


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node

    def evaluate(self, point):
        value = self.arg.evaluate(point)
        try:
            return FUNCTIONS[self.name](value)
        except (OverflowError, ValueError) as exc:
            raise EvaluationError(f"{self.name}({value}): {exc}") from exc

    def compile(self):
        func, arg = UFUNCS[self.name], self.arg.compile()
        return lambda x: func(arg(x))

    def diff(self, var):
        return BinOp("*", _DERIVATIVES[self.name](self.arg), self.arg.diff(var))

    def __str__(self):
        return f"{self.name}({self.arg})"


# --- parser ----------------------------------------------------------

# binary precedence levels; ^ is right associative
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_RIGHT_ASSOC = {"^"}
# unary minus sits between the multiplicative and power levels,
# so -x^2 = -(x^2) while -x*y = (-x)*y
_UNARY_MINUS_OPERAND_LEVEL = 3


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op):
        token = self.current
        if token.kind != "op" or token.text != op:
            raise ParseError(f"unexpected {token.text!r}" if token.kind != "end"
                             else "unexpected end of input",
                             token.position, [repr(op)])
        return self.advance()

    def parse(self):
        node = self.expression(0)
        token = self.current
        if token.kind != "end":
            raise ParseError(f"unexpected trailing {token.text!r}",
                             token.position, ["operator", "end of input"])
        return node

    def expression(self, min_level):
        node = self.primary()
        while True:
            token = self.current
            if token.kind != "op" or token.text not in _PRECEDENCE:
                break
            level = _PRECEDENCE[token.text]
            if level < min_level:
                break
            self.advance()
            next_min = level if token.text in _RIGHT_ASSOC else level + 1
            node = BinOp(token.text, node, self.expression(next_min))
        return node

    def primary(self):
        token = self.current
        if token.kind == "number":
            self.advance()
            return Num(float(token.text))
        if token.kind == "ident":
            self.advance()
            if token.text in VARIABLES:
                return Var(VARIABLES[token.text])
            if token.text in FUNCTIONS and token.text != "log":
                self.expect_op("(")
                arg = self.expression(0)
                self.expect_op(")")
                return Call(token.text, arg)
            raise ParseError(f"unknown identifier {token.text!r}", token.position,
                             sorted(VARIABLES) + sorted(set(FUNCTIONS) - {"log"}))
        if token.kind == "op" and token.text == "-":
            self.advance()
            return Neg(self.expression(_UNARY_MINUS_OPERAND_LEVEL))
        if token.kind == "op" and token.text == "(":
            self.advance()
            node = self.expression(0)
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {token.text!r}" if token.kind != "end"
                         else "unexpected end of input",
                         token.position,
                         ["number", "identifier", "'('", "'-'"])


def parse_ast(text: str) -> Node:
    if not text or not text.strip():
        raise ParseError("empty expression", 0, ["number", "identifier", "'('", "'-'"])
    return _Parser(text).parse()


class Expression:
    """Parsed scalar expression over x0..x3 with exact partials.

    Called with points of shape (..., 4) it returns values of shape
    (...); a single point (4,) gives a 0-d value.
    """

    def __init__(self, ast, source=None):
        self.ast = ast
        self.source = source
        self._compiled = ast.compile()
        self._partials = {}

    @classmethod
    def parse(cls, text):
        return cls(parse_ast(text), source=text)

    def __call__(self, points):
        return evaluate_all([self], points)[..., 0]

    def partial(self, var):
        if var not in self._partials:
            self._partials[var] = Expression(self.ast.diff(var))
        return self._partials[var]

    def __repr__(self):
        return f"Expression({self.source if self.source is not None else self.ast})"


def evaluate_all(expressions, points):
    """Values of several expressions at points (..., 4), stacked on a last axis.

    The compiled expressions run under one numpy errstate that raises on
    division by zero, overflow and invalid operations (not underflow).
    On such an error the ASTs re-evaluate the batch point by point, which
    raises the EvaluationError of the first failing point (in batch
    order, then expression order), or gives the values where only
    numpy's flags tripped.
    """
    x = np.asarray(points, dtype=float)
    out = np.empty(x.shape[:-1] + (len(expressions),))
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for k, expression in enumerate(expressions):
                out[..., k] = expression._compiled(x)
    except FloatingPointError:
        for index in np.ndindex(x.shape[:-1]):
            out[index] = [expression.ast.evaluate(x[index]) for expression in expressions]
    return out
