"""Scenario expression DSL.

Arithmetic expressions over the chart coordinates x0..x3 with
+, -, *, /, ^ (right associative), parentheses, unary minus, the
functions sin, cos, exp, sqrt, cosh, sinh, and numeric literals.
Parsed by precedence climbing.  Unary minus binds looser than ^, so
-x0^2 means -(x0^2).

ASTs differentiate symbolically, which gives scenario fields exact
analytic partial derivatives, and compile once into numpy ufunc calls
over a point array of shape (..., 4); that is the one evaluator.  It
runs under np.errstate(all="ignore"), and every node marks the points
where it fails: a zero divisor, sqrt of a negative value, log of a
value <= 0, a power that is non-real, raises 0 to a negative power or
overflows, and any other non-finite result.  values_at raises one
EvaluationError for the first failure in batch order, then expression
order, then left-to-right evaluation order; the error carries that
batch index, and its text names the failing operation only.

Parsing, differentiation, compilation and evaluation recurse over the
AST, so an expression nested more than MAX_DEPTH levels deep, or one
whose partial is, is a ParseError: every accepted expression evaluates
within Python's default recursion limit.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Syntax error with a byte offset (or None) and the expected tokens."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        detail = message if position is None else f"{message} at position {position}"
        if expected:
            detail += " (expected: " + ", ".join(expected) + ")"
        super().__init__(detail)


class EvaluationError(ArithmeticError):
    """An expression fails at some point of a batch; index is the batch
    index of the first failing point."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


VARIABLES = {"x0": 0, "x1": 1, "x2": 2, "x3": 3}

# Levels an AST may have (a leaf is one).  Evaluation takes two Python
# frames a level, which leaves a caller about 590 of the default limit
# of 1000; tests and bundled specs nest 7 levels at most.
MAX_DEPTH = 200

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
# log is not part of the surface grammar; the differentiator produces
# it for general u^v exponents
FUNCTION_NAMES = sorted(name for name in UFUNCS if name.isalpha() and name != "log")

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
    def compile(self):
        """Function (x, failures) of points x (..., 4) returning the value at
        every point, under np.errstate(all="ignore").  A failing operation
        appends (bad, text): bad marks its failing points, text(index) is
        the error there.  Operands append first, left before right, so at
        a point the first entry that holds is the first failure in
        evaluation order."""
        raise NotImplementedError

    def diff(self, var):
        """The derivative along coordinate var; a subtree without Var(var)
        differentiates to Num(0.0), not to a tree of zero products."""
        raise NotImplementedError


# The checks of an operation that can fail, in the order they apply:
# (mask of its operands, error).  Every failure leaves a non-finite
# value; any other non-finite value of finite operands is out of range.
_DOMAIN_ERRORS = {
    "/": ((lambda a, b: b == 0.0, "division by zero"),),
    "^": ((lambda a, b: (a == 0.0) & (b < 0.0), "0.0 cannot be raised to a negative power"),
          (lambda a, b: (a < 0.0) & (b != np.floor(b)), "non-real power")),
    "sqrt": ((lambda u: u < 0.0, "math domain error"),),
    "log": ((lambda u: u <= 0.0, "math domain error"),),
}


def _operation(name, operands, range_error, describe=lambda args, error, index: error):
    """Compiled node applying UFUNCS[name] to compiled operands; where a
    value is not finite, it marks its failing checks, with the error
    text describe(operand values, error, index)."""
    func, checks = UFUNCS[name], _DOMAIN_ERRORS.get(name, ())

    def run(x, failures):
        args = [operand(x, failures) for operand in operands]
        value = func(*args)
        if not math.isfinite(np.add.reduce(value, axis=None)):  # any non-finite entry shows
            for check, error in checks + ((lambda *_: ~np.isfinite(value), range_error),):
                bad = check(*args)
                if np.any(bad):
                    failures.append((bad, functools.partial(describe, args, error)))
        return value

    return run


@dataclass(frozen=True)
class Num(Node):
    value: float

    def compile(self):
        value = self.value
        return lambda x, failures: value

    def diff(self, var):
        return ZERO

    def __str__(self):
        return repr(self.value)


ZERO = Num(0.0)


@dataclass(frozen=True)
class Var(Node):
    index: int

    def compile(self):
        index = self.index
        return lambda x, failures: x[..., index]

    def diff(self, var):
        return Num(1.0) if var == self.index else ZERO

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True)
class Neg(Node):
    operand: Node

    def compile(self):
        operand = self.operand.compile()
        return lambda x, failures: np.negative(operand(x, failures))

    def diff(self, var):
        d = self.operand.diff(var)
        return ZERO if d == ZERO else Neg(d)

    def __str__(self):
        return f"(-{self.operand})"


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def compile(self):
        overflow = "(34, 'Numerical result out of range')" if self.op == "^" \
            else f"overflow in '{self.op}'"
        return _operation(self.op, (self.left.compile(), self.right.compile()), overflow)

    def diff(self, var):
        u, v = self.left, self.right
        du, dv = u.diff(var), v.diff(var)
        if du == ZERO and dv == ZERO:
            return ZERO
        if self.op == "+":
            return BinOp("+", du, dv)
        if self.op == "-":
            return BinOp("-", du, dv)
        if self.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if self.op == "/":
            # (u/v)' = (u' - (u/v) v')/v: no v*v, which underflows to 0
            # for |v| below about 1.5e-162 where the derivative is finite
            if dv == ZERO:
                return BinOp("/", du, v)
            return BinOp("/", BinOp("-", du, BinOp("*", self, dv)), v)
        if self.op == "^":
            if isinstance(v, Num):  # power rule for constant exponents
                return BinOp("*", BinOp("*", v, BinOp("^", u, Num(v.value - 1.0))), du)
            # general case u^v * (v' log u + v u'/u)
            log_term = BinOp("*", dv, Call("log", u))
            return BinOp("*", self, BinOp("+", log_term, BinOp("/", BinOp("*", v, du), u)))
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

    def compile(self):
        name = self.name

        def describe(args, error, index):
            (u,) = args
            return f"{name}({float(u[index] if np.ndim(u) else u)}): {error}"

        return _operation(name, (self.arg.compile(),), "math range error", describe)

    def diff(self, var):
        d = self.arg.diff(var)
        return ZERO if d == ZERO else BinOp("*", _DERIVATIVES[self.name](self.arg), d)

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
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # nested expression() calls

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
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression is nested more than {MAX_DEPTH} levels deep",
                             self.current.position)
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
        self.depth -= 1
        return node

    def primary(self):
        token = self.current
        if token.kind == "number":
            self.advance()
            value = float(token.text)
            if not math.isfinite(value):
                raise ParseError(f"number {token.text} out of range", token.position)
            return Num(value)
        if token.kind == "ident":
            self.advance()
            if token.text in VARIABLES:
                return Var(VARIABLES[token.text])
            if token.text in FUNCTION_NAMES:
                self.expect_op("(")
                arg = self.expression(0)
                self.expect_op(")")
                return Call(token.text, arg)
            raise ParseError(f"unknown identifier {token.text!r}", token.position,
                             sorted(VARIABLES) + FUNCTION_NAMES)
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
    return _shallow(_Parser(text).parse(), "expression")


def _shallow(ast, label):
    """ast, or a ParseError if it has more than MAX_DEPTH levels; counted
    level by level, without recursion, each shared subtree once a level."""
    level = [ast]
    for _ in range(MAX_DEPTH):
        level = list({id(child): child for node in level for child in vars(node).values()
                      if isinstance(child, Node)}.values())
        if not level:
            return ast
    raise ParseError(f"{label} is nested more than {MAX_DEPTH} levels deep", None)


class Expression:
    """Parsed scalar expression over x0..x3 with exact partials.

    Called with points of shape (..., 4) it returns values of shape
    (...); a single point (4,) gives a 0-d value.
    """

    def __init__(self, ast, source=None):
        self.ast = ast
        self.source = source
        self._compiled = ast.compile()

    @classmethod
    def parse(cls, text):
        return cls(parse_ast(text), source=text)

    def __call__(self, points):
        return values_at([self], points)[..., 0]

    def partial(self, var):
        """The partial along coordinate var as a new Expression; a
        ParseError if it is nested too deep (MAX_DEPTH)."""
        return Expression(_shallow(self.ast.diff(var), f"partial along x{var}"))

    def __repr__(self):
        return f"Expression({self.source if self.source is not None else self.ast})"


def values_at(expressions, points):
    """Values of several expressions at points (..., 4), stacked on a last axis.

    Raises the EvaluationError of the first failure in batch order, then
    expression order, then evaluation order, with its batch index.
    """
    x = np.asarray(points, dtype=float)
    batch = x.shape[:-1]
    out = np.empty(batch + (len(expressions),))
    failures = []
    with np.errstate(all="ignore"):
        for k, expression in enumerate(expressions):
            out[..., k] = expression._compiled(x, failures)
    if failures:
        marks = [np.broadcast_to(bad, batch) for bad, _ in failures]
        index = first_index(np.logical_or.reduce(marks))
        text = next(text for bad, (_, text) in zip(marks, failures) if bad[index])
        raise EvaluationError(text(index), index)
    return out


def first_index(bad):
    """The batch index of the first True of bad in batch order, or None."""
    bad = np.asarray(bad)
    return np.unravel_index(np.argmax(bad), bad.shape) if bad.any() else None
