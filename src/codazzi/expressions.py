"""Minimal closed-form expression grammar for chart fields.

Grammar: +, -, *, /, pow(base, exponent), sin, cos, exp, variables x1..xn,
numeric constants, parentheses, unary minus.  Expressions parse to an AST
that compiles to numpy code over a batch of points x[..., n], differentiates
symbolically, and prints back to a canonical source string.  Constants must
be finite, so every source string round-trips.

Symbolic derivatives are what make the Hessian-potential generator exact:
metric and cubic-form fields come out as closed forms instead of carrying
finite-difference error of their own.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import SchemaError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/,]))"
)

_FUNCTIONS = {"sin", "cos", "exp", "pow"}


class Expr:
    """Expression node; subclasses implement evaluation, derivative, and printing."""

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def source(self) -> str:
        raise NotImplementedError

    def _code(self) -> str:
        raise NotImplementedError

    def variables(self) -> set[str]:
        raise NotImplementedError

    def compile(self, n: int):
        """Return f(x[..., n]) -> values of shape x.shape[:-1], evaluated with numpy ufuncs.

        An expression without variables broadcasts its value; the parser has
        checked the variables against the n coordinates.
        """
        fn = eval(f"lambda x: {self._code()}", {"np": np, "__builtins__": {}})
        if not self.variables():
            value = float(fn(None))
            return lambda x: np.full(np.shape(x)[:-1], value)
        return lambda x: fn(np.asarray(x, dtype=float))

    def __repr__(self):
        return f"Expr({self.source()})"


class Const(Expr):
    def __init__(self, value: float):
        self.value = float(value)
        if not math.isfinite(self.value):
            raise SchemaError(f"numeric constant {value!r} is not finite")

    def diff(self, var):
        return Const(0.0)

    def source(self):
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return str(int(self.value))
        return repr(self.value)

    def _code(self):
        return f"({self.value!r})"

    def variables(self):
        return set()


class Var(Expr):
    def __init__(self, name: str):
        self.name = name

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def source(self):
        return self.name

    def _code(self):
        return f"x[..., {int(self.name[1:]) - 1}]"

    def variables(self):
        return {self.name}


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


class Binary(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def source(self):
        return f"({self.left.source()} {self.op} {self.right.source()})"

    def _code(self):
        return f"({self.left._code()} {self.op} {self.right._code()})"

    def variables(self):
        return self.left.variables() | self.right.variables()

    def diff(self, var):
        a, b = self.left, self.right
        da, db = a.diff(var), b.diff(var)
        if self.op == "+":
            return add(da, db)
        if self.op == "-":
            return sub(da, db)
        if self.op == "*":
            return add(mul(da, b), mul(a, db))
        if self.op == "/":
            return sub(div(da, b), div(mul(a, db), mul(b, b)))
        raise ValueError(self.op)


class Neg(Expr):
    def __init__(self, operand: Expr):
        self.operand = operand

    def source(self):
        return f"(-{self.operand.source()})"

    def _code(self):
        return f"(-{self.operand._code()})"

    def variables(self):
        return self.operand.variables()

    def diff(self, var):
        return neg(self.operand.diff(var))


class Call(Expr):
    def __init__(self, fn: str, args: list[Expr]):
        self.fn = fn
        self.args = args

    def source(self):
        return f"{self.fn}({', '.join(a.source() for a in self.args)})"

    def _code(self):
        fn = "power" if self.fn == "pow" else self.fn
        return f"np.{fn}({', '.join(a._code() for a in self.args)})"

    def variables(self):
        out = set()
        for a in self.args:
            out |= a.variables()
        return out

    def diff(self, var):
        if self.fn == "sin":
            (u,) = self.args
            return mul(Call("cos", [u]), u.diff(var))
        if self.fn == "cos":
            (u,) = self.args
            return neg(mul(Call("sin", [u]), u.diff(var)))
        if self.fn == "exp":
            (u,) = self.args
            return mul(self, u.diff(var))
        if self.fn == "pow":
            base, exponent = self.args
            if not _is_const(exponent):
                raise SchemaError("pow supports only constant exponents")
            k = exponent.value
            return mul(mul(Const(k), _power(base, k - 1)), base.diff(var))
        raise ValueError(self.fn)


def add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("-", a, b)


def mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    return Binary("*", a, b)


def div(a, b):
    if _is_const(b, 0.0):
        raise SchemaError("division by zero")
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value / b.value)
    return Binary("/", a, b)


def neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _power(base, k: float):
    if k == 0:
        return Const(1.0)
    if k == 1:
        return base
    return Call("pow", [base, Const(k)])


class _Parser:
    def __init__(self, text: str, n_vars: int):
        self.text = text
        self.n_vars = n_vars
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise SchemaError(f"cannot tokenize expression at ...{text[pos:pos + 12]!r}")
                break
            self.tokens.append((m.lastgroup, m.group(m.lastgroup)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, tok = self.next()
        if tok != value:
            raise SchemaError(f"expected {value!r}, got {tok!r} in {self.text!r}")

    def parse(self) -> Expr:
        e = self.expr()
        if self.i != len(self.tokens):
            raise SchemaError(f"trailing tokens in expression {self.text!r}")
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.unary()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def unary(self) -> Expr:
        if self.peek()[1] == "-":
            self.next()
            return neg(self.unary())
        if self.peek()[1] == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] == "**":
            self.next()
            exponent = self.unary()
            if not _is_const(exponent):
                raise SchemaError("** supports only constant exponents")
            return _power(base, exponent.value)
        return base

    def atom(self) -> Expr:
        kind, tok = self.next()
        if kind == "num":
            return Const(float(tok))
        if kind == "name":
            if tok in _FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                want = 2 if tok == "pow" else 1
                if len(args) != want:
                    raise SchemaError(f"{tok} takes {want} argument(s)")
                if tok == "pow" and not _is_const(args[1]):
                    raise SchemaError("pow supports only constant exponents")
                return Call(tok, args)
            m = re.fullmatch(r"x(\d+)", tok)
            if not m:
                raise SchemaError(f"unknown name {tok!r} (variables are x1..x{self.n_vars})")
            idx = int(m.group(1))
            if not 1 <= idx <= self.n_vars:
                raise SchemaError(f"variable {tok} out of range for n={self.n_vars}")
            return Var(tok)
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise SchemaError(f"unexpected token {tok!r} in {self.text!r}")


def parse_expression(text, n_vars: int) -> Expr:
    """Parse an expression string (or pass through numbers) over variables x1..x{n_vars}."""
    if isinstance(text, (int, float)):
        return Const(float(text))
    if isinstance(text, Expr):
        return text
    return _Parser(str(text), n_vars).parse()


def partial(e: Expr, axis: int) -> Expr:
    """Symbolic partial derivative with respect to x{axis+1}."""
    return e.diff(f"x{axis + 1}")
