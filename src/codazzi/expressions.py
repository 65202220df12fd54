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

import functools
import math
import re

import numpy as np

from .errors import SchemaError
from .tensors import batch_first

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/,]))"
)

_FUNCTIONS = {"sin", "cos", "exp", "pow"}

# entries kept by each per-process cache (string parses, compiled tensor functions)
CACHE_SIZE = 1024


class Expr:
    """Expression node; subclasses implement evaluation, derivative, and printing."""

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def source(self) -> str:
        raise NotImplementedError

    def _children(self) -> tuple["Expr", ...]:
        return ()

    def _code_from(self, args: list[str]) -> str:
        """numpy code of this node, given the code of each of its children."""
        raise NotImplementedError

    def _code(self) -> str:
        return self._code_from([c._code() for c in self._children()])

    def variables(self) -> set[str]:
        raise NotImplementedError

    def compile(self, n: int):
        """Return f(x[..., n]) -> values of shape x.shape[:-1], evaluated with numpy ufuncs.

        An expression without variables broadcasts its value; the parser has
        checked the variables against the n coordinates.
        """
        return compile_tensor((), [(self, [()])])

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

    def _code_from(self, args):
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

    def _code_from(self, args):
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

    def _children(self):
        return (self.left, self.right)

    def _code_from(self, args):
        return f"({args[0]} {self.op} {args[1]})"

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

    def _children(self):
        return (self.operand,)

    def _code_from(self, args):
        return f"(-{args[0]})"

    def variables(self):
        return self.operand.variables()

    def diff(self, var):
        return neg(self.operand.diff(var))


class Call(Expr):
    def __init__(self, fn: str, args):
        self.fn = fn
        self.args = tuple(args)

    def source(self):
        return f"{self.fn}({', '.join(a.source() for a in self.args)})"

    def _children(self):
        return self.args

    def _code_from(self, args):
        fn = "power" if self.fn == "pow" else self.fn
        return f"np.{fn}({', '.join(args)})"

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
    """Parse an expression string (or pass through numbers) over variables x1..x{n_vars}.

    A string is parsed once per (text, n_vars) in a process: the same text returns the
    same tree, which no caller mutates.
    """
    if isinstance(text, (int, float)):
        return Const(float(text))
    if isinstance(text, Expr):
        return text
    return _parse_text(str(text), n_vars)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _parse_text(text: str, n_vars: int) -> Expr:
    return _Parser(text, n_vars).parse()


def compile_tensor(shape, entries):
    """Return f(x[..., n]) -> [..., *shape], one generated numpy function for a whole field.

    entries pairs each Expr with the index tuples (of len(shape)) its value fills; a slot
    no entry names is 0.  Each call evaluates every expression once on
    np.asarray(x, dtype=np.float64) and writes it into a fresh zero array laid out
    batch-last (tensors.batch_last): each entry is one block of contiguous batch rows.
    Every function call (sin, cos, exp, pow) and every subexpression that occurs more
    than once in the field, equal by its code, is computed once per call into a local,
    so the values are those of evaluating each expression on its own.  The function is
    compiled once per generated source, which names the shape.  Each call adds itself
    and its points to field_eval_counts.
    """
    return _compile_source(_field_source(
        tuple(shape), tuple((e, tuple(tuple(slot) for slot in slots)) for e, slots in entries)))


# calls and evaluated points of every function compile_tensor returns, shared by all of them
_field_counts = [0, 0]


@functools.lru_cache(maxsize=CACHE_SIZE)
def _field_source(shape: tuple, entries: tuple) -> str:
    """The source of compile_tensor's function, once per (shape, entries) in a process; the
    parse cache makes the trees of one text the same objects, so a rebuilt chart finds it."""
    lines = ["def f(x):",
             "    x = np.asarray(x, dtype=np.float64)",
             "    counts[0] += 1",
             "    counts[1] += math.prod(x.shape[:-1])",
             f"    out = np.zeros({shape!r} + x.shape[:-1])"]
    codes: dict[int, str] = {}  # id of a node -> its code, the key of its subexpression
    uses: dict[str, int] = {}
    local: dict[str, str] = {}

    def key(e: Expr) -> str:
        if id(e) not in codes:
            codes[id(e)] = e._code_from([key(c) for c in e._children()])
        return codes[id(e)]

    def count(e: Expr) -> None:
        k = key(e)
        uses[k] = uses.get(k, 0) + 1
        if uses[k] == 1:
            for c in e._children():
                count(c)

    def emit(e: Expr) -> str:
        k = key(e)
        if k in local or not e._children():
            return local.get(k, k)
        code = e._code_from([emit(c) for c in e._children()])
        if isinstance(e, Call) or uses[k] > 1:
            local[k] = f"t{len(local)}"
            lines.append(f"    {local[k]} = {code}")
            return local[k]
        return code

    for expr, _ in entries:
        count(expr)
    for expr, slots in entries:
        lines.append(f"    v = {emit(expr)}")
        lines += [f"    out[{', '.join([str(i) for i in slot] + ['...'])}] = v"
                  for slot in slots]
    lines.append(f"    return batch_first(out, {len(shape)})")
    return "\n".join(lines)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _compile_source(source: str):
    namespace = {"np": np, "math": math, "batch_first": batch_first, "counts": _field_counts,
                 "__builtins__": {}}
    exec(source, namespace)
    return namespace["f"]


def field_eval_counts() -> tuple[int, int]:
    """Calls of compile_tensor's functions in this process, and the points they evaluated."""
    return _field_counts[0], _field_counts[1]


def compile_cache_info():
    """Hits, misses and size of the per-process cache of compiled field functions."""
    return _compile_source.cache_info()


def partial(e: Expr, axis: int) -> Expr:
    """Symbolic partial derivative with respect to x{axis+1}."""
    return e.diff(f"x{axis + 1}")
