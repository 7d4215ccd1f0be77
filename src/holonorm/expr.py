"""Expression DSL for holomorphic and meromorphic functions of several complex variables.

The surface language is plain ASCII: variables ``z1 .. zn``, decimal literals,
the imaginary unit ``i``, the operators ``+ - * /``, nonnegative integer
powers ``^k``, parentheses, and the entire functions ``exp``, ``sin``,
``cos``.  Complex constants are built by arithmetic, e.g. ``2+3*i``.

Grammar::

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := 'z' uint | number | 'i' | '(' expr ')'
            | 'exp(' expr ')' | 'sin(' expr ')' | 'cos(' expr ')'

Whitespace is insignificant.  A leading sign on an expression (and inside
parentheses) is accepted as sugar for ``0 - term``.

Evaluation propagates first-order jets: the value together with the complex
gradient (d/dz_1, ..., d/dz_n).  Derivatives are therefore exact up to
rounding; no numerical differencing is involved.  Divisions whose denominator
has magnitude below ``POLE_THRESHOLD`` raise :class:`PoleError` (scalar path)
or set a pole mask (batch path) instead of crashing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InputError, ParseError, PoleError

POLE_THRESHOLD = 1e-300


# --------------------------------------------------------------------------
# AST nodes
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Const:
    value: complex


@dataclass(frozen=True, slots=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True, slots=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True, slots=True)
class Call:
    func: str  # 'exp' | 'sin' | 'cos'
    arg: "Node"


Node = Union[Const, Var, Add, Sub, Mul, Div, Pow, Call]

_CALLS = ("exp", "sin", "cos")


@dataclass(frozen=True)
class Jet:
    """Value and complex gradient of a function at one point."""

    value: complex
    gradient: np.ndarray  # shape (arity,), complex128


@dataclass(frozen=True)
class HoloExpr:
    """An immutable expression tree over ``arity`` complex variables."""

    root: Node
    arity: int

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z) -> complex:
        return eval_value(self, z)

    def jet(self, z) -> Jet:
        return eval_jet(self, z)

    # -- algebra on expressions (used when composing maps programmatically) --

    def _coerce(self, other) -> "HoloExpr":
        if isinstance(other, HoloExpr):
            if other.arity != self.arity:
                raise InputError("arity mismatch in expression arithmetic")
            return other
        return HoloExpr(Const(complex(other)), self.arity)

    def __add__(self, other):
        o = self._coerce(other)
        return HoloExpr(Add(self.root, o.root), self.arity)

    def __radd__(self, other):
        return self._coerce(other).__add__(self)

    def __sub__(self, other):
        o = self._coerce(other)
        return HoloExpr(Sub(self.root, o.root), self.arity)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        return HoloExpr(Mul(self.root, o.root), self.arity)

    def __rmul__(self, other):
        return self._coerce(other).__mul__(self)

    def __truediv__(self, other):
        o = self._coerce(other)
        return HoloExpr(Div(self.root, o.root), self.arity)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise InputError("powers must be nonnegative integers")
        return HoloExpr(Pow(self.root, k), self.arity)

    def __neg__(self):
        return HoloExpr(Sub(Const(0j), self.root), self.arity)


def const_expr(c: complex, arity: int) -> HoloExpr:
    return HoloExpr(Const(complex(c)), arity)


def var_expr(index: int, arity: int) -> HoloExpr:
    if not 1 <= index <= arity:
        raise InputError(f"variable index {index} outside 1..{arity}")
    return HoloExpr(Var(index), arity)


def exp_of(e: HoloExpr) -> HoloExpr:
    return HoloExpr(Call("exp", e.root), e.arity)


def sin_of(e: HoloExpr) -> HoloExpr:
    return HoloExpr(Call("sin", e.root), e.arity)


def cos_of(e: HoloExpr) -> HoloExpr:
    return HoloExpr(Call("cos", e.root), e.arity)


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_UINT_RE = re.compile(r"\d+")
_NAME_RE = re.compile(r"[A-Za-z]+")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        """Return (kind, value, position) without consuming."""
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        ch = self.text[self.pos]
        start = self.pos
        if ch in "+-*/^()":
            return ("op", ch, start)
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(self.text, start)
            if not m:
                raise ParseError("malformed number", start)
            return ("number", m.group(), start)
        if ch.isalpha():
            m = _NAME_RE.match(self.text, start)
            name = m.group()
            if name == "z" or (name.startswith("z") and name[1:].isdigit()):
                um = _UINT_RE.match(self.text, start + 1)
                if not um:
                    raise ParseError("variable needs an index, e.g. z1", start)
                return ("var", int(um.group()), start)
            if name == "i":
                return ("i", None, start)
            if name in _CALLS:
                return ("call", name, start)
            raise ParseError(f"unknown name '{name}'", start)
        raise ParseError(f"unexpected character {ch!r}", start)

    def next(self):
        kind, value, start = self.peek()
        if kind == "end":
            return kind, value, start
        if kind == "number":
            self.pos = start + len(value)
        elif kind == "var":
            self.pos = start + 1
            m = _UINT_RE.match(self.text, self.pos)
            self.pos = m.end()
        elif kind == "i":
            self.pos = start + 1
        elif kind == "call":
            self.pos = start + len(value)
        else:
            self.pos = start + 1
        return kind, value, start


class _Parser:
    def __init__(self, text: str, arity: int):
        self.toks = _Tokenizer(text)
        self.arity = arity

    def parse(self) -> Node:
        node = self._expr()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return node

    def _expr(self) -> Node:
        kind, value, _ = self.toks.peek()
        if kind == "op" and value in "+-":
            self.toks.next()
            first = self._term()
            node: Node = first if value == "+" else Sub(Const(0j), first)
        else:
            node = self._term()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in "+-":
                self.toks.next()
                rhs = self._term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def _term(self) -> Node:
        node = self._factor()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in "*/":
                self.toks.next()
                rhs = self._factor()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def _factor(self) -> Node:
        node = self._base()
        kind, value, _ = self.toks.peek()
        if kind == "op" and value == "^":
            self.toks.next()
            k2, v2, p2 = self.toks.next()
            if k2 != "number" or not v2.isdigit():
                raise ParseError("exponent must be a nonnegative integer", p2)
            node = Pow(node, int(v2))
        return node

    def _base(self) -> Node:
        kind, value, pos = self.toks.next()
        if kind == "number":
            return Const(complex(float(value)))
        if kind == "i":
            return Const(1j)
        if kind == "var":
            if not 1 <= value <= self.arity:
                raise ParseError(
                    f"variable z{value} outside declared arity {self.arity}", pos
                )
            return Var(value)
        if kind == "call":
            k2, v2, p2 = self.toks.next()
            if k2 != "op" or v2 != "(":
                raise ParseError(f"expected '(' after {value}", p2)
            arg = self._expr()
            k3, v3, p3 = self.toks.next()
            if k3 != "op" or v3 != ")":
                raise ParseError("expected ')'", p3)
            return Call(value, arg)
        if kind == "op" and value == "(":
            node = self._expr()
            k3, v3, p3 = self.toks.next()
            if k3 != "op" or v3 != ")":
                raise ParseError("expected ')'", p3)
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str, arity: int) -> HoloExpr:
    """Parse DSL text into an expression over ``arity`` variables."""
    if not isinstance(arity, int) or arity < 1:
        raise InputError("arity must be a positive integer")
    return HoloExpr(_Parser(text, arity).parse(), arity)


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def as_points(z, arity: int) -> np.ndarray:
    """Normalise points to a (m, arity) complex array."""
    a = np.asarray(z, dtype=complex)
    if a.ndim == 0:
        if arity != 1:
            raise InputError("scalar point given for arity > 1")
        return a.reshape(1, 1)
    if a.ndim == 1:
        if arity == 1:
            return a.reshape(-1, 1)
        if a.shape[0] != arity:
            raise InputError(f"point has {a.shape[0]} coordinates, expected {arity}")
        return a.reshape(1, arity)
    if a.ndim == 2 and a.shape[1] == arity:
        return a
    raise InputError(f"cannot interpret array of shape {a.shape} as points in C^{arity}")


def _eval_node(node: Node, Z: np.ndarray, pole: np.ndarray, want_grad: bool):
    """Recursive jet propagation over a batch of points.

    Returns (values, gradients) where gradients is None when want_grad is
    False.  Divisions with tiny denominators mark ``pole`` and continue with
    a safe denominator; the marked entries are set to NaN afterwards.
    """
    m, n = Z.shape
    if isinstance(node, Const):
        vals = np.full(m, node.value, dtype=complex)
        grads = np.zeros((m, n), dtype=complex) if want_grad else None
        return vals, grads
    if isinstance(node, Var):
        vals = Z[:, node.index - 1].copy()
        if want_grad:
            grads = np.zeros((m, n), dtype=complex)
            grads[:, node.index - 1] = 1.0
        else:
            grads = None
        return vals, grads
    if isinstance(node, (Add, Sub)):
        v1, g1 = _eval_node(node.left, Z, pole, want_grad)
        v2, g2 = _eval_node(node.right, Z, pole, want_grad)
        if isinstance(node, Add):
            return v1 + v2, (g1 + g2 if want_grad else None)
        return v1 - v2, (g1 - g2 if want_grad else None)
    if isinstance(node, Mul):
        v1, g1 = _eval_node(node.left, Z, pole, want_grad)
        v2, g2 = _eval_node(node.right, Z, pole, want_grad)
        vals = v1 * v2
        grads = v1[:, None] * g2 + v2[:, None] * g1 if want_grad else None
        return vals, grads
    if isinstance(node, Div):
        v1, g1 = _eval_node(node.left, Z, pole, want_grad)
        v2, g2 = _eval_node(node.right, Z, pole, want_grad)
        bad = np.abs(v2) < POLE_THRESHOLD
        if bad.any():
            pole |= bad
            v2 = np.where(bad, 1.0, v2)
        vals = v1 / v2
        grads = (g1 * v2[:, None] - v1[:, None] * g2) / (v2 * v2)[:, None] if want_grad else None
        return vals, grads
    if isinstance(node, Pow):
        vb, gb = _eval_node(node.base, Z, pole, want_grad)
        k = node.exponent
        if k == 0:
            vals = np.ones(m, dtype=complex)
            grads = np.zeros((m, n), dtype=complex) if want_grad else None
            return vals, grads
        vals = vb ** k
        grads = (k * vb ** (k - 1))[:, None] * gb if want_grad else None
        return vals, grads
    if isinstance(node, Call):
        va, ga = _eval_node(node.arg, Z, pole, want_grad)
        with np.errstate(over="ignore", invalid="ignore"):
            if node.func == "exp":
                vals = np.exp(va)
                dv = vals
            elif node.func == "sin":
                vals = np.sin(va)
                dv = np.cos(va)
            else:
                vals = np.cos(va)
                dv = -np.sin(va)
            grads = dv[:, None] * ga if want_grad else None
        return vals, grads
    raise TypeError(f"unknown node {node!r}")


def eval_jet_batch(f: HoloExpr, Z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised jets.

    Returns ``(values, gradients, pole_mask)`` with shapes (m,), (m, n),
    (m,).  Entries flagged in the pole mask hold NaN.  Non-finite results
    from overflow are the caller's concern; see ``np.isfinite``.
    """
    pts = as_points(Z, f.arity)
    pole = np.zeros(pts.shape[0], dtype=bool)
    vals, grads = _eval_node(f.root, pts, pole, want_grad=True)
    if pole.any():
        vals = np.where(pole, np.nan + 0j, vals)
        grads = np.where(pole[:, None], np.nan + 0j, grads)
    return vals, grads, pole


def eval_values(f: HoloExpr, Z) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised values only: ``(values, pole_mask)``."""
    pts = as_points(Z, f.arity)
    pole = np.zeros(pts.shape[0], dtype=bool)
    vals, _ = _eval_node(f.root, pts, pole, want_grad=False)
    if pole.any():
        vals = np.where(pole, np.nan + 0j, vals)
    return vals, pole


def eval_jet(f: HoloExpr, z) -> Jet:
    """Value and exact complex gradient of ``f`` at one point.

    Raises :class:`PoleError` on a clean pole and ``ArithmeticError`` on any
    other non-finite evaluation (e.g. overflow in exp).
    """
    vals, grads, pole = eval_jet_batch(f, z)
    if vals.shape[0] != 1:
        raise InputError("eval_jet expects a single point; use eval_jet_batch")
    if pole[0]:
        raise PoleError("pole encountered during evaluation")
    if not (np.isfinite(vals[0].real) and np.isfinite(vals[0].imag)
            and np.all(np.isfinite(grads[0].view(float)))):
        raise ArithmeticError("non-finite evaluation")
    return Jet(complex(vals[0]), grads[0])


def eval_value(f: HoloExpr, z) -> complex:
    vals, pole = eval_values(f, z)
    if vals.shape[0] != 1:
        raise InputError("eval_value expects a single point")
    if pole[0]:
        raise PoleError("pole encountered during evaluation")
    v = complex(vals[0])
    if not (np.isfinite(v.real) and np.isfinite(v.imag)):
        raise ArithmeticError("non-finite evaluation")
    return v


# --------------------------------------------------------------------------
# Structural operations
# --------------------------------------------------------------------------

def _subst(node: Node, parts: Sequence[Node]) -> Node:
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return parts[node.index - 1]
    if isinstance(node, Add):
        return Add(_subst(node.left, parts), _subst(node.right, parts))
    if isinstance(node, Sub):
        return Sub(_subst(node.left, parts), _subst(node.right, parts))
    if isinstance(node, Mul):
        return Mul(_subst(node.left, parts), _subst(node.right, parts))
    if isinstance(node, Div):
        return Div(_subst(node.left, parts), _subst(node.right, parts))
    if isinstance(node, Pow):
        return Pow(_subst(node.base, parts), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, _subst(node.arg, parts))
    raise TypeError(f"unknown node {node!r}")


def substitute(f: HoloExpr, parts: Iterable[HoloExpr]) -> HoloExpr:
    """Compose ``f`` with a map given coordinatewise: z_k := parts[k-1].

    All parts must share one arity, which becomes the arity of the result.
    """
    parts = list(parts)
    if len(parts) != f.arity:
        raise InputError(f"need {f.arity} substitution parts, got {len(parts)}")
    arities = {p.arity for p in parts}
    if len(arities) != 1:
        raise InputError("substitution parts must share one arity")
    new_arity = arities.pop()
    return HoloExpr(_subst(f.root, [p.root for p in parts]), new_arity)


def reciprocal(f: HoloExpr) -> HoloExpr:
    """1/f, restructured so a top-level quotient swaps instead of nesting.

    The swap is what lets the mu certifier evaluate across a pole of a
    rational expression: 1/(p/q) becomes q/p, which is finite where p/q
    blows up.
    """
    if isinstance(f.root, Div):
        return HoloExpr(Div(f.root.right, f.root.left), f.arity)
    return HoloExpr(Div(Const(1 + 0j), f.root), f.arity)
