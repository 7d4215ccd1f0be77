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
parentheses) is accepted as sugar for ``0 - term``.  Parentheses nest at most
``MAX_NESTING`` deep.

Evaluation propagates first-order jets: the value together with the complex
gradient (d/dz_1, ..., d/dz_n), or with one directional derivative along a
map of the disc.  Derivatives are therefore exact up to rounding; no numerical
differencing is involved.  Each expression is compiled once to a flat tape
(see :func:`compile_tape`), so trees of any depth evaluate.  Divisions whose
denominator has magnitude below ``POLE_THRESHOLD`` raise :class:`PoleError`
(scalar path) or set a pole mask (batch path) instead of crashing.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InputError, ParseError, PoleError

POLE_THRESHOLD = 1e-300

#: Deepest parenthesis (and call) nesting the recursive-descent parser accepts.
MAX_NESTING = 100


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

    @cached_property
    def tape(self) -> "Tape":
        """This expression compiled to straight-line code, once."""
        return compile_tape(self.root)

    @cached_property
    def inverse(self) -> "HoloExpr":
        """``reciprocal(self)``, built once so that its tape compiles once."""
        return reciprocal(self)

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
        self.depth = 0

    def _group(self, pos: int) -> Node:
        """The expression after an opening parenthesis at ``pos``, and its ')'."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
        self.depth += 1
        node = self._expr()
        self.depth -= 1
        k3, v3, p3 = self.toks.next()
        if k3 != "op" or v3 != ")":
            raise ParseError("expected ')'", p3)
        return node

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
            return Call(value, self._group(p2))
        if kind == "op" and value == "(":
            return self._group(pos)
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str, arity: int) -> HoloExpr:
    """Parse DSL text into an expression over ``arity`` variables."""
    if not isinstance(arity, int) or arity < 1:
        raise InputError("arity must be a positive integer")
    return HoloExpr(_Parser(text, arity).parse(), arity)


# --------------------------------------------------------------------------
# Compilation to a tape
# --------------------------------------------------------------------------
#
# A tape is the expression as straight-line code over numbered slots, built
# once per HoloExpr by an iterative walk, so trees of any depth evaluate.
# Repeated subexpressions share a slot, operations on constants are folded,
# and a slot is released after its last use.  Values are arrays over the
# batch of points (constants are 1-element arrays that broadcast).  Beside
# each value the tape carries a tuple of tangent columns: n of them, one per
# variable, for gradients (eval_jet_batch), one for a directional derivative
# (eval_disc_jets), none for plain values (eval_values).  A tangent column is
# None where it is identically zero, and its products are then skipped.
#
# Every operation uses the arithmetic, operand order and pole rule of the
# forward-mode jet rules it implements, so results are bit-identical to
# propagating full (m, n) gradient arrays, up to the sign of a zero.  A
# skipped zero term v * 0 still contributes what IEEE arithmetic gives it:
# NaN wherever v is not finite.

_NAN = np.array([complex(np.nan, np.nan)])
_ZERO = np.array([0j])
_ONE = np.array([1 + 0j])

_OPERANDS = {Add: ("left", "right"), Sub: ("left", "right"),
             Mul: ("left", "right"), Div: ("left", "right"),
             Pow: ("base",), Call: ("arg",)}


def _postorder(root: Node):
    """The distinct nodes under ``root``, each after its operands, left
    operands first; walked with an explicit stack."""
    done = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        operands = _OPERANDS.get(type(node), ())
        if expanded or not operands:
            if not operands and not isinstance(node, (Const, Var)):
                raise TypeError(f"unknown node {node!r}")
            done.add(id(node))
            yield node
        else:
            stack.append((node, True))
            stack.extend((getattr(node, name), False) for name in reversed(operands))


def _nonfinite(v: np.ndarray):
    """Mask of the entries of ``v`` that are not finite, or None if there are none."""
    if np.isfinite(v.view(np.float64)).all():  # both parts at once: half the work
        return None
    return ~np.isfinite(v)


def _poison(t, bad):
    """Tangent ``t`` (None: zero) plus a skipped v * 0 term, NaN where ``bad``."""
    if bad is None:
        return t
    return np.where(bad, _NAN, _ZERO if t is None else t)


def _skips(tangents) -> bool:
    return any(t is None for t in tangents)


def _add(va, ta, vb, tb, arg, pole):
    return va + vb, tuple(x if y is None else y if x is None else x + y
                          for x, y in zip(ta, tb))


def _sub(va, ta, vb, tb, arg, pole):
    return va - vb, tuple(x if y is None else -y if x is None else x - y
                          for x, y in zip(ta, tb))


def _mul(va, ta, vb, tb, arg, pole):
    # d(ab) = a db + b da
    bad_a = _nonfinite(va) if _skips(tb) else None
    bad_b = _nonfinite(vb) if _skips(ta) else None
    t = []
    for x, y in zip(ta, tb):
        if x is None:
            t.append(_poison(_poison(None, bad_a) if y is None else va * y, bad_b))
        elif y is None:
            t.append(_poison(vb * x, bad_a))
        else:
            t.append(va * y + vb * x)
    return va * vb, tuple(t)


def _div(va, ta, vb, tb, arg, pole):
    # Denominators below POLE_THRESHOLD mark the pole mask and continue as 1;
    # d(a/b) = (da b - a db) / (b b)
    bad = np.abs(vb) < POLE_THRESHOLD
    if bad.any():
        pole |= bad
        vb = np.where(bad, 1.0, vb)
    if not ta:
        return va / vb, ()
    den = vb * vb
    bad_a = _nonfinite(va) if _skips(tb) else None
    bad_b = _nonfinite(vb) if _skips(ta) else None
    t = []
    for x, y in zip(ta, tb):
        if x is None and y is None:
            q = (_ZERO * vb - va * _ZERO) / den
            t.append(None if (q == 0).all() else q)
        elif x is None:
            t.append(_poison(-(va * y) / den, bad_b))
        elif y is None:
            t.append(_poison(x * vb / den, bad_a))
        else:
            t.append((x * vb - va * y) / den)
    return va / vb, tuple(t)


def _pow(va, ta, vb, tb, k, pole):
    if k == 0:
        return _ONE, (None,) * len(ta)
    if not ta:
        return va ** k, ()
    dv = k * va ** (k - 1)
    bad = _nonfinite(dv) if _skips(ta) else None
    return va ** k, tuple(_poison(None, bad) if x is None else dv * x for x in ta)


def _call(va, ta, vb, tb, func, pole):
    with np.errstate(over="ignore", invalid="ignore"):
        if func == "exp":
            v = np.exp(va)
            dv = v
        elif func == "sin":
            v = np.sin(va)
            dv = np.cos(va) if ta else None
        else:
            v = np.cos(va)
            dv = -np.sin(va) if ta else None
        bad = _nonfinite(dv) if _skips(ta) else None
        return v, tuple(_poison(None, bad) if x is None else dv * x for x in ta)


_BINARY = {Add: _add, Sub: _sub, Mul: _mul, Div: _div}


@dataclass(frozen=True)
class Tape:
    """An expression compiled to straight-line code over numbered slots.

    ``consts`` preloads slots with folded constants (1-element arrays) and
    ``inputs`` with variable columns, as (slot, value) and (slot, 0-based
    variable index) pairs.  Each ``code`` entry (op, out, a, b, arg, free)
    fills slot ``out`` from slots ``a`` and ``b`` and then releases the
    slots in ``free``, whose last use it is.  ``result`` holds the value.
    """

    consts: tuple
    inputs: tuple
    code: tuple
    size: int
    result: int


def _fold(op, va, vb, arg):
    """The constant op(va, vb), or None if it marks a pole or its gradient
    is not exactly zero (a non-finite operand makes it NaN)."""
    pole = np.zeros(1, dtype=bool)
    with np.errstate(all="ignore"):
        v, (t,) = op(va, (None,), vb, (None,), arg, pole)
    return v if t is None and not pole[0] else None


def compile_tape(root: Node) -> Tape:
    """Compile the tree under ``root`` to a :class:`Tape`."""
    new_slot = itertools.count()
    slot_of: dict = {}   # id(node) -> slot
    keyed: dict = {}     # structural key -> slot: equal subexpressions share one
    consts: dict = {}    # slot -> constant value
    inputs = []
    code = []

    def intern(key, value=None):
        if key not in keyed:
            keyed[key] = next(new_slot)
            if value is not None:
                consts[keyed[key]] = value
        return keyed[key]

    for node in _postorder(root):
        kind = type(node)
        if kind is Const:
            value = np.array([node.value], dtype=complex)
            slot = intern(("const", value.tobytes()), value)
        elif kind is Var:
            if ("var", node.index) not in keyed:
                inputs.append((intern(("var", node.index)), node.index - 1))
            slot = keyed[("var", node.index)]
        else:
            if kind is Pow:
                op, a, b, arg = _pow, slot_of[id(node.base)], None, node.exponent
            elif kind is Call:
                op, a, b, arg = _call, slot_of[id(node.arg)], None, node.func
            else:
                op, arg = _BINARY[kind], None
                a, b = slot_of[id(node.left)], slot_of[id(node.right)]
            b = a if b is None else b
            key = (op, a, b, arg)
            if key not in keyed:
                folded = None
                if a in consts and b in consts:
                    folded = _fold(op, consts[a], consts[b], arg)
                if folded is not None:
                    keyed[key] = intern(("const", folded.tobytes()), folded)
                else:
                    code.append((op, intern(key), a, b, arg))
            slot = keyed[key]
        slot_of[id(node)] = slot

    result = slot_of[id(root)]
    last = {result: len(code)}
    for i, (_, _, a, b, _) in enumerate(code):
        last[a] = last[b] = i
    free = [[] for _ in code]
    for slot, i in last.items():
        if slot != result:
            free[i].append(slot)
    return Tape(consts=tuple((s, v) for s, v in consts.items() if s in last),
                inputs=tuple(inputs),
                code=tuple((*ins, tuple(fr)) for ins, fr in zip(code, free)),
                size=next(new_slot), result=result)


def _run(tape: Tape, columns, seeds, ntan: int, m: int):
    """Evaluate a tape at m points.  ``columns[k]`` holds variable k's values,
    ``seeds[k]`` its ``ntan`` tangent columns.  Returns (value, tangents,
    pole mask); the value and tangents may be 1-element arrays or None."""
    V = [None] * tape.size
    T = [None] * tape.size
    zero = (None,) * ntan
    for slot, value in tape.consts:
        V[slot], T[slot] = value, zero
    for slot, k in tape.inputs:
        V[slot], T[slot] = columns[k], seeds[k]
    pole = np.zeros(m, dtype=bool)
    for op, out, a, b, arg, free in tape.code:
        V[out], T[out] = op(V[a], T[a], V[b], T[b], arg, pole)
        for slot in free:
            V[slot] = T[slot] = None
    return V[tape.result], T[tape.result], pole


#: Points per evaluation block.  The allocator reuses the 64 KiB arrays of a
#: block, where the temporaries of a 15,360-point ladder grid are mapped and
#: faulted in afresh for every operation.  Every operation is pointwise, so
#: blocks change no bit.
BLOCK = 4096


def _evaluate(tape: Tape, m: int, ntan: int, block_inputs):
    """Run ``tape`` over m points in blocks; ``block_inputs(s, e)`` gives the
    variable columns and tangent seeds of points s..e-1.  Returns (values,
    (m, ntan) tangents, pole mask), with NaN at poles."""
    vals = np.empty(m, dtype=complex)
    tangents = np.empty((m, ntan), dtype=complex)
    pole = np.empty(m, dtype=bool)
    for s in range(0, m, BLOCK):
        e = min(s + BLOCK, m)
        v, t, pole[s:e] = _run(tape, *block_inputs(s, e), ntan, e - s)
        vals[s:e] = v
        for k, tk in enumerate(t):
            tangents[s:e, k] = 0 if tk is None else tk
    if pole.any():
        vals[pole] = np.nan
        tangents[pole] = np.nan
    return vals, tangents, pole


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


def _columns(pts: np.ndarray) -> list:
    return [pts[:, k].copy() for k in range(pts.shape[1])]


def eval_jet_batch(f: HoloExpr, Z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised jets.

    Returns ``(values, gradients, pole_mask)`` with shapes (m,), (m, n),
    (m,).  Entries flagged in the pole mask hold NaN.  Non-finite results
    from overflow are the caller's concern; see ``np.isfinite``.
    """
    pts = as_points(Z, f.arity)
    m, n = pts.shape
    seeds = [tuple(_ONE if j == k else None for j in range(n)) for k in range(n)]
    return _evaluate(f.tape, m, n, lambda s, e: (_columns(pts[s:e]), seeds))


def eval_values(f: HoloExpr, Z) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised values only: ``(values, pole_mask)``."""
    pts = as_points(Z, f.arity)
    m, n = pts.shape
    vals, _, pole = _evaluate(f.tape, m, 0, lambda s, e: (_columns(pts[s:e]), [()] * n))
    return vals, pole


def line_map(c):
    """The complex line lambda -> lambda * c as a map for
    :func:`eval_disc_jets`.  Coordinate k is c_k * lambda, with tangent
    c_k * 1 + lambda * 0, rounded as ``restrict_function(f, c)`` computes them."""
    cv = np.asarray(c, dtype=complex).reshape(-1)
    coords = [cv[k:k + 1] for k in range(cv.shape[0])]

    def phi(lam):
        bad = _nonfinite(lam)
        return [ck * lam for ck in coords], [_poison(ck * _ONE, bad) for ck in coords]
    return phi


def eval_disc_jets(f: HoloExpr, phi, lam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jets of f along a map of the disc: g(lambda) = f(phi(lambda)).

    ``phi(lam)`` gives, for a block of points, the coordinate columns
    phi_k(lam) and the tangent columns phi_k'(lam) (a tangent may be a
    1-element array that broadcasts).  Returns ``(values, derivatives,
    pole_mask)`` with g'(lambda) = grad f(phi(lambda)) . phi'(lambda), from
    the tape of ``f`` with a single tangent, block by block.
    """
    lam = np.ascontiguousarray(as_points(lam, 1)[:, 0])

    def block_inputs(s, e):
        coords, tangents = phi(lam[s:e])
        if len(coords) != f.arity:
            raise InputError(f"map must have {f.arity} coordinates")
        return coords, [(t,) for t in tangents]

    vals, deriv, pole = _evaluate(f.tape, lam.shape[0], 1, block_inputs)
    return vals, deriv[:, 0], pole


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

def _subst(root: Node, parts: Sequence[Node]) -> Node:
    """The tree under ``root`` with each Var(k) replaced by ``parts[k-1]``."""
    done: dict = {}
    for node in _postorder(root):
        kind = type(node)
        if kind is Var:
            new = parts[node.index - 1]
        elif kind is Const:
            new = node
        elif kind is Pow:
            new = Pow(done[id(node.base)], node.exponent)
        elif kind is Call:
            new = Call(node.func, done[id(node.arg)])
        else:
            new = kind(done[id(node.left)], done[id(node.right)])
        done[id(node)] = new
    return done[id(root)]


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
