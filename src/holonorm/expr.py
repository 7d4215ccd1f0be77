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

import contextvars
import itertools
import math
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


def _operators(node):
    """The forward and reflected operator methods that build ``node``."""
    def forward(self, other):
        return HoloExpr(node(self.root, self._coerce(other).root), self.arity)

    def reflected(self, other):
        return HoloExpr(node(self._coerce(other).root, self.root), self.arity)

    return forward, reflected


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

    __add__, __radd__ = _operators(Add)
    __sub__, __rsub__ = _operators(Sub)
    __mul__, __rmul__ = _operators(Mul)
    __truediv__, __rtruediv__ = _operators(Div)

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

#: One token after optional whitespace.  Letters and digits are ASCII; the
#: ``bad`` alternative catches any other character (or a '.' without digits).
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | z(?P<var>[0-9]+)
  | (?P<name>[A-Za-z]+)
  | (?P<op>[-+*/^()])
  | (?P<end>\Z)
  | (?P<bad>.)
)""", re.VERBOSE | re.DOTALL)


def _uint(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond Python's limit on integer string digits
        raise ParseError("integer has too many digits", pos) from None


class _Parser:
    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self.depth = 0
        self.pos = 0  # where the next scan starts
        self.token = None  # scanned and not yet consumed

    def peek(self):
        """The next token as (kind, value, position), scanned once."""
        if self.token is None:
            m = _TOKEN_RE.match(self.text, self.pos)
            kind = m.lastgroup
            value, start = m[kind], m.start(kind)
            if kind == "var":
                value, start = _uint(value, start - 1), start - 1
            elif kind == "name":
                if value == "z":
                    raise ParseError("variable needs an index, e.g. z1", start)
                if value != "i" and value not in _CALLS:
                    raise ParseError(f"unknown name '{value}'", start)
                kind = "i" if value == "i" else "call"
            elif kind == "bad":
                raise ParseError("malformed number" if value == "." else
                                 f"unexpected character {value!r}", start)
            self.token, self.pos = (kind, value, start), m.end()
        return self.token

    def next(self):
        token = self.peek()
        self.token = None
        return token

    def _accept(self, ops: str):
        """Consume the next token and return its operator if it is one of
        ``ops``; otherwise leave it and return None."""
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            self.token = None
            return value
        return None

    def _group(self) -> Node:
        """The expression after the opening parenthesis just read, and its ')'."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", self.pos - 1)
        self.depth += 1
        node = self._expr()
        self.depth -= 1
        if not self._accept(")"):
            raise ParseError("expected ')'", self.peek()[2])
        return node

    def parse(self) -> Node:
        node = self._expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return node

    def _expr(self) -> Node:
        sign = self._accept("+-")
        node = self._term()
        if sign == "-":
            node = Sub(Const(0j), node)
        while op := self._accept("+-"):
            rhs = self._term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def _term(self) -> Node:
        node = self._factor()
        while op := self._accept("*/"):
            rhs = self._factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def _factor(self) -> Node:
        node = self._base()
        if self._accept("^"):
            kind, value, pos = self.next()
            if kind != "number" or not value.isdigit():
                raise ParseError("exponent must be a nonnegative integer", pos)
            node = Pow(node, _uint(value, pos))
        return node

    def _base(self) -> Node:
        kind, value, pos = self.next()
        if kind == "number":
            return Const(complex(float(value)))
        if kind == "i":
            return Const(1j)
        if kind == "var":
            if not 1 <= value <= self.arity:
                raise ParseError(f"variable z{value} outside declared arity {self.arity}", pos)
            return Var(value)
        if kind == "call":
            if not self._accept("("):
                raise ParseError(f"expected '(' after {value}", self.peek()[2])
            return Call(value, self._group())
        if kind == "op" and value == "(":
            return self._group()
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
# variable, for gradients (eval_jet_batch), or one for a directional
# derivative along a map (_map_jets).  A tangent column is None where the
# slot does not depend on that seed.
#
# Every operation uses the arithmetic, operand order and pole rule of the
# forward-mode jet rules it implements.  A None tangent is an exact zero, as
# in sparse forward mode: it stays None through every rule, and a term with
# a None factor is left out, so it never becomes the NaN that IEEE
# arithmetic gives v * 0 where v is not finite.  Results are bit-identical
# to a recursive evaluator that follows the same rule on full arrays, up to
# the sign of a zero.
#
# The rules write into a Workspace instead of allocating.  compile_tape gives
# each op that depends on a variable a register (a value column and one
# column per tangent) that no live slot holds: an operand's register returns
# to the pool only after the op that last reads it.  The result's register is
# the arrays the evaluation returns.  An op on 1-element operands alone still
# makes a 1-element array, because numpy's loop for one element rounds
# differently from its loop over a block.  Registers never overlap: numpy
# keeps its vector loops when an output is exactly an input, but not when
# the two overlap in part.

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


def _into(col, a, b=_ONE):
    """``col`` if ``a`` or ``b`` spans the block, else None (numpy then
    makes the 1-element result)."""
    return col if a.shape[0] > 1 or b.shape[0] > 1 else None


def _keep(t, o):
    """Tangent ``t`` passed through unchanged.  A block-wide one is copied to
    ``o``: the register it is read from may be reused while this slot lives."""
    if t is None or t.shape[0] == 1:
        return t
    np.copyto(o, t)
    return o


def _power(x, k: int, out):
    """``x ** k``, which numpy computes by np.square for k = 2."""
    return np.square(x, out=out) if k == 2 else np.power(x, k, out=out)


# Each rule gets its operands' values and tangents, the op's argument, the
# workspace, and the value column ``vo`` and tangent columns ``to`` of its
# register; ``vo`` is None for an op on constants alone.

def _add(va, ta, vb, tb, arg, ws, vo, to):
    return np.add(va, vb, out=vo), tuple(
        _keep(x, o) if y is None else _keep(y, o) if x is None
        else np.add(x, y, out=_into(o, x, y)) for x, y, o in zip(ta, tb, to))


def _sub(va, ta, vb, tb, arg, ws, vo, to):
    return np.subtract(va, vb, out=vo), tuple(
        _keep(x, o) if y is None else np.negative(y, out=_into(o, y)) if x is None
        else np.subtract(x, y, out=_into(o, x, y)) for x, y, o in zip(ta, tb, to))


def _mul(va, ta, vb, tb, arg, ws, vo, to):
    # d(ab) = a db + b da
    t = []
    for x, y, o in zip(ta, tb, to):
        if x is None:
            t.append(None if y is None else np.multiply(va, y, out=_into(o, va, y)))
        elif y is None:
            t.append(np.multiply(vb, x, out=_into(o, vb, x)))
        else:
            p = np.multiply(va, y, out=_into(o, va, y))
            q = np.multiply(vb, x, out=_into(ws.tmp, vb, x))
            t.append(np.add(p, q, out=_into(o, p, q)))
    return np.multiply(va, vb, out=vo), tuple(t)


def _div(va, ta, vb, tb, arg, ws, vo, to):
    # Denominators below POLE_THRESHOLD mark the pole mask and continue as 1;
    # d(a/b) = (da b - a db) / (b b)
    bad = np.less(np.abs(vb, out=_into(ws.mag, vb)), POLE_THRESHOLD, out=_into(ws.mask, vb))
    if bad.any():
        ws.pole |= bad
        spare = _into(ws.spare, vb)  # vb may be live: it is never written
        if spare is None:
            spare = np.empty(1, dtype=complex)
        np.copyto(spare, vb)
        np.copyto(spare, 1.0, where=bad)
        vb = spare
    t = []
    den = np.multiply(vb, vb, out=_into(vo, vb))  # vo takes the value last
    for x, y, o in zip(ta, tb, to):
        if x is None and y is None:
            t.append(None)
            continue
        if x is None:
            p = np.multiply(va, y, out=_into(o, va, y))
            p = np.negative(p, out=p)
        elif y is None:
            p = np.multiply(x, vb, out=_into(o, x, vb))
        else:
            p = np.multiply(x, vb, out=_into(o, x, vb))
            q = np.multiply(va, y, out=_into(ws.tmp, va, y))
            p = np.subtract(p, q, out=_into(o, p, q))
        t.append(np.divide(p, den, out=_into(o, p, den)))
    return np.divide(va, vb, out=vo), tuple(t)


def _pow(va, ta, vb, tb, k, ws, vo, to):
    if k == 0:
        return _ONE, (None,) * len(ta)
    # k * x ** 1 is k * x bit for bit, but for the sign of a zero
    tmp = None if vo is None else ws.tmp
    dv = np.multiply(k, va if k == 2 else _power(va, k - 1, tmp), out=tmp)
    return _power(va, k, vo), tuple(
        None if x is None else np.multiply(dv, x, out=_into(o, dv, x)) for x, o in zip(ta, to))


def _call(va, ta, vb, tb, func, ws, vo, to):
    tmp = None if vo is None else ws.tmp
    with np.errstate(over="ignore", invalid="ignore"):
        if func == "exp":
            v = dv = np.exp(va, out=vo)
        elif func == "sin":
            v = np.sin(va, out=vo)
            dv = np.cos(va, out=tmp)
        else:
            v = np.cos(va, out=vo)
            dv = np.sin(va, out=tmp)
            dv = np.negative(dv, out=dv)
        return v, tuple(
            None if x is None else np.multiply(dv, x, out=_into(o, dv, x)) for x, o in zip(ta, to))


_BINARY = {Add: _add, Sub: _sub, Mul: _mul, Div: _div}

_WORKSPACE = contextvars.ContextVar("holonorm_workspace", default=None)


class Workspace:
    """Buffers that tape evaluations write into instead of new arrays.

    An evaluation runs all its blocks through one workspace.  Evaluations
    inside ``with Workspace():`` share that one, so a scan over many lines
    maps its buffers once, and they are freed when the scan ends.  Buffers
    grow to the largest block and tape seen.  The public evaluators return
    new arrays, never workspace memory.
    """

    def __init__(self):
        self._bufs = {}

    def __enter__(self):
        self._token = _WORKSPACE.set(self)
        return self

    def __exit__(self, *exc):
        _WORKSPACE.reset(self._token)

    def take(self, name: str, shape: tuple, dtype=complex) -> np.ndarray:
        """Buffer ``name`` as an array of ``shape``, grown on demand; it
        holds what the last call for ``name`` wrote."""
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.shape[0] < size:
            buf = self._bufs[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def block(self, registers: int, ntan: int, width: int, pole) -> list:
        """The (value column, tangent columns) of each register for one block
        of ``width`` points, whose pole mask is ``pole``; the rules' scratch
        columns become attributes: ``tmp`` and ``spare`` for values, and
        ``mag`` and ``mask`` for a denominator's magnitude and small entries."""
        cols = self.take("registers", ((1 + ntan) * registers + 3, width))
        self.tmp, self.spare = cols[-3], cols[-2]
        scratch = cols[-1].view(np.float64)  # |b| and the mask share a column
        self.mag = scratch[:width]
        self.mask = scratch[width:].view(bool)[:width]
        self.pole = pole
        step = 1 + ntan
        return [(cols[r], tuple(cols[r + 1:r + step])) for r in range(0, step * registers, step)]


@dataclass(frozen=True)
class Tape:
    """An expression compiled to straight-line code over numbered slots.

    ``consts`` preloads slots with folded constants (1-element arrays) and
    ``inputs`` with variable columns, as (slot, value) and (slot, 0-based
    variable index) pairs.  Each ``code`` entry (op, out, reg, a, b, arg,
    free) fills slot ``out`` from slots ``a`` and ``b`` and then releases
    the slots in ``free``, whose last use it is.  It writes register ``reg``
    of the ``registers`` a block needs, or for ``NARROW`` a new 1-element
    array (its operands are constants alone), or for ``RESULT`` the arrays
    the evaluation returns.  ``result`` holds the value.
    """

    consts: tuple
    inputs: tuple
    code: tuple
    size: int
    result: int
    registers: int


NARROW, RESULT = -2, -1


def _fold(op, va, vb, arg):
    """The constant op(va, vb), or None if it marks a pole.  Its tangent is
    an exact zero, so an infinite or NaN constant folds too."""
    ws = Workspace()
    ws.block(0, 1, 1, np.zeros(1, dtype=bool))
    with np.errstate(all="ignore"):
        v, _ = op(va, (None,), vb, (None,), arg, ws, None, (None,))
    return None if ws.pole[0] else v


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
    # A slot spans the block if it depends on a variable (x^0 is 1).  Such an
    # op takes a register no live slot holds: its operands' registers return
    # to the pool only after it.
    narrow = set(consts)
    reg_of, pool, registers, instructions = {}, [], 0, []
    for (op, out, a, b, arg), fr in zip(code, free):
        if (a in narrow and b in narrow) or (op is _pow and arg == 0):
            narrow.add(out)
            reg = NARROW
        elif out == result:
            reg = RESULT
        elif pool:
            reg = pool.pop()
        else:
            reg, registers = registers, registers + 1
        if reg >= 0:
            reg_of[out] = reg
        pool.extend(reg_of.pop(s) for s in fr if s in reg_of)
        instructions.append((op, out, reg, a, b, arg, tuple(fr)))
    return Tape(consts=tuple((s, v) for s, v in consts.items() if s in last),
                inputs=tuple(inputs), code=tuple(instructions),
                size=next(new_slot), result=result, registers=registers)


def _run(tape: Tape, columns, seeds, ws: Workspace, vals, tangents, pole):
    """Evaluate a tape at one block of points into ``vals``, the rows of
    ``tangents`` and ``pole``.  ``columns[k]`` holds variable k's values,
    ``seeds[k]`` its tangent columns.  Rows of ``tangents`` that are not
    contiguous are copied from a workspace register at the end: numpy may
    round differently when it writes a strided output."""
    V = [None] * tape.size
    T = [None] * tape.size
    ntan = tangents.shape[0]
    zero = (None,) * ntan
    for slot, value in tape.consts:
        V[slot], T[slot] = value, zero
    for slot, k in tape.inputs:
        V[slot], T[slot] = columns[k], seeds[k]
    pole[...] = False
    final = tuple(tangents)
    rows = final if tangents.flags.c_contiguous else tuple(ws.take("result", tangents.shape))
    outs = ws.block(tape.registers, ntan, vals.shape[0], pole)
    outs += [(None, zero), (vals, rows)]  # NARROW, RESULT
    for op, out, reg, a, b, arg, free in tape.code:
        V[out], T[out] = op(V[a], T[a], V[b], T[b], arg, ws, *outs[reg])
        for slot in free:
            V[slot] = T[slot] = None
    for got, d in zip((V[tape.result], *T[tape.result]), (vals, *final)):
        if got is not d:
            d[...] = 0 if got is None else got


#: Points per evaluation block with one tangent: one default ladder line
#: (48 radii x 64 angles x 5 rungs), so each line slice is one pass over the
#: tape.  A block with ``ntan`` tangents has 2 * BLOCK // (1 + ntan) points,
#: so that its registers take the same bytes.  The rules write into the
#: workspace's columns, which a scan maps once, so a block this wide faults
#: in no fresh pages per operation.  Every operation is pointwise, so blocks
#: change no bit.
BLOCK = 15360


def _workspace() -> Workspace:
    """The workspace of the enclosing ``with Workspace():``, else a new one."""
    return _WORKSPACE.get() or Workspace()


def _evaluate(tape: Tape, m: int, ntan: int, block_inputs, ws: Workspace, out=None):
    """Run ``tape`` over m points in blocks through ``ws``; ``block_inputs(s,
    e)`` gives the variable columns and tangent seeds of points s..e-1.
    Returns (values, (m, ntan) tangents, pole mask), with NaN at poles, in
    ``out`` or in new arrays."""
    vals, tangents, pole = out or (np.empty(m, dtype=complex),
                                   np.empty((m, ntan), dtype=complex), np.empty(m, dtype=bool))
    width = 2 * BLOCK // (1 + ntan)
    for s in range(0, m, width):
        e = min(s + width, m)
        _run(tape, *block_inputs(s, e), ws, vals[s:e], tangents[s:e].T, pole[s:e])
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
    return _evaluate(f.tape, m, n, lambda s, e: (_columns(pts[s:e]), seeds), _workspace())


def eval_values(f: HoloExpr, Z) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised values: ``(values, pole_mask)`` of :func:`eval_jet_batch`."""
    vals, _, pole = eval_jet_batch(f, Z)
    return vals, pole


def line_map(c):
    """The complex line lambda -> lambda * c as a map for
    :func:`_map_jets`.  Coordinate k is c_k * lambda, with tangent
    c_k * 1, rounded as the tree of f(lambda * c) built with
    :func:`substitute` computes them.  The map writes the coordinates into
    the current workspace."""
    cv = np.asarray(c, dtype=complex).reshape(-1)
    scales = [cv[k:k + 1] for k in range(cv.shape[0])]
    tangents = [s * _ONE for s in scales]

    def phi(lam):
        out = _workspace().take("coordinates", (len(scales), len(lam)))
        # per coordinate, as the tree's c_k * z1: one broadcast product rounds apart at 1 point
        return [np.multiply(s, lam, out=o) for s, o in zip(scales, out)], tangents
    return phi


def _map_jets(f: HoloExpr, phi, lam: np.ndarray):
    """``(values, derivatives, pole_mask)`` of g(lambda) = f(phi(lambda)),
    g' = grad f(phi) . phi', at the contiguous 1-D array ``lam``, from f's
    tape with one tangent.  ``phi(lam)`` gives, per block of points, the
    coordinate columns phi_k and tangent columns phi_k' (a tangent may be a
    1-element array that broadcasts).  The jets are in the current
    workspace and hold only until it evaluates again: a scan of many lines
    or discs maps no array per map."""
    ws, m = _workspace(), lam.shape[0]
    out = ws.take("values", (m,)), ws.take("tangents", (m, 1)), ws.take("pole", (m,), bool)

    def block_inputs(s, e):
        coords, tangents = phi(lam[s:e])
        if len(coords) != f.arity:
            raise InputError(f"map must have {f.arity} coordinates")
        return coords, [(t,) for t in tangents]
    vals, deriv, pole = _evaluate(f.tape, m, 1, block_inputs, ws, out)
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
