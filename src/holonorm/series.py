"""Sparse multivariate power series and one-variable radius estimation.

A :class:`PowerSeries` stores finitely many coefficients c_alpha indexed by
multi-indices alpha (tuples of nonnegative integers).  Restriction to a
complex line z = lambda*c produces a one-variable series whose coefficients
are b_m = P_m(c), the homogeneous part of degree m at c; array passes over
the terms evaluate every P_m at many points at once (``_part_sums``).  The
radius of convergence of a restriction is estimated by a windowed root test.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InputError

DEFAULT_MAX_DEGREE = 64
DEFAULT_WINDOW = 0.5

#: (point, term) products ``_part_sums`` holds at once (2 MB complex), and the
#: terms of one group of whole degrees (a degree with more is a group alone)
BLOCK, GROUP_TERMS = 1 << 17, 4096

_INTP_MAX = int(np.iinfo(np.intp).max)


def _integer(value, what: str, lo: int = 0, hi: int = _INTP_MAX) -> int:
    """``value`` as an int if it is an integer in lo..hi (an ``np.intp``),
    not a bool, float or string.  The exact type goes first: ABC checks are slow."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, numbers.Integral)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise InputError(f"{what} must lie in {lo}..{hi}")
    return int(value)


def _complex(*parts) -> complex:
    """complex(*parts), with a part beyond the float range read as inf."""
    try:
        return complex(*parts)
    except OverflowError:
        return complex(math.inf)


@dataclass(frozen=True)
class PowerSeries:
    """Finitely supported coefficient map for a series in ``arity`` variables.

    ``terms`` maps multi-indices to nonzero complex coefficients; zeros are
    never stored, so lacunary series cost what their support costs.  Sorted
    by (degree, multi-index), the terms are derived once as arrays:
    ``exponents`` (T, arity), ``values`` (T,), ``degrees``, the degrees that
    hold terms in ascending order, and ``offsets``, where the terms of
    degrees[i] are rows offsets[i]:offsets[i + 1].  Every per-degree array
    runs along ``degrees``, never up to max_degree.
    """

    arity: int
    max_degree: int
    terms: dict = field(default_factory=dict)
    exponents: np.ndarray = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _integer(self.arity, "arity", lo=1)
        # radius_estimate's window ends at max_degree + 1, which must be an intp
        _integer(self.max_degree, "max_degree", hi=_INTP_MAX - 1)
        clean = {}
        for alpha, c in self.terms.items():
            try:
                t = tuple([_integer(a, "exponent") for a in alpha])
            except (InputError, TypeError) as e:
                raise InputError(f"multi-index {alpha!r}: {e}") from None
            if len(t) != self.arity:
                raise InputError(f"multi-index {t} has length {len(t)}, expected {self.arity}")
            if sum(t) > self.max_degree:
                raise InputError(f"term {t} exceeds max_degree {self.max_degree}")
            c = _complex(c)
            if not cmath.isfinite(c):
                raise InputError(f"coefficient of {t} is not finite: {c!r}")
            if c != 0:
                clean[t] = c
        object.__setattr__(self, "terms", clean)
        order = sorted(clean, key=lambda t: (sum(t), t))
        E = np.array(order, dtype=np.intp).reshape(len(order), self.arity)
        object.__setattr__(self, "exponents", E)
        object.__setattr__(self, "values", np.array([clean[t] for t in order], dtype=complex))
        degrees, starts = np.unique(E.sum(1), return_index=True)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "offsets", np.append(starts, len(order)))

    def coefficient(self, alpha) -> complex:
        return self.terms.get(tuple(alpha), 0j)

    def __len__(self):
        return len(self.terms)


def _part_sums(F: PowerSeries, Z: np.ndarray, polys) -> list:
    """For each (exponent matrix, coefficient vector) in ``polys``, laid out
    like ``F.exponents`` and ``F.values``, the (len(Z), len(F.degrees))
    array whose column i sums coeff * z**alpha over the terms of degree
    degrees[i] at the rows z of Z.  Points go in row blocks, and terms in
    groups of the whole degrees that start within one GROUP_TERMS-wide run
    of rows, so about BLOCK products are held at once.  The power table runs
    to the largest exponent present.  No sum uses BLAS.
    """
    starts = F.offsets
    cuts = np.flatnonzero(np.diff(starts[:-1] // GROUP_TERMS)) + 1
    groups = [(starts[g[0]], starts[g[-1] + 1], g)
              for g in np.split(np.arange(len(F.degrees)), cuts) if g.size]
    rows = max(1, BLOCK // max((e - s for s, e, _ in groups), default=1))
    top = int(F.exponents.max(initial=0))
    outs = [np.zeros((len(Z), len(F.degrees)), dtype=np.result_type(Z, a)) for _, a in polys]
    for r in range(0, len(Z), rows):
        steps = np.repeat(Z[r:r + rows].T[:, :, None], top + 1, axis=2)
        steps[:, :, 0] = 1
        powers = np.cumprod(steps, axis=2)  # powers[k, i, j] = Z[r + i, k] ** j
        for s, e, full in groups:
            for (E, a), out in zip(polys, outs):
                # distinct C-contiguous operands of one shape: numpy's other
                # complex multiply loops (broadcast, strided) round apart
                t = np.repeat(a[None, s:e], powers.shape[1], axis=0)
                for k in range(F.arity):
                    t = t * np.take(powers[k], E[s:e, k], axis=1)
                out[r:r + rows, full] = np.add.reduceat(t, starts[full] - s, axis=1)
    return outs


def restrict_to_lines(F: PowerSeries, C) -> np.ndarray:
    """The (directions, len(F.degrees)) matrix of b_m = P_m(c) at the
    degrees m that hold terms, the coefficients of lambda -> F(lambda * c),
    for the rows c of ``C``; every other b_m is zero.  A b_m within
    8 (count_m + 1) eps sum |terms| is rounding noise: exact zero."""
    C = np.asarray(C, dtype=complex)
    if C.ndim != 2 or C.shape[1] != F.arity:
        raise InputError(f"direction must have {F.arity} coordinates")
    b, = _part_sums(F, C, [(F.exponents, F.values)])
    scale, = _part_sums(F, np.abs(C), [(F.exponents, np.abs(F.values))])
    b[np.abs(b) <= 8.0 * (np.diff(F.offsets) + 1.0) * np.finfo(float).eps * scale] = 0.0
    return b


#: Placeholders for removed names, kept as bench/tracer.py's LAYERS names them.
partial_sum = restrict_to_line = None


def partial_sum_jets(F: PowerSeries, Z) -> tuple[np.ndarray, np.ndarray]:
    """Values (D, N) and gradients (D, N, n) of the partial sums f_m at the
    D degrees m that hold terms (the sum changes at no other degree), at the
    N rows of ``Z``: cumulative sums of the homogeneous parts P_m and their
    gradients, each evaluated once (no expression tree).
    """
    E, a = F.exponents, F.values
    polys = [(E, a)] + [(np.maximum(E - np.eye(F.arity, dtype=E.dtype)[j], 0), E[:, j] * a)
                        for j in range(F.arity)]
    parts = _part_sums(F, np.asarray(Z, dtype=complex), polys)
    grads = np.cumsum(np.stack(parts[1:], axis=2), axis=1).transpose(1, 0, 2)
    return np.cumsum(parts[0], axis=1).T, grads


def radius_estimate(coefficients, degrees, max_degree: int,
                    window: float = DEFAULT_WINDOW) -> float:
    """Root-test radius of the series sum b_m lambda**m truncated at
    ``max_degree``, whose b_m are ``coefficients`` at the ascending
    ``degrees`` and zero elsewhere, from the top ``window`` fraction of the
    degrees 1 .. max_degree.

    Uses R = 1 / max of |b_m|**(1/m) over the windowed degrees with b_m != 0,
    skipping zero coefficients so lacunary restrictions are handled.  Returns
    +inf when every windowed coefficient vanishes.
    """
    if max_degree < 3:
        raise InputError("radius estimate needs at least 4 coefficients")
    if not 0 < window <= 1:
        raise InputError("window must lie in (0, 1]")
    lo = max(1, max_degree - math.ceil(window * max_degree) + 1)
    i, j = np.searchsorted(degrees, (lo, max_degree + 1))
    best = 0.0
    for m, b in zip(degrees[i:j].tolist(), coefficients[i:j]):
        mag = abs(b)
        if mag > 0:
            best = max(best, mag ** (1.0 / m))
    if best == 0.0:
        return math.inf
    return 1.0 / best


# --------------------------------------------------------------------------
# JSON interchange
# --------------------------------------------------------------------------

def series_from_dict(obj: Mapping) -> PowerSeries:
    """Build a series from the interchange dict format.

    Expected shape::

        {"arity": n, "max_degree": M,
         "terms": [{"alpha": [a1, ..., an], "re": x, "im": y}, ...]}

    This checks the keys, that ``re``/``im`` are numbers and that no
    ``alpha`` repeats; ``PowerSeries`` validates the rest.
    """
    try:
        arity, max_degree, raw_terms = obj["arity"], obj["max_degree"], list(obj["terms"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed series object: {e}") from e
    terms: dict = {}
    for t in raw_terms:
        try:
            alpha, re, im = t["alpha"], t["re"], t.get("im", 0.0)
            for x in re, im:
                if type(x) is not float and (type(x) is bool or not isinstance(x, numbers.Real)):
                    raise InputError("re and im must be numbers")
            # a JSON array keys as a tuple; PowerSeries names any other alpha as given
            key = tuple(alpha) if type(alpha) is list else alpha
            if key in terms:
                raise InputError("duplicate multi-index")
            terms[key] = _complex(re, im)
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"malformed series term {t!r}: {e}") from e
    return PowerSeries(arity=arity, max_degree=max_degree, terms=terms)


def series_to_dict(F: PowerSeries) -> dict:
    terms = [
        {"alpha": list(alpha), "re": c.real, "im": c.imag}
        for alpha, c in sorted(F.terms.items())
    ]
    return {"arity": F.arity, "max_degree": F.max_degree, "terms": terms}


def load_series(path: str) -> PowerSeries:
    """Read the JSON interchange format from ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except UnicodeDecodeError as e:
            raise InputError(f"series file is not UTF-8 text: {e}") from e
        except ValueError as e:  # a JSONDecodeError, or an integer over int()'s digit limit
            raise InputError(f"invalid series JSON: {e}") from e
    return series_from_dict(obj)


def geometric_series(arity: int = 1, max_degree: int = DEFAULT_MAX_DEGREE,
                     ratio: complex = 1.0) -> PowerSeries:
    """sum of ratio**k * z1**k, a convenient fixture with known radius."""
    zeros = (0,) * (arity - 1)
    terms = {(k,) + zeros: complex(ratio) ** k for k in range(max_degree + 1)}
    return PowerSeries(arity=arity, max_degree=max_degree, terms=terms)
