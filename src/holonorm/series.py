"""Sparse multivariate power series and one-variable radius estimation.

A :class:`PowerSeries` stores finitely many coefficients c_alpha indexed by
multi-indices alpha (tuples of nonnegative integers).  Restriction to a
complex line z = lambda*c produces a one-variable series whose coefficients
are b_m = sum over |alpha| = m of c_alpha * c**alpha; the radius of
convergence of that restriction is estimated by a windowed root test.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from . import expr as ex

DEFAULT_MAX_DEGREE = 64
DEFAULT_WINDOW = 0.5

MultiIndex = tuple  # tuple of nonnegative ints; degree is sum(alpha)


def _integer(value, what: str) -> int:
    """``value`` as an int if it is an integer, not a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_alpha(alpha, arity: int) -> MultiIndex:
    t = tuple(_integer(a, "exponent") for a in alpha)
    if len(t) != arity:
        raise InputError(f"multi-index {t} has length {len(t)}, expected {arity}")
    if any(a < 0 for a in t):
        raise InputError(f"multi-index {t} has a negative exponent")
    return t


@dataclass(frozen=True)
class PowerSeries:
    """Finitely supported coefficient map for a series in ``arity`` variables.

    ``terms`` maps multi-indices to nonzero complex coefficients; zeros are
    never stored, so lacunary series cost what their support costs.
    """

    arity: int
    max_degree: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if _integer(self.arity, "arity") < 1:
            raise InputError("arity must be at least 1")
        if _integer(self.max_degree, "max_degree") < 0:
            raise InputError("max_degree must be nonnegative")
        clean = {}
        for alpha, c in self.terms.items():
            t = _check_alpha(alpha, self.arity)
            if sum(t) > self.max_degree:
                raise InputError(
                    f"term {t} exceeds max_degree {self.max_degree}"
                )
            c = complex(c)
            if not cmath.isfinite(c):
                raise InputError(f"coefficient of {t} is not finite: {c!r}")
            if c != 0:
                if t in clean:
                    raise InputError(f"duplicate multi-index {t}")
                clean[t] = c
        object.__setattr__(self, "terms", clean)

    def coefficient(self, alpha) -> complex:
        return self.terms.get(tuple(alpha), 0j)

    def __len__(self):
        return len(self.terms)


@dataclass(frozen=True)
class UniSeries:
    """Dense coefficient list b_0 .. b_M of a one-variable series."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", c)

    def __len__(self):
        return len(self.coefficients)


def partial_sum(F: PowerSeries, m: int) -> ex.HoloExpr:
    """The polynomial sum of all terms of degree at most ``m``, as an expression."""
    if not 0 <= m <= F.max_degree:
        raise InputError(f"partial-sum degree {m} outside 0..{F.max_degree}")
    picked = sorted(
        (alpha, c) for alpha, c in F.terms.items() if sum(alpha) <= m
    )
    node = None
    for alpha, c in picked:
        term: ex.Node = ex.Const(c)
        for k, a in enumerate(alpha, start=1):
            if a == 1:
                term = ex.Mul(term, ex.Var(k))
            elif a > 1:
                term = ex.Mul(term, ex.Pow(ex.Var(k), a))
        node = term if node is None else ex.Add(node, term)
    if node is None:
        node = ex.Const(0j)
    return ex.HoloExpr(node, F.arity)


def restrict_to_line(F: PowerSeries, c) -> UniSeries:
    """Coefficients of lambda -> F(lambda * c), degree by degree.

    Each coefficient is a sum over the multi-indices of its degree; a sum
    whose result sits below the rounding noise of its own terms carries no
    information and is returned as exact zero.
    """
    cv = np.asarray(c, dtype=complex)
    if cv.shape != (F.arity,):
        raise InputError(f"direction must have {F.arity} coordinates")
    b = np.zeros(F.max_degree + 1, dtype=complex)
    scale = np.zeros(F.max_degree + 1)
    counts = np.zeros(F.max_degree + 1)
    for alpha, coeff in F.terms.items():
        prod = coeff
        for ck, a in zip(cv, alpha):
            if a:
                prod *= ck ** a
        m = sum(alpha)
        b[m] += prod
        scale[m] += abs(prod)
        counts[m] += 1
    eps = np.finfo(float).eps
    noise = 8.0 * (counts + 1.0) * eps * scale
    b[np.abs(b) <= noise] = 0.0
    return UniSeries(b)


def radius_estimate(u: UniSeries, window: float = DEFAULT_WINDOW) -> float:
    """Root-test radius from the top ``window`` fraction of coefficient indices.

    Uses R = 1 / max of |b_m|**(1/m) over the windowed indices with b_m != 0,
    skipping zero coefficients so lacunary restrictions are handled.  Returns
    +inf when every windowed coefficient vanishes.
    """
    coeffs = u.coefficients
    if len(coeffs) < 4:
        raise InputError("radius estimate needs at least 4 coefficients")
    if not 0 < window <= 1:
        raise InputError("window must lie in (0, 1]")
    M = len(coeffs) - 1
    count = max(1, math.ceil(window * M))
    lo = max(1, M - count + 1)
    best = 0.0
    for m in range(lo, M + 1):
        mag = abs(coeffs[m])
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
    """
    try:
        arity = _integer(obj["arity"], "arity")
        max_degree = _integer(obj["max_degree"], "max_degree")
        raw_terms = list(obj["terms"])
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed series object: {e}") from e
    terms: dict = {}
    for t in raw_terms:
        try:
            alpha = tuple(_integer(a, "exponent") for a in t["alpha"])
            re_im = t["re"], t.get("im", 0.0)
            if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in re_im):
                raise InputError("re and im must be numbers")
            c = complex(*map(float, re_im))
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"malformed series term {t!r}: {e}") from e
        if alpha in terms:
            raise InputError(f"duplicate multi-index {list(alpha)} in series terms")
        terms[alpha] = c
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
        except json.JSONDecodeError as e:
            raise InputError(f"invalid series JSON: {e}") from e
    return series_from_dict(obj)


def geometric_series(arity: int = 1, max_degree: int = DEFAULT_MAX_DEGREE,
                     ratio: complex = 1.0) -> PowerSeries:
    """sum of ratio**k * z1**k, a convenient fixture with known radius."""
    zeros = (0,) * (arity - 1)
    terms = {(k,) + zeros: complex(ratio) ** k for k in range(max_degree + 1)}
    return PowerSeries(arity=arity, max_degree=max_degree, terms=terms)
