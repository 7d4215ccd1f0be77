"""Expression-tree references the package no longer builds.

The line slices and the Hartogs probe evaluate jets along maps and partial
sums as arrays; the trees below are the independent references that tests
compare those arrays with.
"""

import numpy as np

import holonorm.expr as ex
import holonorm.series as se
from holonorm.errors import InputError


def partial_sum(F: se.PowerSeries, m: int) -> ex.HoloExpr:
    """The polynomial sum of all terms of degree at most ``m``, as an expression."""
    if not 0 <= m <= F.max_degree:
        raise InputError(f"partial-sum degree {m} outside 0..{F.max_degree}")
    node = None
    for alpha, c in sorted((alpha, c) for alpha, c in F.terms.items() if sum(alpha) <= m):
        term: ex.Node = ex.Const(c)
        for k, a in enumerate(alpha, start=1):
            if a:
                term = ex.Mul(term, ex.Var(k) if a == 1 else ex.Pow(ex.Var(k), a))
        node = term if node is None else ex.Add(node, term)
    return ex.HoloExpr(ex.Const(0j) if node is None else node, F.arity)


def restrict_function(f: ex.HoloExpr, c) -> ex.HoloExpr:
    """The one-variable slice g(lambda) = f(lambda * c), as an expression."""
    cv = np.asarray(c, dtype=complex).reshape(-1)
    if cv.shape[0] != f.arity:
        raise InputError(f"direction must have {f.arity} coordinates")
    lam = ex.var_expr(1, 1)
    return ex.substitute(f, [ex.const_expr(ck, 1) * lam for ck in cv])


def restrict_to_line(F: se.PowerSeries, c) -> np.ndarray:
    """Coefficients b_0 .. b_M of lambda -> F(lambda * c): one row of
    ``se.restrict_to_lines``, laid out densely up to max_degree."""
    dense = np.zeros(F.max_degree + 1, dtype=complex)
    dense[F.degrees] = se.restrict_to_lines(F, np.asarray(c, dtype=complex)[None])[0]
    return dense


def map_jets(f: ex.HoloExpr, phi, lam):
    """Copies of ``ex._map_jets``'s jets of f along the map phi at ``lam``,
    so they outlive the workspace's next evaluation."""
    lam = np.ascontiguousarray(ex.as_points(lam, 1)[:, 0])
    return tuple(a.copy() for a in ex._map_jets(f, phi, lam))
