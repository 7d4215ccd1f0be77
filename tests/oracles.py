"""References the package no longer builds, and closed forms it never does.

The line slices and the Hartogs probe evaluate jets along maps and partial
sums as arrays; the trees below are the independent references that tests
compare those arrays with.  The analytic discs are drawn and verified per
family; the per-disc loop below is the reference for those bits.  S_K is the
ceiling that every disc-probe and line-slice sample lies under, and the
supremum over every direction that the ball ratios report; the sampled
(points x vectors) table they reported before lies under it, and the eager
reductions below rebuild their reports from it.
"""

import math

import numpy as np

import holonorm.expr as ex
import holonorm.metrics as mt
import holonorm.normality as nr
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


def ring_norm_max(vals: np.ndarray) -> float:
    """Max image norm over the samples of (n, samples) values, rounded as
    np.linalg.norm over (samples, n) rows: rows shorter than 8 summed left
    to right, longer ones pairwise."""
    sq = np.conjugate(vals)
    sq *= vals
    sq = sq.real
    if len(sq) < 8:
        total = sq[0]
        for row in sq[1:]:
            total += row
    else:
        total = np.add.reduce(np.ascontiguousarray(sq.T), axis=-1)
    return math.sqrt(np.max(total))


def ring_max(coefficients: np.ndarray) -> float:
    """A disc's max image norm over the verification ring, from in-place
    Horner on (n, samples) values started at a copy of the leading
    coefficient; inf or NaN, without a warning, for a non-finite disc."""
    lam = mt._ring(max(mt.CONTAINMENT_SAMPLES, 4 * len(coefficients)))
    out = np.empty((coefficients.shape[1], lam.size), dtype=complex)
    out[...] = coefficients[-1][:, None]
    with np.errstate(all="ignore"):
        for a in coefficients[-2::-1]:
            np.multiply(out, lam, out=out)
            out += a[:, None]
        return ring_norm_max(out)


def random_disc_maps(arity: int, count: int, degree: int, seed: int) -> list:
    """``mt.random_disc_maps`` as a per-disc loop: (coefficients, ring max)
    of each seeded disc, rescaled into the ball where its ring max asks."""
    rng = np.random.default_rng(seed)
    discs = []
    for _ in range(count):
        coeffs = np.zeros((degree + 1, arity), dtype=complex)
        raw = rng.standard_normal(2 * arity)
        center = raw[:arity] + 1j * raw[arity:]
        coeffs[0] = 0.4 * center / max(1.0, np.linalg.norm(center))
        for j in range(1, degree + 1):
            raw = rng.standard_normal(2 * arity)
            coeffs[j] = (raw[:arity] + 1j * raw[arity:]) * (0.5 / j)
        b = ring_max(coeffs)
        scale = (1.0 - 2.0 * mt.CONTAINMENT_MARGIN) / max(b, 1e-12)
        if scale < 1.0:
            coeffs = coeffs * scale
            b = ring_max(coeffs)
        discs.append((coeffs, b))
    return discs


def kobayashi_sharp_sq(f: ex.HoloExpr, Z, scale=1) -> np.ndarray:
    """S_K(z) = (1-|z|^2)(|grad f|^2 - |sum_k z_k df/dz_k|^2)/(1+|f|^2)^2 at
    each point z of the ball, divided by ``scale``: the squared sup over v of
    |grad f . v| / ((1+|f|^2) F_K(z, v)), F_K the ball's Kobayashi metric,
    rounded as the ball ratios round it (einsum row sums).  F_K decreases
    under holomorphic maps, so a disc phi into the ball has
    F_K(phi(l), phi'(l)) <= 1/(1-|l|^2), and every probe sample
    (1-|l|^2)|(f o phi)'(l)|/(1+|f|^2) is at most sqrt(S_K(phi(l)))."""
    Z = ex.as_points(Z, f.arity)
    vals, grads, _ = ex.eval_jet_batch(f, Z)
    radial = np.abs(np.einsum("ij,ij->i", grads, Z)) ** 2
    gradient = np.einsum("ij,ij->i", grads, grads.conjugate()).real
    d = 1.0 - np.einsum("ij,ij->i", Z, Z.conjugate()).real
    return (gradient - radial) * d / ((1.0 + np.abs(vals) ** 2) ** 2 * scale)


def ratio_table(f: ex.HoloExpr, Z, V, scale) -> np.ndarray:
    """The sampled (points x vectors) table levi_form(f, z, v) / (scale *
    F_K(z, v)^2) as whole-matrix products, NaN propagating: what the ball
    ratios reduced before they read S_K."""
    vals, grads, pole = ex.eval_jet_batch(f, Z)
    assert not pole.any()
    levi = np.abs(grads @ V.T) ** 2 / (1.0 + np.abs(vals) ** 2)[:, None] ** 2
    d = 1.0 - np.einsum("ij,ij->i", Z, Z.conjugate()).real
    v2 = np.einsum("ij,ij->i", V, V.conjugate()).real
    fk2 = v2[None, :] / d[:, None] + np.abs(Z.conjugate() @ V.T) ** 2 / (d ** 2)[:, None]
    return levi / (scale * fk2)


def ball_normal_ratio(f: ex.HoloExpr, Z, V) -> nr.SupEstimate:
    """``nr.ball_normal_ratio`` reduced eagerly from S_K at scale n+1: the
    first point at the max (or at the first NaN), the running max after
    each (m // 16)-th point, and points x vectors samples."""
    S = kobayashi_sharp_sq(f, Z, f.arity + 1)
    i = int(np.argmax(S))
    series, best = [], -math.inf
    for k, s in enumerate(S.tolist(), 1):
        best = max(best, s)
        series.append((float(k), best))
    step = max(1, len(series) // 16)
    return nr.SupEstimate(float(S[i]), Z[i], samples=S.size * len(V),
                          growth_series=series[step - 1::step])


def kobayashi_normality_check(f: ex.HoloExpr, z_rungs, V, ladder) -> nr.Verdict:
    """``nr.kobayashi_normality_check`` on passed rungs, reduced eagerly from
    S_K: each rung's np.max and np.argmax over its whole prefix."""
    deep = z_rungs[-1]
    S = kobayashi_sharp_sq(f, deep)
    sups, best, arg = [], -math.inf, None
    for rung in z_rungs:
        block = S[:len(rung)]
        i = int(np.argmax(block))
        if block[i] > best:
            best, arg = float(block[i]), deep[i]
        sups.append(float(np.max(block)))
    label, trend = nr.classify_trend(sups)
    est = nr.SupEstimate(max(sups), arg, samples=S.size * len(V),
                         growth_series=list(zip([float(e) for e in ladder], sups)))
    return nr.Verdict(label, est, threshold=nr.GROWTH_FACTOR, trend_ratio=trend)
