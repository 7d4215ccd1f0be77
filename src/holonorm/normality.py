"""Numerical certifiers for normal functions and normal families.

The quantities: the spherical derivative mu(f) = 2|f'|/(1+|f|^2) of a
meromorphic function of one variable, its gradient analogue
sharp(f) = |grad f|/(1+|f|^2) in several variables, and the Levi form of
log(1+|f|^2), which for holomorphic f collapses to the rank-one closed form

    L_z(v) = |sum_k df/dz_k(z) v_k|^2 / (1 + |f(z)|^2)^2.

On top of these sit supremum reducers over seeded grids (Marty-type family
bounds, boundary-weighted ladders with trend classification, invariant-orbit
constructions, and Bergman/Kobayashi normalised ratios on the ball).

Classification semantics are deliberately coarse: a ladder of suprema whose
consecutive ratios all reach the growth factor reads UNBOUNDED_TREND, one
whose last three rungs agree within the stabilization tolerance reads
BOUNDED, anything else INCONCLUSIVE.  These are numerical verdicts about
sampled data, not proofs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PoleError
from . import expr as ex
from . import metrics as mt
from . import sampling as sp

BOUNDED = "BOUNDED"
UNBOUNDED_TREND = "UNBOUNDED_TREND"
INCONCLUSIVE = "INCONCLUSIVE"

GROWTH_FACTOR = 1.5
STABILIZATION = 0.10


# --------------------------------------------------------------------------
# Report containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SupEstimate:
    """A supremum found by sampling, with the trail that produced it."""

    sup_value: float
    argmax_point: object  # complex, ndarray, or None
    samples: int
    growth_series: list = field(default_factory=list)  # [(parameter, sup)]

    def to_dict(self) -> dict:
        arg = self.argmax_point
        if arg is None:
            arg_out = None
        else:
            a = np.asarray(arg, dtype=complex).reshape(-1)
            arg_out = [{"re": float(w.real), "im": float(w.imag)} for w in a]
        return {
            "sup": self.sup_value,
            "argmax": arg_out,
            "samples": self.samples,
            "growth_series": [[float(p), float(s)] for p, s in self.growth_series],
        }


@dataclass(frozen=True)
class Verdict:
    """Trend classification of a ladder of suprema."""

    classification: str
    estimate: SupEstimate
    threshold: float
    trend_ratio: float

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "threshold": self.threshold,
            "trend_ratio": self.trend_ratio,
            "estimate": self.estimate.to_dict(),
        }


def consecutive_ratios(values) -> list[float]:
    """b / a for each consecutive pair; 0 -> 0 reads 1, a rise from 0 reads inf."""
    ratios = []
    for a, b in zip(values, values[1:]):
        if a == 0.0 and b == 0.0:
            ratios.append(1.0)
        elif a == 0.0:
            ratios.append(math.inf)
        else:
            ratios.append(b / a)
    return ratios


def classify_trend(sups) -> tuple[str, float]:
    """Classify a sequence of ladder suprema; returns (label, trend_ratio).

    trend_ratio is the smallest consecutive ratio, the binding one for an
    unbounded-growth claim.
    """
    s = [float(x) for x in sups]
    if len(s) < 2:
        return INCONCLUSIVE, 1.0
    trend = min(consecutive_ratios(s))
    if trend >= GROWTH_FACTOR:
        return UNBOUNDED_TREND, trend
    if len(s) >= 3:
        tail = s[-3:]
        hi, lo = max(tail), min(tail)
        if hi == 0.0 or (lo > 0.0 and hi / lo <= 1.0 + STABILIZATION):
            return BOUNDED, trend
    return INCONCLUSIVE, trend


# --------------------------------------------------------------------------
# Pointwise quantities
# --------------------------------------------------------------------------

def mu(f: ex.HoloExpr, z) -> float:
    """Spherical derivative 2|f'|/(1+|f|^2) of a one-variable function.

    At a clean pole the identity mu(f) = mu(1/f) supplies the value, so
    rational expressions extend continuously across their poles.
    """
    if f.arity != 1:
        raise InputError("mu is defined for one-variable expressions")
    try:
        jet = ex.eval_jet(f, z)
    except PoleError:
        jet = ex.eval_jet(f.inverse, z)
    d = abs(jet.gradient[0])
    return 2.0 * d / (1.0 + abs(jet.value) ** 2)


def _mu_values(vals: np.ndarray, deriv: np.ndarray) -> np.ndarray:
    """2|deriv|/(1+|vals|^2), rounded as written, in a new and a scratch array."""
    out = np.abs(deriv)
    np.multiply(2.0, out, out=out)
    den = np.abs(vals)
    np.square(den, out=den)
    np.add(1.0, den, out=den)
    return np.divide(out, den, out=out)


def _mu_with_fallback(jets, f: ex.HoloExpr, lam: np.ndarray) -> np.ndarray:
    """mu of f o phi at the points ``lam``, from ``jets(g, points)``, the
    values, derivatives and pole mask of g o phi; the reciprocal 1/f is taken
    on points that are poles or evaluate non-finite (mu(f) = mu(1/f)).
    Entries that fail both routes come back NaN."""
    vals, deriv, pole = jets(f, lam)
    out = _mu_values(vals, deriv)
    bad = ~np.isfinite(out)
    bad |= pole
    if bad.any():
        rvals, rderiv, rpole = jets(f.inverse, lam[bad])
        rout = _mu_values(rvals, rderiv)
        rout[rpole] = np.nan
        out[bad] = rout
    return out


def mu_batch(f: ex.HoloExpr, Z) -> np.ndarray:
    """Vectorised mu with reciprocal fallback on pole-flagged points.

    Entries that fail both routes come back NaN.
    """
    if f.arity != 1:
        raise InputError("mu is defined for one-variable expressions")
    one = np.ones(1, dtype=complex)

    def jets(g, lam):  # along the identity map of C^1
        return ex.eval_disc_jets(g, lambda z: ([z], [one]), lam)
    return _mu_with_fallback(jets, f, ex.as_points(Z, 1)[:, 0])


def line_sharp(f: ex.HoloExpr, c, lam) -> np.ndarray:
    """sharp of the slice g(lambda) = f(lambda * c) at the points ``lam``.

    The values of ``sharp_batch(restrict_function(f, c), lam)``, from the
    jets of ``f`` along ``ex.line_map(c)`` (no substituted tree), with the
    same reciprocal fallback at poles.  A default ladder line is one block
    of ``ex.BLOCK`` points, so f's tape runs once per line, and its jets stay
    in the workspace.
    """
    lam = np.ascontiguousarray(ex.as_points(lam, 1)[:, 0])
    return 0.5 * _mu_with_fallback(lambda g, z: ex._line_jets(g, c, z), f, lam)


def levi_form(f: ex.HoloExpr, z, v) -> float:
    """Levi form of log(1 + |f|^2) at z in direction v (holomorphic f).

    Rank-one closed form; only first derivatives enter.  Nonnegative, and
    scales by |t|^2 when v is scaled by t.
    """
    jet = ex.eval_jet(f, z)
    vv = np.asarray(v, dtype=complex).reshape(-1)
    if vv.shape[0] != f.arity:
        raise InputError(f"direction must have {f.arity} coordinates")
    pair = complex(np.sum(jet.gradient * vv))
    return abs(pair) ** 2 / (1.0 + abs(jet.value) ** 2) ** 2


def sharp(f: ex.HoloExpr, z) -> float:
    """Gradient spherical derivative |grad f|/(1+|f|^2).

    Equals the supremum over unit v of sqrt(levi_form(f, z, v)); for one
    variable it is mu/2 exactly.
    """
    jet = ex.eval_jet(f, z)
    return float(np.linalg.norm(jet.gradient)) / (1.0 + abs(jet.value) ** 2)


def sharp_batch(f: ex.HoloExpr, Z) -> np.ndarray:
    """Vectorised sharp; one-variable inputs get the mu pole fallback."""
    if f.arity == 1:
        return 0.5 * mu_batch(f, Z)
    vals, grads, pole = ex.eval_jet_batch(f, Z)
    out = np.linalg.norm(grads, axis=1) / (1.0 + np.abs(vals) ** 2)
    out[pole] = np.nan
    return out


def _finite_or_raise(arr: np.ndarray, what: str):
    """arr with non-finite entries at -inf; raises when over 5% are."""
    bad = ~np.isfinite(arr)
    if bad.any():
        frac = float(bad.mean())
        if frac > 0.05:
            raise ArithmeticError(
                f"{what}: {frac:.1%} of samples failed to evaluate"
            )
    return np.where(bad, -np.inf, arr)


# --------------------------------------------------------------------------
# Family suprema on fixed compacts
# --------------------------------------------------------------------------

def _as_family(family) -> list:
    fam = list(family)
    if not fam:
        raise InputError("family must be nonempty")
    arities = {f.arity for f in fam}
    if len(arities) != 1:
        raise InputError("family members must share one arity")
    return fam


def _family_sup(fam, pts, sample, what: str) -> SupEstimate:
    best, arg, series = -math.inf, None, []
    for idx, f in enumerate(fam, start=1):
        vals = _finite_or_raise(sample(f, pts), what)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            arg = pts[j]
        series.append((float(idx), best))
    return SupEstimate(best, arg, samples=len(fam) * pts.shape[0],
                       growth_series=series)


def marty_sup(family, K) -> SupEstimate:
    """sup of sharp over family x grid, with prefix growth per member.

    ``K`` is an array of points (complex for arity 1, or (m, n)).  The
    growth series records the running supremum after each family member,
    which is nondecreasing by construction.
    """
    fam = _as_family(family)
    return _family_sup(fam, ex.as_points(K, fam[0].arity), sharp_batch, "marty_sup")


def mu_local_boundedness(family, K) -> SupEstimate:
    """sup of mu over family x grid (arity 1), same report shape as marty_sup."""
    fam = _as_family(family)
    if fam[0].arity != 1:
        raise InputError("mu_local_boundedness applies to one-variable families")
    return _family_sup(fam, ex.as_points(K, 1), mu_batch, "mu_local_boundedness")


# --------------------------------------------------------------------------
# Boundary-weighted ladders on the disc
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscLadder:
    """The cumulative disc grids of a ladder (``sp.disc_ladder_grids``) as
    the deepest grid, the length of each rung's prefix of it, and the
    boundary weights 1 - |z|^2 on it."""

    points: np.ndarray
    lengths: list
    weights: np.ndarray


def disc_ladder(ladder=sp.DEFAULT_LADDER, radii: int = sp.DEFAULT_RADII,
                angles: int = sp.DEFAULT_ANGLES) -> DiscLadder:
    grids = sp.disc_ladder_grids(ladder, radii, angles)
    deep = grids[-1]
    return DiscLadder(deep, [g.shape[0] for g in grids], 1.0 - np.abs(deep) ** 2)


def rung_sups(tables, lengths, points):
    """Per-rung suprema of a family of sample tables on cumulative grids.

    ``tables`` hold each member's samples at ``points``; rung k covers the
    first ``lengths[k]`` of them.  Returns (sups, argmax point, running),
    where running[i] is the supremum over the first i+1 members at the
    deepest rung.
    """
    sups = []
    best = -math.inf
    arg = None
    for m in lengths:
        rung_best = -math.inf
        for q in tables:
            j = int(np.argmax(q[:m]))
            if q[j] > rung_best:
                rung_best = float(q[j])
                if rung_best > best:
                    best = rung_best
                    arg = points[j]
        sups.append(rung_best)
    running = list(itertools.accumulate((float(np.max(q)) for q in tables), max))
    return sups, arg, running


def weighted_sharp_sups(family, ladder=sp.DEFAULT_LADDER,
                        radii: int = sp.DEFAULT_RADII,
                        angles: int = sp.DEFAULT_ANGLES):
    """Per-rung sup of (1-|z|^2) * sharp over a family on cumulative grids.

    Returns (sups, argmax, total_samples, per_member_final) where
    per_member_final[i] is the running prefix supremum over the first i+1
    members at the deepest rung.
    """
    fam = _as_family(family)
    if fam[0].arity != 1:
        raise InputError("ladder certifiers run on one-variable expressions")
    lad = disc_ladder(ladder, radii, angles)
    tables = [lad.weights * _finite_or_raise(sharp_batch(f, lad.points), "weighted ladder")
              for f in fam]
    sups, arg, running = rung_sups(tables, lad.lengths, lad.points)
    return sups, arg, len(fam) * lad.points.shape[0], running


def ladder_verdict(sups, arg, samples: int, ladder) -> Verdict:
    """Trend verdict on a ladder of suprema, growth series keyed by eps."""
    label, trend = classify_trend(sups)
    est = SupEstimate(max(sups), arg, samples,
                      growth_series=list(zip([float(e) for e in ladder], sups)))
    return Verdict(label, est, threshold=GROWTH_FACTOR, trend_ratio=trend)


def yosida_bound(f: ex.HoloExpr, ladder=sp.DEFAULT_LADDER,
                 radii: int = sp.DEFAULT_RADII,
                 angles: int = sp.DEFAULT_ANGLES) -> Verdict:
    """Trend of sup (1-|z|^2) sharp(f) over discs |z| <= 1 - eps.

    A normal function keeps this quantity bounded as eps shrinks; steady
    geometric growth along the ladder is the numerical signature of a
    non-normal one.
    """
    sups, arg, total, _ = weighted_sharp_sups([f], ladder, radii, angles)
    return ladder_verdict(sups, arg, total, ladder)


def lehto_virtanen_check(f: ex.HoloExpr, ladder=sp.DEFAULT_LADDER,
                         radii: int = sp.DEFAULT_RADII,
                         angles: int = sp.DEFAULT_ANGLES) -> Verdict:
    """Alias of yosida_bound, no longer exported by the package.  It stays
    in this module only because bench/tracer.py wraps it by name."""
    return yosida_bound(f, ladder, radii, angles)


# --------------------------------------------------------------------------
# Chordal-versus-Poincare Lipschitz ratio
# --------------------------------------------------------------------------

def lipschitz_ratio(f: ex.HoloExpr, pair_samples: int = 2000,
                    seed: int = 0, radius: float = 0.95) -> SupEstimate:
    """sup over sampled pairs of chordal(f(a), f(b)) / poincare(a, b).

    A normal function is Lipschitz between these metrics, so the sampled
    ratio should stabilise as pairs accumulate.  Pole values map to the
    point at infinity, which the chordal metric handles.
    """
    if f.arity != 1:
        raise InputError("lipschitz_ratio applies to one-variable expressions")
    if pair_samples < 1:
        raise InputError("need at least one pair")
    a = sp.uniform_disc_points(pair_samples, radius, seed)
    b = sp.uniform_disc_points(pair_samples, radius, seed + 1)
    near = np.abs(a - b) < 1e-9
    b[near] += 1e-3
    fa, pa = ex.eval_values(f, a)
    fb, pb = ex.eval_values(f, b)
    best = -math.inf
    arg = None
    series = []
    checkpoints = {max(1, pair_samples // 8), max(1, pair_samples // 4),
                   max(1, pair_samples // 2), pair_samples}
    for i in range(pair_samples):
        va = mt.INF if (pa[i] or not np.isfinite(fa[i])) else complex(fa[i])
        vb = mt.INF if (pb[i] or not np.isfinite(fb[i])) else complex(fb[i])
        num = mt.chordal_distance(va, vb)
        den = mt.poincare_distance(a[i], b[i])
        if den <= 0:
            continue
        r = num / den
        if r > best:
            best = r
            arg = np.array([a[i], b[i]])
        if (i + 1) in checkpoints:
            series.append((float(i + 1), best))
    return SupEstimate(best, arg, samples=pair_samples, growth_series=series)


# --------------------------------------------------------------------------
# Automorphism orbits
# --------------------------------------------------------------------------

def translate_orbit(f: ex.HoloExpr, params) -> list[ex.HoloExpr]:
    """Compositions f(e^{i theta}(a - z)/(1 - conj(a) z)) for (a, theta) pairs."""
    if f.arity != 1:
        raise InputError("translate_orbit applies to one-variable expressions")
    orbit = []
    for a, theta in params:
        phi = mt.disc_automorphism(a, theta)
        orbit.append(ex.substitute(f, [phi]))
    if not orbit:
        raise InputError("parameter list must be nonempty")
    return orbit


def ball_orbit(f: ex.HoloExpr, params) -> list[ex.HoloExpr]:
    """Compositions f(phi_a(z)) over ball automorphism centers a."""
    orbit = []
    for a in params:
        phi = mt.ball_automorphism(a)
        if phi.arity != f.arity:
            raise InputError("automorphism center arity mismatch")
        orbit.append(ex.substitute(f, list(phi.components)))
    if not orbit:
        raise InputError("parameter list must be nonempty")
    return orbit


def random_disc_params(count: int, seed: int):
    if count < 1:
        raise InputError("count must be positive")
    rng = np.random.default_rng(seed)
    r = 0.9 * np.sqrt(rng.uniform(size=count))
    th = rng.uniform(0.0, 2.0 * np.pi, size=count)
    rot = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return [(complex(r[i] * np.cos(th[i]), r[i] * np.sin(th[i])), float(rot[i]))
            for i in range(count)]


def random_ball_params(arity: int, count: int, seed: int):
    return list(sp.uniform_ball_points(arity, count, 0.9, seed))


# --------------------------------------------------------------------------
# Ball ratios: Levi form against invariant metrics
# --------------------------------------------------------------------------

#: Byte budget of one complex block of the (points x vectors) ratio table
#: in ``_levi_ratio_tables``, which holds three such blocks at once.
RATIO_BLOCK_BYTES = 2 << 20


def _levi_ratio_tables(f: ex.HoloExpr, Z: np.ndarray, V: np.ndarray, scale):
    """np.max of each row of the (points x vectors) table levi_form(f, z, v)
    / (scale * F_K(z, v)^2), F_K the Kobayashi metric of the unit ball.  NaN
    propagates; np.argmax of the maxima is the row of the table's argmax.
    Jets and per-row terms are computed once, the table in reused blocks of
    RATIO_BLOCK_BYTES // (16 * vectors) rows, each entry rounded as in the
    whole table, so memory is bounded at any number of points."""
    m, k = Z.shape[0], V.shape[0]
    if m == 0 or not np.all(np.linalg.norm(Z, axis=1) < 1.0):
        raise InputError("z samples must be nonempty and lie in the open unit ball")
    v2 = np.einsum("ij,ij->i", V, V.conjugate()).real
    if k == 0 or not np.all(np.isfinite(v2) & (v2 > 0.0)):
        raise InputError("direction vectors must be nonzero with a finite squared norm")
    vals, grads, pole = ex.eval_jet_batch(f, Z)
    if pole.any():
        raise InputError("pole signal inside the ball; certifier input must be holomorphic")
    den = (1.0 + np.abs(vals) ** 2) ** 2
    d = 1.0 - np.einsum("ij,ij->i", Z, Z.conjugate()).real
    d2, Zc, VT = d ** 2, Z.conjugate(), V.T
    # no one-row block unless m == 1: numpy computes a one-row product by
    # gemv, which rounds differently from the rows of a matrix product
    rows = max(2, RATIO_BLOCK_BYTES // (16 * k))
    cap = min(m, rows + 1)
    prod, levi, fk2 = np.empty((cap, k), complex), np.empty((cap, k)), np.empty((cap, k))
    top = np.empty(m)
    for s, e in itertools.pairwise([0, *range(rows, m - 1, rows), m]):
        c, lv, fk = prod[:e - s], levi[:e - s], fk2[:e - s]
        # fk2 = scale * (v2/d + |<v, z>|^2/d^2)
        np.abs(np.matmul(Zc[s:e], VT, out=c), out=fk)
        np.square(fk, out=fk)
        np.divide(fk, d2[s:e, None], out=fk)
        np.add(np.divide(v2, d[s:e, None], out=lv), fk, out=fk)
        np.multiply(fk, scale, out=fk)
        # levi = |grad f . v|^2 / (1 + |f|^2)^2, then levi / fk2
        np.abs(np.matmul(grads[s:e], VT, out=c), out=lv)
        np.square(lv, out=lv)
        np.divide(lv, den[s:e, None], out=lv)
        np.divide(lv, fk, out=lv)
        np.max(lv, axis=1, out=top[s:e])
    return top


def ball_normal_ratio(f: ex.HoloExpr, z_samples, v_samples) -> SupEstimate:
    """sup of levi_form / bergman_norm_sq over sample pairs: the norm constant.

    A finite stable value certifies the Levi form is dominated by the Bergman
    metric on the sampled region, the defining estimate for ball normality.
    ``_levi_ratio_tables`` reduces the pairs in bounded memory (the Bergman
    length is (n+1) F_K^2); the growth series keeps every (m // 16)-th row.
    """
    Z = ex.as_points(z_samples, f.arity)
    V = ex.as_points(v_samples, f.arity)
    top = _levi_ratio_tables(f, Z, V, f.arity + 1)
    i = int(np.argmax(top))
    # (0, -inf) first, as the running max starts there and skips NaN rows
    series = list(enumerate(itertools.accumulate(top.tolist(), max, initial=-math.inf)))[1:]
    step = max(1, len(series) // 16)
    series = series[step - 1::step] if len(series) > 16 else series
    return SupEstimate(float(top[i]), Z[i], samples=top.size * V.shape[0],
                       growth_series=series)


def kobayashi_normality_check(f: ex.HoloExpr, z_rungs=None, v_samples=None,
                              ladder=sp.DEFAULT_LADDER, directions: int = 64,
                              radii: int = 16, v_count: int = 32,
                              seed: int = 0) -> Verdict:
    """Trend of sup levi_form / F_K^2 along an exhaustion of the unit ball.

    Equals (n+1) times the Bergman-normalised ratio at every sample.  There
    is one rung per ladder entry, and each must be a prefix of the deepest,
    as the cumulative rung grids are, so the ladder of suprema is
    nondecreasing and one bounded-memory pass of ``_levi_ratio_tables``
    serves them all; stabilization reads BOUNDED, sustained geometric growth
    reads UNBOUNDED_TREND.
    """
    lad = sp.check_ladder(ladder)
    n = f.arity
    if z_rungs is None:
        z_rungs = sp.ball_ladder_grids(n, lad, directions, radii, seed)
    if v_samples is None:
        v_samples = np.concatenate([sp.axis_directions(n),
                                    sp.unit_sphere_points(n, v_count, seed + 1)])
    rungs = [ex.as_points(rung, n) for rung in z_rungs]
    if len(rungs) != len(lad):
        raise InputError(f"{len(rungs)} z rungs for a ladder of {len(lad)} entries")
    deep = rungs[-1]
    if not all(len(r) and np.array_equal(r, deep[:len(r)], equal_nan=True) for r in rungs):
        raise InputError("every z rung must be a nonempty prefix of the deepest rung")
    V = ex.as_points(v_samples, n)
    top = _levi_ratio_tables(f, deep, V, 1)
    sups, best, arg = [], -math.inf, None
    for m in map(len, rungs):
        i = int(np.argmax(top[:m]))
        if top[i] > best:
            best, arg = float(top[i]), deep[i]
        sups.append(float(top[i]))
    return ladder_verdict(sups, arg, top.size * V.shape[0], lad)


# --------------------------------------------------------------------------
# Analytic-disc probe
# --------------------------------------------------------------------------

def disc_family_probe(f: ex.HoloExpr, discs=None, count: int = 200,
                      degree: int = 2, seed: int = 0,
                      ladder=sp.DEFAULT_LADDER, radii: int = 24,
                      angles: int = 32) -> SupEstimate:
    """sup over analytic discs phi of (1-|l|^2) * sharp(f o phi)(l).

    Discs are either supplied (and re-verified) or sampled with the given
    count/degree/seed.  The derivative (f o phi)'(l) = grad f(phi(l)) . phi'(l)
    is exact: one tangent of f's tape along the disc (``ex.eval_disc_jets``).
    """
    lad = sp.check_ladder(ladder)
    if discs is None:
        discs = mt.random_disc_maps(f.arity, count, degree, seed)
    else:
        discs = [mt.require_contained(d) for d in discs]
        if not discs:
            raise InputError("disc list must be nonempty")
    grid = disc_ladder(lad, radii, angles)
    deep, weights = grid.points, grid.weights
    per_disc = []
    with ex.Workspace():
        for phi in discs:
            if phi.arity != f.arity:
                raise InputError("disc arity mismatch")
            vals, deriv, pole = ex.eval_disc_jets(f, phi.jets, deep)
            if pole.any():
                raise InputError("pole signal under a probe disc")
            per_disc.append(weights * np.abs(deriv) / (1.0 + np.abs(vals) ** 2))
    sups, arg, _ = rung_sups(per_disc, grid.lengths, deep)
    best = max(sups)
    series = list(zip([float(e) for e in lad], sups))
    return SupEstimate(best, arg, samples=len(per_disc) * deep.shape[0],
                       growth_series=series)
