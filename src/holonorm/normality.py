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
import warnings
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


def _sphere_den(vals: np.ndarray) -> np.ndarray:
    """1 + |vals|^2, rounded as written, in one new array."""
    den = np.abs(vals)
    np.square(den, out=den)
    return np.add(1.0, den, out=den)


def _spherical(num: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The f# kernel: num / (1 + |vals|^2), written into ``num``, a float
    array the caller forms (2|f'| for mu, |grad f| for sharp, the boundary
    weight times |f'| for the disc probe)."""
    return np.divide(num, _sphere_den(vals), out=num)


def _mu_along(f: ex.HoloExpr, phi, lam) -> np.ndarray:
    """mu of f o phi at the points ``lam``, from the jets of f along the
    map phi (``ex._map_jets``), in a new array; the reciprocal 1/f is taken
    on points that are poles or evaluate non-finite (mu(f) = mu(1/f)).
    Entries that fail both routes come back NaN."""
    lam = np.ascontiguousarray(ex.as_points(lam, 1)[:, 0])
    vals, deriv, pole = ex._map_jets(f, phi, lam)
    num = np.abs(deriv)
    out = _spherical(np.multiply(2.0, num, out=num), vals)
    if not pole.any() and np.isfinite(out).all():
        return out
    bad = ~np.isfinite(out)
    bad |= pole
    rvals, rderiv, rpole = ex._map_jets(f.inverse, phi, lam[bad])
    num = np.abs(rderiv)
    rout = _spherical(np.multiply(2.0, num, out=num), rvals)
    rout[rpole] = np.nan
    out[bad] = rout
    return out


def _identity(lam):
    """The identity map of C^1 as a map for ``ex._map_jets``: tangent 1."""
    return [lam], [ex._ONE]


def mu_batch(f: ex.HoloExpr, Z) -> np.ndarray:
    """Vectorised mu with reciprocal fallback on pole-flagged points.

    Entries that fail both routes come back NaN.
    """
    if f.arity != 1:
        raise InputError("mu is defined for one-variable expressions")
    return _mu_along(f, _identity, Z)


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
    out = _spherical(np.linalg.norm(grads, axis=1), vals)
    out[pole] = np.nan
    return out


def _finite_or_raise(arr: np.ndarray, what: str):
    """arr itself when every entry is finite; else a copy with the
    non-finite entries at -inf, or ArithmeticError when over 5% are."""
    if np.isfinite(arr).all():
        return arr
    bad = ~np.isfinite(arr)
    frac = float(bad.mean())
    if frac > 0.05:
        raise ArithmeticError(f"{what}: {frac:.1%} of samples failed to evaluate")
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


def _family_sup(tables, pts, what: str) -> SupEstimate:
    if pts.shape[0] == 0:
        raise InputError(f"{what}: the point set must be nonempty")
    tables = [_finite_or_raise(q, what) for q in tables]
    (best,), arg, running = rung_sups(tables, [pts.shape[0]], pts)
    return SupEstimate(best, arg, samples=len(tables) * pts.shape[0],
                       growth_series=[(float(k), s) for k, s in enumerate(running, 1)])


def marty_sup(family, K) -> SupEstimate:
    """sup of sharp over family x grid, with prefix growth per member.

    ``K`` is an array of points (complex for arity 1, or (m, n)).  The
    growth series records the running supremum after each family member,
    which is nondecreasing by construction.
    """
    fam = _as_family(family)
    pts = ex.as_points(K, fam[0].arity)
    return _family_sup((sharp_batch(f, pts) for f in fam), pts, "marty_sup")


def mu_local_boundedness(family, K) -> SupEstimate:
    """sup of mu over family x grid (arity 1), same report shape as marty_sup."""
    fam = _as_family(family)
    if fam[0].arity != 1:
        raise InputError("mu_local_boundedness applies to one-variable families")
    pts = ex.as_points(K, 1)
    return _family_sup((mu_batch(f, pts) for f in fam), pts, "mu_local_boundedness")


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
    first ``lengths[k]`` of them, the lengths are nondecreasing, and the
    last rung covers them all.  Each member's top is its np.argmax over the
    rung: the first index at the maximum, or at the first NaN.  It is kept
    from rung to rung and read only on each rung's new annulus, which
    replaces it with a strictly larger value or a first NaN.  Each rung
    reads the top of its first member at the maximum, or NaN when a
    member's top is NaN.  The argmax point comes from the first rung at the
    largest finite sup.  Returns (sups, argmax point, running), where
    running[i] is the supremum over the first i+1 members at the last rung.
    """
    sups, best, arg = [], -math.inf, None
    js, tops, start = [0] * len(tables), [-math.inf] * len(tables), 0
    for k, m in enumerate(lengths):
        for i, q in enumerate(tables):
            if m > start or k == 0:
                j = start + int(np.argmax(q[start:m]))
                v = float(q[j])
                if v > tops[i] or (math.isnan(v) and not math.isnan(tops[i])):
                    js[i], tops[i] = j, v
        start = m
        top = math.nan if any(map(math.isnan, tops)) else max(tops)
        sups.append(top)
        if top > best:
            best, arg = top, points[js[tops.index(top)]]
    return sups, arg, list(itertools.accumulate(tops, max))


def _ladder_tables(fam, phi, grid: DiscLadder) -> list:
    """Each member's (1-|z|^2) sharp of f o phi on the ladder grid, in
    arrays of its own: half of ``_mu_along`` along the map phi
    (``_identity`` for f itself, ``ex.line_map(c)`` for the slice along c),
    non-finite samples through ``_finite_or_raise``, weighted in place.  A
    default ladder line is one block of ``ex.BLOCK`` points, so f's tape
    runs once per member and map."""
    tables = []
    for f in fam:
        t = _mu_along(f, phi, grid.points)
        t = _finite_or_raise(np.multiply(t, 0.5, out=t), "weighted ladder")
        tables.append(np.multiply(grid.weights, t, out=t))
    return tables


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
    if f.arity != 1:
        raise InputError("ladder certifiers run on one-variable expressions")
    lad = disc_ladder(ladder, radii, angles)
    sups, arg, _ = rung_sups(_ladder_tables([f], _identity, lad), lad.lengths, lad.points)
    return ladder_verdict(sups, arg, lad.points.shape[0], ladder)


#: Placeholders for removed names, kept as bench/tracer.py's LAYERS names them.
lehto_virtanen_check = weighted_sharp_sups = _levi_ratio_tables = None


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

def _ratio_inputs(f: ex.HoloExpr, Z, V: np.ndarray):
    """The checks of the ball ratios that come before f is evaluated, in
    their order: points in the open ball (d = 1 - |z|^2 > 0, which NaN
    fails), then usable direction vectors.  Z is an (m, n) array or a
    ``sp.BallLadder``, read one block at a time; a block is the tape's
    gradient width at arity n.  Returns (the blocks' slices, d)."""
    width = 2 * ex.BLOCK // (1 + f.arity)
    blocks = [slice(s, s + width) for s in range(0, len(Z), width)]
    d = np.empty(len(Z))
    for b in blocks:
        np.subtract(1.0, mt._sq_norms(Z[b]), out=d[b])
    if not blocks or not np.all(d > 0.0):
        raise InputError("z samples must be nonempty and lie in the open unit ball")
    v2 = mt._sq_norms(V)
    if V.shape[0] == 0 or not np.all(np.isfinite(v2) & (v2 > 0.0)):
        raise InputError("direction vectors must be nonzero with a finite squared norm")
    return blocks, d


def _ratio_sups(f: ex.HoloExpr, Z, V: np.ndarray, scale) -> np.ndarray:
    """S(z) = sup over every direction v of levi_form(f, z, v) / (scale *
    F_K(z, v)^2) at each point of Z, F_K the Kobayashi metric of the unit
    ball, after the ``_ratio_inputs`` checks; V selects nothing.

    With g = grad f(z), d = 1 - |z|^2 and F_K^2 = v*(I/d + zz*/d^2)v,
    Sherman-Morrison (d + |z|^2 = 1) gives the inverse d(I - zz*), so
    S = d(|g|^2 - |g.z|^2) / ((1+|f|^2)^2 scale), g.z = sum_k g_k z_k,
    attained at v = d(conj g - z conj(g.z)): the invariant gradient of Rudin
    and of Cima and Krantz.  With gamma = (n+3) 2^-53, the cancellation
    |g|^2 - |g.z|^2 >= |g|^2 d and d's rounding bound the relative error by
    about 5 gamma / d, plus a few 2^-1074 of underflow.  A NaN or infinite
    jet gives NaN.

    Each block's jets go to its S, written over its d, so the check holds 8
    bytes a point and one block.  The pole error comes after every block's
    jets and drops numpy's warnings from the S formed before it."""
    blocks, d = _ratio_inputs(f, Z, V)
    pole, held = False, set()
    with ex.Workspace(), warnings.catch_warnings(record=True) as caught:
        for b in blocks:
            z = Z[b]
            vals, grads, at_pole = ex.eval_jet_batch(f, z)
            pole = pole or bool(at_pole.any())
            if not pole:
                first = len(caught)
                s = np.einsum("ij,ij->i", grads, grads.conjugate()).real
                s -= np.square(np.abs(np.einsum("ij,ij->i", grads, z)))
                den = np.square(_sphere_den(vals))
                np.divide(s * d[b], np.multiply(den, scale, out=den), out=d[b])
                held.update(range(first, len(caught)))
    for w in (w for i, w in enumerate(caught) if not pole or i not in held):
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if pole:
        raise InputError("pole signal inside the ball; certifier input must be holomorphic")
    return d


def ball_normal_ratio(f: ex.HoloExpr, z_samples, v_samples) -> SupEstimate:
    """sup of levi_form / bergman_norm_sq over the points and every direction:
    the norm constant.

    A finite stable value certifies the Levi form is dominated by the Bergman
    metric on the sampled region, the defining estimate for ball normality.
    The Bergman length is (n+1) F_K^2, so each point reads ``_ratio_sups``
    at scale n+1.  ``samples`` counts the points x ``v_samples`` pairs, all
    covered by the closed form, and the growth series keeps the running
    supremum after every (m // 16)-th point.
    """
    Z = ex.as_points(z_samples, f.arity)
    V = ex.as_points(v_samples, f.arity)
    m = Z.shape[0]
    step = max(1, m // 16)
    counts = range(step, m + 1, step)
    top = _ratio_sups(f, Z, V, f.arity + 1)
    i = int(np.argmax(top))
    # the running max starts at -inf and skips NaN rows
    running = list(itertools.accumulate(top.tolist(), max, initial=-math.inf))
    return SupEstimate(float(top[i]), Z[i], samples=top.size * V.shape[0],
                       growth_series=[(c, running[c]) for c in counts])


def kobayashi_normality_check(f: ex.HoloExpr, z_rungs=None, v_samples=None,
                              ladder=sp.DEFAULT_LADDER, directions: int = 64,
                              radii: int = 16, v_count: int = 32,
                              seed: int = 0) -> Verdict:
    """Trend of sup levi_form / F_K^2 over every direction along an
    exhaustion of the unit ball.

    Each point reads ``_ratio_sups`` at scale 1, (n+1) times the
    Bergman-normalised ratio; ``samples`` counts the pairs of points and
    vectors (``v_samples``, or the axes and ``v_count`` seeded ones), all
    covered by the closed form.  There is one rung per ladder entry, and
    each must be a prefix of the deepest no shorter than the rung before it,
    as the cumulative rung grids are, so the ladder of suprema is
    nondecreasing; stabilization reads BOUNDED, sustained geometric growth
    reads UNBOUNDED_TREND.  Only rungs a caller passes are tested as
    prefixes: the default ones are built as such, one block at a time from
    a ``sp.BallLadder``, which also rebuilds the argmax point.
    """
    lad = sp.check_ladder(ladder)
    n = f.arity
    passed = z_rungs is not None
    if not passed:
        deep = sp.ball_ladder(n, lad, directions, radii, seed)
        lengths = deep.lengths
    if v_samples is None:
        v_samples = np.concatenate([sp.axis_directions(n),
                                    sp.unit_sphere_points(n, v_count, seed + 1)])
    if passed:
        rungs = [ex.as_points(rung, n) for rung in z_rungs]
        if len(rungs) != len(lad):
            raise InputError(f"{len(rungs)} z rungs for a ladder of {len(lad)} entries")
        deep, lengths = rungs[-1], [len(r) for r in rungs]
        # NaN points fail the open-ball test later; only they need equal_nan
        equal_nan = not np.isfinite(deep).all()
        if lengths != sorted(lengths) or not all(
                len(r) and np.array_equal(r, deep[:len(r)], equal_nan=equal_nan) for r in rungs):
            raise InputError("every z rung must be a nonempty prefix of the deepest rung, "
                             "no shorter than the rung before it")
    V = ex.as_points(v_samples, n)
    top = _ratio_sups(f, deep, V, 1)
    sups, arg, _ = rung_sups([top], lengths, deep)
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
    is exact: one tangent of f's tape along the disc (``ex._map_jets``).
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
            vals, deriv, pole = ex._map_jets(f, phi.jets, deep)
            if pole.any():
                raise InputError("pole signal under a probe disc")
            per_disc.append(_finite_or_raise(_spherical(weights * np.abs(deriv), vals),
                                             "disc probe"))
    sups, arg, _ = rung_sups(per_disc, grid.lengths, deep)
    return ladder_verdict(sups, arg, len(per_disc) * deep.shape[0], lad).estimate
