"""Invariant metrics on the sphere, the disc, and the unit ball.

Contents: the chordal metric on the extended plane, the Poincare metric on
the unit disc, the Bergman kernel and metric of the ball, Moebius
automorphisms of disc and ball, the closed-form Kobayashi metric of the
ball, and a proved upper bound on it from one certified geodesic disc.

Conventions.  The Poincare tensor is 2/(1-|z|^2)^2, so for n = 1 it equals
the Bergman tensor of the unit disc exactly.  The Bergman length uses the
Hermitian pairing <v, z> = sum v_mu * conj(z_mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ContainmentError, InputError
from . import expr as ex

#: Point at infinity for chordal-distance arguments.
INF = complex(math.inf, 0.0)

#: Analytic discs are verified on this many boundary samples at radius
#: CONTAINMENT_RING, with norm margin CONTAINMENT_MARGIN.
CONTAINMENT_SAMPLES = 256
CONTAINMENT_RING = 1.0 - 1e-6
CONTAINMENT_MARGIN = 1e-9
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # |v| below it is rescaled in _norm_and_pair


# --------------------------------------------------------------------------
# Chordal metric on the extended plane
# --------------------------------------------------------------------------

def _is_infinite(z: complex) -> bool:
    return math.isinf(z.real) or math.isinf(z.imag)


def chordal_distance(z1, z2) -> float:
    """Chordal distance on C union {inf}; bounded by 2."""
    a, b = complex(z1), complex(z2)
    for w in (a, b):
        if math.isnan(w.real) or math.isnan(w.imag):
            raise InputError("chordal distance is undefined for NaN input")
    ia, ib = _is_infinite(a), _is_infinite(b)
    if ia and ib:
        return 0.0
    # sqrt(1 + |w|^2) as hypot(1, |w|), which does not overflow; the halves
    # keep a - b finite, and dividing by the larger root first keeps every
    # quotient at most 1, and the result symmetric
    lo, hi = sorted((math.hypot(1.0, abs(a)), math.hypot(1.0, abs(b))))
    if ia or ib:
        return 2.0 / lo
    return 4.0 * (abs(0.5 * a - 0.5 * b) / hi) / lo


# --------------------------------------------------------------------------
# Poincare metric on the unit disc
# --------------------------------------------------------------------------

def poincare_tensor(z) -> float:
    """Metric coefficient 2/(1-|z|^2)^2 at a point of the open disc."""
    zz = complex(z)
    s = abs(zz) ** 2
    if not s < 1.0:
        raise InputError(f"point with |z| = {math.sqrt(s):.6g} is not in the open disc")
    return 2.0 / (1.0 - s) ** 2


def poincare_distance(z1, z2) -> float:
    """Geodesic distance for the 2/(1-|z|^2)^2 tensor."""
    a, b = complex(z1), complex(z2)
    if not (abs(a) < 1.0 and abs(b) < 1.0):
        raise InputError("poincare distance needs points of the open disc")
    delta = abs((a - b) / (1.0 - b.conjugate() * a))
    return math.sqrt(2.0) * math.atanh(delta)


# --------------------------------------------------------------------------
# Ball domain, Bergman kernel and metric
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BallDomain:
    """The unit ball in C^arity."""

    arity: int

    def __post_init__(self):
        if self.arity < 1:
            raise InputError("ball arity must be at least 1")


def _point(z, arity: int) -> np.ndarray:
    a = np.asarray(z, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.shape != (arity,):
        raise InputError(f"expected a point of C^{arity}, got shape {a.shape}")
    return a


def _sq_norms(Z):
    """|z|^2 of each z along the last axis of Z, as an einsum row sum: the
    one rounding of |z|^2 for the open-ball rule, for the d = 1 - |z|^2
    that the ball's formulas divide by, and for |v|^2 of direction vectors."""
    return np.einsum("...j,...j->...", Z, Z.conjugate()).real


def _in_ball(z, arity: int, message: str):
    """(z, |z|^2) for a point z of C^arity; InputError(message) unless
    |z|^2 < 1, a test that NaN fails."""
    zz = _point(z, arity)
    return zz, _sq_norm_below_one(zz, message)


def _sq_norm_below_one(zz: np.ndarray, message: str) -> float:
    """|zz|^2 of a point already made by ``_point``, under ``_in_ball``'s test."""
    s = float(_sq_norms(zz))
    if not s < 1.0:
        raise InputError(message)
    return s


def bergman_kernel_ball(B: BallDomain, z) -> float:
    """On-diagonal Bergman kernel of the unit ball, n!/pi^n (1-|z|^2)^-(n+1)."""
    _, s = _in_ball(z, B.arity, "kernel evaluation point must lie in the open ball")
    n = B.arity
    return math.factorial(n) / math.pi ** n * (1.0 - s) ** (-(n + 1))


def bergman_tensor_ball(B: BallDomain, z) -> np.ndarray:
    """Bergman metric tensor of the unit ball at z, an (n, n) complex
    Hermitian positive definite array g with squared length
    sum_{mu,nu} g_{mu nu} v_mu conj(v_nu).

    g_{mu nu} = (n+1) [ delta_{mu nu}/(1-|z|^2) + conj(z_mu) z_nu/(1-|z|^2)^2 ].
    """
    zz, s = _in_ball(z, B.arity, "metric evaluation point must lie in the open ball")
    n = B.arity
    d = 1.0 - s
    g = np.eye(n, dtype=complex) / d + np.outer(zz.conjugate(), zz) / (d * d)
    return (n + 1) * g


def _norm_and_pair(zz: np.ndarray, vv: np.ndarray) -> tuple[float, float]:
    """(|v|, |<v/|v|, z>|) of a finite v, the pairing 0 at v = 0; where |v|^2
    is not a normal float, |v| is formed from v scaled by its largest part."""
    with np.errstate(over="ignore"):
        v_norm = math.sqrt(_sq_norms(vv))
    if not _SQRT_TINY <= v_norm < math.inf:
        big = float(np.max(np.abs(np.concatenate([vv.real, vv.imag]))))
        v_norm = big * math.sqrt(_sq_norms(vv / big)) if big > 0.0 else 0.0
    e = vv / v_norm if v_norm else vv
    return v_norm, abs(complex(np.add.reduce(e * zz.conjugate())))


def _length_sq(zz: np.ndarray, vv: np.ndarray, d: float) -> tuple[float, float]:
    """(|v|, L), L = 1/d + |<v/|v|, z>|^2/d^2, d = 1 - |z|^2: the squared
    Kobayashi length of v at z in the unit ball is |v|^2 L, the Bergman one
    (n+1) |v|^2 L, and neither is formed from |v|^2 alone."""
    if not np.isfinite(vv).all():
        raise InputError("tangent vector must be finite")
    v_norm, pair = _norm_and_pair(zz, vv)
    return v_norm, 1.0 / d + pair * pair / (d * d)


def bergman_norm_sq(B: BallDomain, z, v) -> float:
    """Closed-form squared Bergman length of tangent vector v at z; +inf
    only where it exceeds the float range."""
    zz, s = _in_ball(z, B.arity, "metric evaluation point must lie in the open ball")
    v_norm, L = _length_sq(zz, _point(v, B.arity), 1.0 - s)
    return v_norm * (v_norm * ((B.arity + 1) * L))


# --------------------------------------------------------------------------
# Automorphisms
# --------------------------------------------------------------------------

def disc_automorphism(a: complex, theta: float) -> ex.HoloExpr:
    """The disc automorphism z -> e^{i theta} (a - z)/(1 - conj(a) z)."""
    aa = complex(a)
    if not abs(aa) < 1.0:
        raise InputError("automorphism parameter must satisfy |a| < 1")
    z = ex.var_expr(1, 1)
    phase = ex.const_expr(complex(math.cos(theta), math.sin(theta)), 1)
    return phase * ((ex.const_expr(aa, 1) - z) / (ex.const_expr(1.0, 1) - ex.const_expr(aa.conjugate(), 1) * z))


@dataclass(frozen=True)
class BallAutomorphism:
    """The involutive Moebius map phi_a of the unit ball with phi_a(0) = a.

    phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>), with P_a the
    projection onto span(a), Q_a = I - P_a, and s_a = sqrt(1 - |a|^2).
    Components are expression trees, so jets through the map are exact.
    """

    a: np.ndarray
    components: tuple  # of ex.HoloExpr

    @property
    def arity(self) -> int:
        return len(self.a)

    def __call__(self, z) -> np.ndarray:
        zz = _point(z, self.arity)
        return np.array([c(zz) for c in self.components])

    def jacobian(self, z) -> np.ndarray:
        """Matrix J[mu, k] = d phi_mu / d z_k, exact via jets."""
        zz = _point(z, self.arity)
        return np.array([c.jet(zz).gradient for c in self.components])

    def pushforward(self, z, v) -> np.ndarray:
        vv = _point(v, self.arity)
        return self.jacobian(z) @ vv


def ball_automorphism(a) -> BallAutomorphism:
    """Construct phi_a for a point a of the open unit ball."""
    aa, norm2 = _in_ball(a, np.size(a), "automorphism center must lie in the open ball")
    n = len(aa)
    comps = []
    if norm2 == 0.0:
        for mu in range(n):
            comps.append(-ex.var_expr(mu + 1, n))
        return BallAutomorphism(a=aa, components=tuple(comps))
    s = math.sqrt(1.0 - norm2)
    # <z, a> as an expression
    dot = None
    for k in range(n):
        piece = ex.const_expr(aa[k].conjugate(), n) * ex.var_expr(k + 1, n)
        dot = piece if dot is None else dot + piece
    den = ex.const_expr(1.0, n) - dot
    for mu in range(n):
        # numerator: a_mu - s z_mu - (1 - s) (a_mu / |a|^2) <z, a>
        num = ex.const_expr(aa[mu], n) \
            - ex.const_expr(s, n) * ex.var_expr(mu + 1, n) \
            - ex.const_expr((1.0 - s) * aa[mu] / norm2, n) * dot
        comps.append(num / den)
    return BallAutomorphism(a=aa, components=tuple(comps))


# --------------------------------------------------------------------------
# Kobayashi metric of the ball
# --------------------------------------------------------------------------

def kobayashi_closed_form_ball(z, v) -> float:
    """Infinitesimal Kobayashi metric of the unit ball.

    F_K(z, v) = sqrt( |v|^2/(1-|z|^2) + |<v, z>|^2/(1-|z|^2)^2 ),
    normalised so F_K(0, v) = |v|.
    """
    zz = np.asarray(z, dtype=complex).reshape(-1)
    vv = np.asarray(v, dtype=complex).reshape(-1)
    if zz.shape != vv.shape:
        raise InputError("point and vector must have matching arity")
    s = _sq_norm_below_one(zz, "Kobayashi evaluation point must lie in the open ball")
    v_norm, L = _length_sq(zz, vv, 1.0 - s)
    return v_norm * math.sqrt(L)


# --------------------------------------------------------------------------
# Analytic discs with verified containment
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscMap:
    """Polynomial analytic disc lambda -> sum_j a_j lambda^j into C^n.

    ``coefficients`` has shape (degree + 1, n), n >= 1, with a_0 first.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=complex)
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
            raise InputError("disc coefficients must form a (degree+1, n) array, n >= 1")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        return self.coefficients.shape[0] - 1

    @property
    def arity(self) -> int:
        return self.coefficients.shape[1]

    @cached_property
    def _tangent_coefficients(self) -> np.ndarray:
        """Coefficients j * a_j of phi', zeros for a degree-0 disc."""
        return (np.arange(1, self.degree + 1)[:, None] * self.coefficients[1:]
                if self.degree else np.zeros_like(self.coefficients))

    def _horner(self, lam, derivative: bool = False) -> np.ndarray:
        """Values at points lam in (n, ...) layout, by in-place Horner one
        coordinate row at a time, of phi or, given ``derivative``, of phi'."""
        L = np.asarray(lam, dtype=complex)
        flat, out = L.reshape(-1), np.empty((self.arity, L.size), dtype=complex)
        coefficients = self._tangent_coefficients if derivative else self.coefficients
        for row, column in zip(out, coefficients.T):
            row[...] = column[-1]
            for a in column[-2::-1]:
                # numpy multiplies a one-element array in place through a
                # scalar loop that rounds differently from its vector loop,
                # so a one-element row is multiplied from a copy
                np.multiply(row if row.size > 1 else row.copy(), flat, out=row)
                row += a
        return out.reshape((self.arity,) + L.shape)

    def __call__(self, lam) -> np.ndarray:
        """Evaluate at points lam (any shape); returns (..., n)."""
        return np.ascontiguousarray(np.moveaxis(self._horner(lam), 0, -1))

    def derivative(self, lam) -> np.ndarray:
        """phi' at points lam (any shape); returns (..., n)."""
        return np.ascontiguousarray(np.moveaxis(self._horner(lam, True), 0, -1))

    def jets(self, lam):
        """Coordinate and tangent columns phi_k(lam), phi_k'(lam): the disc
        as a map for ``ex._map_jets``."""
        return self._horner(lam), self._horner(lam, True)

    def derivative_at_zero(self) -> np.ndarray:
        if self.degree < 1:
            return np.zeros(self.arity, dtype=complex)
        return self.coefficients[1].copy()

    @cached_property
    def _ring_max(self) -> float:
        return float(_ring_maxima(self.coefficients[None])[0])

    def boundary_max(self) -> float:
        """Max image norm over the verification ring |lambda| = CONTAINMENT_RING."""
        return self._ring_max

    def contained_in_unit_ball(self) -> bool:
        return self.boundary_max() <= 1.0 - CONTAINMENT_MARGIN


@lru_cache(maxsize=64)
def _ring(samples: int) -> np.ndarray:
    """The verification ring |lambda| = CONTAINMENT_RING, read-only."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    lam = CONTAINMENT_RING * np.exp(1j * theta)
    lam.flags.writeable = False
    return lam


def _ring_maxima(stack: np.ndarray) -> np.ndarray:
    """Max image norm over the verification ring of each disc of a
    (k, degree + 1, n) coefficient stack, in one stacked Horner pass.  Each
    disc's norms round as np.linalg.norm's over its (samples, n) rows, which
    numpy sums left to right when shorter than 8, longer ones pairwise; a
    non-finite coefficient gives inf or NaN without a warning."""
    k, terms, n = stack.shape
    lam = _ring(max(CONTAINMENT_SAMPLES, 4 * terms))
    with np.errstate(all="ignore"):
        vals = np.empty((k, n, lam.size), dtype=complex)
        vals[...] = stack[:, -1, :, None]
        for j in range(terms - 2, -1, -1):
            np.multiply(vals, lam, out=vals)
            vals += stack[:, j, :, None]
        sq = np.conjugate(vals)
        sq *= vals
        sq = sq.real
        if n < 8:
            total = sq[:, 0]
            for r in range(1, n):
                total += sq[:, r]
        else:
            total = np.add.reduce(np.ascontiguousarray(sq.transpose(0, 2, 1)), axis=-1)
        return np.sqrt(np.max(total, axis=-1))


def require_contained(disc: DiscMap) -> DiscMap:
    if not disc.contained_in_unit_ball():
        raise ContainmentError(
            f"disc of degree {disc.degree} leaves the unit ball "
            f"(boundary max {disc.boundary_max():.6g})"
        )
    return disc


def random_disc_maps(arity: int, count: int, degree: int, seed: int) -> list[DiscMap]:
    """Seeded polynomial discs, rescaled into the unit ball and verified.
    One draw gives every coefficient; stacked ring passes of at most
    ex.BLOCK ring values (discs x coordinates x samples) give each disc's
    ring maximum, and one more round of them those of the rescaled discs."""
    if arity < 1 or count < 1 or degree < 1:
        raise InputError("need n >= 1, count >= 1 and degree >= 1")
    raw = np.random.default_rng(seed).standard_normal((count, degree + 1, 2 * arity))
    coeffs = raw[..., :arity] + 1j * raw[..., arity:]
    coeffs[:, 1:] *= (0.5 / np.arange(1, degree + 1))[:, None]
    for c in coeffs:
        c[0] = 0.4 * c[0] / max(1.0, np.linalg.norm(c[0]))
    step = max(1, ex.BLOCK // (arity * max(CONTAINMENT_SAMPLES, 4 * (degree + 1))))
    b = np.concatenate([_ring_maxima(coeffs[s:s + step]) for s in range(0, count, step)])
    scale = (1.0 - 2.0 * CONTAINMENT_MARGIN) / np.maximum(b, 1e-12)
    fit = np.flatnonzero(scale < 1.0)
    coeffs[fit] *= scale[fit, None, None]
    b[fit] = [m for s in range(0, len(fit), step) for m in _ring_maxima(coeffs[fit[s:s + step]])]
    discs = [DiscMap(c) for c in coeffs]
    for disc, ring_max in zip(discs, b.tolist()):
        object.__setattr__(disc, "_ring_max", ring_max)  # the cached property's value
    return [require_contained(disc) for disc in discs]


# --------------------------------------------------------------------------
# Kobayashi upper bound
# --------------------------------------------------------------------------

#: Placeholders for removed names, kept as bench/tracer.py's LAYERS names them.
_affine_candidate = _truncated_geodesic_candidate = _quadratic_candidate = affine_disc = None


def _extremal_parameters(s, pair):
    """(t, mu) of the geodesic disc psi(l) = z + t v_hat l/(1 - q l) through
    z, |z|^2 = s, in direction v_hat, pair = |<v_hat, z>|: with d = 1 - s
    and h = sqrt(pair^2 + d), t = d/h and q = -(pair/h) <v_hat, z>/pair,
    whose mu = 1 - |q| = d/(h (h + pair)) has no cancellation.  Then
    1 - |psi(l)|^2 = d (1 - |l|^2)/|1 - q l|^2; at z = 0, t = 1 and q = 0."""
    d = 1.0 - s
    h = math.sqrt(pair * pair + d)
    return d / h, d / (h * (h + pair))


def _geometric_boundary_max(s, pair, t, mu, rho):
    """max |psi(rho l)|^2 over |l| = 1, in floats, for psi(w) = z +
    t e w/(1 - q w), e = v/|v|, q = -(1 - mu) times the phase of <e, z>
    (any phase when <e, z> = 0), and s = |z|^2 and pair = |<e, z>| as
    ``kobayashi_upper`` forms them.

    On |w| = rho, u = w/(1 - q w) runs over the circle of centre
    c = rho^2 conj(q)/k and radius r = rho/k, k = 1 - rho^2 |q|^2 = a (2 - a),
    a = 1 - rho |q| = (1 - rho) + rho mu.  With p = <z, e>, |psi|^2 =
    |z|^2 - |p|^2 + |p + t u|^2 has the maximum |z|^2 - |p|^2 +
    (|p + t c| + y)^2, y = t r, and |p + t c| = |pair - x|, x = rho (1 - mu) y.

    Rounding, u = 2^-53, n coordinates, with t, mu and rho the disc's exact
    parameters.  s errs by (n+1)u (two roundings per |z_j|^2, n - 1 in the
    sum, |z|^2 < 1), and pair, from v_hat and its norm ((n+5)u per
    coordinate) and the pairing ((n+2)u), by (2n+10)u.  1 - rho and 1 - mu
    are one rounding of an exact difference and a sums nonnegative terms,
    so a errs relatively by 2u, 2 - a by 3u, k by 6u, y by 8u, x by 11u.
    A result at most 1 has pair <= 1.01, (|pair - x| + y)^2 <= 2.03,
    y <= 1.43 and x <= 2.44; so |pair - x| + y errs by (2n+52)u, its
    square by (5.8n+152)u, s - pair^2 by (5.1n+24)u, and the result by
    less than (11n+178)u, which (12n+200)u bounds with underflow included.
    """
    a = (1.0 - rho) + rho * mu
    k = a * (2.0 - a)
    y = t * rho / k
    x = rho * (1.0 - mu) * y
    return (s - pair * pair) + (abs(pair - x) + y) ** 2


def kobayashi_upper(B: BallDomain, z, v, budget: int, seed: int = 0) -> float:
    """Proved upper bound on the Kobayashi metric F_K(z, v) of the unit ball.

    F_K(z, v) = |v|/t for the geodesic disc psi of ``_extremal_parameters``
    through z in the direction of v.  For rho = 1 - 2^-40/d, d = 1 - |z|^2,
    ``_geometric_boundary_max`` proves that l -> psi(rho l) maps the closed
    disc into the ball when its maximum is at most 1 minus its rounding
    bound; the exact one is at most 1 - d (1 - rho^2)/4 <= 1 - 2^-42.  So
    F_K(z, v) <= |v|/(t rho), returned rounded upward, about 2^-40/d above
    F_K.  ContainmentError when d <= 2^-40 (rho <= 0) or the proof fails.
    ``budget`` and ``seed`` select nothing; budget < 1 is an input error.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    zz = _point(z, B.arity)
    vv = _point(v, B.arity)
    if not (np.isfinite(zz).all() and np.isfinite(vv).all()):
        raise InputError("base point and direction vector must be finite")
    v_norm, pair = _norm_and_pair(zz, vv)  # pair = |<v_hat, z>|
    if not 0.0 < v_norm < math.inf:
        raise InputError("direction vector must be nonzero, with a finite norm")
    s = _sq_norm_below_one(zz, "base point must lie in the open ball")
    t, mu = _extremal_parameters(s, pair)
    rho = 1.0 - 2.0 ** -40 / (1.0 - s)
    bound = 1.0 - (12 * B.arity + 200) * 2.0 ** -53
    if not (rho > 0.0 and _geometric_boundary_max(s, pair, t, mu, rho) <= bound):
        raise ContainmentError(f"geodesic disc not proved inside the ball (d = {1.0 - s:.3g})")
    return v_norm / (t * rho) * (1.0 + (B.arity + 8) * 2.0 ** -52)
