"""Invariant metrics on the sphere, the disc, and the unit ball.

Contents: the chordal metric on the extended plane, the Poincare metric on
the unit disc, the Bergman kernel and metric of the ball, Moebius
automorphisms of disc and ball, the closed-form Kobayashi metric of the
ball, and a verified-disc upper estimator for the Kobayashi metric.

Conventions.  The Poincare tensor is 2/(1-|z|^2)^2, so for n = 1 it equals
the Bergman tensor of the unit disc exactly.  The Bergman length uses the
Hermitian pairing <v, z> = sum v_mu * conj(z_mu).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

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
    if ia:
        return 2.0 / math.sqrt(1.0 + abs(b) ** 2)
    if ib:
        return 2.0 / math.sqrt(1.0 + abs(a) ** 2)
    return 2.0 * abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


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


def _in_ball(z, arity: int, message: str):
    """(z, |z|^2) for a point z of C^arity; InputError(message) unless
    |z|^2 < 1, a test that NaN fails."""
    zz = _point(z, arity)
    s = float(np.vdot(zz, zz).real)
    if not s < 1.0:
        raise InputError(message)
    return zz, s


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


def _length_sq(zz: np.ndarray, vv: np.ndarray, d: float) -> float:
    """|v|^2/d + |<v, z>|^2/d^2: the squared Kobayashi length of v at z in
    the unit ball for d = 1 - |z|^2, and 1/(n+1) of the Bergman one."""
    if not np.isfinite(vv).all():
        raise InputError("tangent vector must be finite")
    v2 = float(np.vdot(vv, vv).real)
    pair = complex(np.sum(vv * zz.conjugate()))  # <v, z>
    return v2 / d + abs(pair) ** 2 / (d * d)


def bergman_norm_sq(B: BallDomain, z, v) -> float:
    """Closed-form squared Bergman length of tangent vector v at z."""
    zz, s = _in_ball(z, B.arity, "metric evaluation point must lie in the open ball")
    return (B.arity + 1) * _length_sq(zz, _point(v, B.arity), 1.0 - s)


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
    zz, s = _in_ball(zz, zz.size, "Kobayashi evaluation point must lie in the open ball")
    return math.sqrt(_length_sq(zz, vv, 1.0 - s))


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

    def _horner(self, lam, derivative: bool = False) -> np.ndarray:
        """Values at points lam in (n, ...) layout, by in-place Horner, of
        phi or, given ``derivative``, of phi' (coefficients j * a_j)."""
        coefficients = self.coefficients
        if derivative:
            coefficients = (np.arange(1, self.degree + 1)[:, None] * coefficients[1:]
                            if self.degree else np.zeros_like(coefficients))
        L = np.asarray(lam, dtype=complex)
        tail = (slice(None),) + (None,) * L.ndim
        out = np.empty((self.arity,) + L.shape, dtype=complex)
        out[...] = coefficients[-1][tail]
        for a in coefficients[-2::-1]:
            # numpy multiplies a one-element array in place, or by a
            # one-element array of fewer dimensions, through a scalar loop
            # that rounds differently from its vector loop
            out = out * L.reshape(out.shape) if out.size == 1 else np.multiply(out, L, out=out)
            out += a[tail]
        return out

    def __call__(self, lam) -> np.ndarray:
        """Evaluate at points lam (any shape); returns (..., n)."""
        return np.ascontiguousarray(np.moveaxis(self._horner(lam), 0, -1))

    def derivative(self, lam) -> np.ndarray:
        """phi' at points lam (any shape); returns (..., n)."""
        return np.ascontiguousarray(np.moveaxis(self._horner(lam, True), 0, -1))

    def jets(self, lam):
        """Coordinate and tangent columns phi_k(lam), phi_k'(lam): the disc
        as a map for ``ex.eval_disc_jets``."""
        return self._horner(lam), self._horner(lam, True)

    def derivative_at_zero(self) -> np.ndarray:
        if self.degree < 1:
            return np.zeros(self.arity, dtype=complex)
        return self.coefficients[1].copy()

    @cached_property
    def _ring_max(self) -> float:
        samples = max(CONTAINMENT_SAMPLES, 4 * (self.degree + 1))
        # a non-finite coefficient fails containment without a warning
        with np.errstate(all="ignore"):
            return _ring_norm_max(self._horner(_ring(samples)))

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


def _ring_norm_max(vals: np.ndarray) -> float:
    """Max image norm over the samples of (n, samples) values: faster than
    np.linalg.norm on this layout, and rounded as it is over (samples, n)
    rows, where numpy sums rows shorter than 8 left to right, longer ones
    pairwise."""
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


def require_contained(disc: DiscMap) -> DiscMap:
    if not disc.contained_in_unit_ball():
        raise ContainmentError(
            f"disc of degree {disc.degree} leaves the unit ball "
            f"(boundary max {disc.boundary_max():.6g})"
        )
    return disc


def affine_disc(z, direction, stretch: float) -> DiscMap:
    """lambda -> z + lambda * stretch * direction."""
    zz = np.asarray(z, dtype=complex).reshape(-1)
    dd = np.asarray(direction, dtype=complex).reshape(-1)
    return DiscMap(np.stack([zz, stretch * dd]))


def random_disc_maps(arity: int, count: int, degree: int, seed: int) -> list[DiscMap]:
    """Seeded polynomial discs, rescaled into the unit ball and verified."""
    if count < 1 or degree < 1:
        raise InputError("need count >= 1 and degree >= 1")
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
        disc = DiscMap(coeffs)
        b = disc.boundary_max()
        scale = (1.0 - 2.0 * CONTAINMENT_MARGIN) / max(b, 1e-12)
        if scale < 1.0:
            disc = DiscMap(coeffs * scale)
        discs.append(require_contained(disc))
    return discs


# --------------------------------------------------------------------------
# Kobayashi upper estimator
# --------------------------------------------------------------------------

def _affine_candidate(z, v_hat, v_norm):
    """(alpha, build) for the largest safe affine disc in direction v_hat,
    build() making the disc; None when no positive stretch fits, i.e. when
    |z| >= 1 - margin."""
    R = 1.0 - CONTAINMENT_MARGIN
    pair = abs(complex(np.sum(z * v_hat.conjugate())))  # |<z, v_hat>|
    s2 = R * R - float(np.vdot(z, z).real) + pair * pair
    stretch = -pair + math.sqrt(max(s2, 0.0))
    if stretch <= 0.0:
        return None
    return v_norm / stretch, partial(affine_disc, z, v_hat, stretch)


def _extremal_parameters(z, v_hat):
    """Scalar data (t, q) of the geodesic disc psi(l) = z + t v_hat l/(1 - q l)."""
    nz = float(np.linalg.norm(z))
    z_hat = z / nz
    p = complex(np.sum(v_hat * z_hat.conjugate()))  # <v_hat, z_hat>
    rho = math.sqrt(max(0.0, 1.0 - abs(p) ** 2))
    s2 = 1.0 - nz * nz
    t = s2 / math.sqrt(abs(p) ** 2 + rho * rho * s2)
    q = -t * p * nz / s2
    return t, q


def _geometric_boundary_max(z, v_hat, t, q, sigma, degrees):
    """Exact boundary maxima of degree-d truncations scaled by sigma.

    Row k is the disc z + t v_hat G(l) with
    G(l) = sum_{j=1..d} (sigma_k l)^j q^(j-1), d = degrees[k], on 512
    ring samples; the geometric form keeps the evaluation independent of d.
    Returns one maximum per row.
    """
    w = np.asarray(sigma, dtype=float)[:, None] * _ring(512)
    ratio = q * w
    # one power per row with a Python int exponent, as numpy's scalar fast
    # path for exponent 2 rounds differently from its array power
    power = np.stack([r ** int(d) for r, d in zip(ratio, degrees)])
    G = w * (1.0 - power) / (1.0 - ratio)
    nz2 = float(np.vdot(z, z).real)
    p_full = complex(np.sum(v_hat * z.conjugate()))  # <v_hat, z>
    norm2 = nz2 + (t * np.abs(G)) ** 2 + 2.0 * t * np.real(G * p_full)
    return np.sqrt(np.max(norm2, axis=1))


def _truncated_geodesic_candidate(z, v_hat, v_norm, t, q, degrees):
    """Degree-d truncations of the geodesic disc, argument-scaled to fit.

    Every degree is checked at sigma = 1 in one (degrees, samples) pass.
    Returns, for every degree, an iterator of its unchecked (alpha, build)
    tries (see ``_truncation_tries``).  A degree that fits starts at
    sigma = 1, whose alpha v_norm / t is the least any truncation has.  One
    that does not first yields the key-only entry
    (v_norm / (t * (1 - 2**-48)), None): its bisected sigma is at most
    1 - 2**-48, so the key is strictly above v_norm / t and never above its
    alpha.  When the first such entry is taken, the scales of all degrees
    that do not fit are bisected in lockstep, one (degrees, samples) pass
    per step; a degree whose scale bisects to 0 yields nothing more.
    """
    target = 1.0 - CONTAINMENT_MARGIN
    over = _geometric_boundary_max(z, v_hat, t, q, np.ones(len(degrees)), degrees) > target
    rows = np.flatnonzero(over)
    sigma = {}

    def bisected(k):
        if not sigma:
            sub = [degrees[r] for r in rows]
            lo, hi = np.zeros(rows.size), np.ones(rows.size)
            for _ in range(48):
                mid = 0.5 * (lo + hi)
                ok = _geometric_boundary_max(z, v_hat, t, q, mid, sub) <= target
                lo = np.where(ok, mid, lo)
                hi = np.where(ok, hi, mid)
            sigma.update(zip(rows.tolist(), lo.tolist()))
        return sigma[k]

    def tries(k, d):
        scale = 1.0
        if over[k]:
            yield v_norm / (t * (1.0 - 2.0 ** -48)), None
            scale = bisected(k)
            if scale <= 0.0:
                return
        yield from _truncation_tries(z, v_hat, v_norm, t, q, d, scale)

    return [tries(k, d) for k, d in enumerate(degrees)]


def _truncation_tries(z, v_hat, v_norm, t, q, d, sigma):
    """(alpha, build) for the degree-d truncation at scale sigma, then with
    sigma shrunk by 0.1% per try, 8 tries in all; alpha grows per try.
    build() makes the try's disc, so only a checked try costs one."""
    j = np.arange(1, d + 1)

    def build(sigma):
        scale = (sigma ** j) * (q ** (j - 1))
        return DiscMap(np.vstack([z, t * scale[:, None] * v_hat[None, :]]))

    for _ in range(8):
        yield v_norm / (t * sigma), partial(build, sigma)
        sigma *= 0.999


#: Placeholder for a removed search, kept as bench/tracer.py's LAYERS names it.
_quadratic_candidate = None


_GEODESIC_DEGREES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)


def _verified_min(candidates):
    """The smallest alpha whose disc passes the check, or None.

    Each candidate is an iterable of (alpha, build) tries with alpha
    nondecreasing, build() making the try's disc, and its next try is taken
    only after its previous one fails.  Tries are checked in ascending
    (alpha, candidate index) order, so the first that passes is the
    minimum, over all candidates, of the alpha of each one's first passing
    try: what checking every candidate and taking the min would give.  A
    try with build None is a key no greater than the candidate's next
    alpha; it is passed over unchecked, which leaves that order as it is,
    and only a checked try builds its disc.
    """
    tries = heapq.merge(*candidates, key=lambda t: t[0])
    return next((alpha for alpha, build in tries
                 if build is not None and build().contained_in_unit_ball()), None)


def kobayashi_upper(B: BallDomain, z, v, budget: int, seed: int = 0) -> float:
    """Upper bound on the Kobayashi metric F_K(z, v) of the unit ball.

    Minimises alpha = |v| / |phi'(0)| over analytic discs phi with
    phi(0) = z and phi'(0) a positive multiple of v: the largest safe
    affine disc in direction v, then truncations of the geodesic disc at
    the budget - 1 lowest of the 17 _GEODESIC_DEGREES (none at the origin
    or for v orthogonal to z, where the geodesic disc is affine), so
    ``budget`` caps the candidates at 1 + 17.  ``seed`` selects nothing.
    Every truncation is tried at full scale in one pass; the scales of
    those that do not fit are bisected together only if the search
    reaches one of them.  Candidates are checked in ascending alpha order
    (ties to the affine disc, then to the lower degree) until one passes
    the sampled containment check on its exact coefficients; a failing
    truncation is retried at a 0.1% smaller scale, 8 tries in all.  The
    result is the least alpha of the candidates that pass, nonincreasing
    in ``budget``; ContainmentError when none passes.  It bounds F_K only
    as far as the check goes: containment is sampled at 256 points (more
    for high degrees) of |lambda| = 1 - 1e-6, not proved on the closed
    disc, so on the ball the result can fall below the closed form by
    rounding.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    zz = _point(z, B.arity)
    vv = _point(v, B.arity)
    if not (np.isfinite(zz).all() and np.isfinite(vv).all()):
        raise InputError("base point and direction vector must be finite")
    with np.errstate(over="ignore"):
        v_norm = float(np.linalg.norm(vv))
    if not math.sqrt(np.finfo(float).tiny) <= v_norm < math.inf:
        # |v|^2 is not a normal float: scale by the largest part instead
        big = float(np.max(np.abs(np.concatenate([vv.real, vv.imag]))))
        v_norm = big * float(np.linalg.norm(vv / big)) if big > 0.0 else 0.0
    if not 0.0 < v_norm < math.inf:
        raise InputError("direction vector must be nonzero, with a finite norm")
    _, s = _in_ball(zz, B.arity, "base point must lie in the open ball")
    v_hat = vv / v_norm

    affine = _affine_candidate(zz, v_hat, v_norm)
    candidates = [] if affine is None else [[affine]]
    if s > 1e-24 and budget > 1:
        t, q = _extremal_parameters(zz, v_hat)
        if abs(q) > 1e-14:
            degrees = _GEODESIC_DEGREES[:budget - 1]
            candidates += _truncated_geodesic_candidate(zz, v_hat, v_norm, t, q, degrees)
    best = _verified_min(candidates)
    if best is None:
        raise ContainmentError("no admissible disc found within budget")
    return best
