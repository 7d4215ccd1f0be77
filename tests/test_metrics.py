"""Chordal, Poincare, Bergman, Kobayashi, and the automorphism groups."""

import math
import warnings

import mpmath
import numpy as np
import pytest

import holonorm.expr as ex
import holonorm.metrics as mt
import holonorm.normality as nr
import holonorm.sampling as sp
from holonorm.errors import ContainmentError, InputError

import oracles

TRIANGLE_SLACK = 1e-12
INVARIANCE_RTOL = 1e-8
KERNEL_LAW_RTOL = 1e-9
UPPER_REL_TOL = 0.02


# ---------------------------------------------------------------- chordal

def test_chordal_zero_to_infinity():
    assert mt.chordal_distance(0j, mt.INF) == 2.0


def test_chordal_identity():
    for z in (0j, 1 + 1j, mt.INF):
        assert mt.chordal_distance(z, z) == 0.0


def test_chordal_antipodal():
    assert abs(mt.chordal_distance(1 + 0j, -1 + 0j) - 2.0) < 1e-15


def test_chordal_symmetry_and_bound():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    for a, b in zip(pts[:20], pts[20:]):
        d1, d2 = mt.chordal_distance(a, b), mt.chordal_distance(b, a)
        assert d1 == d2
        assert d1 <= 2.0 + 1e-15


def test_chordal_triangle_inequality():
    rng = np.random.default_rng(7)
    raw = 5.0 * (rng.standard_normal((10**4, 3)) + 1j * rng.standard_normal((10**4, 3)))
    for a, b, c in raw:
        ab = mt.chordal_distance(a, b)
        ac = mt.chordal_distance(a, c)
        cb = mt.chordal_distance(c, b)
        assert ab <= ac + cb + TRIANGLE_SLACK


def test_chordal_rejects_nan():
    with pytest.raises(InputError):
        mt.chordal_distance(complex("nan"), 0j)


def _mp_chordal(a, b):
    if mt._is_infinite(b):
        return 2 / mpmath.sqrt(1 + abs(a) ** 2)
    return 2 * abs(a - b) / mpmath.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


@pytest.mark.parametrize("a, b", [
    (1e200, 0), (0, 1e200), (1e200, 1e199), (1e300, 1e10j), (-1e160 + 1e160j, mt.INF),
    (1e154, -1e154), (1.5e308, -1.5e308), (1e-200, 3e-200j), (0.5, -2 + 1j), (3.0, mt.INF),
])
def test_chordal_distance_does_not_overflow(a, b):
    a, b = complex(a), complex(b)
    got = mt.chordal_distance(a, b)
    assert got == mt.chordal_distance(b, a)
    with mpmath.workdps(50):
        want = float(_mp_chordal(mpmath.mpc(a.real, a.imag), mpmath.mpc(b.real, b.imag)))
    assert abs(got - want) <= 4 * 2.0 ** -52 * want


def test_lipschitz_ratio_of_an_overflowing_chordal_argument():
    # exp(400 z) reaches 1e165 on |z| <= 0.95, where |f|^2 overflowed
    est = nr.lipschitz_ratio(ex.parse("exp(400*z1)", 1), pair_samples=200)
    a, b = est.argmax_point
    with mpmath.workdps(50):
        fa, fb = (mpmath.exp(400 * mpmath.mpc(w.real, w.imag)) for w in (a, b))
        want = float(_mp_chordal(fa, fb)) / mt.poincare_distance(a, b)
    assert abs(est.sup_value - want) <= 1e-12 * want
    assert 0.0 < est.sup_value < math.inf


# ---------------------------------------------------------------- poincare

def test_poincare_tensor_values():
    assert mt.poincare_tensor(0j) == 2.0
    assert abs(mt.poincare_tensor(1 / math.sqrt(2) + 0j) - 8.0) < 1e-12


def test_poincare_tensor_monotone_along_radius():
    vals = [mt.poincare_tensor(r + 0j) for r in (0.0, 0.5, 0.9, 0.99)]
    assert vals == sorted(vals)


def test_poincare_tensor_domain():
    with pytest.raises(InputError):
        mt.poincare_tensor(1.0 + 0j)


def test_poincare_distance_formula():
    assert mt.poincare_distance(0j, 0j) == 0.0
    expect = math.sqrt(2) * math.atanh(0.5)
    assert abs(mt.poincare_distance(0j, 0.5 + 0j) - expect) < 1e-14


def test_poincare_distance_automorphism_invariance():
    rng = np.random.default_rng(3)
    for _ in range(25):
        b = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
        theta = rng.uniform(0, 2 * math.pi)
        phi = mt.disc_automorphism(b, theta)
        z1 = 0.6 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
        z2 = 0.6 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
        d0 = mt.poincare_distance(z1, z2)
        d1 = mt.poincare_distance(phi(z1), phi(z2))
        assert abs(d1 - d0) <= 1e-10 * max(1.0, d0)


# ---------------------------------------------------------------- bergman

def test_bergman_kernel_values():
    B1 = mt.BallDomain(1)
    B2 = mt.BallDomain(2)
    assert abs(mt.bergman_kernel_ball(B1, [0j]) - 1 / math.pi) < 1e-15
    assert abs(mt.bergman_kernel_ball(B2, [0j, 0j]) - 2 / math.pi**2) < 1e-16


def test_bergman_kernel_weighted_constant_n1():
    B1 = mt.BallDomain(1)
    base = mt.bergman_kernel_ball(B1, [0j]) * 1.0
    for z in (0.3 + 0j, 0.1 - 0.6j, 0.85j):
        k = mt.bergman_kernel_ball(B1, [z])
        w = (1 - abs(z) ** 2) ** 2
        assert abs(k * w - base) < 1e-12


def test_bergman_kernel_domain_checks():
    B = mt.BallDomain(2)
    with pytest.raises(InputError):
        mt.bergman_kernel_ball(B, [1.0 + 0j, 0j])


def test_bergman_tensor_identity_at_origin():
    B = mt.BallDomain(2)
    g = mt.bergman_tensor_ball(B, [0j, 0j])
    assert np.allclose(g, 3.0 * np.eye(2), atol=1e-15)


def test_bergman_tensor_hermitian_positive():
    B = mt.BallDomain(3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = sp.uniform_ball_points(3, 1, 0.95, int(rng.integers(10**6)))[0]
        g = mt.bergman_tensor_ball(B, z)
        assert np.allclose(g, g.conj().T, atol=1e-12)
        eig = np.linalg.eigvalsh(g)
        assert np.all(eig > 0)


def test_bergman_norm_matches_tensor_contraction():
    B = mt.BallDomain(2)
    rng = np.random.default_rng(12)
    for _ in range(30):
        z = sp.uniform_ball_points(2, 1, 0.9, int(rng.integers(10**6)))[0]
        v = sp.unit_sphere_points(2, 1, int(rng.integers(10**6)))[0]
        g = mt.bergman_tensor_ball(B, z)
        direct = float(np.einsum("mn,m,n->", g, v, v.conj()).real)
        closed = mt.bergman_norm_sq(B, z, v)
        assert abs(direct - closed) <= 1e-12 * max(1.0, closed)


def test_bergman_poincare_coincide_n1():
    B = mt.BallDomain(1)
    for r in np.linspace(0, 0.99, 34):
        z = r * np.exp(0.31j)
        n2 = mt.bergman_norm_sq(B, [z], [1.0 + 0j])
        assert abs(n2 - mt.poincare_tensor(z)) <= 1e-12 * n2


# ---------------------------------------------------------- automorphisms

def test_disc_automorphism_a_zero_is_negation():
    phi = mt.disc_automorphism(0j, 0.0)
    for z in (0.3 + 0.1j, -0.5j):
        assert abs(phi(z) + z) < 1e-15


def test_disc_automorphism_sends_a_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = 0.9 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        phi = mt.disc_automorphism(a, rng.uniform(0, 2 * math.pi))
        assert abs(phi(a)) < 1e-14


def test_disc_automorphism_density_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = 0.8 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        theta = rng.uniform(0, 2 * math.pi)
        phi = mt.disc_automorphism(a, theta)
        z = 0.9 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        jet = ex.eval_jet(phi, [z])
        lhs = abs(jet.gradient[0]) / (1 - abs(jet.value) ** 2)
        rhs = 1.0 / (1 - abs(z) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_disc_automorphism_rejects_large_a():
    with pytest.raises(InputError):
        mt.disc_automorphism(1.0 + 0j, 0.0)


def test_ball_automorphism_a_zero_is_negation():
    phi = mt.ball_automorphism(np.zeros(2, dtype=complex))
    z = np.array([0.2 + 0.1j, -0.3j])
    assert np.allclose(phi(z), -z, atol=1e-15)


def test_ball_automorphism_swaps_origin_and_a():
    a = np.array([0.4 + 0.2j, -0.1 + 0.3j])
    phi = mt.ball_automorphism(a)
    assert np.allclose(phi(np.zeros(2, dtype=complex)), a, atol=1e-14)
    assert np.allclose(phi(a), np.zeros(2), atol=1e-14)


def test_ball_automorphism_involution():
    rng = np.random.default_rng(8)
    for trial in range(100):
        a = sp.uniform_ball_points(2, 1, 0.9, 1000 + trial)[0]
        z = sp.uniform_ball_points(2, 1, 0.95, 2000 + trial)[0]
        phi = mt.ball_automorphism(a)
        assert np.allclose(phi(phi(z)), z, atol=1e-10)


def test_ball_automorphism_reduces_to_disc_n1():
    a = 0.37 - 0.21j
    phi_ball = mt.ball_automorphism(np.array([a]))
    phi_disc = mt.disc_automorphism(a, 0.0)
    for z in (0.5 + 0.1j, -0.2 + 0.6j):
        assert abs(phi_ball(np.array([z]))[0] - phi_disc(z)) < 1e-13


def test_ball_automorphism_fixed_point():
    a = np.array([0.5 + 0j, 0.1 - 0.2j])
    s = math.sqrt(1 - float(np.vdot(a, a).real))
    m = a / (1 + s)
    phi = mt.ball_automorphism(a)
    assert np.allclose(phi(m), m, atol=1e-12)


def test_ball_automorphism_preserves_ball():
    rng = np.random.default_rng(9)
    a = sp.uniform_ball_points(2, 1, 0.9, 77)[0]
    phi = mt.ball_automorphism(a)
    for trial in range(50):
        z = sp.uniform_ball_points(2, 1, 0.999, 3000 + trial)[0]
        assert np.linalg.norm(phi(z)) < 1.0


def test_ball_automorphism_rejects_outside():
    with pytest.raises(InputError):
        mt.ball_automorphism(np.array([1.0 + 0j, 0j]))


# -------------------------------------------------- invariance properties

def test_kernel_transformation_law_n1():
    B = mt.BallDomain(1)
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = 0.85 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        theta = rng.uniform(0, 2 * math.pi)
        h = mt.disc_automorphism(a, theta)
        z = 0.9 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        jet = ex.eval_jet(h, [z])
        lhs = mt.bergman_kernel_ball(B, [z])
        rhs = abs(jet.gradient[0]) ** 2 * mt.bergman_kernel_ball(B, [jet.value])
        assert abs(lhs - rhs) <= KERNEL_LAW_RTOL * lhs


def test_bergman_norm_automorphism_invariance():
    B = mt.BallDomain(2)
    for trial in range(100):
        a = sp.uniform_ball_points(2, 1, 0.85, 4000 + trial)[0]
        z = sp.uniform_ball_points(2, 1, 0.9, 5000 + trial)[0]
        v = sp.unit_sphere_points(2, 1, 6000 + trial)[0]
        phi = mt.ball_automorphism(a)
        w = phi(z)
        dv = phi.pushforward(z, v)
        n0 = mt.bergman_norm_sq(B, z, v)
        n1 = mt.bergman_norm_sq(B, w, dv)
        assert abs(n1 - n0) <= INVARIANCE_RTOL * n0


def test_kobayashi_closed_form_invariance():
    for trial in range(100):
        a = sp.uniform_ball_points(2, 1, 0.85, 7000 + trial)[0]
        z = sp.uniform_ball_points(2, 1, 0.9, 8000 + trial)[0]
        v = sp.unit_sphere_points(2, 1, 9000 + trial)[0]
        phi = mt.ball_automorphism(a)
        f0 = mt.kobayashi_closed_form_ball(z, v)
        f1 = mt.kobayashi_closed_form_ball(phi(z), phi.pushforward(z, v))
        assert abs(f1 - f0) <= INVARIANCE_RTOL * f0


def test_kobayashi_bergman_ratio_constant():
    B = mt.BallDomain(3)
    for trial in range(40):
        z = sp.uniform_ball_points(3, 1, 0.9, 10**4 + trial)[0]
        v = sp.unit_sphere_points(3, 1, 2 * 10**4 + trial)[0]
        fk = mt.kobayashi_closed_form_ball(z, v)
        bn = math.sqrt(mt.bergman_norm_sq(B, z, v))
        assert abs(fk / bn - 1 / math.sqrt(4)) < 1e-12


def test_kobayashi_closed_form_n1_reduction():
    for r in (0.0, 0.3, 0.7, 0.95):
        fk = mt.kobayashi_closed_form_ball([r + 0j], [1.0 + 0j])
        assert abs(fk - 1.0 / (1 - r**2)) <= 1e-12 / (1 - r**2)
        pt = mt.poincare_tensor(r + 0j)
        assert abs(fk - math.sqrt(pt / 2.0)) <= 1e-12 * fk


def _mp_length_sq(z, v):
    """|v|^2/d + |<v, z>|^2/d^2, d = 1 - |z|^2, in 50-digit mpmath."""
    zm, vm = ([mpmath.mpc(w.real, w.imag) for w in np.asarray(x, dtype=complex)] for x in (z, v))
    d = 1 - sum(abs(w) ** 2 for w in zm)
    pair = sum(a * mpmath.conj(b) for a, b in zip(vm, zm))
    return sum(abs(w) ** 2 for w in vm) / d + abs(pair) ** 2 / d ** 2


@pytest.mark.parametrize("z, v", [
    ((0.3, 0.1j), (1e-170, 2e-170j)),
    ((0.3, 0.1j), (1e160, 0.0)),
    ((0.3, 0.1j), (1e-160, 0.0)),
    # |z|^2 = 1 - 2^-19 + 2^-40 exactly, so L is about 2.75e11
    ((1.0 - 2.0 ** -20, 0.0), (1e-165, 0.0)),  # |v|^2 underflows, |v|^2 L does not
    ((1.0 - 2.0 ** -20, 0.0), (1e150, 0.0)),  # |v|^2 is finite, |v|^2 L is not
    ((0.3, 0.1j), (0.5 - 0.2j, 1.0)),
], ids=["tiny", "huge", "subnormal-square", "near-sphere-tiny", "near-sphere-huge", "unit"])
def test_closed_form_lengths_scale_v(z, v):
    B = mt.BallDomain(2)
    with mpmath.workdps(50):
        exact = _mp_length_sq(z, v)
        want_fk, want_bergman = float(mpmath.sqrt(exact)), float(3 * exact)
    fk = mt.kobayashi_closed_form_ball(z, v)
    assert abs(fk - want_fk) <= 1e-14 * want_fk
    assert fk <= mt.kobayashi_upper(B, z, v, budget=1)
    # the squared Bergman length is +inf or 0 only beyond the float range
    bergman = mt.bergman_norm_sq(B, z, v)
    if math.isinf(want_bergman):
        assert bergman == math.inf
    else:
        assert abs(bergman - want_bergman) <= 1e-14 * want_bergman + 2 * 5e-324
    assert (bergman == 0.0) == (want_bergman == 0.0)


# ----------------------------------------------------------- disc maps

def test_disc_map_horner_and_derivative():
    # phi(l) = (0.1 + 0.2 l + 0.05 l^2, 0.3 l)
    coeffs = np.array([[0.1, 0.0], [0.2, 0.3], [0.05, 0.0]], dtype=complex)
    phi = mt.DiscMap(coeffs)
    lam = 0.4 + 0.3j
    val = phi(lam)
    assert np.allclose(val, [0.1 + 0.2 * lam + 0.05 * lam**2, 0.3 * lam], atol=1e-15)
    der = phi.derivative(lam)
    assert np.allclose(der, [0.2 + 0.1 * lam, 0.3], atol=1e-15)
    assert np.allclose(phi.derivative_at_zero(), [0.2, 0.3], atol=1e-15)


def test_disc_map_containment():
    good = mt.DiscMap(np.array([[0.0, 0.0], [0.5, 0.0]], dtype=complex))
    assert good.contained_in_unit_ball()
    bad = mt.DiscMap(np.array([[0.9, 0.0], [0.5, 0.0]], dtype=complex))
    assert not bad.contained_in_unit_ball()
    with pytest.raises(ContainmentError):
        mt.require_contained(bad)


def test_random_disc_maps_verified():
    discs = mt.random_disc_maps(2, count=50, degree=2, seed=13)
    assert len(discs) == 50
    for phi in discs:
        assert phi.contained_in_unit_ball()


# ------------------------------------------------------- kobayashi upper

def test_kobayashi_upper_exact_at_origin():
    B = mt.BallDomain(2)
    for v in ([1.0 + 0j, 0j], [0.3 + 0j, 0.4 + 0j]):
        got = mt.kobayashi_upper(B, [0j, 0j], v, budget=5)
        assert abs(got - np.linalg.norm(v)) <= 1e-6


def test_kobayashi_upper_two_percent_of_closed_form():
    B = mt.BallDomain(2)
    for trial in range(50):
        z = sp.uniform_ball_points(2, 1, 0.9, 100 + trial)[0]
        v = sp.unit_sphere_points(2, 1, 200 + trial)[0]
        cf = mt.kobayashi_closed_form_ball(z, v)
        ub = mt.kobayashi_upper(B, z, v, budget=200, seed=7)
        assert ub >= cf - 1e-9 * cf
        assert (ub - cf) / cf <= UPPER_REL_TOL


def test_kobayashi_upper_budget_monotone():
    B = mt.BallDomain(2)
    z = np.array([0.35 + 0.1j, -0.2 + 0.25j])
    v = np.array([0.5 - 0.3j, 0.8 + 0.1j])
    prev = math.inf
    for budget in (1, 2, 5, 20, 80, 200):
        val = mt.kobayashi_upper(B, z, v, budget=budget, seed=0)
        assert val <= prev + 1e-15
        prev = val


def test_kobayashi_upper_input_errors():
    B = mt.BallDomain(2)
    with pytest.raises(InputError):
        mt.kobayashi_upper(B, [0j, 0j], [0j, 0j], budget=10)
    with pytest.raises(InputError):
        mt.kobayashi_upper(B, [1.0 + 0j, 0j], [1.0 + 0j, 0j], budget=10)
    with pytest.raises(InputError):
        mt.kobayashi_upper(B, [0j, 0j], [1.0 + 0j, 0j], budget=0)


def test_kobayashi_upper_deterministic():
    B = mt.BallDomain(2)
    z = np.array([0.5 + 0.2j, 0.1 - 0.3j])
    v = np.array([0.2 + 0.9j, -0.4 + 0.1j])
    a = mt.kobayashi_upper(B, z, v, budget=60, seed=42)
    b = mt.kobayashi_upper(B, z, v, budget=60, seed=42)
    assert a == b


# Estimates as float.hex() for z = r * PINNED_Z[n] / |PINNED_Z[n]|, v =
# PINNED_V[n], seed 7, at PINNED_BUDGETS.  The budget selects nothing, so a
# row reads one value; any rounding change in the certified disc's
# parameters or in the upward rounding of the result shows up here.
PINNED_Z = {2: [1 + 0.5j, -0.3 + 0.7j], 3: [1 + 0.5j, -0.3 + 0.7j, 0.2 - 0.4j]}
PINNED_V = {2: [0.5 - 0.3j, 0.8 + 0.1j], 3: [0.5 - 0.3j, 0.8 + 0.1j, -0.2 + 0.6j]}
PINNED_BUDGETS = (1, 2, 5, 20, 200, 300)
PINNED_HEX = {
    (2, 0.0): ('0x1.fd6efe4c9d890p-1',) * 6,
    (2, 0.3): ('0x1.148da65559b8ep+0',) * 6,
    (2, 0.6): ('0x1.7a8d2fc65b8b7p+0',) * 6,
    (2, 0.9): ('0x1.290c04f766da6p+2',) * 6,
    (3, 0.0): ('0x1.2dd1cdf231741p+0',) * 6,
    (3, 0.3): ('0x1.43163330e0114p+0',) * 6,
    (3, 0.6): ('0x1.a4a85333d0661p+0',) * 6,
    (3, 0.9): ('0x1.23e36f09e0fbfp+2',) * 6,
}


@pytest.mark.parametrize("arity,r", sorted(PINNED_HEX))
def test_kobayashi_upper_bit_pinned(arity, r):
    B = mt.BallDomain(arity)
    u = np.array(PINNED_Z[arity])
    z = r * (u / np.linalg.norm(u))
    got = [mt.kobayashi_upper(B, z, PINNED_V[arity], budget, seed=7).hex()
           for budget in PINNED_BUDGETS]
    assert got == list(PINNED_HEX[arity, r])


# The same for the shapes of the benchmark's discs workload: arity 2 and 3,
# budgets 20, 100 and 200, seed 7, at the origin and two radii, with z and
# v from _discs_case.
DISCS_BUDGETS = (20, 100, 200)
DISCS_HEX = {
    (2, 0.0): ('0x1.255c8085f9941p+1',) * 3,
    (2, 0.4): ('0x1.4c0244d449ce5p+1',) * 3,
    (2, 0.85): ('0x1.8d751b9a8d194p+2',) * 3,
    (3, 0.0): ('0x1.00cd43e526b68p+2',) * 3,
    (3, 0.4): ('0x1.200d64f21e1d3p+2',) * 3,
    (3, 0.85): ('0x1.44f7d35c2520ep+3',) * 3,
}


def _discs_case(arity, r):
    """A point z with |z| = r and a direction v, seeded by the arity."""
    raw = np.random.default_rng(arity).standard_normal((2, 2 * arity))
    u, v = raw[:, :arity] + 1j * raw[:, arity:]
    return r * u / np.linalg.norm(u), v


@pytest.mark.parametrize("arity,r", sorted(DISCS_HEX))
def test_kobayashi_upper_bit_pinned_on_discs_shapes(arity, r):
    z, v = _discs_case(arity, r)
    got = [mt.kobayashi_upper(mt.BallDomain(arity), z, v, budget, seed=7).hex()
           for budget in DISCS_BUDGETS]
    assert got == list(DISCS_HEX[arity, r])


def test_kobayashi_upper_builds_only_the_discs_it_checks(monkeypatch):
    # the bound is proved in closed form: no polynomial disc is built and
    # no sampled containment check runs
    built, checked = [], []
    init, check = mt.DiscMap.__post_init__, mt.DiscMap.contained_in_unit_ball

    def counting_init(disc):
        built.append(1)
        init(disc)

    def counting_check(disc):
        checked.append(1)
        return check(disc)

    monkeypatch.setattr(mt.DiscMap, "__post_init__", counting_init)
    monkeypatch.setattr(mt.DiscMap, "contained_in_unit_ball", counting_check)
    for arity, r in sorted(DISCS_HEX):
        z, v = _discs_case(arity, r)
        for budget in DISCS_BUDGETS:
            mt.kobayashi_upper(mt.BallDomain(arity), z, v, budget, seed=7)
    assert not built and not checked


def _seeded_cases(count):
    """(n, z, v, budget, seed): arity 1-9, |z| up to 0.97, every 8th at 0."""
    rng = np.random.default_rng(1234)
    for i in range(count):
        n = int(rng.integers(1, 10))
        budget = int(rng.integers(1, 201))
        raw = rng.standard_normal(2 * n)
        u = raw[:n] + 1j * raw[n:]
        r = 0.0 if i % 8 == 0 else float(rng.uniform(0.0, 0.97))
        raw = rng.standard_normal(2 * n)
        v = (raw[:n] + 1j * raw[n:]) * float(rng.uniform(0.2, 3.0))
        yield n, r * u / np.linalg.norm(u), v, budget, int(rng.integers(0, 100))


def _certified_cases():
    """(z, v) pairs: seeded ones, the origin, a tiny |z|, v parallel and
    orthogonal to z, and points up to |z| = 1 - 1e-10."""
    cases = [(z, v) for _, z, v, _, _ in _seeded_cases(120)]
    cases += [(np.zeros(n, complex), np.arange(1, n + 1) * (0.3 - 0.2j)) for n in (1, 2, 9)]
    radii = ((1, 0.5), (2, 1 - 1e-3), (3, 1 - 1e-6), (5, 1 - 1e-8), (9, 1 - 1e-10), (2, 1e-170))
    for n, r in radii:
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = r * u / np.linalg.norm(u)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cases += [(z, w), (z, (0.7 - 0.2j) * u)]  # generic, v parallel to z
        if n > 1:
            cases.append((z, w - np.vdot(u, w) / np.vdot(u, u) * u))  # v orthogonal to z
    return cases


def test_kobayashi_upper_never_undercuts_the_closed_form():
    for z, v in _certified_cases():
        B = mt.BallDomain(len(z))
        got = mt.kobayashi_upper(B, z, v, 200, seed=7)
        want = mt.kobayashi_closed_form_ball(z, v)
        eps = 2.0 ** -40 / (1.0 - float(np.vdot(z, z).real))
        assert want <= got <= want * (1.0 + eps / (1.0 - eps) + 1e-13), (z, v)
        # neither the budget nor the seed selects anything
        assert {mt.kobayashi_upper(B, z, v, budget, seed).hex()
                for budget in (1, 18, 300) for seed in (0, 99)} == {got.hex()}


def _recorded_maxima(monkeypatch):
    """Each call of _geometric_boundary_max as (args, result)."""
    calls, original = [], mt._geometric_boundary_max

    def recorded(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(mt, "_geometric_boundary_max", recorded)
    return calls


def test_certified_disc_maximum_matches_mpmath(monkeypatch):
    """The float maximum is within the stated rounding bound of a 50-digit
    evaluation of the disc's maximum for the exact unit e = v/|v|; the
    closed form is attained on |w| = rho; s and pair err as the proof says;
    and the result is at least |v|/(t rho)."""
    calls = _recorded_maxima(monkeypatch)
    u = 2.0 ** -53
    with mpmath.workdps(50):
        for z, v in _certified_cases():
            n = len(z)
            got = mt.kobayashi_upper(mt.BallDomain(n), z, v, 20)
            (s, pair, t, mu, rho), value = calls.pop()
            t, rho = mpmath.mpf(t), mpmath.mpf(rho)
            zz = [mpmath.mpc(c) for c in np.asarray(z, complex)]
            vv = [mpmath.mpc(c) for c in np.asarray(v, complex)]
            v_norm = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in vv))
            e = [c / v_norm for c in vv]
            p = mpmath.fsum(a * mpmath.conj(b) for a, b in zip(zz, e))  # <z, e>
            S = mpmath.fsum(abs(c) ** 2 for c in zz)
            assert abs(s - S) <= (n + 1) * u and abs(pair - abs(p)) <= (2 * n + 10) * u
            m = 1 - mpmath.mpf(mu)
            k = 1 - (rho * m) ** 2
            y = t * rho / k
            exact = S - abs(p) ** 2 + (abs(abs(p) - rho * m * y) + y) ** 2
            assert abs(value - exact) <= (12 * n + 200) * u, (z, v)
            # attained: psi(w) = z + t e w/(1 - q w), q = -m conj(p)/|p|, at
            # the point of |w| = rho where p + t u points along p + t c
            phase = mpmath.conj(p) / abs(p) if abs(p) else mpmath.mpf(1)
            q = -m * phase
            c = rho ** 2 * mpmath.conj(q) / k
            along = p + t * c
            peak = c + rho / k * (along / abs(along) if abs(along) else 1)
            w = peak / (1 + q * peak)
            image = [a + t * b * w / (1 - q * w) for a, b in zip(zz, e)]
            assert abs(abs(w) - rho) <= 1e-40
            assert abs(mpmath.fsum(abs(c) ** 2 for c in image) - exact) <= 1e-40
            assert got >= v_norm / (t * rho)


@pytest.mark.parametrize("arity", [2, 3])
def test_candidate_discs_contained_with_matching_alpha(monkeypatch, arity):
    # the one candidate, l -> psi(rho l), on a 2^16-sample ring: no sample
    # exceeds the proved maximum, and |v|/|phi'(0)| is the result
    calls = _recorded_maxima(monkeypatch)
    ring = np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
    slack = (12 * arity + 200) * 2.0 ** -53
    for z, v in [case for case in _certified_cases() if len(case[0]) == arity]:
        got = mt.kobayashi_upper(mt.BallDomain(arity), z, v, 20)
        (s, pair, t, mu, rho), value = calls.pop()
        v_hat = v / np.linalg.norm(v)
        inner = complex(np.sum(v_hat * z.conjugate()))  # <v_hat, z>
        q = -(1.0 - mu) * inner / abs(inner) if inner else 0.0
        w = rho * ring
        phi = z[:, None] + t * v_hat[:, None] * (w / (1.0 - q * w))
        assert np.max(np.sum(np.abs(phi) ** 2, axis=0)) <= value + slack <= 1.0
        assert got == pytest.approx(np.linalg.norm(v) / np.linalg.norm(t * rho * v_hat), rel=1e-14)


def test_kobayashi_upper_near_the_sphere_raises_containment_error():
    # at d = 1 - |z|^2 <= 2^-40 the disc radius rho = 1 - 2^-40/d is not
    # positive; just inside that, the bound is proved and close to F_K
    B = mt.BallDomain(2)
    for x in (1 - 2.0 ** -41, 1 - 2.0 ** -42, math.nextafter(1.0, 0.0)):
        for v in ([0j, 1 + 0j], [1 + 0j, 0j], [0.6 + 0j, 0.8j]):
            for budget in (1, 20):
                with pytest.raises(ContainmentError):
                    mt.kobayashi_upper(B, [x + 0j, 0j], v, budget)
    z = [1 - 1e-10 + 0j, 0j]
    for v in ([0j, 1 + 0j], [1 + 0j, 0j], [0.6 + 0j, 0.8j]):
        want = mt.kobayashi_closed_form_ball(z, v)
        assert want <= mt.kobayashi_upper(B, z, v, 1) <= 1.01 * want


def test_points_and_ball_ratios_share_one_open_ball_rule():
    # a point passes _in_ball exactly when the ball ratios take it, and
    # both read the same |z|^2; a BLAS vdot and an einsum row sum round
    # apart on 377 of these points, all within an ulp of the sphere
    Z = sp.unit_sphere_points(2, 4000, 9)
    V = sp.unit_sphere_points(2, 3, 10)
    f = ex.parse("z1 * z2", 2)
    inside, s = [], []
    for z in Z:
        try:
            s.append(mt._in_ball(z, 2, "outside")[1])
            inside.append(True)
        except InputError:
            inside.append(False)
    inside = np.array(inside)
    assert 0 < inside.sum() < len(Z)
    d = nr._ratio_inputs(f, Z[inside], V)[1]
    assert d.tobytes() == (1.0 - np.array(s)).tobytes()
    for z in Z[~inside]:
        with pytest.raises(InputError, match="open unit ball"):
            nr._ratio_inputs(f, z[None], V)

@pytest.mark.parametrize("z,v", [
    ([math.nan, 0.0], [0.0, 1.0]),
    ([0.0, 0.0], [math.inf, 1.0]),
    ([0.1, 0.0], [1.0, complex(0.0, math.nan)]),
    ([complex(math.inf, 0.0), 0.0], [1.0, 0.0]),
])
def test_kobayashi_upper_rejects_non_finite_input(z, v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            mt.kobayashi_upper(mt.BallDomain(2), z, v, budget=20)


@pytest.mark.parametrize("t", [1e300, 1e-200])
def test_kobayashi_upper_is_homogeneous_at_extreme_scales(t):
    B = mt.BallDomain(3)
    z = np.array([0.3 + 0.1j, -0.2j, 0.25])
    v = np.array([0.4 - 0.3j, 0.7, -0.1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = mt.kobayashi_upper(B, z, v, 40, seed=3)
        scaled = mt.kobayashi_upper(B, z, t * v, 40, seed=3)
    assert scaled == pytest.approx(t * base, rel=1e-12)


def test_kobayashi_upper_rejects_a_direction_whose_norm_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            mt.kobayashi_upper(mt.BallDomain(2), [0.1, 0.0], [1.5e308, 1.5e308], 20)


@pytest.mark.parametrize("arity", [1, 2, 3, 5, 8, 9, 17])
def test_ring_norm_rounds_as_numpy_norm(arity):
    # one constant disc per vector, all 256 in one stack, so each disc's
    # ring samples all equal its vector and its max is that vector's norm
    rng = np.random.default_rng(arity)
    x = rng.standard_normal((256, arity)) + 1j * rng.standard_normal((256, arity))
    want = np.linalg.norm(x, axis=-1)
    maxima = mt._ring_maxima(x[:, None, :])
    for k in range(256):
        assert maxima[k] == want[k]


FAMILY_ARITIES = [1, 2, 3, 7, 8, 9, 17]


@pytest.mark.parametrize("arity", FAMILY_ARITIES)
def test_random_disc_maps_match_the_per_disc_loop(arity):
    # 12 discs are one stacked pass at arity 1, four of them at arity 17
    for degree in range(1, 7):
        for seed in range(20):
            want = oracles.random_disc_maps(arity, 12, degree, seed)
            got = mt.random_disc_maps(arity, 12, degree, seed)
            assert len(got) == len(want)
            for disc, (coefficients, ring_max) in zip(got, want):
                assert disc.coefficients.tobytes() == coefficients.tobytes()
                assert disc.boundary_max() == ring_max


@pytest.mark.parametrize("arity", FAMILY_ARITIES)
def test_stacked_ring_pass_matches_each_disc(arity):
    rng = np.random.default_rng(100 + arity)
    for degree in range(1, 7):
        shape = (9, degree + 1, arity)
        stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / (degree + 1)
        # a finite disc between each infinite and NaN one
        stack[1, rng.integers(degree + 1), rng.integers(arity)] = math.inf
        stack[3, -1, 0] = complex(math.nan, 0.0)
        stack[5, 0, -1] = complex(0.0, -math.inf)
        stack[7] *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mt._ring_maxima(stack)
            want = [oracles.ring_max(c) for c in stack]
        assert np.array_equal(got, want, equal_nan=True), degree
        assert np.isnan(got[3]) and not np.isfinite(got[[1, 5, 7]]).any()
        assert np.isfinite(got[[0, 2, 4, 6, 8]]).all()


@pytest.mark.parametrize("arity,degree", [(1, 1), (1, 5), (2, 2), (3, 40), (9, 3)])
def test_disc_map_matches_reference_horner(arity, degree):
    rng = np.random.default_rng(arity * 100 + degree)
    c = rng.standard_normal((degree + 1, arity)) + 1j * rng.standard_normal((degree + 1, arity))
    phi = mt.DiscMap(c / (2 * (degree + 1)))
    for lam in (0.3 - 0.2j, np.array([0.5j]), 0.9 * np.exp(1j * np.linspace(0, 6, 300))):
        L = np.asarray(lam, dtype=complex)
        want = np.zeros(L.shape + (arity,), dtype=complex)
        for a in phi.coefficients[::-1]:
            want = want * L[..., None] + a
        assert phi(lam).tobytes() == want.tobytes()
    ring = mt.CONTAINMENT_RING * np.exp(1j * (2.0 * np.pi * np.arange(256) / 256))
    assert phi.boundary_max() == np.max(np.linalg.norm(phi(ring), axis=-1))


def _horner_reference(disc, lam, derivative=False):
    # DiscMap._horner as it was: a zero array times lambda plus a_d first,
    # then one broadcast add of each coefficient
    coefficients = disc.coefficients
    if derivative:
        coefficients = np.arange(1, disc.degree + 1)[:, None] * coefficients[1:]
    L = np.asarray(lam, dtype=complex)
    out = np.zeros((disc.arity,) + L.shape, dtype=complex)
    tail = (slice(None),) + (None,) * L.ndim
    for a in coefficients[::-1]:
        out = out * L.reshape(out.shape) if out.size == 1 else np.multiply(out, L, out=out)
        out += a[tail]
    return out


HORNER_POINTS = {
    "probe-grid": sp.disc_ladder_grids(sp.DEFAULT_LADDER, 24, 32)[-1],
    "ring": mt._ring(mt.CONTAINMENT_SAMPLES),
    "scalar": 0.3 - 0.7j,
    "one-element": np.array([-0.2 + 0.5j]),
    "2d": 0.6 * np.exp(1j * np.arange(12.0)).reshape(3, 4),
}


def _bits(a):
    return a.shape, a.view(np.float64).tobytes()


@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
def test_horner_from_the_leading_coefficient_keeps_every_bit(arity):
    rng = np.random.default_rng(arity)
    for degree in range(9):
        for zeros in range(4):
            shape = (degree + 1, arity)
            c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / (2 * degree + 2)
            # +0.0 parts, whole zero coefficients and a zero leading one
            c.real[rng.random(shape) < 0.3 * zeros] = 0.0
            c.imag[rng.random(shape) < 0.3 * zeros] = 0.0
            if zeros == 3:
                c[rng.integers(degree + 1)] = 0.0
                c[-1] = 0.0
            disc = mt.DiscMap(c)
            for name, lam in HORNER_POINTS.items():
                for derivative in (False, True):
                    want = _horner_reference(disc, lam, derivative)
                    assert _bits(disc._horner(lam, derivative)) == _bits(want), (degree, name)
            ring = _horner_reference(disc, mt._ring(mt.CONTAINMENT_SAMPLES))
            assert disc.boundary_max() == oracles.ring_norm_max(ring)


def test_a_negative_zero_leading_part_moves_only_the_sign_of_zeros():
    # phi starts from a copy of a_d, so a -0.0 part of it stays -0.0, where
    # 0 * lambda + a_d read +0.0 at some lambda
    disc = mt.DiscMap([[complex(-0.0, -0.0), 0.5]])
    for lam in HORNER_POINTS.values():
        got = disc._horner(lam)
        assert np.signbit(got[0].real).all() and np.signbit(got[0].imag).all()
        # phi' of a degree-0 disc is +0.0
        assert not disc._horner(lam, True).view(np.float64).any()
        assert not np.signbit(disc._horner(lam, True).view(np.float64)).any()
    assert not np.signbit(_horner_reference(disc, 0.3 - 0.7j)[:1].view(np.float64)).any()
    rng = np.random.default_rng(5)
    for degree in range(1, 6):
        c = rng.standard_normal((degree + 1, 3)) + 1j * rng.standard_normal((degree + 1, 3))
        c.real[rng.random(c.shape) < 0.3] = -0.0
        c.imag[rng.random(c.shape) < 0.3] = -0.0
        c[-1] = complex(-0.0, -0.0)
        disc = mt.DiscMap(c / (2 * degree + 2))
        for lam in HORNER_POINTS.values():
            for derivative in (False, True):
                got = disc._horner(lam, derivative).view(np.float64)
                want = _horner_reference(disc, lam, derivative).view(np.float64)
                moved = got.view(np.uint64) != want.view(np.uint64)
                assert np.array_equal(got, want) and not got[moved].any()


def test_disc_keeps_a_read_only_copy_of_its_coefficients():
    c = np.array([[0.1, 0.2j], [0.3, -0.1], [0.05j, 0.1]])
    first, second = mt.DiscMap(c), mt.DiscMap(c)
    lam = HORNER_POINTS["probe-grid"]
    values, tangents = first(lam), first.derivative(lam)
    ring_max = first.boundary_max()
    c[...] = 0.9
    for disc in (first, second):
        assert disc(lam).tobytes() == values.tobytes()
        assert disc.derivative(lam).tobytes() == tangents.tobytes()
        assert disc.boundary_max() == ring_max
    with pytest.raises(ValueError):
        second.coefficients[0, 0] = 1.0
    with pytest.raises(ValueError):
        second.coefficients[...] *= 2
    with pytest.raises(ContainmentError,
                       match=r"^disc of degree 1 leaves the unit ball \(boundary max 1\.4\)$"):
        mt.require_contained(mt.DiscMap(np.array([[0.9, 0.0], [0.5, 0.0]])))


@pytest.mark.parametrize("make", [lambda: mt.DiscMap(np.zeros((2, 0))),
                                  lambda: mt.DiscMap(np.zeros((1, 0), dtype=complex)),
                                  lambda: mt.random_disc_maps(0, 2, 2, 0)])
def test_a_disc_needs_a_coordinate(make):
    with pytest.raises(InputError, match="n >= 1"):
        make()


@pytest.mark.parametrize("coefficients,shown", [
    ([[0.1, math.inf]], "inf"),
    ([[0.1, 0.0], [math.inf, 0.0]], "nan"),
    ([[0.1, math.nan]], "nan"),
    ([[1e300, 0.0], [1e300, 0.0]], "inf"),
])
def test_a_non_finite_disc_fails_containment_without_a_warning(coefficients, shown):
    disc = mt.DiscMap(np.array(coefficients, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContainmentError, match=rf"\(boundary max {shown}\)$"):
            mt.require_contained(disc)


NAN = complex(math.nan, 0.0)
B2 = mt.BallDomain(2)


@pytest.mark.parametrize("call", [
    lambda: mt.bergman_kernel_ball(B2, [NAN, 0.0]),
    lambda: mt.bergman_tensor_ball(B2, [0.1, NAN]),
    lambda: mt.bergman_norm_sq(B2, [NAN, 0.0], [1.0, 0.0]),
    lambda: mt.bergman_norm_sq(B2, [0.1, 0.0], [NAN, 1.0]),
    lambda: mt.kobayashi_closed_form_ball([NAN, 0.0], [1.0, 0.0]),
    lambda: mt.kobayashi_closed_form_ball([0.1, 0.0], [1.0, NAN]),
    lambda: mt.poincare_tensor(NAN),
    lambda: mt.poincare_distance(0.1, NAN),
    lambda: mt.poincare_distance(NAN, 0.1),
    lambda: mt.disc_automorphism(NAN, 0.0),
    lambda: mt.ball_automorphism([0.1, NAN]),
], ids=["kernel", "tensor", "norm-z", "norm-v", "kobayashi-z", "kobayashi-v",
        "poincare-tensor", "poincare-distance-b", "poincare-distance-a",
        "disc-automorphism", "ball-automorphism"])
def test_nan_fails_every_membership_test(call):
    # NaN >= 1.0 is false, so a NaN point used to pass for a point of the
    # open ball or disc and come back as a NaN value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            call()
