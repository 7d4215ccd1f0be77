"""Chordal, Poincare, Bergman, Kobayashi, and the automorphism groups."""

import functools
import math
import warnings

import numpy as np
import pytest

import holonorm.expr as ex
import holonorm.metrics as mt
import holonorm.sampling as sp
from holonorm.errors import ContainmentError, InputError

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
# PINNED_V[n], seed 7, at PINNED_BUDGETS.  Budgets 20 and up hold every
# candidate (1 + 17), so they read the same.  Recorded before the candidate
# search was vectorised; any rounding change in the containment checks
# shows up here.
PINNED_Z = {2: [1 + 0.5j, -0.3 + 0.7j], 3: [1 + 0.5j, -0.3 + 0.7j, 0.2 - 0.4j]}
PINNED_V = {2: [0.5 - 0.3j, 0.8 + 0.1j], 3: [0.5 - 0.3j, 0.8 + 0.1j, -0.2 + 0.6j]}
PINNED_BUDGETS = (1, 2, 5, 20, 200, 300)
PINNED_HEX = {
    (2, 0.0): (
        '0x1.fd6efe55278a7p-1', '0x1.fd6efe55278a7p-1',
        '0x1.fd6efe55278a7p-1', '0x1.fd6efe55278a7p-1',
        '0x1.fd6efe55278a7p-1', '0x1.fd6efe55278a7p-1',
    ),
    (2, 0.3): (
        '0x1.5c8e3d60af43cp+0', '0x1.264bec0cb586bp+0',
        '0x1.14a8bb347a9cdp+0', '0x1.148da65558885p+0',
        '0x1.148da65558885p+0', '0x1.148da65558885p+0',
    ),
    (2, 0.6): (
        '0x1.23a76ea78fbe8p+1', '0x1.d5aeab5267ebdp+0',
        '0x1.865d27d32c15ep+0', '0x1.7a8d2fc6593b1p+0',
        '0x1.7a8d2fc6593b1p+0', '0x1.7a8d2fc6593b1p+0',
    ),
    (2, 0.9): (
        '0x1.15d7e977d2f5ep+3', '0x1.c2ba6753acd9dp+2',
        '0x1.6d2fad4489c0bp+2', '0x1.290c04f760be2p+2',
        '0x1.290c04f760be2p+2', '0x1.290c04f760be2p+2',
    ),
    (3, 0.0): (
        '0x1.2dd1cdf740939p+0', '0x1.2dd1cdf740939p+0',
        '0x1.2dd1cdf740939p+0', '0x1.2dd1cdf740939p+0',
        '0x1.2dd1cdf740939p+0', '0x1.2dd1cdf740939p+0',
    ),
    (3, 0.3): (
        '0x1.84834eefaae1dp+0', '0x1.4fe3b37f82aeep+0',
        '0x1.431cd99cef756p+0', '0x1.43163330dead5p+0',
        '0x1.43163330dead5p+0', '0x1.43163330dead5p+0',
    ),
    (3, 0.6): (
        '0x1.2f5b4d0c6a3cep+1', '0x1.ec252dd6a6a3ep+0',
        '0x1.a8d3a88bc378ep+0', '0x1.a4a85333cdd39p+0',
        '0x1.a4a85333cdd39p+0', '0x1.a4a85333cdd39p+0',
    ),
    (3, 0.9): (
        '0x1.0773ff5980b11p+3', '0x1.a990025e0c52dp+2',
        '0x1.57f77b518178cp+2', '0x1.23e36f09dafabp+2',
        '0x1.23e36f09dafabp+2', '0x1.23e36f09dafabp+2',
    ),
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
# v from _discs_case.  Recorded before the truncation scales were bisected
# only when the search reaches them.
DISCS_BUDGETS = (20, 100, 200)
DISCS_HEX = {
    (2, 0.0): ('0x1.255c808ae4683p+1',) * 3,
    (2, 0.4): ('0x1.4c0244d448424p+1',) * 3,
    (2, 0.85): ('0x1.8d751b9a87802p+2',) * 3,
    (3, 0.0): ('0x1.00cd43e974a99p+2',) * 3,
    (3, 0.4): ('0x1.200d64f21cc58p+2',) * 3,
    (3, 0.85): ('0x1.44f7d35c208cep+3',) * 3,
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
    # the search's merge holds one try of every candidate; a try builds its
    # coefficients and its disc only when it is checked
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
            built.clear()
            checked.clear()
            mt.kobayashi_upper(mt.BallDomain(arity), z, v, budget, seed=7)
            assert checked and len(built) <= len(checked), (arity, r, budget, len(built))


def _alpha_matches_derivative(disc, alpha, v_norm):
    d0 = float(np.linalg.norm(disc.derivative_at_zero()))
    return abs(alpha - v_norm / d0) <= 1e-12 * alpha


def _first_passing(tries):
    """The first (alpha, disc) try of a candidate, given as (alpha, build)
    tries, that passes the check."""
    discs = ((a, build()) for a, build in tries)
    return next(((a, d) for a, d in discs if d.contained_in_unit_ball()), None)


@pytest.mark.parametrize("arity", [2, 3])
def test_candidate_discs_contained_with_matching_alpha(arity):
    rng = np.random.default_rng(arity)
    for trial in range(4):
        z = sp.uniform_ball_points(arity, 1, 0.9, 40 + trial)[0]
        raw = rng.standard_normal(2 * arity)
        v = raw[:arity] + 1j * raw[arity:]
        v_norm = float(np.linalg.norm(v))
        v_hat = v / v_norm
        t, q = mt._extremal_parameters(z, v_hat)
        geodesic = [list(tries) for tries in mt._truncated_geodesic_candidate(
            z, v_hat, v_norm, t, q, mt._GEODESIC_DEGREES)]
        alpha, build = mt._affine_candidate(z, v_hat, v_norm)
        affine = (alpha, build())
        for tries in geodesic:
            alphas = [alpha for alpha, _ in tries]
            assert alphas == sorted(alphas)  # a key-only entry included
        # key-only entries (build None) are neither tries nor checked; a
        # degree whose scale bisects to 0 has no tries at all
        geodesic = [real for real in ([(a, build()) for a, build in tries if build is not None]
                                      for tries in geodesic) if real]
        assert {len(tries) for tries in geodesic} == {8}  # sigma, then 7 retries
        for tries in geodesic + [[affine]]:
            alphas = [alpha for alpha, _ in tries]
            assert alphas == sorted(alphas)  # what the lazy retries rely on
            for alpha, disc in tries:
                assert np.array_equal(disc.coefficients[0], z)
                assert _alpha_matches_derivative(disc, alpha, v_norm)
        assert any(disc.contained_in_unit_ball() for tries in geodesic for _, disc in tries)


def _eager_truncations(z, v_hat, v_norm, t, q, degrees):
    """Reference: the truncation tries with the scale of every degree that
    does not fit at sigma = 1 bisected up front, 48 steps in lockstep, as
    the estimator did before it bisected only when the search reached one."""
    target = 1.0 - mt.CONTAINMENT_MARGIN
    sigma = np.ones(len(degrees))
    rows = np.flatnonzero(mt._geometric_boundary_max(z, v_hat, t, q, sigma, degrees) > target)
    if rows.size:
        sub = [degrees[k] for k in rows]
        lo, hi = np.zeros(rows.size), np.ones(rows.size)
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            ok = mt._geometric_boundary_max(z, v_hat, t, q, mid, sub) <= target
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        sigma[rows] = lo
    return [mt._truncation_tries(z, v_hat, v_norm, t, q, d, float(sig))
            for d, sig in zip(degrees, sigma) if sig > 0.0]


def _eager_kobayashi_upper(z, v, budget):
    """Reference: check every candidate's tries in turn and take the min of
    the first passing alphas, as the estimator did before branch and bound."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    v_norm = float(np.linalg.norm(v))
    v_hat = v / v_norm
    affine = mt._affine_candidate(z, v_hat, v_norm)
    candidates = [] if affine is None else [[affine]]
    if float(np.linalg.norm(z)) > 1e-12 and budget > 1:
        t, q = mt._extremal_parameters(z, v_hat)
        if abs(q) > 1e-14:
            degrees = mt._GEODESIC_DEGREES[:budget - 1]
            candidates += _eager_truncations(z, v_hat, v_norm, t, q, degrees)
    alphas = [c[0] for c in map(_first_passing, candidates) if c is not None]
    if not alphas:
        raise ContainmentError("no admissible disc found within budget")
    return min(alphas)


def _lazy_eager_cases(count):
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


def test_kobayashi_upper_matches_eager_reference():
    for n, z, v, budget, seed in _lazy_eager_cases(40):
        B = mt.BallDomain(n)
        want = _eager_kobayashi_upper(z, v, budget)
        assert mt.kobayashi_upper(B, z, v, budget, seed=seed).hex() == want.hex()


@pytest.mark.parametrize("rejected", [1, 3, 12, 40])
def test_rejected_checks_follow_ascending_alpha(monkeypatch, rejected):
    """The first ``rejected`` checks fail.  The estimator must then check in
    ascending alpha with ties to the lower candidate (the affine disc, then
    the lower degree), retry a rejected truncation at a 0.1% smaller scale,
    and return what the eager search gives when the same discs fail."""
    original = mt.DiscMap.contained_in_unit_ball
    verified_min = mt._verified_min
    cases = [(2, np.array([0.35 + 0.1j, -0.2 + 0.25j]), np.array([0.5 - 0.3j, 0.8 + 0.1j]), 60, 0),
             (3, np.zeros(3, complex), np.array([0.3, 0.4j, -0.2]), 30, 5),
             (1, np.array([0.6j]), np.array([1.5 + 0j]), 25, 1)]
    cases += list(_lazy_eager_cases(6))
    ties = 0
    for n, z, v, budget, seed in cases:
        B = mt.BallDomain(n)
        seen, failed, alpha_of, lazy = [], set(), {}, [True]

        def reject_first(disc):
            key = (disc.coefficients.shape, disc.coefficients.tobytes())
            if lazy[0] and len(seen) < rejected:
                seen.append((alpha_of[id(disc)], disc.degree))
                failed.add(key)
                return False
            return key not in failed and original(disc)

        def noted(alpha, build):
            disc = build()
            alpha_of[id(disc)] = alpha
            return disc

        def noting(tries):
            for alpha, build in tries:
                # a key-only entry (build None) is never checked
                yield alpha, build and functools.partial(noted, alpha, build)

        def noting_all(candidates):
            return verified_min([noting(c) for c in candidates])

        monkeypatch.setattr(mt.DiscMap, "contained_in_unit_ball", reject_first)
        monkeypatch.setattr(mt, "_verified_min", noting_all)
        try:
            got = mt.kobayashi_upper(B, z, v, budget, seed=seed).hex()
        except ContainmentError:
            got = None
        lazy[0] = False
        try:
            want = _eager_kobayashi_upper(z, v, budget).hex()
        except ContainmentError:
            want = None
        monkeypatch.setattr(mt.DiscMap, "contained_in_unit_ball", original)
        assert got == want
        assert len(seen) == rejected or got is None
        # one heap holds the affine disc and the truncations
        for (a0, d0), (a1, d1) in zip(seen, seen[1:]):
            assert a1 >= a0
            if a1 == a0:
                assert d1 > d0
                ties += 1
    assert ties or rejected < 3


def _boundary_passes(monkeypatch, log):
    """Log each truncation boundary pass as ("pass", rows) in ``log``."""
    original = mt._geometric_boundary_max

    def logged(z, v_hat, t, q, sigma, degrees):
        log.append(("pass", len(degrees)))
        return original(z, v_hat, t, q, sigma, degrees)

    monkeypatch.setattr(mt, "_geometric_boundary_max", logged)


@pytest.mark.parametrize("arity", [2, 3])
def test_truncation_that_fits_at_full_scale_wins_without_bisection(monkeypatch, arity):
    # at these points 5 of the 17 degrees do not fit at sigma = 1; the eager
    # search bisected their scales, 48 more passes, and never used them
    z, v = _discs_case(arity, 0.4)
    v_norm = float(np.linalg.norm(v))
    t, _ = mt._extremal_parameters(z, v / v_norm)
    log = []
    _boundary_passes(monkeypatch, log)
    got = mt.kobayashi_upper(mt.BallDomain(arity), z, v, 200, seed=7)
    assert got == v_norm / t  # the least alpha of any truncation
    assert log == [("pass", len(mt._GEODESIC_DEGREES))]


def test_truncations_bisected_once_after_full_scale_tries_fail(monkeypatch):
    """With every sigma = 1 try rejected, the search reaches the degrees
    that do not fit: their scales are bisected once, in lockstep, after the
    rejected tries, and the result is the eager search's."""
    B = mt.BallDomain(2)
    z, v = _discs_case(2, 0.4)
    v_norm = float(np.linalg.norm(v))
    v_hat = v / v_norm
    t, q = mt._extremal_parameters(z, v_hat)
    full = {next(mt._truncation_tries(z, v_hat, v_norm, t, q, d, 1.0))[1]().coefficients.tobytes()
            for d in mt._GEODESIC_DEGREES}
    original = mt.DiscMap.contained_in_unit_ball
    log = []

    def reject_full_scale(disc):
        rejected = disc.coefficients.tobytes() in full
        log.append(("reject" if rejected else "check", disc.degree))
        return not rejected and original(disc)

    monkeypatch.setattr(mt.DiscMap, "contained_in_unit_ball", reject_full_scale)
    _boundary_passes(monkeypatch, log)
    got = mt.kobayashi_upper(B, z, v, 200, seed=7)
    passes = [k for k, (kind, _) in enumerate(log) if kind == "pass"]
    rejects = [k for k, (kind, _) in enumerate(log) if kind == "reject"]
    # one pass at sigma = 1 over all 17 degrees, 48 over the 5 that do not
    # fit, and those only after the 12 full-scale tries were rejected
    assert [log[k] for k in passes] == [("pass", 17)] + [("pass", 5)] * 48
    assert len(rejects) == 12 and passes[0] < rejects[0] and rejects[-1] < passes[1]
    assert passes == [passes[0]] + list(range(passes[1], passes[1] + 48))
    want = _eager_kobayashi_upper(z, v, 200)
    assert got.hex() == want.hex() and got > v_norm / t


def _upper_hex(z, v, budget, seed):
    """kobayashi_upper as float.hex(), or None on ContainmentError."""
    try:
        return mt.kobayashi_upper(mt.BallDomain(len(z)), z, v, budget, seed=seed).hex()
    except ContainmentError:
        return None


def test_search_holds_only_the_affine_disc_and_truncations(monkeypatch):
    """With every disc rejected, a budget-200 call makes at most 1 + 17 * 8
    checks (the affine disc, then 8 tries per truncation) and raises.  From
    budget 1 + 17 on, neither the budget nor the seed moves a bit."""
    original = mt.DiscMap.contained_in_unit_ball
    checks = []

    def reject(disc, samples=None):
        checks.append(disc.degree)
        return False

    monkeypatch.setattr(mt.DiscMap, "contained_in_unit_ball", reject)
    for arity, r in ((2, 0.4), (3, 0.85), (3, 0.0)):
        z, v = _discs_case(arity, r)
        checks.clear()
        with pytest.raises(ContainmentError):
            mt.kobayashi_upper(mt.BallDomain(arity), z, v, 200, seed=7)
        assert 1 <= len(checks) <= 1 + len(mt._GEODESIC_DEGREES) * 8
        assert checks.count(2) <= 8
    monkeypatch.setattr(mt.DiscMap, "contained_in_unit_ball", original)

    cases = [(z, v) for _, z, v, _, _ in _lazy_eager_cases(40)]
    u = np.array([0.6 + 0.3j, -0.2 + 0.7j])
    z = 0.8 * u / np.linalg.norm(u)
    cases += [((1.0 - 10 ** -8.9) * u / np.linalg.norm(u), np.array([0.3 - 0.1j, 0.9j])),
              (z, np.array([-z[1].conjugate(), z[0].conjugate()])),  # v orthogonal to z
              (z, (0.7 - 0.2j) * z)]  # v parallel to z
    for z, v in cases:
        got = {_upper_hex(z, v, budget, seed) for budget in (18, 200, 300) for seed in (0, 7, 99)}
        assert len(got) == 1, (z, v, got)


def test_kobayashi_upper_near_the_sphere_raises_containment_error():
    # |z| = 1 - 1e-10 is inside the ball but beyond the containment margin;
    # the affine stretch is 0 there, which divided by zero
    B = mt.BallDomain(2)
    for v in ([0j, 1 + 0j], [1 + 0j, 0j], [0.6 + 0j, 0.8j]):
        for budget in (1, 20):
            with pytest.raises(ContainmentError):
                mt.kobayashi_upper(B, [1 - 1e-10 + 0j, 0j], v, budget)


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
    # one nonzero sample per call, at every position of a 256-sample ring,
    # so the max is that sample's own norm
    rng = np.random.default_rng(arity)
    x = rng.standard_normal((256, arity)) + 1j * rng.standard_normal((256, arity))
    want = np.linalg.norm(x, axis=-1)
    for k in range(256):
        vals = np.zeros((arity, 256), dtype=complex)
        vals[:, k] = x[k]
        assert mt._ring_norm_max(vals) == want[k]


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
            assert disc.boundary_max() == mt._ring_norm_max(ring)


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
    good = mt.DiscMap([[0.1, 0.0], [0.5, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContainmentError, match=rf"\(boundary max {shown}\)$"):
            mt.require_contained(disc)
        # the Kobayashi search passes over such a try
        assert mt._verified_min([[(1.0, lambda: disc)], [(2.0, lambda: good)]]) == 2.0


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
