"""Spherical derivative, Levi form, and the normality certifiers."""

import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import holonorm.expr as ex
import holonorm.linescan as ls
import holonorm.metrics as mt
import holonorm.normality as nr
import holonorm.sampling as sp
from holonorm.errors import InputError, PoleError
from holonorm.reports import canonical_json
from oracles import map_jets

LEVI_FD_STEP = 1e-4
LEVI_FD_RTOL = 1e-6
SCALE_TOL = 1e-12
ARGMAX_COS = 1 - 1e-9

BATTERY = [
    ("z1^3-2*z1", 1),
    ("(1+z1)/(1-z1)", 1),
    ("exp(z1)", 1),
    ("z1*z2", 2),
    ("exp(z1)*z2+z1^2", 2),
    ("sin(z1+z2)", 2),
]


def levi_fd(f, z, v, step=LEVI_FD_STEP):
    """Five-point Laplacian of log(1+|f|^2) restricted to z + lambda v."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)

    def h(lam):
        val = f(z + lam * v)
        return math.log1p(abs(val) ** 2)

    acc = h(step) + h(-step) + h(1j * step) + h(-1j * step) - 4.0 * h(0.0)
    return acc / (4.0 * step**2)


# ------------------------------------------------------------------- mu

def test_mu_identity_at_origin():
    assert nr.mu(ex.parse("z1", 1), 0j) == 2.0


def test_mu_requires_arity_one():
    with pytest.raises(InputError):
        nr.mu(ex.parse("z1+z2", 2), 0j)


def test_mu_pole_continuity_one_over_z():
    f = ex.parse("1/z1", 1)
    # at the pole itself the reciprocal form takes over: mu(1/z)(0) = mu(z)(0)
    assert abs(nr.mu(f, 0j) - 2.0) < 1e-14
    ring = 1e-5 * np.exp(1j * np.linspace(0, 2 * math.pi, 9)[:-1])
    for z in ring:
        assert abs(nr.mu(f, z) - nr.mu(ex.reciprocal(f), z)) <= 1e-10


def test_mu_pole_continuity_rational():
    f = ex.parse("(z1^2+1)/z1", 1)
    r = ex.reciprocal(f)
    ring = 1e-3 * np.exp(1j * np.linspace(0, 2 * math.pi, 17)[:-1])
    for z in ring:
        assert abs(nr.mu(f, z) - nr.mu(r, z)) <= 1e-10
    # sampled limit toward the pole matches the reciprocal value there
    assert abs(nr.mu(f, 1e-7 + 0j) - nr.mu(r, 0j)) <= 1e-6


def test_mu_batch_handles_mixed_points():
    f = ex.parse("1/z1", 1)
    vals = nr.mu_batch(f, np.array([0j, 0.5 + 0j, 2.0 + 0j]))
    assert abs(vals[0] - 2.0) < 1e-14
    mid = 2.0 * 4.0 / (0.25 * (1 + 4.0) ** 2) * 0.25  # 2|f'|/(1+|f|^2), f=1/z at 0.5
    assert abs(vals[1] - 2.0 * 4.0 / (1 + 4.0)) < 1e-12
    assert np.all(np.isfinite(vals))


# ------------------------------------------------------------- sharp/levi

def test_sharp_identity_at_origin():
    assert nr.sharp(ex.parse("z1", 1), 0j) == 1.0


def test_sharp_exp_on_ball():
    val = nr.sharp(ex.parse("exp(z1)", 2), [0j, 0j])
    assert abs(val - 0.5) < 1e-15


def test_sharp_is_half_mu_n1():
    f = ex.parse("(1+z1)/(1-z1)", 1)
    for z in (0j, 0.3 + 0.2j, -0.6 + 0.1j):
        assert abs(nr.sharp(f, z) - nr.mu(f, z) / 2.0) <= 1e-15 * nr.mu(f, z)


def test_sharp_pole_raises():
    with pytest.raises(PoleError):
        nr.sharp(ex.parse("1/z1", 1), 0j)


def test_sharp_dominates_sampled_levi_roots():
    f = ex.parse("exp(z1)*z2+z1^2", 2)
    z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    s = nr.sharp(f, z)
    V = sp.unit_sphere_points(2, 10**4, seed=17)
    worst = 0.0
    for v in V:
        worst = max(worst, math.sqrt(nr.levi_form(f, z, v)))
    assert worst <= s + 1e-10


@pytest.mark.parametrize("text,arity", BATTERY)
def test_levi_finite_difference_oracle(text, arity):
    f = ex.parse(text, arity)
    rng = np.random.default_rng(23)
    for trial in range(20):
        z = sp.uniform_ball_points(arity, 1, 0.7, 300 + trial)[0]
        v = sp.unit_sphere_points(arity, 1, 400 + trial)[0]
        got = nr.levi_form(f, z, v)
        ref = levi_fd(f, z, v)
        assert abs(got - ref) <= LEVI_FD_RTOL * max(abs(ref), 1e-8)


def test_levi_scale_law():
    f = ex.parse("exp(z1)*z2", 2)
    z = np.array([0.2 + 0.1j, 0.3 - 0.2j])
    v = np.array([0.5 + 0.5j, -0.1 + 0.8j])
    base = nr.levi_form(f, z, v)
    for t in (2.0, 0.5j, 1.3 - 0.7j):
        scaled = nr.levi_form(f, z, t * v)
        assert abs(scaled - abs(t) ** 2 * base) <= SCALE_TOL * max(1.0, abs(base))


def test_levi_argmax_direction_is_conjugate_gradient():
    f = ex.parse("exp(z1)*z2+z1^2", 2)
    z = np.array([0.25 - 0.15j, 0.4 + 0.2j])
    jet = ex.eval_jet(f, z)
    grad = np.array(jet.gradient)
    best = np.conjugate(grad) / np.linalg.norm(grad)
    V = sp.unit_sphere_points(2, 200, seed=31)
    levi_best = nr.levi_form(f, z, best)
    for v in V:
        assert nr.levi_form(f, z, v) <= levi_best + 1e-12
    # cosine between the numeric argmax over samples and conj(grad)
    vals = [nr.levi_form(f, z, v) for v in V]
    vmax = V[int(np.argmax(vals))]
    cos = abs(np.vdot(best, vmax))
    assert cos > 0.9  # sampled argmax clusters around the true direction


def test_levi_biholomorphic_invariance_automorphism():
    f = ex.parse("z1*z2+0.3*z1", 2)
    a = np.array([0.3 + 0.1j, -0.2 + 0j])
    phi = mt.ball_automorphism(a)
    comp = ex.substitute(f, phi.components)
    for trial in range(25):
        z = sp.uniform_ball_points(2, 1, 0.85, 500 + trial)[0]
        v = sp.unit_sphere_points(2, 1, 600 + trial)[0]
        lhs = nr.levi_form(comp, z, v)
        rhs = nr.levi_form(f, phi(z), phi.pushforward(z, v))
        assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1e-12)


def test_levi_biholomorphic_invariance_unitary():
    f = ex.parse("exp(z1)*z2", 2)
    t = 0.7
    U = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex)
    z1, z2 = ex.var_expr(1, 2), ex.var_expr(2, 2)
    comp = ex.substitute(
        f,
        [
            ex.const_expr(U[0, 0], 2) * z1 + ex.const_expr(U[0, 1], 2) * z2,
            ex.const_expr(U[1, 0], 2) * z1 + ex.const_expr(U[1, 1], 2) * z2,
        ],
    )
    for trial in range(25):
        z = sp.uniform_ball_points(2, 1, 0.9, 700 + trial)[0]
        v = sp.unit_sphere_points(2, 1, 800 + trial)[0]
        lhs = nr.levi_form(comp, z, v)
        rhs = nr.levi_form(f, U @ z, U @ v)
        assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1e-12)


# ----------------------------------------------------------------- marty

def test_marty_identity_family():
    K = sp.disc_grid(0.5, radii=25, angles=48)
    est = nr.marty_sup([ex.parse("z1", 1)], K)
    assert est.sup_value == 1.0
    assert abs(est.argmax_point[0]) == 0.0


def test_marty_dilation_family_exact():
    K = sp.disc_grid(0.5, radii=25, angles=48)
    fam = [ex.parse(f"{j}*z1", 1) for j in range(1, 41)]
    est = nr.marty_sup(fam, K)
    assert est.sup_value == 40.0
    g = [s for _, s in est.growth_series]
    assert g == sorted(g)
    assert all(b > a for a, b in zip(g, g[1:]))  # strict growth in J


def test_marty_power_family_stabilizes():
    K = sp.disc_grid(0.5, radii=25, angles=48)
    fam = [ex.parse(f"z1^{k}", 1) for k in range(1, 11)]
    est = nr.marty_sup(fam, K)
    g = [s for _, s in est.growth_series]
    assert est.sup_value == 1.0
    assert g[-1] == g[2]  # constant after the early members


def test_marty_empty_family_error():
    with pytest.raises(InputError):
        nr.marty_sup([], sp.disc_grid(0.5))


@pytest.mark.parametrize("check,arity,points", [
    ("marty_sup", 1, np.array([], dtype=complex)),
    ("marty_sup", 2, np.empty((0, 2), dtype=complex)),
    ("mu_local_boundedness", 1, np.array([], dtype=complex)),
])
def test_family_sups_reject_an_empty_point_set(check, arity, points):
    with pytest.raises(InputError, match="point set must be nonempty"):
        getattr(nr, check)([ex.parse("z1", arity)], points)


def test_mu_local_boundedness_families():
    K = sp.disc_grid(0.5, radii=25, angles=48)
    est = nr.mu_local_boundedness([ex.parse(t, 1) for t in ("z1", "z1^2", "z1^3")], K)
    assert math.isfinite(est.sup_value)
    fam = [ex.parse(f"{j}*z1", 1) for j in range(1, 13)]
    est2 = nr.mu_local_boundedness(fam, K)
    assert est2.sup_value == 24.0  # 2J at the origin
    est3 = nr.mu_local_boundedness([ex.parse("5", 1)], K)
    assert est3.sup_value == 0.0


# ---------------------------------------------------------------- yosida

def test_yosida_identity_bounded():
    v = nr.yosida_bound(ex.parse("z1", 1))
    assert v.classification == nr.BOUNDED
    assert v.estimate.sup_value == 1.0


def test_yosida_constant():
    v = nr.yosida_bound(ex.parse("2+3*i", 1))
    assert v.classification == nr.BOUNDED
    assert v.estimate.sup_value == 0.0


def test_yosida_essential_singularity_unbounded():
    v = nr.yosida_bound(ex.parse("sin(1/(1-z1))", 1))
    assert v.classification == nr.UNBOUNDED_TREND
    sups = [s for _, s in v.estimate.growth_series]
    for a, b in zip(sups, sups[1:]):
        assert b >= nr.GROWTH_FACTOR * a
    assert v.trend_ratio >= nr.GROWTH_FACTOR


def test_yosida_ladder_validation():
    f = ex.parse("z1", 1)
    with pytest.raises(InputError):
        nr.yosida_bound(f, ladder=())
    with pytest.raises(InputError):
        nr.yosida_bound(f, ladder=(0.1, 0.2))  # must decrease


def test_yosida_growth_series_nondecreasing():
    v = nr.yosida_bound(ex.parse("exp(z1)", 1))
    sups = [s for _, s in v.estimate.growth_series]
    assert sups == sorted(sups)


@pytest.mark.parametrize("run, tables", [
    (nr.yosida_bound,
     lambda f: nr._ladder_tables([f], nr._identity, nr.disc_ladder())),
    (lambda f: ls.alexander_function_test(f, ls.direction_set(1, 0))[0],
     lambda f: nr._ladder_tables([f], ex.line_map([1.0]), nr.disc_ladder(radii=48, angles=64))),
], ids=["yosida", "slice"])
def test_ladder_tables_drop_at_most_5_percent_non_finite(run, tables):
    # yosida and the slice along c = 1 build the same (1-|z|^2) f# tables,
    # each on its own default grid: exp(800 z) overflows on 8.1% and 7.9% of
    # the samples, exp(760 z) on fewer than 5%, which are dropped
    with np.errstate(all="ignore"):
        with pytest.raises(ArithmeticError, match="weighted ladder: "):
            run(ex.parse("exp(800*z1)", 1))
        f = ex.parse("exp(760*z1)", 1)
        v = run(f)
        (t,) = tables(f)
    assert v.classification == nr.BOUNDED
    assert v.estimate.sup_value == 380.0  # 760/2 at z = 0
    assert 0.0 < np.isneginf(t).mean() <= 0.05


def test_yosida_refuses_several_variables():
    with pytest.raises(InputError, match="ladder certifiers run on one-variable expressions"):
        nr.yosida_bound(ex.parse("z1", 2))


# ------------------------------------------------------------- lipschitz

def test_lipschitz_constant_function():
    est = nr.lipschitz_ratio(ex.parse("4", 1), 200, seed=1)
    assert est.sup_value == 0.0


def test_lipschitz_identity_stable():
    a = nr.lipschitz_ratio(ex.parse("z1", 1), 400, seed=5)
    b = nr.lipschitz_ratio(ex.parse("z1", 1), 1600, seed=5)
    assert math.isfinite(a.sup_value)
    # more samples can only move the estimate within the same ceiling
    assert b.sup_value <= math.sqrt(2.0) * (1 + 1e-9)


def test_lipschitz_mu_bound():
    # chordal speed is mu * |dz|; poincare speed is sqrt(2)|dz|/(1-|z|^2)
    f = ex.parse("z1^2", 1)
    est = nr.lipschitz_ratio(f, 600, seed=6)
    grid = sp.disc_grid(0.95, radii=40, angles=64)
    mu_max = float(np.max(nr.mu_batch(f, grid)))
    assert est.sup_value <= mu_max / math.sqrt(2.0) * (1 + 1e-6)


def test_lipschitz_pole_reports_infinite():
    est = nr.lipschitz_ratio(ex.parse("1/(1-2*z1)", 1), 400, seed=2)
    assert math.isfinite(est.sup_value)  # chordal distance stays finite across poles


# ---------------------------------------------------------------- orbits

def test_translate_orbit_at_zero_parameter():
    f = ex.parse("exp(z1)", 1)
    (g,) = nr.translate_orbit(f, [(0j, 0.0)])
    for z in (0.3 + 0.1j, -0.2j):
        assert abs(g(z) - f(-z)) < 1e-15


def test_translate_value_at_origin():
    f = ex.parse("z1^2+1", 1)
    a, theta = 0.4 + 0.1j, 0.8
    (g,) = nr.translate_orbit(f, [(a, theta)])
    expect = f(np.exp(1j * theta) * a)
    assert abs(g(0j) - expect) < 1e-14


def test_translate_orbit_rejects_large_a():
    with pytest.raises(InputError):
        nr.translate_orbit(ex.parse("z1", 1), [(1.2 + 0j, 0.0)])


def test_orbit_weighted_bound_identity():
    # translates of z: the boundary-weighted sharp never exceeds 1
    f = ex.parse("z1", 1)
    params = nr.random_disc_params(50, seed=3)
    orbit = nr.translate_orbit(f, params)
    K = sp.disc_grid(0.5, radii=25, angles=48)
    weight = 1.0 - np.abs(K) ** 2
    worst = max(float(np.max(weight * nr.sharp_batch(g, K))) for g in orbit)
    assert worst <= 1.0 + 1e-9


def test_orbit_plain_sharp_bound_identity():
    # plain sharp on |z| <= r picks up the factor 1/(1-r^2) against the
    # weighted bound B=1; at r=1/2 the ceiling is 4/3, attained when the
    # translate centers its zero on the boundary of the grid
    f = ex.parse("z1", 1)
    params = nr.random_disc_params(50, seed=3)
    orbit = nr.translate_orbit(f, params)
    K = sp.disc_grid(0.5, radii=25, angles=48)
    est = nr.marty_sup(orbit, K)
    assert est.sup_value <= (4.0 / 3.0) * (1 + 1e-9)
    assert est.sup_value > 1.0  # the plain quantity really does exceed B


def test_orbit_of_bounded_function_bounded():
    f = ex.parse("z1^2", 1)
    params = nr.random_disc_params(20, seed=4)
    orbit = nr.translate_orbit(f, params)
    est = nr.marty_sup(orbit, sp.disc_grid(0.5, radii=20, angles=32))
    assert est.sup_value <= 2.0  # any disc-to-disc map obeys the Schwarz ceiling


def test_ball_orbit_zero_parameter():
    f = ex.parse("z1*z2", 2)
    (g,) = nr.ball_orbit(f, [np.zeros(2, dtype=complex)])
    z = np.array([0.2 + 0.1j, -0.3j])
    assert abs(g(z) - f(-z)) < 1e-15


def test_ball_orbit_involution():
    f = ex.parse("exp(z1)*z2", 2)
    a = np.array([0.3 + 0.2j, -0.1j])
    (g,) = nr.ball_orbit(f, [a])
    (h,) = nr.ball_orbit(g, [a])
    for trial in range(10):
        z = sp.uniform_ball_points(2, 1, 0.9, 900 + trial)[0]
        assert abs(h(z) - f(z)) <= 1e-10 * max(1.0, abs(f(z)))


def test_ball_orbit_agrees_at_fixed_point():
    f = ex.parse("z1+z2^2", 2)
    a = np.array([0.4 + 0j, 0.2 - 0.1j])
    s = math.sqrt(1 - float(np.vdot(a, a).real))
    m = a / (1 + s)
    (g,) = nr.ball_orbit(f, [a])
    assert abs(g(m) - f(m)) <= 1e-12


# ------------------------------------------------------------ ball ratios

def test_ball_normal_ratio_constant_zero():
    Z = sp.uniform_ball_points(2, 40, 0.9, 31)
    V = sp.unit_sphere_points(2, 8, 32)
    est = nr.ball_normal_ratio(ex.parse("0.7", 2), Z, V)
    assert est.sup_value == 0.0


def test_ball_normal_ratio_coordinate_bounded():
    Z = sp.uniform_ball_points(2, 400, 0.95, 33)
    V = sp.unit_sphere_points(2, 16, 34)
    est = nr.ball_normal_ratio(ex.parse("z1", 2), Z, V)
    assert est.sup_value <= 1.0 + 1e-12


def test_ball_normal_ratio_pullback_constancy():
    f = ex.parse("z1*z2+0.3*z1", 2)
    a = np.array([0.3 + 0.1j, -0.2 + 0j])
    phi = mt.ball_automorphism(a)
    comp = ex.substitute(f, phi.components)
    B = mt.BallDomain(2)
    for trial in range(30):
        z = sp.uniform_ball_points(2, 1, 0.8, 950 + trial)[0]
        v = sp.unit_sphere_points(2, 1, 960 + trial)[0]
        r0 = nr.levi_form(comp, z, v) / mt.bergman_norm_sq(B, z, v)
        w, dv = phi(z), phi.pushforward(z, v)
        r1 = nr.levi_form(f, w, dv) / mt.bergman_norm_sq(B, w, dv)
        assert abs(r0 - r1) <= 1e-6 * max(r1, 1e-9)


def test_ball_normal_ratio_growth_series_nondecreasing():
    Z = sp.uniform_ball_points(2, 100, 0.9, 35)
    V = sp.unit_sphere_points(2, 8, 36)
    est = nr.ball_normal_ratio(ex.parse("exp(z1)*z2", 2), Z, V)
    sups = [s for _, s in est.growth_series]
    assert sups == sorted(sups)


def test_kobayashi_check_matches_scaled_ratio_pointwise():
    f = ex.parse("exp(z1)*z2+z1", 2)
    B = mt.BallDomain(2)
    n = 2
    for trial in range(40):
        z = sp.uniform_ball_points(2, 1, 0.9, 970 + trial)[0]
        v = sp.unit_sphere_points(2, 1, 980 + trial)[0]
        levi = nr.levi_form(f, z, v)
        lhs = levi / mt.kobayashi_closed_form_ball(z, v) ** 2
        rhs = (n + 1) * levi / mt.bergman_norm_sq(B, z, v)
        assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1e-12)


def test_disc_theorem_along_kobayashi_geodesics():
    # psi(l) = z + t v_hat l/(1 - q l) is a complex geodesic of the ball
    # through z in direction v: F_K(psi, psi') = 1/(1-|l|^2), so the disc
    # quantity (1-|l|^2) sharp(f o psi) is sqrt(levi_form)/F_K along it
    battery = ["z1", "z1^2 - z2^2", "z1*z2", "(2*z1 - 1)/(2 - z1)", "exp(z1 + z2)"]
    for case in range(20):
        n = 2 + case % 3
        z = sp.uniform_ball_points(n, 1, 0.95, 600 + case)[0]
        v = sp.unit_sphere_points(n, 1, 700 + case)[0] * (0.5 + case)
        v_hat = v / np.linalg.norm(v)
        pair = complex(np.sum(v_hat * z.conjugate()))  # <v_hat, z>
        t, mu = mt._extremal_parameters(float(np.vdot(z, z).real), abs(pair))
        q = -(1.0 - mu) * pair / abs(pair)

        def psi(lam):
            w = 1.0 - q * lam
            return ([zk + t * vk * lam / w for zk, vk in zip(z, v_hat)],
                    [t * vk / w ** 2 for vk in v_hat])

        lam = sp.uniform_disc_points(50, 0.9, 800 + case)
        weight = 1.0 - np.abs(lam) ** 2
        points, tangents = (np.stack(cols, axis=1) for cols in psi(lam))
        fk = np.array([mt.kobayashi_closed_form_ball(p, d) for p, d in zip(points, tangents)])
        assert np.abs(fk * weight - 1.0).max() <= 1e-12
        for text in battery:
            f = ex.parse(text, n)
            vals, deriv, pole = map_jets(f, psi, lam)
            assert not pole.any()
            lhs = weight * np.abs(deriv) / (1.0 + np.abs(vals) ** 2)
            rhs = np.array([math.sqrt(nr.levi_form(f, p, d)) for p, d in zip(points, tangents)]) / fk
            assert np.all(np.abs(lhs - rhs) <= 1e-12 * rhs), text


def test_kobayashi_check_coordinate_bounded():
    v = nr.kobayashi_normality_check(ex.parse("z1", 2))
    assert v.classification == nr.BOUNDED
    assert abs(v.estimate.sup_value - 1.0) <= 1e-12


def test_kobayashi_check_detects_axis_blowup():
    v = nr.kobayashi_normality_check(ex.parse("sin(1/(1-z1))", 2))
    assert v.classification == nr.UNBOUNDED_TREND
    assert v.trend_ratio >= nr.GROWTH_FACTOR


# ------------------------------------------------- row-blocked ratio reducer

def _eager_ratio(f, Z, V, scale):
    """The whole (points x vectors) matrix levi / (scale * F_K^2), as the
    ball ratios computed it before the row-blocked reducer."""
    vals, grads, pole = ex.eval_jet_batch(f, Z)
    assert not pole.any()
    contr = grads @ V.T
    levi = np.abs(contr) ** 2 / (1.0 + np.abs(vals) ** 2)[:, None] ** 2
    s = np.einsum("ij,ij->i", Z, Z.conjugate()).real
    d = 1.0 - s
    v2 = np.einsum("ij,ij->i", V, V.conjugate()).real
    pair = Z.conjugate() @ V.T
    fk2 = v2[None, :] / d[:, None] + np.abs(pair) ** 2 / (d ** 2)[:, None]
    return levi / (scale * fk2)


def _eager_ball_normal_ratio(f, Z, V):
    ratio = _eager_ratio(f, Z, V, f.arity + 1)
    flat = int(np.argmax(ratio))
    i, j = divmod(flat, ratio.shape[1])
    series = []
    best = -math.inf
    for i2 in range(Z.shape[0]):
        best = max(best, float(np.max(ratio[i2])))
        series.append((float(i2 + 1), best))
    step = max(1, len(series) // 16)
    series = series[step - 1::step] if len(series) > 16 else series
    return nr.SupEstimate(float(ratio[i, j]), Z[i], samples=int(ratio.size),
                          growth_series=series)


def _eager_kobayashi_check(f, z_rungs, V, ladder):
    deep = z_rungs[-1]
    ratio = _eager_ratio(f, deep, V, 1)
    sups = []
    best = -math.inf
    arg = None
    for rung in z_rungs:
        block = ratio[:rung.shape[0]]
        i1, j1 = divmod(int(np.argmax(block)), block.shape[1])
        if block[i1, j1] > best:
            best = float(block[i1, j1])
            arg = deep[i1]
        sups.append(float(np.max(block)))
    label, trend = nr.classify_trend(sups)
    est = nr.SupEstimate(max(sups), arg, samples=int(ratio.size),
                         growth_series=list(zip([float(e) for e in ladder], sups)))
    return nr.Verdict(label, est, threshold=nr.GROWTH_FACTOR, trend_ratio=trend)


def _canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


REDUCER_EXPRS = {
    1: ["z1^3-2*z1", "exp(40/(1-z1))", "0.7"],
    2: ["exp(z1)*z2+z1", "0.7+i", "exp(40/(1-z1))", "sin(1/(1-z1))"],
    3: ["z1*z2+z3", "3", "exp(40/(1-z1))"],
    4: ["z1*z4+z2*z3^2", "exp(40/(1-z1))"],
    8: ["z1*z8+z2*z3^2-exp(z4)*z5+z6*z7", "exp(40/(1-z1))"],
}


def _all_rows(f, Z, V, scale):
    """The kernel's maximum of every row of the ratio table."""
    return nr._levi_ratio_tables(nr._ratio_inputs(f, Z, V), np.arange(Z.shape[0]), scale)


# rows per block asked of the budget: 1 (clamped to 2, see the reducer),
# small counts that split the rungs of every grid below, and the default
@pytest.mark.parametrize("rows", [1, 3, 7, 50, None])
def test_ball_ratios_match_the_whole_matrix(monkeypatch, rows):
    rng = np.random.default_rng(rows or 0)
    ladder = (0.2, 0.1, 0.02, 0.01)
    nan_seen = False
    for case, n in enumerate([1, 2, 3, 4] * 3 + [8] * 2):
        text = REDUCER_EXPRS[n][case % len(REDUCER_EXPRS[n])]
        f = ex.parse(text, n)
        seed = int(rng.integers(1000))
        z_rungs = sp.ball_ladder_grids(n, ladder, int(rng.integers(1, 12)),
                                       int(rng.integers(1, 6)), seed)
        V = sp.unit_sphere_points(n, int(rng.integers(1, 24)), seed + 1)
        V = V * rng.uniform(0.1, 3.0, (V.shape[0], 1))
        if rows is not None:
            monkeypatch.setattr(nr, "RATIO_BLOCK_BYTES", rows * 16 * V.shape[0])
        Z = z_rungs[-1][rng.permutation(z_rungs[-1].shape[0])]
        with np.errstate(all="ignore"):
            want_k = _canonical(_eager_kobayashi_check(f, z_rungs, V, ladder))
            got_k = _canonical(nr.kobayashi_normality_check(f, z_rungs, V, ladder))
            want_b = _canonical(_eager_ball_normal_ratio(f, Z, V))
            got_b = _canonical(nr.ball_normal_ratio(f, Z, V))
        assert got_k == want_k, (text, seed)
        assert got_b == want_b, (text, seed)
        # every row maximum, not only those the reports show
        with np.errstate(all="ignore"):
            want = np.max(_eager_ratio(f, Z, V, 1), axis=1)
            got = _all_rows(f, Z, V, 1)
        assert got.tobytes() == want.tobytes(), (text, seed)
        nan_seen |= "NaN" in want_k
    assert nan_seen  # the overflowing f reaches the NaN rows


def test_kobayashi_check_memory_is_bounded():
    # the bound prunes the first f to a few rows; a constant f has every
    # bound at the floor, so every row goes through the gathered blocks
    for text in ("exp(z1)*z2 + z3^2", "0.7"):
        f = ex.parse(text, 3)
        tracemalloc.start()
        try:
            nr.kobayashi_normality_check(f, directions=256, radii=32, v_count=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, text


@pytest.mark.parametrize("text", ["exp(z1)*z2 + z3^2", "0.7"])
def test_ball_ratios_evaluate_the_jets_once(monkeypatch, text):
    calls, jets = [], ex.eval_jet_batch

    def counting(f, Z):
        calls.append(Z.shape[0])
        return jets(f, Z)

    monkeypatch.setattr(ex, "eval_jet_batch", counting)
    f = ex.parse(text, 3)
    nr.kobayashi_normality_check(f, directions=256, radii=32, v_count=64)
    assert calls == [41182]
    calls.clear()
    nr.ball_normal_ratio(f, sp.uniform_ball_points(3, 5000, 0.95, 1),
                         sp.unit_sphere_points(3, 200, 2))
    assert calls == [5000]


@pytest.mark.parametrize("rungs", [
    [[[0.9, 0.0]], [[0.1, 0.0], [0.2, 0.0]]],  # not a prefix of the deepest
    [[[0.1, 0.0]], [[0.1, 0.0], [1.2, 0.0]]],  # a point outside the ball
    [[[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]], [[0.1, 0.0], [0.2, 0.0]]],  # longer
    [np.empty((0, 2)), [[0.1, 0.0]]],  # empty rung
    [[[0.1, 0.0], [math.nan, 0.0]]],
    # prefixes of the deepest, but shorter than the rung before: not cumulative
    [[[0.1, 0.0], [0.2, 0.0]], [[0.1, 0.0]], [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]],
])
def test_kobayashi_check_rejects_bad_rungs(rungs):
    z_rungs = [np.asarray(r, dtype=complex).reshape(-1, 2) for r in rungs]
    with pytest.raises(InputError):
        nr.kobayashi_normality_check(ex.parse("z1", 2), z_rungs=z_rungs,
                                     v_samples=np.eye(2),
                                     ladder=sp.DEFAULT_LADDER[:len(z_rungs)])


@pytest.mark.parametrize("ladder,used", [(sp.DEFAULT_LADDER, 2),
                                         (sp.DEFAULT_LADDER + (0.005,), 6)],
                         ids=["2-rungs", "6-rungs"])
def test_kobayashi_check_needs_one_rung_per_ladder_entry(ladder, used):
    # valid prefix rungs, but 2 or 6 of them against the 5-entry default ladder
    z_rungs = sp.ball_ladder_grids(2, ladder, 4, 3)[:used]
    with pytest.raises(InputError, match="for a ladder of 5 entries"):
        nr.kobayashi_normality_check(ex.parse("z1", 2), z_rungs=z_rungs,
                                     v_samples=np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kobayashi_check_default_rungs_match_passed_ones(n):
    # the default rungs are prefix views of one array and skip the prefix
    # test; passed as views or as copies they must give the same report
    rng = np.random.default_rng(40 + n)
    for case, ladder in enumerate([(0.2,), (0.3, 0.05), sp.DEFAULT_LADDER,
                                   (0.5, 0.2, 0.1, 0.01, 1e-3, 1e-4)]):
        f = ex.parse(REDUCER_EXPRS[n][case % len(REDUCER_EXPRS[n])], n)
        kw = dict(ladder=ladder, directions=int(rng.integers(1, 40)),
                  radii=int(rng.integers(1, 12)), v_count=int(rng.integers(1, 20)),
                  seed=int(rng.integers(1000)))
        grids = sp.ball_ladder_grids(n, ladder, kw["directions"], kw["radii"], kw["seed"])
        with np.errstate(all="ignore"):
            reports = {canonical_json(nr.kobayashi_normality_check(f, z_rungs=z, **kw).to_dict())
                       for z in (None, grids, [g.copy() for g in grids])}
        assert len(reports) == 1, (n, ladder)


@pytest.mark.parametrize("Z", [[[1.0, 0.0]], [[0.1, 0.0], [math.nan, 0.0]], np.empty((0, 2))])
def test_ball_normal_ratio_rejects_points_off_the_open_ball(Z):
    with pytest.raises(InputError):
        nr.ball_normal_ratio(ex.parse("z1", 2), Z, np.eye(2))


def test_ball_ratios_test_the_open_ball_on_the_d_they_divide_by():
    # within an ulp of the sphere, d = 1 - |z|^2 > 0 and |z| < 1 computed by
    # np.linalg.norm can disagree: the ratios follow d, which the formulas
    # divide by, so a point whose norm rounds to 1.0 is accepted when d > 0
    # and one whose norm is below 1 is rejected when d rounds to 0
    Z = sp.unit_sphere_points(2, 4000, 9)
    d = 1.0 - np.einsum("ij,ij->i", Z, Z.conjugate()).real
    norm = np.linalg.norm(Z, axis=1)
    inside = np.flatnonzero((d > 0.0) & (norm == 1.0))
    outside = np.flatnonzero((d <= 0.0) & (norm < 1.0))
    assert inside.size and outside.size
    f, V = ex.parse("z1*z2", 2), np.eye(2)
    for i in inside[:5]:
        est = nr.ball_normal_ratio(f, Z[i:i + 1], V)
        assert np.array_equal(est.argmax_point, Z[i])
        nr.kobayashi_normality_check(f, z_rungs=[Z[i:i + 1]], v_samples=V, ladder=(0.1,))
    for i in outside[:5]:
        with pytest.raises(InputError, match="open unit ball"):
            nr.ball_normal_ratio(f, Z[i:i + 1], V)
        with pytest.raises(InputError, match="open unit ball"):
            nr.kobayashi_normality_check(f, z_rungs=[Z[i:i + 1]], v_samples=V, ladder=(0.1,))


@pytest.mark.parametrize("V", [
    [[1.0, 0.0], [0.0, 0.0]],
    [[1.0, 0.0], [math.nan, 0.0]],
    [[1.0, 0.0], [0.0, complex(0.0, math.inf)]],
    [[1e-200, 0.0]],  # squared norm underflows to zero
    [[1e200, 1e200]],  # squared norm overflows
    np.empty((0, 2)),
])
@pytest.mark.parametrize("check", ["ball_normal_ratio", "kobayashi_normality_check"])
def test_ball_ratios_reject_degenerate_vectors(V, check):
    f = ex.parse("exp(z1)*z2", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            if check == "ball_normal_ratio":
                nr.ball_normal_ratio(f, sp.uniform_ball_points(2, 20, 0.9, 3), V)
            else:
                nr.kobayashi_normality_check(f, v_samples=V, directions=4, radii=2)


@pytest.mark.parametrize("rungs,message", [
    ([[[0.1, 0.0], [math.nan, 0.0]]], "open unit ball"),
    ([[[0.1, 0.0]], [[0.1, 0.0], [math.nan, 0.0]]], "open unit ball"),
    # NaN in the same place of a rung and the deepest still reads as a prefix
    ([[[math.nan, 0.0]], [[math.nan, 0.0], [0.1, 0.0]]], "open unit ball"),
    ([[[0.2, 0.0]], [[math.nan, 0.0], [0.1, 0.0]]], "nonempty prefix"),
    ([[[math.nan, 0.0]], [[0.1, 0.0], [0.2, 0.0]]], "nonempty prefix"),
])
def test_kobayashi_check_names_the_fault_of_a_nan_rung(rungs, message):
    z_rungs = [np.asarray(r, dtype=complex).reshape(-1, 2) for r in rungs]
    with pytest.raises(InputError, match=message):
        nr.kobayashi_normality_check(ex.parse("z1", 2), z_rungs=z_rungs,
                                     v_samples=np.eye(2),
                                     ladder=sp.DEFAULT_LADDER[:len(z_rungs)])


# ------------------------------------------- bound-pruned ratio reducer

def _bound_points(n, seed):
    """The origin, a point at |z| = 1 - 1e-9 and seeded points of the ball."""
    edge = sp.unit_sphere_points(n, 1, seed)[0] * (1.0 - 1e-9)
    return np.concatenate([np.zeros((1, n)), edge[None, :],
                           sp.uniform_ball_points(n, 40, 0.99, seed + 1)])


@pytest.mark.parametrize("scale", [1, "n+1"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_ratio_row_bounds_dominate_the_table_and_are_attained(n, scale):
    scale, checked = n + 1 if scale == "n+1" else 1, 0
    for case, text in enumerate(REDUCER_EXPRS[n]):
        f = ex.parse(text, n)
        Z = _bound_points(n, 40 * n + case)
        V = sp.unit_sphere_points(n, 24, 50 + case) * np.geomspace(0.01, 100, 24)[:, None]
        with np.errstate(all="ignore"):
            bound = nr._ratio_row_bounds(nr._ratio_inputs(f, Z, V), scale)
            table = _eager_ratio(f, Z, V, scale)
            top = _all_rows(f, Z, V, scale)
        nan = np.isnan(table).any(axis=1)
        assert np.all(bound[nan] == np.inf), text
        assert np.all(table[~nan] <= bound[~nan, None]), text
        assert np.all(top[~nan] <= bound[~nan]), text
        # the closed form S, attained at v = d (conj(g) - z conj(g.z))
        vals, grads, _ = ex.eval_jet_batch(f, Z)
        for z, val, g, b in zip(Z, vals, grads, bound):
            d, gz = 1.0 - np.vdot(z, z).real, np.sum(g * z)
            with np.errstate(all="ignore"):
                S = d * (np.vdot(g, g).real - abs(gz) ** 2) / ((1 + abs(val) ** 2) ** 2 * scale)
            if not (np.isfinite(b) and S > 0.0):
                continue
            checked += 1
            v = d * (g.conjugate() - z * gz.conjugate())
            attained = nr.levi_form(f, z, v) / (scale * mt.kobayashi_closed_form_ball(z, v) ** 2)
            assert abs(attained - S) <= 2.0 ** -44 / d * S, (text, z)
            assert S <= b <= S * (1 + 2 * (n + 1) * 2.0 ** -40 / d) + 2.0 ** -999, (text, z)
    assert checked >= 40  # the origin, the edge point and most of the others


def _rungs(deep, lengths):
    return [deep[:k] for k in lengths]


def _reducer_cases():
    """(f, cumulative z rungs, V, ladder) for the reports of the pruned
    reducer: NaN rows, a constant, exact ties, extreme scales of f and V,
    one and two points, and repeated rung lengths."""
    ladder = (0.2, 0.1, 0.02, 0.01)
    grids = {n: sp.ball_ladder_grids(n, ladder, 6, 3, 60 + n) for n in (2, 3)}
    lengths = {n: [len(r) for r in grids[n]] for n in (2, 3)}
    dirs = {n: sp.unit_sphere_points(n, 9, 70 + n) for n in (2, 3)}
    cases = [("exp(40/(1-z1))", 2, grids[2], dirs[2]),
             ("0.7+i", 3, grids[3], dirs[3])]
    # ties: every point twice, and f, V symmetric under z1 <-> z2
    deep = np.repeat(grids[2][-1], 2, axis=0)
    sym = np.concatenate([dirs[2], dirs[2][:, ::-1], np.eye(2)])
    cases.append(("z1*z2", 2, _rungs(deep, [2 * k for k in lengths[2]]), sym))
    for scale in ("1e-150", "1e150"):
        cases.append((f"{scale}*(z1*z2+z3)", 3, grids[3], dirs[3]))
    for scale in (1e-150, 1e-50, 1e50, 1e150):
        cases.append(("exp(z1)*z2+z1", 2, grids[2], dirs[2] * scale))
    deep = grids[3][-1]
    for ks in ([1, 1, 1, 1], [1, 1, 2, 2], [2, 2, 2, 2], [3, 3, 40, 40],
               [lengths[3][0]] * 2 + [lengths[3][-1]] * 2):
        cases.append(("z1*z2*z3+z2^2", 3, _rungs(deep, ks), dirs[3]))
    return [(ex.parse(t, n), z, V, ladder) for t, n, z, V in cases]


def test_pruned_ratios_match_the_whole_matrix_byte_for_byte():
    nan_seen = False
    for f, z_rungs, V, ladder in _reducer_cases():
        with np.errstate(all="ignore"):
            want = _canonical(_eager_kobayashi_check(f, z_rungs, V, ladder))
            got = _canonical(nr.kobayashi_normality_check(f, z_rungs, V, ladder))
            assert got == want
            nan_seen |= "NaN" in want
            for Z in (z_rungs[-1], z_rungs[-1][::-1]):
                want = _canonical(_eager_ball_normal_ratio(f, Z, V))
                assert _canonical(nr.ball_normal_ratio(f, Z, V)) == want
    assert nan_seen


def test_kobayashi_check_evaluates_a_tenth_of_the_heavy_shape_at_most(monkeypatch):
    # the discs workload's heavy check: arity 3, 256 directions, 32 radii, 64 vectors
    kernel, rows = nr._levi_ratio_tables, []

    def counting(inputs, take, scale):
        rows.append(take.size)
        return kernel(inputs, take, scale)

    monkeypatch.setattr(nr, "_levi_ratio_tables", counting)
    for text in ("exp(z1)*z2 + z3^2",
                 "(0.3+0.2*i)*z1*z2 - 0.5*z3^2 + 0.4*z1*z3 + (0.2-0.6*i)*z2 + 0.7*z1*z2*z3"):
        f = ex.parse(text, 3)
        rows.clear()
        got = nr.kobayashi_normality_check(f, directions=256, radii=32, v_count=64)
        points = got.estimate.samples // (3 + 64)
        assert points == 41182 and sum(rows) <= points // 10, (text, sum(rows))
        # bounds that prune nothing give the same report
        with monkeypatch.context() as m:
            m.setattr(nr, "_ratio_row_bounds", lambda inputs, scale: np.full(inputs[0].shape[0], np.inf))
            want = nr.kobayashi_normality_check(f, directions=256, radii=32, v_count=64)
        assert _canonical(got) == _canonical(want)


# ------------------------------------------------------------- disc probe

def test_disc_probe_constant_zero():
    est = nr.disc_family_probe(ex.parse("1+2*i", 2), count=20, degree=2, seed=1)
    assert est.sup_value == 0.0


def test_disc_probe_coordinate_against_kobayashi_constant():
    f = ex.parse("z1", 2)
    probe = nr.disc_family_probe(f, count=200, degree=2, seed=9)
    check = nr.kobayashi_normality_check(f)
    c_kob = check.estimate.sup_value
    assert probe.sup_value**2 <= 4.0 * c_kob + 1e-12
    assert probe.sup_value <= 4.0 * c_kob + 1e-12


def test_disc_probe_affine_through_origin_matches_linescan():
    import holonorm.linescan as ls

    f = ex.parse("exp(z1)*z2+z1", 2)
    D = ls.direction_set(2, count=6, seed=1)
    # the line test slices along phase-canonical representatives, so the
    # affine discs must be parametrized the same way to share grids
    discs = [mt.DiscMap(np.array([[0, 0], list(ls.canonical_direction(c))],
                                 dtype=complex))
             for c in D.directions]
    probe = nr.disc_family_probe(f, discs=discs, radii=48, angles=64)
    verdict, _ = ls.alexander_function_test(f, D, radii=48, angles=64)
    assert abs(probe.sup_value - verdict.estimate.sup_value) <= 1e-9


def test_disc_probe_rejects_escaping_disc():
    f = ex.parse("z1", 2)
    bad = mt.DiscMap(np.array([[0.9, 0.0], [0.5, 0.0]], dtype=complex))
    with pytest.raises(Exception) as err:
        nr.disc_family_probe(f, discs=[bad])
    assert isinstance(err.value, ArithmeticError)


def test_each_disc_evaluates_its_ring_once(monkeypatch):
    calls = []
    ring_norm_max = mt._ring_norm_max
    monkeypatch.setattr(mt, "_ring_norm_max", lambda vals: calls.append(1) or ring_norm_max(vals))
    disc = mt.DiscMap(np.array([[0.1, 0.0], [0.5, 0.2]]))
    for _ in range(3):
        assert mt.require_contained(disc).contained_in_unit_ball()
    assert disc.boundary_max() < 1.0 and len(calls) == 1
    calls.clear()
    discs = mt.random_disc_maps(3, 20, 2, 5)
    # one ring per disc, and one more for a disc rescaled to fit
    made = len(calls)
    assert len(discs) <= made <= 2 * len(discs)
    # the probe's re-check of the discs it is given reads their cached maxima
    nr.disc_family_probe(ex.parse("z1 + z2*z3", 3), discs=discs, radii=6, angles=8)
    assert len(calls) == made


def _e1_disc(r):
    return mt.DiscMap(np.array([[0, 0], [r, 0]], dtype=complex))


def test_disc_probe_keeps_a_disc_with_a_few_failed_samples():
    # |exp(760 * 0.99 l)|^2 overflows to NaN f# on 4.0% of the first disc's
    # samples, all near l = 1; its sup 760 * 0.99 / 2 is taken at l = 0
    f = ex.parse("exp(760*z1)", 2)
    with np.errstate(all="ignore"):
        est = nr.disc_family_probe(f, discs=[_e1_disc(0.99), _e1_disc(0.5)])
    assert [s for _, s in est.growth_series] == [760 * 0.99 / 2] * 5
    assert est.argmax_point == 0


@pytest.mark.parametrize("text,kwargs", [
    ("exp(800*z1)", {"discs": [_e1_disc(0.99), _e1_disc(0.5)]}),  # 7.9% of the first disc
    ("exp(1300*z1)", {"count": 20, "degree": 2, "seed": 0}),
])
def test_disc_probe_raises_when_a_disc_fails_over_5_percent(text, kwargs):
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="disc probe"):
        nr.disc_family_probe(ex.parse(text, 2), **kwargs)


# ------------------------------------------------ shared f# kernel and reducer

def test_rung_sups_ties_go_to_the_first_member():
    pts = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    tables = [np.array([1.0, 2.0, 0.0, 0.0]), np.array([2.0, 0.0, 5.0, 5.0])]
    sups, arg, running = nr.rung_sups(tables, [2, 4], pts)
    assert sups == [2.0, 5.0]
    assert arg == pts[2]  # first sample at the member's max
    assert running == [2.0, 5.0]
    sups, arg, _ = nr.rung_sups(tables, [2], pts)
    assert arg == pts[1]  # member 0 wins the tie at 2.0


def test_rung_sups_nan_top_makes_its_rung_nan():
    pts = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    tables = [np.array([1.0, 3.0, math.nan, 9.0]), np.array([2.0, 0.5, 4.0, 0.0])]
    sups, arg, _ = nr.rung_sups(tables, [2, 3, 4], pts)
    assert sups[0] == 3.0
    assert math.isnan(sups[1]) and math.isnan(sups[2])
    # the argmax point never comes from a NaN: it stays at the finite rung
    assert arg == pts[1]
    sups, arg, _ = nr.rung_sups([np.array([math.nan, 1.0])], [1, 2], pts[:2])
    assert math.isnan(sups[0]) and math.isnan(sups[1]) and arg is None


def test_spherical_kernel_matches_the_inline_formulas():
    # the formulas the kernel replaced, as each caller wrote them
    oracles = {
        "mu": lambda vals, d, g, w: 2.0 * np.abs(d) / (1.0 + np.abs(vals) ** 2),
        "sharp": lambda vals, d, g, w: np.linalg.norm(g, axis=1) / (1.0 + np.abs(vals) ** 2),
        "disc": lambda vals, d, g, w: w * np.abs(d) / (1.0 + np.abs(vals) ** 2),
    }
    kernels = {
        "mu": lambda vals, d, g, w: nr._spherical(np.multiply(2.0, np.abs(d)), vals),
        "sharp": lambda vals, d, g, w: nr._spherical(np.linalg.norm(g, axis=1), vals),
        "disc": lambda vals, d, g, w: nr._spherical(w * np.abs(d), vals),
    }
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = 500
        # magnitudes from 1e-200 to 1e200, so |f|^2 overflows past 1e154
        mag = 10.0 ** rng.uniform(-200, 200, (3, m))
        phase = np.exp(2j * np.pi * rng.uniform(size=(3, m)))
        vals, d = mag[0] * phase[0], mag[1] * phase[1]
        g = (mag[2] * phase[2])[:, None] * rng.standard_normal((m, 3))
        w = rng.uniform(size=m)
        assert (np.abs(vals) > 1e154).any()
        with np.errstate(all="ignore"):
            for name, oracle in oracles.items():
                got = kernels[name](vals, d, g, w)
                assert got.tobytes() == oracle(vals, d, g, w).tobytes(), name
            # the Levi form's denominator is the kernel's, squared
            want = (1.0 + np.abs(vals) ** 2) ** 2
            assert np.square(nr._sphere_den(vals)).tobytes() == want.tobytes()


def rung_sups_prefix(tables, lengths, points):
    """The reducer ``rung_sups`` replaced, which took np.argmax over each
    rung's whole prefix; kept as its oracle."""
    sups, best, arg = [], -math.inf, None
    for m in lengths:
        js = [int(np.argmax(q[:m])) for q in tables]
        tops = [float(q[j]) for q, j in zip(tables, js)]
        top = math.nan if any(map(math.isnan, tops)) else max(tops)
        sups.append(top)
        if top > best:
            best, arg = top, points[js[tops.index(top)]]
    return sups, arg, list(itertools.accumulate(tops, max))


@pytest.mark.parametrize("seed", range(40))
def test_rung_sups_reads_each_annulus_as_the_prefix_argmax(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 60))
    pts = np.arange(m) + 0.5j
    # nondecreasing lengths, some repeated, the last covering every sample
    lengths = sorted(rng.integers(1, m + 1, size=int(rng.integers(0, 6))).tolist()) + [m]
    # few distinct values, so ties are common, with NaN and -inf mixed in
    values = np.array([0.0, 1.0, 2.0, 2.0, -math.inf, math.nan])
    p = [0.25, 0.25, 0.2, 0.2, 0.08, 0.02 * (seed % 2)]
    tables = [rng.choice(values, size=m, p=np.divide(p, sum(p)))
              for _ in range(int(rng.integers(1, 5)))]
    got, want = nr.rung_sups(tables, lengths, pts), rung_sups_prefix(tables, lengths, pts)
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert got[1] == want[1] or (got[1] is None and want[1] is None)
    assert np.array_equal(got[2], want[2], equal_nan=True)


def test_finite_or_raise_hands_back_a_clean_table_itself():
    clean = np.array([0.0, -1.0, 1e308, 5e-324])
    assert nr._finite_or_raise(clean, "t") is clean
    dirty = np.arange(40.0)
    dirty[[3, 7]] = [math.nan, math.inf]  # 5% of the samples: dropped
    got = nr._finite_or_raise(dirty, "t")
    assert got is not dirty and math.isnan(dirty[3])
    want = np.arange(40.0)
    want[[3, 7]] = -math.inf
    assert got.tobytes() == want.tobytes()
    dirty[11] = -math.inf  # 7.5%
    with pytest.raises(ArithmeticError, match="t: 7.5% of samples failed to evaluate"):
        nr._finite_or_raise(dirty, "t")
