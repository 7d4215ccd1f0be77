"""Line-slice tests on the ball and the Hartogs series sweep."""

import itertools
import math

import numpy as np
import pytest

import holonorm as hn
from holonorm import linescan as ls
from holonorm import normality as nr
from holonorm import sampling as sp
from holonorm import series as se
from oracles import partial_sum, restrict_function


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def geometric_series(arity: int = 2, degree: int = 20) -> se.PowerSeries:
    return se.PowerSeries(arity, degree, {(k,) + (0,) * (arity - 1): 1.0
                                          for k in range(degree + 1)})


def factorial_series(degree: int) -> se.PowerSeries:
    return se.PowerSeries(1, degree, {(k,): float(math.factorial(k))
                                      for k in range(degree + 1)})


def exp_two_vars(degree: int = 40) -> se.PowerSeries:
    # exp(z1 + z2), total degree truncation
    terms = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            terms[(a, b)] = 1.0 / (math.factorial(a) * math.factorial(b))
    return se.PowerSeries(2, degree, terms)


# --------------------------------------------------------------------------
# restrict_function (the test oracle of the slices)
# --------------------------------------------------------------------------

def test_restrict_z1_along_first_axis_is_identity():
    f = hn.parse("z1", 2)
    g = restrict_function(f, [1.0, 0.0])
    for lam in (0.0, 0.3, -0.5 + 0.2j, 0.9j):
        assert hn.eval_jet(g, [lam]).value == pytest.approx(lam, abs=1e-15)


def test_restrict_product_along_diagonal():
    f = hn.parse("z1 * z2", 2)
    c = unit([1.0, 1.0])
    g = restrict_function(f, c)
    for lam in (0.2, 0.7j, -0.4 + 0.1j):
        assert hn.eval_jet(g, [lam]).value == pytest.approx(lam * lam / 2,
                                                            abs=1e-14)


def test_restrict_chain_rule_against_gradient():
    f = hn.parse("exp(z1) * sin(z2) + z3^2 / (3 - z1)", 3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = unit(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        g = restrict_function(f, c)
        lam = 0.3
        lhs = hn.eval_jet(g, [lam]).gradient[0]
        jet = hn.eval_jet(f, lam * c)
        rhs = np.dot(jet.gradient, c)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_restrict_arity_mismatch():
    with pytest.raises(hn.InputError):
        restrict_function(hn.parse("z1", 2), [1.0])


# --------------------------------------------------------------------------
# directions
# --------------------------------------------------------------------------

def test_canonical_direction_quotients_phase():
    rng = np.random.default_rng(3)
    c = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    base = ls.canonical_direction(c)
    for theta in (0.4, 2.9, -1.3):
        other = ls.canonical_direction(np.exp(1j * theta) * c)
        assert np.allclose(other, base, atol=1e-14)
    k = int(np.argmax(np.abs(base)))
    assert base[k].imag == pytest.approx(0.0, abs=1e-15)
    assert base[k].real > 0


def test_canonical_direction_rejects_zero():
    with pytest.raises(hn.InputError):
        ls.canonical_direction([0.0, 0.0])


def test_direction_set_axes_lead_and_unit():
    D = ls.direction_set(3, count=10, seed=4)
    assert len(D) == 13
    assert np.array_equal(D.directions[:3], np.eye(3, dtype=complex))
    assert np.allclose(np.linalg.norm(D.directions, axis=1), 1.0, atol=1e-12)


def test_direction_set_seeded_and_prefix_nested():
    A = ls.direction_set(2, count=8, seed=0)
    B = ls.direction_set(2, count=8, seed=0)
    assert np.array_equal(A.directions, B.directions)
    big = ls.direction_set(2, count=16, seed=0)
    assert np.array_equal(A.directions, big.directions[:len(A)])


def test_direction_set_validation():
    with pytest.raises(hn.InputError):
        ls.direction_set(2, count=-1)


# --------------------------------------------------------------------------
# alexander_function_test
# --------------------------------------------------------------------------

def test_alexander_constant_is_bounded_zero():
    f = hn.parse("1 + 2*i", 2)
    v, reports = ls.alexander_function_test(f, ls.direction_set(2, 8, 0),
                                            radii=12, angles=16)
    assert v.classification == nr.BOUNDED
    assert v.estimate.sup_value == pytest.approx(0.0, abs=1e-15)
    assert all(r.verdict.classification == nr.BOUNDED for r in reports)


def test_alexander_coordinate_function_bounded_by_one():
    f = hn.parse("z1", 2)
    v, reports = ls.alexander_function_test(f, ls.direction_set(2, 16, 1),
                                            radii=16, angles=24)
    assert v.classification == nr.BOUNDED
    # each slice is lambda * c1 with |c1| <= 1, so the weighted quantity
    # (1-|l|^2)|c1|/(1+|c1 l|^2) never exceeds 1
    assert v.estimate.sup_value <= 1.0 + 1e-12
    for r in reports:
        assert r.verdict.estimate.sup_value <= 1.0 + 1e-12


def test_alexander_flags_axis_singularity():
    f = hn.parse("sin(1/(1 - z1))", 2)
    v, _ = ls.alexander_function_test(f, ls.direction_set(2, 4, 0))
    assert v.classification == nr.UNBOUNDED_TREND
    assert v.trend_ratio >= nr.GROWTH_FACTOR


def test_alexander_phase_invariance_of_reports():
    f = hn.parse("sin(z1*z2) + 1/(2 - z1)", 2)
    rng = np.random.default_rng(7)
    c = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    ref, _ = ls.alexander_function_test(
        f, ls.DirectionSet(np.asarray([c])),
        radii=12, angles=16)
    for theta in (0.3, 1.7, -2.2):
        rot = np.exp(1j * theta) * c
        v, _ = ls.alexander_function_test(
            f, ls.DirectionSet(np.asarray([rot])),
            radii=12, angles=16)
        assert abs(v.estimate.sup_value - ref.estimate.sup_value) <= 1e-10
        assert v.classification == ref.classification


def test_alexander_input_errors():
    f = hn.parse("z1", 2)
    with pytest.raises(hn.InputError):
        ls.alexander_function_test(f, ls.direction_set(3, 4, 0))
    empty = ls.DirectionSet(np.zeros((0, 2), dtype=complex))
    with pytest.raises(hn.InputError):
        ls.alexander_function_test(f, empty)


# --------------------------------------------------------------------------
# alexander_family_test
# --------------------------------------------------------------------------

def test_family_of_powers_is_bounded():
    fam = [hn.parse(f"z1^{k}", 2) for k in range(1, 11)]
    v, reports, ball = ls.alexander_family_test(
        fam, ls.direction_set(2, 8, 0), radii=16, angles=24)
    assert v.classification == nr.BOUNDED
    assert math.isfinite(ball.sup_value)
    assert all(r.verdict.classification == nr.BOUNDED for r in reports)


def test_family_of_dilations_trends_unbounded():
    fam = [hn.parse(f"({j}) * z1", 2) for j in range(1, 13)]
    v, _, ball = ls.alexander_family_test(
        fam, ls.direction_set(2, 4, 0), radii=12, angles=16)
    assert v.classification == nr.UNBOUNDED_TREND
    # the direct ball supremum grows with the family too
    assert ball.sup_value > 5.0


def test_singleton_family_degenerates_to_function_test():
    f = hn.parse("exp(z1) * z2", 2)
    D = ls.direction_set(2, 12, seed=5)
    vf, rf = ls.alexander_function_test(f, D, radii=12, angles=16)
    vF, rF, _ = ls.alexander_family_test([f], D, radii=12, angles=16)
    assert vF.classification == vf.classification
    assert vF.estimate.sup_value == pytest.approx(vf.estimate.sup_value,
                                                  rel=1e-12)
    for a, b in zip(rf, rF):
        assert np.array_equal(a.direction, b.direction)
        assert b.verdict.classification == a.verdict.classification
        assert b.verdict.estimate.sup_value == pytest.approx(
            a.verdict.estimate.sup_value, rel=1e-12)


def test_family_test_rejects_empty_family():
    with pytest.raises(hn.InputError):
        ls.alexander_family_test([], ls.direction_set(2, 4, 0))


# --------------------------------------------------------------------------
# hartogs_test
# --------------------------------------------------------------------------

def test_hartogs_geometric_converges_with_unit_radius():
    v, reports, probe = ls.hartogs_test(geometric_series(),
                                        ls.direction_set(2, 32, 0))
    assert v.classification == ls.CONVERGENT
    assert min(r.radius for r in reports) == pytest.approx(1.0, abs=1e-9)
    assert probe is not None and math.isfinite(probe.sup_value)


def test_hartogs_factorial_diverges():
    v, reports, _ = ls.hartogs_test(factorial_series(64),
                                    ls.direction_set(1, 0, 0),
                                    probe_partial_sums=False)
    assert v.classification == ls.DIVERGENT
    r = reports[0]
    assert r.radius < ls.DEFAULT_RMIN
    assert r.radius < r.radius_half * 0.95


def test_hartogs_factorial_short_truncation_with_loose_floor():
    v, _, _ = ls.hartogs_test(factorial_series(20), ls.direction_set(1, 0, 0),
                              R_min=0.2, probe_partial_sums=False)
    assert v.classification == ls.DIVERGENT


def test_hartogs_factorial_short_truncation_default_floor_inconclusive():
    # estimated radius ~0.12 still sits above the default floor of 0.05,
    # so shrink alone is not enough to call divergence
    v, _, _ = ls.hartogs_test(factorial_series(20), ls.direction_set(1, 0, 0),
                              probe_partial_sums=False)
    assert v.classification == nr.INCONCLUSIVE


def test_hartogs_exponential_converges_everywhere():
    v, reports, _ = ls.hartogs_test(exp_two_vars(40),
                                    ls.direction_set(2, 16, 3),
                                    probe_partial_sums=False)
    assert v.classification == ls.CONVERGENT
    assert min(r.radius for r in reports) >= 5.0


def test_hartogs_phase_invariant_radii():
    F = geometric_series()
    rng = np.random.default_rng(9)
    c = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    _, ref, _ = ls.hartogs_test(
        F, ls.DirectionSet(np.asarray([c])),
        probe_partial_sums=False)
    for theta in (0.9, 2.5):
        rot = np.exp(1j * theta) * c
        _, reps, _ = ls.hartogs_test(
            F, ls.DirectionSet(np.asarray([rot])),
            probe_partial_sums=False)
        assert abs(reps[0].radius - ref[0].radius) <= 1e-10
        assert abs(reps[0].radius_half - ref[0].radius_half) <= 1e-10


def test_hartogs_more_directions_never_raise_min_radius():
    # radius varies by direction for this series, and direction sets with a
    # common seed are prefix nested, so the minimum can only move down
    degree = 20
    terms = {}
    for k in range(degree + 1):
        for a in range(k + 1):
            terms[(a, k - a)] = terms.get((a, k - a), 0.0) + \
                math.comb(k, a) * 2.0 ** (k - a)
    F = se.PowerSeries(2, degree, terms)
    mins = []
    for count in (4, 8, 16, 32):
        _, reports, _ = ls.hartogs_test(F, ls.direction_set(2, count, 0),
                                        probe_partial_sums=False)
        mins.append(min(r.radius for r in reports))
    assert all(b <= a + 1e-15 for a, b in zip(mins, mins[1:]))


def test_hartogs_validation():
    with pytest.raises(hn.InputError):
        ls.hartogs_test(se.PowerSeries(1, 12, {(k,): 1.0 for k in range(13)}))
    with pytest.raises(hn.InputError):
        ls.hartogs_test(geometric_series(), R_min=0.0)
    with pytest.raises(hn.InputError):
        ls.hartogs_test(geometric_series(), ls.direction_set(3, 4, 0))


def test_hartogs_rejects_non_finite_rmin():
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(hn.InputError, match="R_min"):
            ls.hartogs_test(geometric_series(), ls.direction_set(2, 4, 0), R_min=bad,
                            probe_partial_sums=False)


def exp_series(a, degree: int) -> se.PowerSeries:
    """Total-degree truncation of exp(a . z): coefficients a^alpha / alpha!."""
    terms = {}
    for alpha in itertools.product(range(degree + 1), repeat=len(a)):
        if sum(alpha) <= degree:
            terms[alpha] = complex(np.prod([ak ** e / math.factorial(e)
                                            for ak, e in zip(a, alpha)]))
    return se.PowerSeries(len(a), degree, terms)


def seeded_vector(seed: int, arity: int, norm: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return norm * unit(rng.standard_normal(arity) + 1j * rng.standard_normal(arity))


def scaled_factorial_series(degree: int = 32, s: float = 0.1) -> se.PowerSeries:
    # k! (s z1)^k + k! (s z1 z2)^(k/2): radius about e / (s k) along e1
    terms = {(k, 0): math.factorial(k) * s ** k for k in range(degree + 1)}
    terms.update({(k, k): math.factorial(k) * s ** k for k in range(1, degree // 2 + 1)})
    return se.PowerSeries(2, degree, terms)


@pytest.mark.parametrize("F, count, seed", [
    pytest.param(geometric_series(2, 24), 16, 0, id="geometric"),
    pytest.param(exp_series(seeded_vector(1, 2, 0.6), 24), 16, 3, id="exp2"),
    pytest.param(exp_series(seeded_vector(2, 3, 1.3), 20), 8, 5, id="exp3"),
    pytest.param(scaled_factorial_series(), 8, 7, id="scaled-factorial"),
])
def test_hartogs_probe_matches_marty_sup_of_partial_sum_trees(F, count, seed):
    """The probe reads the partial sums' jets from the homogeneous parts;
    marty_sup of the partial_sum trees on the same grid is the reference."""
    v, _, probe = ls.hartogs_test(F, ls.direction_set(F.arity, count, seed), seed=seed)
    worst = v.estimate.sup_value
    ball_r = min(0.5 * worst if math.isfinite(worst) else 1.0, 4.0)
    grid = sp.ball_grid(F.arity, ball_r, 32, 8, seed)
    ref = nr.marty_sup([partial_sum(F, m) for m in range(F.max_degree + 1)], grid)
    assert abs(probe.sup_value - ref.sup_value) <= 1e-13 * ref.sup_value
    assert np.array_equal(probe.argmax_point, ref.argmax_point)
    assert probe.samples == ref.samples
    growth = [s for _, s in probe.growth_series]
    assert [k for k, _ in probe.growth_series] == [float(k) for k in range(1, F.max_degree + 2)]
    assert all(b >= a for a, b in zip(growth, growth[1:]))
    assert np.allclose(growth, [s for _, s in ref.growth_series], rtol=1e-13, atol=0)


def test_hartogs_dense_arity3_degree48_with_probe():
    """The 20,825-term truncation of exp(a . z) in three variables.

    On a unit line the coefficients are s^m / m! with s <= |a|, and
    m! >= (m / e)^m, so every windowed root-test radius is at least
    lo / (e |a|), lo the window's first degree.  On the ball of radius at
    most 4 the partial sums' sharp is at most |grad f_m| <= |a| e^(4 |a|).
    """
    a = seeded_vector(7, 3, 0.6)
    F = exp_series(a, 48)
    assert len(F) == 20825
    v, reports, probe = ls.hartogs_test(F)
    assert v.classification == ls.CONVERGENT
    lo = F.max_degree - math.ceil(se.DEFAULT_WINDOW * F.max_degree) + 1
    norm = float(np.linalg.norm(a))
    assert min(r.radius for r in reports) >= lo / (math.e * norm)
    assert 0.0 < probe.sup_value <= norm * math.exp(4.0 * norm)


def test_hartogs_gap_series_reads_its_radius_on_its_eleven_degrees():
    """sum of z1^(2^k), k = 0..10: a Hadamard gap series of radius 1.

    Only degree 1024 lies in the full window and degree 512 in the half
    one, so e1 reads radius 1 under both; e2 sees no terms.  The partial
    sums change at the 11 degrees that hold terms, and the probe has one
    member for each."""
    F = se.PowerSeries(2, 1024, {(2 ** k, 0): 1.0 for k in range(11)})
    assert F.degrees.tolist() == [2 ** k for k in range(11)]
    v, reports, probe = ls.hartogs_test(F, ls.direction_set(2, 0, 0))
    assert v.classification == ls.CONVERGENT
    assert (reports[0].radius, reports[0].radius_half) == (1.0, 1.0)
    assert reports[1].radius == math.inf
    grid = sp.ball_grid(2, 0.5, 32, 8, 0)
    ref = nr.marty_sup([partial_sum(F, int(m)) for m in F.degrees], grid)
    assert len(probe.growth_series) == 11
    assert probe.samples == ref.samples == 11 * len(grid)
    assert abs(probe.sup_value - ref.sup_value) <= 1e-13 * ref.sup_value


def test_hartogs_polynomial_below_max_degree_is_entire():
    # every multi-index of degree at most 10, declared at max_degree 40
    terms = {(a, d - a): 1.0 for d in range(11) for a in range(d + 1)}
    F = se.PowerSeries(2, 40, terms)
    D = ls.direction_set(2, 16, 1)
    assert se.restrict_to_lines(F, D.directions).shape == (len(D), 11)
    v, reports, _ = ls.hartogs_test(F, D, probe_partial_sums=False)
    assert v.classification == ls.CONVERGENT
    assert all(r.radius == r.radius_half == math.inf for r in reports)


def test_line_report_serialization():
    v, reports = ls.alexander_function_test(
        hn.parse("z1", 2), ls.direction_set(2, 0, 0), radii=8, angles=8)
    d = reports[0].to_dict()
    assert set(d) == {"direction", "verdict"}
    assert d["direction"][0] == {"re": 1.0, "im": 0.0}
    _, hreports, _ = ls.hartogs_test(geometric_series(),
                                     ls.direction_set(2, 0, 0),
                                     probe_partial_sums=False)
    hd = hreports[0].to_dict()
    assert set(hd) == {"direction", "radius", "radius_half"}
    assert hd["radius"] == pytest.approx(1.0, abs=1e-12)


def test_family_test_rejects_mixed_arities_up_front():
    fam = [hn.parse("z1", 2), hn.parse("z1*z3", 3)]
    with pytest.raises(hn.InputError, match="family members must share one arity"):
        ls.alexander_family_test(fam, ls.direction_set(3, 4, 0))
