"""Power series: partial sums, line restriction, root-test radius."""

import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonorm import expr as ex
import holonorm.series as se
from holonorm.errors import InputError
from oracles import partial_sum, restrict_to_line

EVAL_RTOL = 1e-10
RADIUS_TOL = 1e-9

SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_partial_sum_truncates():
    F = se.PowerSeries(1, 2, {(0,): 1 + 0j, (1,): 1 + 0j, (2,): 1 + 0j})
    p1 = partial_sum(F, 1)
    assert abs(p1(0.5 + 0j) - 1.5) < 1e-15


def test_partial_sum_empty_series():
    F = se.PowerSeries(1, 4, {})
    p = partial_sum(F, 3)
    assert p(0.7 + 0.2j) == 0j


def test_partial_sum_factorial_prefix():
    F = se.PowerSeries(1, 10, {(k,): complex(math.factorial(k)) for k in range(11)})
    p3 = partial_sum(F, 3)
    z = 0.5 + 0j
    assert abs(p3(z) - (1 + z + 2 * z**2 + 6 * z**3)) < 1e-14


def test_partial_sum_range_check():
    F = se.PowerSeries(1, 2, {(1,): 1 + 0j})
    with pytest.raises(InputError):
        partial_sum(F, 3)
    with pytest.raises(InputError):
        partial_sum(F, -1)


EPS = np.finfo(float).eps


@st.composite
def lacunary_series(draw):
    """Sparse series of arity 1-4 and degree 16-64 whose terms sit on a
    strided, gappy set of degrees, with directions whose coordinates are 0 or
    of modulus at least 1e-3 before normalising: with coefficients of modulus
    1e-3..1e3 no power or product underflows, so rounding stays relative."""
    arity, degree = draw(st.integers(1, 4)), draw(st.integers(16, 64))
    stride = draw(st.integers(1, 9))
    terms = {}
    for _ in range(draw(st.integers(1, 30))):
        m = stride * draw(st.integers(0, degree // stride))
        cuts = sorted(draw(st.lists(st.integers(0, m), min_size=arity - 1, max_size=arity - 1)))
        alpha = tuple(int(x) for x in np.diff([0, *cuts, m]))
        mod = 10.0 ** draw(st.floats(-3.0, 3.0))
        terms[alpha] = mod * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
    part = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
    rows = [np.eye(arity)[0]]
    for _ in range(draw(st.integers(1, 3))):
        c = np.array([complex(draw(part), draw(part)) for _ in range(arity)])
        if np.any(c):
            rows.append(c / np.linalg.norm(c))
    return se.PowerSeries(arity, degree, terms), np.array(rows, dtype=complex)


@given(case=lacunary_series())
@settings(max_examples=80, deadline=None)
def test_restriction_matches_mpmath_reference(case):
    """Each b_m of the batched restriction against a 40-digit sum.

    A term a c^alpha takes at most m + arity complex products, each within
    1.2 eps relative, and the sum of count_m terms adds at most count_m eps
    sum |terms|; an entry within 8 (count_m + 1) eps sum |terms| is zeroed.
    So a returned b_m != 0 lies within (count_m + 2 (m + arity)) eps sum
    |terms| of the exact value, and a zeroed one is exact zero within that
    plus the zeroing band.  A row alone (``restrict_to_line``) is the
    batched row, bit for bit.
    """
    F, C = case
    B = se.restrict_to_lines(F, C)
    assert B.shape == (len(C), len(F.degrees))
    counts = np.zeros(F.max_degree + 1, dtype=np.intp)
    counts[F.degrees] = np.diff(F.offsets)
    with mpmath.workdps(40):
        for c, sparse in zip(C, B):
            row = restrict_to_line(F, c)
            assert row[F.degrees].tobytes() == sparse.tobytes()
            ref = [mpmath.mpc(0)] * (F.max_degree + 1)
            scale = [mpmath.mpf(0)] * (F.max_degree + 1)
            for alpha, coeff in F.terms.items():
                t = mpmath.mpc(coeff.real, coeff.imag)
                for ck, a in zip(c, alpha):
                    t *= mpmath.mpc(ck.real, ck.imag) ** a
                ref[sum(alpha)] += t
                scale[sum(alpha)] += abs(t)
            for m, b in enumerate(row):
                err = float(abs(mpmath.mpc(b.real, b.imag) - ref[m]))
                bound = (counts[m] + 2 * (m + F.arity)) * EPS * float(scale[m])
                if b == 0:
                    bound += 8 * (counts[m] + 1) * EPS * float(scale[m])
                assert err <= bound, (m, b, complex(ref[m]), float(scale[m]))


@pytest.mark.parametrize("count", [1, 2, 40])
def test_restrict_to_line_is_the_batched_row(count):
    # a series of one term is where numpy's broadcast and one-element
    # in-place complex multiply loops would round apart from its
    # contiguous loop, so a row alone would differ from the batch
    rng = np.random.default_rng(count)
    terms = {(int(a), int(b)): complex(*rng.standard_normal(2))
             for a, b in rng.integers(0, 9, (count, 2))}
    F = se.PowerSeries(2, 16, terms)
    C = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    B = se.restrict_to_lines(F, C)
    for c, row in zip(C, B):
        assert restrict_to_line(F, c)[F.degrees].tobytes() == row.tobytes()


def test_restrict_zeroes_rounding_noise_only():
    # along (0.6, 0.8) the degree-2 part 16 z1^2 - 9 z2^2 vanishes, and the
    # rounding of its two terms is zeroed; scaled by 1 - 1e-9, 5.76e-9 is
    # left, far above the noise band of 8 * 3 * eps * 11.52 = 6.1e-14
    c = (0.6, 0.8)
    exact = se.PowerSeries(2, 2, {(2, 0): 16.0, (0, 2): -9.0})
    near = se.PowerSeries(2, 2, {(2, 0): 16.0, (0, 2): -9.0 * (1 - 1e-9)})
    assert restrict_to_line(exact, c)[2] == 0
    assert restrict_to_line(near, c)[2] == pytest.approx(5.76e-9, rel=1e-6)


def test_partial_sum_jets_match_the_trees():
    F = se.PowerSeries(2, 5, {(0, 0): 1 - 1j, (2, 1): 0.5j, (0, 4): 2 + 0j, (1, 4): -1 + 0j})
    Z = np.array([[0.3 - 0.2j, 0.5j], [0.0, 0.0], [-0.7 + 0.1j, 0.2 + 0.6j]])
    vals, grads = se.partial_sum_jets(F, Z)
    assert F.degrees.tolist() == [0, 3, 4, 5]
    assert vals.shape == (4, 3) and grads.shape == (4, 3, 2)
    for m in range(6):
        # f_m is the partial sum at the last degree that holds terms up to m
        i = np.searchsorted(F.degrees, m, side="right") - 1
        tree_vals, tree_grads, _ = ex.eval_jet_batch(partial_sum(F, m), Z)
        assert np.allclose(vals[i], tree_vals, rtol=1e-14, atol=1e-15)
        assert np.allclose(grads[i], tree_grads, rtol=1e-14, atol=1e-15)


def test_restrict_product_diagonal():
    F = se.PowerSeries(2, 2, {(1, 1): 1 + 0j})
    u = restrict_to_line(F, (SQRT_HALF, SQRT_HALF))
    assert np.allclose(u, [0, 0, 0.5], atol=1e-15)


def test_restrict_line_in_zero_set():
    F = se.PowerSeries(2, 3, {(1, 0): 1 + 0j})
    u = restrict_to_line(F, (0.0, 1.0))
    assert np.all(u == 0)


def test_restrict_diagonal_factorials():
    terms = {(k, k): complex(math.factorial(k)) for k in range(7)}
    F = se.PowerSeries(2, 12, terms)
    u = restrict_to_line(F, (SQRT_HALF, SQRT_HALF))
    for k in range(7):
        expect = math.factorial(k) / 2**k
        assert abs(u[2 * k] - expect) < 1e-12 * max(1.0, expect)
    assert np.all(u[1::2] == 0)


def test_restrict_is_linear():
    a, b = 2.0 - 1.0j, 0.5 + 3.0j
    F = se.PowerSeries(2, 3, {(1, 0): 1 + 0j, (1, 1): 2 + 0j})
    G = se.PowerSeries(2, 3, {(1, 0): 1j, (0, 2): 1 + 1j})
    combo_terms = {}
    for alpha, cf in F.terms.items():
        combo_terms[alpha] = combo_terms.get(alpha, 0) + a * cf
    for alpha, cf in G.terms.items():
        combo_terms[alpha] = combo_terms.get(alpha, 0) + b * cf
    H = se.PowerSeries(2, 3, combo_terms)
    c = (0.8 + 0.1j, 0.59160797830996161j)  # unit norm
    uf = restrict_to_line(F, c)
    ug = restrict_to_line(G, c)
    uh = restrict_to_line(H, c)
    assert np.allclose(uh, a * uf + b * ug, atol=1e-12)


def test_restriction_matches_partial_sum_evaluation():
    terms = {(2, 0): 1 + 0j, (1, 1): -0.5j, (0, 3): 0.25 + 0.1j, (0, 0): 2 + 0j}
    F = se.PowerSeries(2, 3, terms)
    p = partial_sum(F, 3)
    c = np.array([0.6 + 0.3j, 0.1 - 0.73484692283495345j])
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12
    u = restrict_to_line(F, c)
    for lam in (0.2 + 0.1j, -0.3j, 0.05 + 0.05j):
        direct = p(np.array(lam * c))
        powers = np.array([lam**m for m in range(len(u))])
        resummed = np.sum(u * powers)
        assert abs(direct - resummed) <= EVAL_RTOL * max(1.0, abs(direct))


@given(theta=st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=40, deadline=None)
def test_restrict_phase_rotation(theta):
    F = se.PowerSeries(2, 4, {(2, 0): 1 + 2j, (1, 1): -1j, (0, 4): 3 + 0j})
    c = np.array([SQRT_HALF, SQRT_HALF])
    u0 = restrict_to_line(F, c)
    u1 = restrict_to_line(F, np.exp(1j * theta) * c)
    phases = np.exp(1j * theta * np.arange(len(u0)))
    assert np.allclose(u1, u0 * phases, atol=1e-12)
    assert np.allclose(np.abs(u1), np.abs(u0), atol=1e-12)


def dense_radius(coeffs, window):
    """radius_estimate of the dense coefficients b_0 .. b_M."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return se.radius_estimate(coeffs, np.arange(len(coeffs)), len(coeffs) - 1, window)


def test_radius_geometric_ones():
    assert dense_radius(np.ones(41), 0.5) == 1.0


def test_radius_reciprocal_factorials_entire():
    assert dense_radius([1.0 / math.factorial(m) for m in range(41)], 0.5) >= 2.0


def test_radius_factorials_divergent():
    assert dense_radius([float(math.factorial(m)) for m in range(41)], 0.5) <= 0.1


@pytest.mark.parametrize("r", [0.25, 1.0, 3.0, 17.5])
def test_radius_exact_for_pure_powers(r):
    assert abs(dense_radius([r**-m for m in range(33)], 0.5) - r) <= RADIUS_TOL * r


def test_radius_skips_zero_coefficients():
    # lacunary: only even powers present
    coeffs = np.zeros(33, dtype=complex)
    coeffs[::2] = [2.0**-m for m in range(0, 33, 2)]
    assert abs(dense_radius(coeffs, 0.5) - 2.0) <= 1e-9


def test_radius_all_windowed_zero_is_infinite():
    coeffs = np.zeros(21, dtype=complex)
    coeffs[0] = 1.0
    coeffs[1] = 1.0
    assert dense_radius(coeffs, 0.5) == math.inf


def test_radius_needs_enough_coefficients():
    with pytest.raises(InputError):
        dense_radius(np.ones(3), 0.5)


def test_radius_window_validation():
    for w in (0.0, -0.5, 1.5):
        with pytest.raises(InputError):
            dense_radius(np.ones(10), w)


def test_series_validation_rejects_bad_terms():
    with pytest.raises(InputError):
        se.PowerSeries(1, 2, {(3,): 1 + 0j})  # degree above cap
    with pytest.raises(InputError):
        se.PowerSeries(2, 2, {(1,): 1 + 0j})  # wrong index length
    with pytest.raises(InputError):
        se.PowerSeries(1, 2, {(-1,): 1 + 0j})


def test_series_drops_zero_coefficients():
    F = se.PowerSeries(1, 2, {(1,): 0j, (2,): 1 + 0j})
    assert (1,) not in F.terms
    assert (2,) in F.terms


def test_json_round_trip(tmp_path):
    F = se.PowerSeries(2, 3, {(1, 0): 1 - 2j, (0, 3): 0.5 + 0j})
    payload = se.series_to_dict(F)
    G = se.series_from_dict(payload)
    assert G.arity == F.arity and G.max_degree == F.max_degree
    assert G.terms == F.terms
    path = tmp_path / "series.json"
    path.write_text(json.dumps(payload))
    H = se.load_series(str(path))
    assert H.terms == F.terms


def test_json_duplicate_alpha_rejected():
    payload = {
        "arity": 1,
        "max_degree": 2,
        "terms": [
            {"alpha": [1], "re": 1.0, "im": 0.0},
            {"alpha": [1], "re": 2.0, "im": 0.0},
        ],
    }
    with pytest.raises(InputError):
        se.series_from_dict(payload)


@pytest.mark.parametrize("terms", [None, 3, ["a"], [None]])
def test_json_non_list_terms_rejected(terms):
    with pytest.raises(InputError):
        se.series_from_dict({"arity": 1, "max_degree": 2, "terms": terms})


@pytest.mark.parametrize("change", [
    {"terms": [{"alpha": [1.5, 0], "re": 1.0}]},
    {"terms": [{"alpha": "10", "re": 1.0}]},
    {"terms": [{"alpha": [True, 0], "re": 1.0}]},
    {"terms": [{"alpha": [1, 0], "re": "2.5"}]},
    {"terms": [{"alpha": [1, 0], "re": 1.0, "im": True}]},
    {"max_degree": 3.7},
    {"max_degree": "3"},
    {"arity": True, "terms": [{"alpha": [1], "re": 1.0}]},
])
def test_json_coercions_rejected(change):
    payload = {"arity": 2, "max_degree": 3, "terms": [{"alpha": [1, 0], "re": 1.0}], **change}
    with pytest.raises(InputError):
        se.series_from_dict(payload)


@pytest.mark.parametrize("alpha", [[1.5, 0], "10", [True, 0]])
def test_malformed_exponent_error_names_the_multi_index(alpha):
    payload = {"arity": 2, "max_degree": 3,
               "terms": [{"alpha": [0, 1], "re": 1.0}, {"alpha": alpha, "re": 1.0}]}
    given = repr(tuple(alpha) if isinstance(alpha, list) else alpha)
    with pytest.raises(InputError, match=re.escape(f"multi-index {given}: exponent")):
        se.series_from_dict(payload)


INTP_MAX = int(np.iinfo(np.intp).max)


@pytest.mark.parametrize("arity, max_degree, terms", [
    (10 ** 20, 3, {}),
    (1, 10 ** 20, {}),
    (1, INTP_MAX, {}),  # max_degree + 1 degrees would not fit an intp
    (2, 3, {(10 ** 19, 0): 1.0}),
], ids=["arity", "max_degree", "max_degree-intp-max", "exponent"])
def test_series_fields_outside_intp_rejected(arity, max_degree, terms):
    with pytest.raises(InputError, match="must lie in"):
        se.PowerSeries(arity, max_degree, terms)


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["1e400", "-1e400"])
def test_coefficients_beyond_float_range_are_not_finite(value):
    with pytest.raises(InputError, match="not finite"):
        se.PowerSeries(1, 3, {(1,): value})
    for part in ("re", "im"):
        payload = {"arity": 1, "max_degree": 3, "terms": [{"alpha": [1], "re": 1.0, part: value}]}
        with pytest.raises(InputError, match="not finite"):
            se.series_from_dict(payload)


def dense_arity3_series(degree: int = 48) -> se.PowerSeries:
    """Every multi-index of degree at most ``degree`` in three variables
    (20,825 at degree 48), with seeded coefficients of moduli 1e-300..1e300."""
    alphas = [(a, b, m - a - b) for m in range(degree + 1)
              for a in range(m + 1) for b in range(m - a + 1)]
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.integers(-300, 300, (len(alphas), 1))
    parts = rng.standard_normal((len(alphas), 2)) * scale
    return se.PowerSeries(3, degree, {alpha: complex(x, y) for alpha, (x, y) in zip(alphas, parts)})


def test_loading_checks_each_integer_once(monkeypatch):
    F = dense_arity3_series(6)
    payload = se.series_to_dict(F)
    calls = []
    check = se._integer

    def counted(value, what, **bounds):
        calls.append(what)
        return check(value, what, **bounds)

    monkeypatch.setattr(se, "_integer", counted)
    G = se.series_from_dict(payload)
    assert G.terms == F.terms
    assert len(calls) == len(F) * F.arity + 2
    assert calls.count("exponent") == len(F) * F.arity


def test_dense_series_round_trips_bit_for_bit(tmp_path):
    F = dense_arity3_series()
    assert len(F) == 20825
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(se.series_to_dict(F)))
    G = se.load_series(str(path))
    assert (G.arity, G.max_degree) == (F.arity, F.max_degree)
    assert G.terms == F.terms
    for name in ("exponents", "values", "degrees", "offsets"):
        got, want = getattr(G, name), getattr(F, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", ["1e400", "Infinity", "NaN"])
def test_non_finite_coefficients_rejected(text):
    payload = json.loads('{"arity": 1, "max_degree": 2, "terms": [{"alpha": [1], "re": %s}]}' % text)
    with pytest.raises(InputError, match="not finite"):
        se.series_from_dict(payload)
    with pytest.raises(InputError, match="not finite"):
        se.PowerSeries(1, 2, {(1,): complex(0.0, float(text))})


def test_geometric_series_fixture():
    G = se.geometric_series(2, 8)
    u = restrict_to_line(G, (1.0, 0.0))
    assert np.allclose(u, np.ones(9), atol=1e-15)
