"""Power series: partial sums, line restriction, root-test radius."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holonorm.series as se
from holonorm.errors import InputError

EVAL_RTOL = 1e-10
RADIUS_TOL = 1e-9

SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_partial_sum_truncates():
    F = se.PowerSeries(1, 2, {(0,): 1 + 0j, (1,): 1 + 0j, (2,): 1 + 0j})
    p1 = se.partial_sum(F, 1)
    assert abs(p1(0.5 + 0j) - 1.5) < 1e-15


def test_partial_sum_empty_series():
    F = se.PowerSeries(1, 4, {})
    p = se.partial_sum(F, 3)
    assert p(0.7 + 0.2j) == 0j


def test_partial_sum_factorial_prefix():
    F = se.PowerSeries(1, 10, {(k,): complex(math.factorial(k)) for k in range(11)})
    p3 = se.partial_sum(F, 3)
    z = 0.5 + 0j
    assert abs(p3(z) - (1 + z + 2 * z**2 + 6 * z**3)) < 1e-14


def test_partial_sum_range_check():
    F = se.PowerSeries(1, 2, {(1,): 1 + 0j})
    with pytest.raises(InputError):
        se.partial_sum(F, 3)
    with pytest.raises(InputError):
        se.partial_sum(F, -1)


def test_restrict_product_diagonal():
    F = se.PowerSeries(2, 2, {(1, 1): 1 + 0j})
    u = se.restrict_to_line(F, (SQRT_HALF, SQRT_HALF))
    assert np.allclose(u.coefficients, [0, 0, 0.5], atol=1e-15)


def test_restrict_line_in_zero_set():
    F = se.PowerSeries(2, 3, {(1, 0): 1 + 0j})
    u = se.restrict_to_line(F, (0.0, 1.0))
    assert np.all(u.coefficients == 0)


def test_restrict_diagonal_factorials():
    terms = {(k, k): complex(math.factorial(k)) for k in range(7)}
    F = se.PowerSeries(2, 12, terms)
    u = se.restrict_to_line(F, (SQRT_HALF, SQRT_HALF))
    for k in range(7):
        expect = math.factorial(k) / 2**k
        assert abs(u.coefficients[2 * k] - expect) < 1e-12 * max(1.0, expect)
    assert np.all(u.coefficients[1::2] == 0)


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
    uf = se.restrict_to_line(F, c).coefficients
    ug = se.restrict_to_line(G, c).coefficients
    uh = se.restrict_to_line(H, c).coefficients
    assert np.allclose(uh, a * uf + b * ug, atol=1e-12)


def test_restriction_matches_partial_sum_evaluation():
    terms = {(2, 0): 1 + 0j, (1, 1): -0.5j, (0, 3): 0.25 + 0.1j, (0, 0): 2 + 0j}
    F = se.PowerSeries(2, 3, terms)
    p = se.partial_sum(F, 3)
    c = np.array([0.6 + 0.3j, 0.1 - 0.73484692283495345j])
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12
    u = se.restrict_to_line(F, c)
    for lam in (0.2 + 0.1j, -0.3j, 0.05 + 0.05j):
        direct = p(np.array(lam * c))
        powers = np.array([lam**m for m in range(len(u.coefficients))])
        resummed = np.sum(u.coefficients * powers)
        assert abs(direct - resummed) <= EVAL_RTOL * max(1.0, abs(direct))


@given(theta=st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=40, deadline=None)
def test_restrict_phase_rotation(theta):
    F = se.PowerSeries(2, 4, {(2, 0): 1 + 2j, (1, 1): -1j, (0, 4): 3 + 0j})
    c = np.array([SQRT_HALF, SQRT_HALF])
    u0 = se.restrict_to_line(F, c).coefficients
    u1 = se.restrict_to_line(F, np.exp(1j * theta) * c).coefficients
    phases = np.exp(1j * theta * np.arange(len(u0)))
    assert np.allclose(u1, u0 * phases, atol=1e-12)
    assert np.allclose(np.abs(u1), np.abs(u0), atol=1e-12)


def test_radius_geometric_ones():
    u = se.UniSeries(np.ones(41, dtype=complex))
    assert se.radius_estimate(u, 0.5) == 1.0


def test_radius_reciprocal_factorials_entire():
    u = se.UniSeries(np.array([1.0 / math.factorial(m) for m in range(41)], dtype=complex))
    assert se.radius_estimate(u, 0.5) >= 2.0


def test_radius_factorials_divergent():
    u = se.UniSeries(np.array([float(math.factorial(m)) for m in range(41)], dtype=complex))
    assert se.radius_estimate(u, 0.5) <= 0.1


@pytest.mark.parametrize("r", [0.25, 1.0, 3.0, 17.5])
def test_radius_exact_for_pure_powers(r):
    u = se.UniSeries(np.array([r**-m for m in range(33)], dtype=complex))
    assert abs(se.radius_estimate(u, 0.5) - r) <= RADIUS_TOL * r


def test_radius_skips_zero_coefficients():
    # lacunary: only even powers present
    coeffs = np.zeros(33, dtype=complex)
    coeffs[::2] = [2.0**-m for m in range(0, 33, 2)]
    u = se.UniSeries(coeffs)
    assert abs(se.radius_estimate(u, 0.5) - 2.0) <= 1e-9


def test_radius_all_windowed_zero_is_infinite():
    coeffs = np.zeros(21, dtype=complex)
    coeffs[0] = 1.0
    coeffs[1] = 1.0
    u = se.UniSeries(coeffs)
    assert se.radius_estimate(u, 0.5) == math.inf


def test_radius_needs_enough_coefficients():
    with pytest.raises(InputError):
        se.radius_estimate(se.UniSeries(np.ones(3, dtype=complex)), 0.5)


def test_radius_window_validation():
    u = se.UniSeries(np.ones(10, dtype=complex))
    for w in (0.0, -0.5, 1.5):
        with pytest.raises(InputError):
            se.radius_estimate(u, w)


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


@pytest.mark.parametrize("text", ["1e400", "Infinity", "NaN"])
def test_non_finite_coefficients_rejected(text):
    payload = json.loads('{"arity": 1, "max_degree": 2, "terms": [{"alpha": [1], "re": %s}]}' % text)
    with pytest.raises(InputError, match="not finite"):
        se.series_from_dict(payload)
    with pytest.raises(InputError, match="not finite"):
        se.PowerSeries(1, 2, {(1,): complex(0.0, float(text))})


def test_geometric_series_fixture():
    G = se.geometric_series(2, 8)
    u = se.restrict_to_line(G, (1.0, 0.0))
    assert np.allclose(u.coefficients, np.ones(9), atol=1e-15)
