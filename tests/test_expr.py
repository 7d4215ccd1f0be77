"""Parser and jet evaluation: grammar fidelity, gradients, pole signals."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holonorm.expr as ex
from holonorm.errors import InputError, ParseError, PoleError

FD_STEP = 1e-6
FD_RTOL = 1e-6
CHAIN_RTOL = 1e-10
LIN_TOL = 1e-12

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def central_fd_gradient(f, z, k, step=FD_STEP):
    zp = np.array(z, dtype=complex)
    zm = zp.copy()
    zp[k] += step
    zm[k] -= step
    return (f(zp) - f(zm)) / (2.0 * step)


def test_parse_square():
    f = ex.parse("z1*z1", 1)
    assert f(3.0 + 0j) == 9.0 + 0j
    assert f(1j) == -1.0 + 0j


def test_parse_mobius_values():
    f = ex.parse("(1+z1)/(1-z1)", 1)
    assert abs(f(0j) - 1.0) < 1e-15
    z = 0.25 + 0.5j
    assert abs(f(z) - (1 + z) / (1 - z)) < 1e-15


def test_parse_power_and_whitespace():
    f = ex.parse(" z1 * ( 1 - z1 ) ^ 2 ", 1)
    assert abs(f(0.5 + 0j) - 0.125) < 1e-15


def test_parse_imaginary_literal():
    f = ex.parse("2+3*i", 1)
    assert f(0j) == 2 + 3j


def test_parse_leading_sign():
    f = ex.parse("-z1+1", 1)
    assert f(0.25 + 0j) == 0.75 + 0j


@pytest.mark.parametrize(
    "text,arity,position",
    [
        ("z1+*z2", 2, 3),
        ("(z1", 1, 3),
        ("z1)", 1, 2),
        ("", 1, 0),
        ("z0", 1, 0),
        ("z3", 2, 0),
        ("z1^-2", 1, 3),
        ("exp", 1, 3),
        ("z1 z2", 2, 3),
        # letters and digits are ASCII only
        ("\u00e9", 1, 0),
        ("z1\u00b2", 1, 2),
        ("7\u0661", 1, 1),
        # longer than Python's 4,300-digit limit of int()
        pytest.param("z" + "1" * 5000, 1, 0, id="z-5000-digit-index"),
        pytest.param("z1^" + "1" * 5000, 1, 3, id="z1^-5000-digit-exponent"),
    ],
)
def test_parse_errors_carry_position(text, arity, position):
    with pytest.raises(ParseError) as err:
        ex.parse(text, arity)
    assert err.value.position == position
    assert f"offset {position}" in str(err.value)


@given(text=st.text(), arity=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_raises_parse_error(text, arity):
    try:
        ex.parse(text, arity)
    except (ParseError, InputError):
        pass


def test_jet_square_at_two():
    jet = ex.eval_jet(ex.parse("z1^2", 1), [2.0 + 0j])
    assert jet.value == 4.0 + 0j
    assert jet.gradient == [4.0 + 0j]


def test_jet_exp_gradient_equals_value():
    f = ex.parse("exp(z1)", 1)
    for z in (0j, 1.0 + 0j, 0.3 - 0.7j):
        jet = ex.eval_jet(f, [z])
        assert abs(jet.gradient[0] - jet.value) < 1e-14 * max(1.0, abs(jet.value))


def test_jet_mobius_finite_difference_oracle():
    f = ex.parse("(1+z1)/(1-z1)", 1)
    z = [0.3 + 0j]
    jet = ex.eval_jet(f, z)
    fd = central_fd_gradient(f, z, 0)
    assert abs(jet.gradient[0] - fd) / abs(fd) <= FD_RTOL


@pytest.mark.parametrize(
    "text,point",
    [
        ("z1^3+2*z1*z2", (0.4 + 0.1j, -0.2 + 0.3j)),
        ("exp(z1*z2)", (0.5 + 0j, 0.25 - 0.25j)),
        ("sin(z1)+cos(z2)", (0.1 + 0.2j, 0.7 + 0j)),
        ("(z1+z2)/(1-z1*z2)", (0.3 - 0.1j, 0.2 + 0.4j)),
    ],
)
def test_jet_gradient_finite_difference_battery(text, point):
    f = ex.parse(text, 2)
    jet = ex.eval_jet(f, list(point))
    for k in range(2):
        fd = central_fd_gradient(f, list(point), k)
        scale = max(abs(fd), 1e-9)
        assert abs(jet.gradient[k] - fd) / scale <= FD_RTOL


def test_chain_rule_through_substitution():
    # g(l) = f(l*c) must differentiate to sum_k d_k f(l c) * c_k
    f = ex.parse("exp(z1)*z2 + z1^2", 2)
    c = (0.6 + 0.2j, -0.5 + 0.4j)
    lam = ex.var_expr(1, 1)
    g = ex.substitute(f, [lam * ex.const_expr(c[0], 1), lam * ex.const_expr(c[1], 1)])
    for point in (0.3 + 0.1j, -0.2 + 0.5j):
        jet_g = ex.eval_jet(g, [point])
        jet_f = ex.eval_jet(f, [point * c[0], point * c[1]])
        expect = jet_f.gradient[0] * c[0] + jet_f.gradient[1] * c[1]
        assert abs(jet_g.gradient[0] - expect) / max(abs(expect), 1e-12) < CHAIN_RTOL


@given(a=finite_complex, b=finite_complex)
@settings(max_examples=60, deadline=None)
def test_jet_linearity(a, b):
    f = ex.parse("z1^2+z1", 1)
    g = ex.parse("sin(z1)", 1)
    combo = ex.const_expr(a, 1) * f + ex.const_expr(b, 1) * g
    z = [0.35 - 0.2j]
    jf, jg, jc = ex.eval_jet(f, z), ex.eval_jet(g, z), ex.eval_jet(combo, z)
    scale = max(1.0, abs(a) + abs(b))
    assert abs(jc.value - (a * jf.value + b * jg.value)) <= LIN_TOL * scale
    assert abs(jc.gradient[0] - (a * jf.gradient[0] + b * jg.gradient[0])) <= LIN_TOL * scale


@pytest.mark.parametrize("text", ["z1^3-2*z1+1", "(1+z1)/(2-z1)", "exp(z1)", "sin(z1)*cos(z1)"])
def test_conjugate_symmetry_real_coefficients(text):
    f = ex.parse(text, 1)
    for z in (0.3 + 0.4j, -0.7 + 0.1j, 1.2 - 0.9j):
        left = f(np.conjugate(z))
        right = np.conjugate(f(z))
        assert abs(left - right) <= 1e-13 * max(1.0, abs(right))


def test_pole_signal_scalar():
    f = ex.parse("1/z1", 1)
    with pytest.raises(PoleError):
        ex.eval_jet(f, [0j])


def test_pole_threshold_is_tiny():
    # denominators above the 1e-300 cutoff still evaluate
    f = ex.parse("1/z1", 1)
    jet = ex.eval_jet(f, [1e-100 + 0j])
    assert jet.value == 1e100 + 0j


def test_batch_pole_mask():
    f = ex.parse("1/(1-z1)", 1)
    pts = np.array([[0.0 + 0j], [1.0 + 0j], [0.5 + 0j]])
    vals, grads, mask = ex.eval_jet_batch(f, pts)
    assert mask.tolist() == [False, True, False]
    assert np.isnan(vals[1])
    assert abs(vals[2] - 2.0) < 1e-15
    assert abs(grads[2, 0] - 4.0) < 1e-14


def test_overflow_raises_arithmetic_error():
    f = ex.parse("exp(z1)", 1)
    with pytest.raises(ArithmeticError):
        ex.eval_jet(f, [1000.0 + 0j])


def test_reciprocal_swaps_division():
    f = ex.parse("(1+z1)/(1-z1)", 1)
    r = ex.reciprocal(f)
    z = 0.3 + 0.2j
    assert abs(r(z) - (1 - z) / (1 + z)) < 1e-15
    # reciprocal of the reciprocal evaluates like the original
    rr = ex.reciprocal(r)
    assert abs(rr(z) - f(z)) < 1e-15


def test_operator_overloads_match_parse():
    z = ex.var_expr(1, 1)
    built = (1 + z) / (1 - z)
    parsed = ex.parse("(1+z1)/(1-z1)", 1)
    for point in (0.2 + 0.1j, -0.4 + 0.3j):
        assert abs(built(point) - parsed(point)) < 1e-15


def test_as_points_shapes():
    assert ex.as_points(0.5 + 0j, 1).shape == (1, 1)
    assert ex.as_points([0.1j, 0.2j], 1).shape == (2, 1)
    assert ex.as_points([[0.1j, 0j]], 2).shape == (1, 2)
    with pytest.raises(ValueError):
        ex.as_points([[0.1j, 0j]], 3)


def test_call_arity_mismatch():
    f = ex.parse("z1+z2", 2)
    with pytest.raises(ValueError):
        f(0.5 + 0j)


def test_sin_cos_consistency_with_cmath():
    f = ex.parse("sin(z1)^2+cos(z1)^2", 1)
    for z in (0.3 + 0.2j, 1.1 - 0.4j):
        assert abs(f(z) - 1.0) < 1e-12
    g = ex.parse("sin(z1)", 1)
    assert abs(g(0.5 + 0.5j) - cmath.sin(0.5 + 0.5j)) < 1e-15
