"""The compiled tape against the recursive jet rules it replaced.

``_oracle_node`` is the recursive evaluator that propagated full (m, n)
gradient arrays node by node, kept here as the reference.  Gradient mode
must reproduce it bit for bit, and directional mode must reproduce it on the
substituted slice tree, including pole masks and every non-finite entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holonorm.expr as ex
from holonorm.errors import ParseError
from holonorm.linescan import restrict_function


def _oracle_node(node, Z, pole, want_grad):
    m, n = Z.shape
    if isinstance(node, ex.Const):
        vals = np.full(m, node.value, dtype=complex)
        grads = np.zeros((m, n), dtype=complex) if want_grad else None
        return vals, grads
    if isinstance(node, ex.Var):
        vals = Z[:, node.index - 1].copy()
        if want_grad:
            grads = np.zeros((m, n), dtype=complex)
            grads[:, node.index - 1] = 1.0
        else:
            grads = None
        return vals, grads
    if isinstance(node, (ex.Add, ex.Sub)):
        v1, g1 = _oracle_node(node.left, Z, pole, want_grad)
        v2, g2 = _oracle_node(node.right, Z, pole, want_grad)
        if isinstance(node, ex.Add):
            return v1 + v2, (g1 + g2 if want_grad else None)
        return v1 - v2, (g1 - g2 if want_grad else None)
    if isinstance(node, ex.Mul):
        v1, g1 = _oracle_node(node.left, Z, pole, want_grad)
        v2, g2 = _oracle_node(node.right, Z, pole, want_grad)
        vals = v1 * v2
        grads = v1[:, None] * g2 + v2[:, None] * g1 if want_grad else None
        return vals, grads
    if isinstance(node, ex.Div):
        v1, g1 = _oracle_node(node.left, Z, pole, want_grad)
        v2, g2 = _oracle_node(node.right, Z, pole, want_grad)
        bad = np.abs(v2) < ex.POLE_THRESHOLD
        if bad.any():
            pole |= bad
            v2 = np.where(bad, 1.0, v2)
        vals = v1 / v2
        grads = (g1 * v2[:, None] - v1[:, None] * g2) / (v2 * v2)[:, None] if want_grad else None
        return vals, grads
    if isinstance(node, ex.Pow):
        vb, gb = _oracle_node(node.base, Z, pole, want_grad)
        k = node.exponent
        if k == 0:
            vals = np.ones(m, dtype=complex)
            grads = np.zeros((m, n), dtype=complex) if want_grad else None
            return vals, grads
        vals = vb ** k
        grads = (k * vb ** (k - 1))[:, None] * gb if want_grad else None
        return vals, grads
    if isinstance(node, ex.Call):
        va, ga = _oracle_node(node.arg, Z, pole, want_grad)
        with np.errstate(over="ignore", invalid="ignore"):
            if node.func == "exp":
                vals = np.exp(va)
                dv = vals
            elif node.func == "sin":
                vals = np.sin(va)
                dv = np.cos(va)
            else:
                vals = np.cos(va)
                dv = -np.sin(va)
            grads = dv[:, None] * ga if want_grad else None
        return vals, grads
    raise TypeError(f"unknown node {node!r}")


def oracle_jet_batch(f, Z, want_grad=True):
    pts = ex.as_points(Z, f.arity)
    pole = np.zeros(pts.shape[0], dtype=bool)
    vals, grads = _oracle_node(f.root, pts, pole, want_grad)
    if pole.any():
        vals = np.where(pole, np.nan + 0j, vals)
        if want_grad:
            grads = np.where(pole[:, None], np.nan + 0j, grads)
    return vals, grads, pole


def same(a, b) -> bool:
    """Equal bits up to the sign of zero, NaN where NaN, equal infinities."""
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


# ------------------------------------------------------------ strategies

INF = float("inf")
SPECIAL = [0j, 1 + 0j, -1 + 0j, 1j, 0.5 + 0j, 1e-320 + 0j, 1e300 + 0j, 2e154 - 1e154j,
           complex(INF, 0.0), complex(-INF, 1.0)]
constants = st.one_of(
    st.sampled_from(SPECIAL),
    st.complex_numbers(max_magnitude=40.0, allow_nan=False, allow_infinity=False))
coordinates = st.one_of(
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, 0.5 - 0.5j, 1e200 + 0j, complex(INF, 0.0)]),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))


def trees(arity: int):
    leaves = st.one_of(
        constants.map(ex.Const),
        st.integers(1, arity).map(ex.Var))

    def extend(inner):
        return st.one_of(
            st.builds(ex.Add, inner, inner),
            st.builds(ex.Sub, inner, inner),
            st.builds(ex.Mul, inner, inner),
            st.builds(ex.Div, inner, inner),
            st.builds(ex.Pow, inner, st.one_of(st.integers(0, 6), st.just(60))),
            st.builds(ex.Call, st.sampled_from(["exp", "sin", "cos"]), inner))

    return st.recursive(leaves, extend, max_leaves=14)


@st.composite
def cases(draw):
    arity = draw(st.integers(1, 3))
    root = draw(trees(arity))
    m = draw(st.integers(1, 12))
    pts = np.array([[draw(coordinates) for _ in range(arity)] for _ in range(m)])
    c = np.array([draw(coordinates) for _ in range(arity)])
    return ex.HoloExpr(root, arity), pts, c


# ---------------------------------------------------------------- tests

@settings(max_examples=250, deadline=None)
@given(cases())
def test_gradient_mode_matches_recursive_rules(case):
    f, pts, _ = case
    with np.errstate(all="ignore"):
        want = oracle_jet_batch(f, pts)
        got = ex.eval_jet_batch(f, pts)
        got_values = ex.eval_values(f, pts)
    assert np.array_equal(got[2], want[2])
    assert same(got[0], want[0])
    assert same(got[1], want[1])
    assert np.array_equal(got_values[1], want[2])
    assert same(got_values[0], want[0])


@settings(max_examples=250, deadline=None)
@given(cases())
def test_directional_mode_matches_substituted_slice(case):
    f, pts, c = case
    lam = pts[:, 0]
    g = restrict_function(f, c)
    with np.errstate(all="ignore"):
        want_v, want_g, want_pole = oracle_jet_batch(g, lam)
        new_v, new_g, new_pole = ex.eval_jet_batch(g, lam)
        vals, deriv, pole = ex.eval_line_jets(f, c, lam)
    assert np.array_equal(pole, want_pole)
    assert np.array_equal(new_pole, want_pole)
    assert same(vals, want_v) and same(new_v, want_v)
    assert same(deriv, want_g[:, 0]) and same(new_g, want_g)


def test_tape_shares_folds_and_frees():
    f = ex.parse("(2*3 + z1) * (2*3 + z1) + exp(0)", 1)
    tape = f.tape
    ops = [ins[0].__name__ for ins in tape.code]
    # 2*3 and exp(0) fold; the repeated (6 + z1) is computed once
    assert ops == ["_add", "_mul", "_add"]
    assert {complex(v[0]) for _, v in tape.consts} == {1, 6}
    freed = [s for ins in tape.code for s in ins[-1]]
    assert tape.result not in freed
    assert len(freed) == len(set(freed))


def test_constant_expression_broadcasts_to_every_point():
    f = ex.parse("2*i + 1", 2)
    vals, grads, pole = ex.eval_jet_batch(f, np.zeros((5, 2)))
    assert vals.shape == (5,) and np.all(vals == 1 + 2j)
    assert grads.shape == (5, 2) and not grads.any()
    assert not pole.any()


def test_results_do_not_alias_the_tape():
    f = ex.parse("3", 1)
    vals, _ = ex.eval_values(f, [0.5])
    vals[0] = 7
    assert ex.eval_values(f, [0.5])[0][0] == 3


def test_deep_trees_evaluate_without_recursion():
    text = " + ".join(f"{k % 7 + 1}*z1^{k % 5}" for k in range(3000))
    f = ex.parse(text, 1)
    value = f(0.5)
    assert value == pytest.approx(sum((k % 7 + 1) * 0.5 ** (k % 5) for k in range(3000)))
    nested = ex.Const(1 + 0j)
    for _ in range(5000):
        nested = ex.Add(ex.Var(1), nested)
    g = ex.HoloExpr(nested, 1)
    assert g.jet(2.0).gradient[0] == 5000
    assert ex.substitute(g, [ex.parse("2*z1", 1)])(1.0) == 10001


def test_parser_nesting_cap():
    assert ex.parse("(" * ex.MAX_NESTING + "z1" + ")" * ex.MAX_NESTING, 1)(2.0) == 2
    deep = "(" * (ex.MAX_NESTING + 1) + "z1" + ")" * (ex.MAX_NESTING + 1)
    with pytest.raises(ParseError) as err:
        ex.parse(deep, 1)
    assert err.value.position == ex.MAX_NESTING
    with pytest.raises(ParseError):
        ex.parse("exp(" * 400 + "z1" + ")" * 400, 1)


def test_blocks_change_no_bit():
    f = ex.parse("exp(z1*z2)/(z1 - 0.5) + sin(z2)^3", 2)
    rng = np.random.default_rng(3)
    m = 2 * ex.BLOCK + 7
    pts = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    pts[[5, ex.BLOCK + 1], 0] = 0.5  # poles in two blocks
    pts[-1] = [30.0, 30.0]  # exp overflows
    with np.errstate(all="ignore"):
        want = oracle_jet_batch(f, pts)
        got = ex.eval_jet_batch(f, pts)
        c = np.array([0.6, 0.8j])
        slice_want = oracle_jet_batch(restrict_function(f, c), pts[:, 0])
        slice_got = ex.eval_line_jets(f, c, pts[:, 0])
    assert want[2].sum() == 2 and np.array_equal(got[2], want[2])
    assert same(got[0], want[0]) and same(got[1], want[1])
    assert np.array_equal(slice_got[2], slice_want[2])
    assert same(slice_got[0], slice_want[0]) and same(slice_got[1], slice_want[1][:, 0])
