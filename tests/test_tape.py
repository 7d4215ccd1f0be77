"""The compiled tape against the recursive jet rules it replaced.

``_oracle_node`` is the recursive evaluator that propagated full (m, n)
gradient arrays node by node, kept here as the reference.  Gradient mode
must reproduce it bit for bit, and directional mode must reproduce it on the
substituted slice tree, including pole masks and every non-finite entry.
Along polynomial discs, directional mode is checked against gradient mode
contracted with the disc's derivative.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holonorm.expr as ex
import holonorm.metrics as mt
import holonorm.normality as nr
import holonorm.sampling as sp
from holonorm.errors import InputError, ParseError
from holonorm.linescan import alexander_function_test, direction_set
from oracles import map_jets, restrict_function


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


def trees(arity: int, constants=constants):
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


# without subnormal constants, whose rounding is absolute, not relative
normal_constants = constants.filter(
    lambda c: not any(0.0 < abs(x) < np.finfo(float).tiny for x in (c.real, c.imag)))


@st.composite
def affine_trees(draw, arity: int):
    """c +- z_1 +- ... +- z_n, summed left to right.  Unit coefficients keep
    every product exact: numpy's vector loops may round a * b and b * a of
    complex arrays differently, and einsum differently again."""
    node = ex.Const(draw(constants))
    for k in range(1, arity + 1):
        node = draw(st.sampled_from([ex.Add, ex.Sub]))(node, ex.Var(k))
    return node


#: Absolute rounding of one complex tangent op (a product, quotient or sum
#: of a few real roundings) where its result or a partial result is
#: subnormal, and relative rounding no longer holds.
SUBNORMAL_STEP = 8 * 2.0 ** -1074


def _tangent_majorant(node, Z, dphi):
    """(values, M, E).  M is the chain rule along phi with every term taken
    in absolute value, the scale of the rounding in either order of
    summation.  E bounds the absolute rounding at subnormal intermediates:
    every tangent op adds SUBNORMAL_STEP, and later ops carry it as they
    carry the terms of M.  E does not depend on phi, so it also bounds each
    gradient component."""
    m = Z.shape[0]
    if isinstance(node, ex.Const):
        return np.full(m, node.value, dtype=complex), np.zeros(m), np.zeros(m)
    if isinstance(node, ex.Var):
        return Z[:, node.index - 1], np.abs(dphi[:, node.index - 1]), np.zeros(m)
    step = SUBNORMAL_STEP
    if isinstance(node, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        va, ma, ea = _tangent_majorant(node.left, Z, dphi)
        vb, mb, eb = _tangent_majorant(node.right, Z, dphi)
        if isinstance(node, (ex.Add, ex.Sub)):
            return (va + vb if isinstance(node, ex.Add) else va - vb), ma + mb, ea + eb + step
        if isinstance(node, ex.Mul):
            return (va * vb, np.abs(va) * mb + np.abs(vb) * ma,
                    np.abs(va) * eb + np.abs(vb) * ea + step)
        vb = np.where(np.abs(vb) < ex.POLE_THRESHOLD, 1.0, vb)
        den = np.abs(vb) ** 2
        return (va / vb, (ma * np.abs(vb) + np.abs(va) * mb) / den,
                (ea * np.abs(vb) + np.abs(va) * eb + step) / den + step)
    if isinstance(node, ex.Pow):
        vb, mb, eb = _tangent_majorant(node.base, Z, dphi)
        k = node.exponent
        if not k:
            return vb ** k, np.zeros(m), np.zeros(m)
        dv = k * np.abs(vb) ** (k - 1)
        return vb ** k, dv * mb, dv * eb + step
    va, ma, ea = _tangent_majorant(node.arg, Z, dphi)
    func, deriv = {"exp": (np.exp, np.exp), "sin": (np.sin, np.cos),
                   "cos": (np.cos, np.sin)}[node.func]  # |cos'| = |sin|
    dv = np.abs(deriv(va))
    return func(va), dv * ma, dv * ea + step


@st.composite
def disc_cases(draw):
    """(f, affine?, seeded DiscMap of degree 1-3, points): a few drawn
    points, or more than one evaluation block of seeded points in the disc.
    The tree's constants are normal floats, so the chain rule rounds
    relative to its terms (see ``_tangent_majorant``)."""
    arity = draw(st.integers(1, 3))
    affine = draw(st.booleans())
    root = draw(affine_trees(arity) if affine else trees(arity, normal_constants))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 3)) + 1, arity)
    disc = mt.DiscMap((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2)
    if draw(st.booleans()):
        lam = np.array([draw(coordinates) for _ in range(draw(st.integers(1, 12)))])
    else:
        m = ex.BLOCK + draw(st.integers(1, 40))
        lam = np.sqrt(rng.uniform(size=m)) * np.exp(2j * np.pi * rng.uniform(size=m))
    return ex.HoloExpr(root, arity), affine, disc, lam


def subnormal_quotient_case():
    """A ``disc_cases`` draw: (1/1e300)/z1^60 on a seeded degree-1 disc at
    BLOCK + 1 points.  Its constants are normal floats, but 1e-300 times the
    tangent of z1^60 is subnormal at most points, in both modes."""
    root = ex.Div(ex.Div(ex.Const(1 + 0j), ex.Const(1e300 + 0j)), ex.Pow(ex.Var(1), 60))
    rng = np.random.default_rng(0)
    disc = mt.DiscMap((rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))) / 2)
    m = ex.BLOCK + 1
    lam = np.sqrt(rng.uniform(size=m)) * np.exp(2j * np.pi * rng.uniform(size=m))
    return ex.HoloExpr(root, 1), False, disc, lam


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
        vals, deriv, pole = map_jets(f, ex.line_map(c), lam)
    assert np.array_equal(pole, want_pole)
    assert np.array_equal(new_pole, want_pole)
    assert same(vals, want_v) and same(new_v, want_v)
    assert same(deriv, want_g[:, 0]) and same(new_g, want_g)


def test_square_rule_derivative_is_twice_the_base():
    # the k = 2 rule takes 2 * x where the rule for k >= 3 takes
    # k * x ** (k - 1): np.power(x, 1) is x but for the sign of a zero
    parts = [0.0, -0.0, 1.0, -2.5, 5e-324, -2.2e-308, 1e-310, 1.7e308, INF, -INF, np.nan]
    x = np.array([complex(a, b) for a in parts for b in parts])
    f = ex.parse("z1^2", 1)
    with np.errstate(all="ignore"):
        want = np.multiply(2 * np.power(x, 1), ex._ONE)  # times the seed tangent
        wide = ex.eval_jet_batch(f, x)[1][:, 0]
        narrow = np.concatenate([ex.eval_jet_batch(f, [z])[1][:, 0] for z in x])
    assert same(wide, want) and same(narrow, want)


def test_line_map_at_one_point_rounds_as_the_tree():
    # a broadcast (1, 1) x (1,) product rounded this real part 1 ulp apart
    f = ex.parse("z1", 1)
    c = np.array([complex(float.fromhex("0x1.3d832336b3294p+0"), 1.0)])
    lam = np.array([1.75 + 1j])
    vals, deriv, _ = map_jets(f, ex.line_map(c), lam)
    want_v, want_g, _ = ex.eval_jet_batch(restrict_function(f, c), lam)
    assert same(vals, want_v) and same(deriv, want_g[:, 0])


@settings(max_examples=250, deadline=None)
@given(disc_cases())
@example(subnormal_quotient_case())
def test_disc_mode_matches_gradient_mode_along_discs(case):
    f, affine, disc, lam = case
    with np.errstate(all="ignore"):
        pts, dphi = disc(lam), disc.derivative(lam)
        want_v, grads, want_pole = ex.eval_jet_batch(f, pts)
        want = np.einsum("ij,ij->i", grads, dphi)
        _, scale, floor = _tangent_majorant(f.root, pts, dphi)
        vals, deriv, pole = map_jets(f, disc.jets, lam)
        # each mode rounds at subnormal intermediates by up to ``floor``;
        # gradient mode's components are then weighted by |phi'_k|
        floor *= 1.0 + np.abs(dphi).sum(axis=1)
    assert np.array_equal(pole, want_pole)
    assert same(vals, want_v)
    if affine:
        exact = np.isfinite(dphi).all(axis=1)
        assert same(deriv[exact], want[exact])
    ok = np.isfinite(want) & np.isfinite(scale)
    assert np.isfinite(deriv[ok]).all()
    # subnormal results round absolutely, to below the smallest normal float
    tiny = np.finfo(float).tiny
    assert (np.abs(deriv[ok] - want[ok]) <= 1e-12 * scale[ok] + floor[ok] + tiny).all()


def test_both_modes_round_subnormal_quotients_within_the_floor():
    # neither mode is the better one: against the exact chain rule at the
    # same points, each stays within its own bound, and each is off by far
    # more than relative rounding where the quotient rule's a * db is subnormal
    f, _, disc, lam = subnormal_quotient_case()
    with np.errstate(all="ignore"):
        pts, dphi = disc(lam), disc.derivative(lam)
        grads = ex.eval_jet_batch(f, pts)[1][:, 0]
        deriv = map_jets(f, disc.jets, lam)[1]
        _, scale, floor = _tangent_majorant(f.root, pts, dphi)
    tiny = np.finfo(float).tiny
    rel = 1e-12 * scale + tiny
    far = {}
    with mpmath.workprec(200):
        for i in range(0, lam.shape[0], 61):
            z, d = mpmath.mpc(pts[i, 0]), mpmath.mpc(dphi[i, 0])
            exact = -60 * mpmath.mpf(1e-300) / z ** 61
            for mode, got, bound in (("disc", deriv[i], rel[i] + floor[i]),
                                     ("gradient", grads[i] * dphi[i, 0],
                                      rel[i] + floor[i] * abs(dphi[i, 0]))):
                err = float(abs(mpmath.mpc(got) - exact * d))
                assert err <= bound, (mode, i)
                far[mode] = far.get(mode, 0) + (err > rel[i])
    assert far["disc"] > 10 and far["gradient"] > 10


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
        slice_got = map_jets(f, ex.line_map(c), pts[:, 0])
    assert want[2].sum() == 2 and np.array_equal(got[2], want[2])
    assert same(got[0], want[0]) and same(got[1], want[1])
    assert np.array_equal(slice_got[2], slice_want[2])
    assert same(slice_got[0], slice_want[0]) and same(slice_got[1], slice_want[1][:, 0])


def test_reciprocal_tape_compiles_once(monkeypatch):
    # every line of 1/(z1 + 0.5 z2) has its pole at lambda = 0, so each line
    # evaluates the reciprocal; its tape is compiled on the first one only
    compiled = []
    compile_tape = ex.compile_tape
    monkeypatch.setattr(ex, "compile_tape", lambda root: compiled.append(root) or compile_tape(root))
    f = ex.parse("1/(z1 + 0.5*z2)", 2)
    alexander_function_test(f, direction_set(2, 8, 0))
    assert len(compiled) == 2
    assert compiled == [f.root, f.inverse.root]


def _default_ladder_line():
    lam = nr.disc_ladder(sp.DEFAULT_LADDER, 48, 64).points
    assert lam.shape[0] == ex.BLOCK and (lam == 0).any()
    return lam, np.array([0.6, 0.8j])


_PROBE_DISC = mt.DiscMap(np.array([[0, 0], [0.5, 0.5j]]))


def _line_sharp(f, c, lam):
    """sharp of the slice f(lambda * c) at ``lam``: half of ``nr._mu_along``
    along the line, as ``nr._ladder_tables`` forms it before the weights."""
    out = nr._mu_along(f, ex.line_map(c), lam)
    return np.multiply(out, 0.5, out=out)


@pytest.mark.parametrize("arity, along, refuses_poles", [
    # the slice tables of the default line test, whose grid is ``lam``
    (2, lambda f, lam: nr._ladder_tables([f], ex.line_map(np.array([0.6, 0.8j])),
                                         nr.disc_ladder(sp.DEFAULT_LADDER, 48, 64)), False),
    (1, nr.mu_batch, False),  # the identity map of C^1
    # the probe's grid at 48 radii and 64 angles is the default ladder line
    (2, lambda f, lam: nr.disc_family_probe(f, [_PROBE_DISC], radii=48, angles=64), True),
], ids=["line", "identity", "disc"])
def test_line_sharp_runs_each_tape_once_per_default_line(monkeypatch, arity, along, refuses_poles):
    lam, _ = _default_ladder_line()
    runs = []
    run = ex._run
    monkeypatch.setattr(ex, "_run", lambda tape, columns, seeds, ws, vals, *rest: (
        runs.append((tape, vals.shape[0])) or run(tape, columns, seeds, ws, vals, *rest)))
    f = ex.parse({1: "exp(z1) + z1^2", 2: "exp(z1*z2) + z1^2"}[arity], arity)
    along(f, lam)
    assert runs == [(f.tape, ex.BLOCK)]
    # a pole at lambda = 0 along each map: the reciprocal evaluates once, on
    # the failed points only; the probe refuses a pole instead
    runs.clear()
    h = ex.parse({1: "1/z1", 2: "1/(z1 + 0.5*z2)"}[arity], arity)
    if refuses_poles:
        with pytest.raises(InputError, match="pole signal"):
            along(h, lam)
        assert runs == [(h.tape, ex.BLOCK)]
    else:
        along(h, lam)
        assert runs == [(h.tape, ex.BLOCK), (h.inverse.tape, np.count_nonzero(lam == 0))]


def test_shared_workspace_keeps_results_apart():
    lam, c = _default_ladder_line()
    line = ex.line_map(c)
    f = ex.parse("z1*z2 + z1", 2)
    g = ex.parse("exp(z1*z2)/(z1 - 0.5) + sin(z2)^3*cos(z1) - z2/(z1 + 2)", 2)
    assert g.tape.registers > f.tape.registers
    with np.errstate(all="ignore"), ex.Workspace():
        first = map_jets(f, line, lam)
        kept = [a.copy() for a in first]
        map_jets(g, line, lam)  # grows the workspace
        third = map_jets(f, line, lam)
    assert all(same(a, k) and same(a, t) for a, k, t in zip(first, kept, third))
    # the reciprocal fallback along the line runs in the same workspace; here
    # the reciprocal needs more registers than h itself
    h = ex.parse("(exp(z1*z2)*sin(z2) + cos(z1)*z2^3)/(z1 + 0.5*z2)", 2)
    assert h.inverse.tape.registers > h.tape.registers
    with np.errstate(all="ignore"):
        alone = _line_sharp(h, c, lam)
        want = nr.sharp_batch(restrict_function(h, c), lam)
        with ex.Workspace():
            first = _line_sharp(h, c, lam)
            kept = first.copy()
            _line_sharp(g, c, lam)
            third = _line_sharp(h, c, lam)
    assert np.isnan(alone).any() and not np.isnan(alone).all()
    assert same(first, kept) and same(first, third) and same(first, alone)
    assert same(alone, want)
