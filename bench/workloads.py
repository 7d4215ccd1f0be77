"""Seeded workloads of the holonorm benchmark, with known answers.

A workload is one cycle of operations.  An operation (op) is one certifier
call from ready inputs to its canonical report bytes; the runner repeats the
cycle until the run is long enough.  The seed changes coefficients, points
and directions but never the shape of an op (arity, direction count, family
size, budget), so op costs and their mix are the same for every seed.

Every op carries a check against an answer known from mathematics or from
the acceptance criteria of the package (criteria 5-9), never from the
program's own output.  Inputs are chosen so that the check holds for every
seed: the benchmark measures, it does not hunt for failures.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from holonorm import expr as ex
from holonorm import linescan as ls
from holonorm import metrics as mt
from holonorm import normality as nr
from holonorm import reports as rp
from holonorm import series as se

#: Relative slack on closed-form values and on bounds proved for exact
#: arithmetic; covers floating-point rounding only.
ROUNDING = 1e-9


@dataclass
class Op:
    """One timed unit of work.

    ``call`` returns ``(result, payload)``; ``payload`` is the report bytes.
    ``check(result)`` returns a problem description, or None when the result
    agrees with the known answer.  ``twin`` names an earlier op of the same
    cycle whose payload this op must reproduce byte for byte.
    """

    name: str
    call: Callable[[], tuple]
    check: Callable[[object], str | None]
    twin: int | None = None


@dataclass
class Workload:
    name: str
    ops: list
    traced_ops: list  # what the traced pass runs: ops, or for cli cli.main in process


# --------------------------------------------------------------------------
# Helpers: literals, bounds, closed forms
# --------------------------------------------------------------------------

def _num(rng, lo: float, hi: float) -> str:
    """A positive decimal literal in [lo, hi] with six decimals."""
    return f"{rng.uniform(lo, hi):.6f}"


def _cnum(rng, radius_lo: float, radius_hi: float) -> tuple[str, complex]:
    """A complex literal of the expression language and its exact value."""
    r = rng.uniform(radius_lo, radius_hi)
    t = rng.uniform(0.0, 2.0 * math.pi)
    re_s, im_s = f"{r * math.cos(t):+.6f}", f"{r * math.sin(t):+.6f}"
    return f"({re_s}{im_s}*i)", complex(float(re_s), float(im_s))


def _unit_vector(rng, n: int) -> tuple[list, np.ndarray]:
    """Literals of a complex vector of norm at most 1, and its values."""
    lits, vals = [], []
    raw = rng.standard_normal(2 * n)
    v = (raw[:n] + 1j * raw[n:]) / np.linalg.norm(raw) * 0.999
    for w in v:
        re_s, im_s = f"{w.real:+.6f}", f"{w.imag:+.6f}"
        lits.append(f"({re_s}{im_s}*i)")
        vals.append(complex(float(re_s), float(im_s)))
    return lits, np.array(vals)


def _linear(lits: list) -> str:
    return " + ".join(f"{c}*z{k}" for k, c in enumerate(lits, start=1))


POLY_MONOMIALS = {
    2: ("z1*z2", "z2^2", "z1", "z1^2*z2"),
    3: ("z1*z2", "z3^2", "z1*z3", "z2", "z1*z2*z3"),
}


def _poly(rng, monomials) -> tuple[str, float]:
    """A seeded polynomial and L >= sup of |grad f| on the closed unit ball.

    For a monomial of degree d, |grad z^alpha| <= d on the ball, so
    L = sum |c_k| deg_k.
    """
    terms, bound = [], 0.0
    for mono in monomials:
        lit, c = _cnum(rng, 0.2, 1.0)
        degree = sum(int(p.split("^")[1]) if "^" in p else 1 for p in mono.split("*"))
        terms.append(f"{lit}*{mono}")
        bound += abs(c) * degree
    return " + ".join(terms), bound


def kobayashi_ball(z: np.ndarray, v: np.ndarray) -> float:
    """Kobayashi metric of the unit ball (Rudin, Function Theory in the Unit
    Ball, 2.2): F(z, v)^2 = |v|^2/(1-|z|^2) + |<v, z>|^2/(1-|z|^2)^2."""
    d = 1.0 - float(np.sum(np.abs(z) ** 2))
    pair = abs(complex(np.sum(v * np.conj(z))))
    return math.sqrt(float(np.sum(np.abs(v) ** 2)) / d + pair * pair / (d * d))


def _payload(report) -> bytes:
    return rp.canonical_json(report).encode()


def _bounded_by(value: float, bound: float, what: str) -> str | None:
    if not (math.isfinite(value) and 0.0 <= value <= bound * (1.0 + ROUNDING)):
        return f"{what} = {value!r} outside [0, {bound!r}]"
    return None


def _verdict_is(v, label: str) -> str | None:
    if v.classification != label:
        return f"verdict {v.classification}, expected {label}"
    return None


def _first(*problems) -> str | None:
    return next((p for p in problems if p), None)


# --------------------------------------------------------------------------
# slices: line-slice certifiers on many small expression trees
# --------------------------------------------------------------------------

def _line_report(v, lines, ball=None) -> dict:
    out = {"verdict": v.to_dict(), "lines": [r.to_dict() for r in lines]}
    if ball is not None:
        out["ball_sup"] = ball.to_dict()
    return out


def _function_op(name, f, directions, label, bound=None, radii=48, angles=64):
    def call():
        v, lines = ls.alexander_function_test(f, directions, radii=radii, angles=angles)
        return v, _payload(_line_report(v, lines))

    def check(v):
        # A slice g(l) = f(l c) with |c| = 1 has |g'| <= |grad f|, so the
        # weighted slice sup is at most sup |grad f| on the ball.
        return _first(_verdict_is(v, label),
                      bound is not None and _bounded_by(v.estimate.sup_value, bound, "slice sup"))

    return Op(name, call, check)


def _family_op(name, fam, directions, label, ball_check, radii=48, angles=64):
    def call():
        v, lines, ball = ls.alexander_family_test(fam, directions, radii=radii,
                                                  angles=angles)
        return (v, ball), _payload(_line_report(v, lines, ball))

    def check(result):
        v, ball = result
        return _first(_verdict_is(v, label), ball_check(ball.sup_value))

    return Op(name, call, check)


def build_slices(seed: int, tiny: bool = False) -> Workload:
    """Line-slice tests in arity 2-3 with 16-64 directions and families of
    2-8 members.  Each line evaluates a small tree on a 15,360-point ladder
    grid, so evaluation per node dominates."""
    rng = np.random.default_rng(seed)
    grid = dict(radii=12, angles=16) if tiny else {}

    def dirs(arity, count):
        return ls.direction_set(arity, 2 if tiny else count, int(rng.integers(1 << 30)))

    ops = []
    for arity, count in ((2, 16), (3, 48), (3, 48)):
        text, bound = _poly(rng, POLY_MONOMIALS[arity])
        ops.append(_function_op(f"poly-a{arity}-d{count}", ex.parse(text, arity),
                                dirs(arity, count), nr.BOUNDED, bound, **grid))
    # entire: exp(a.z) with |a| <= 0.8 has |grad f| <= |a| e^|a| on the ball
    lits, a = _unit_vector(rng, 2)
    s = float(_num(rng, 0.4, 0.8))
    f = ex.parse(f"exp({s:.6f}*({_linear(lits)}))", 2)
    an = s * float(np.linalg.norm(a))
    ops.append(_function_op("exp-a2-d24", f, dirs(2, 24), nr.BOUNDED,
                            an * math.exp(an), **grid))
    # rational b/(d - u.z) with |u| < 1 < 1.5 <= |d|: the pole is off the
    # closed ball and |grad f| <= |b|/(|d|-1)^2
    lits, _ = _unit_vector(rng, 3)
    b_lit, b = _cnum(rng, 0.5, 1.5)
    d_lit, d = _cnum(rng, 1.5, 2.5)
    f = ex.parse(f"{b_lit}/({d_lit} - ({_linear(lits)}))", 3)
    ops.append(_function_op("rational-a3-d16", f, dirs(3, 16), nr.BOUNDED,
                            abs(b) / (abs(d) - 1.0) ** 2, **grid))
    # sin(a/(1-z1)) is not normal: the axis slice trends unbounded (criterion 7)
    f = ex.parse(f"sin({_num(rng, 0.8, 1.2)}/(1-z1))", 2)
    ops.append(_function_op("sin-pole-a2-d16", f, dirs(2, 16), nr.UNBOUNDED_TREND, **grid))

    # dilation families (s j) z1 z2: not normal.  On the ball of radius 1/2
    # |grad f_j| <= s j / 2, attained on the axes, so the ball sup is s J / 2.
    for size in (2, 4, 8):
        s = float(_num(rng, 0.75, 1.5))
        fam = [ex.parse(f"({s * j:.6f})*z1*z2", 2) for j in range(1, size + 1)]
        exact = float(f"{s * size:.6f}") * 0.5

        def dilation_sup(sup, exact=exact):
            if abs(sup - exact) > ROUNDING * exact:
                return f"ball sup {sup!r}, expected {exact!r}"
            return None

        ops.append(_family_op(f"dilations-{size}-d16", fam, dirs(2, 16),
                              nr.UNBOUNDED_TREND, dilation_sup, **grid))
    # powers (u.z)^k with |u| < 1 are bounded by 1, hence normal; on the ball
    # of radius 1/2, |grad| <= k 2^(1-k) <= 1
    lits, _ = _unit_vector(rng, 2)
    fam = [ex.parse(f"({_linear(lits)})^{k}", 2) for k in range(1, 5)]
    ops.append(_family_op("powers-4-d16", fam, dirs(2, 16), nr.BOUNDED,
                          lambda sup: _bounded_by(sup, 1.0, "ball sup"), **grid))
    return Workload("slices", ops, ops)


# --------------------------------------------------------------------------
# series: Hartogs sweeps on stored power series
# --------------------------------------------------------------------------

def exp_series(a: np.ndarray, degree: int) -> se.PowerSeries:
    """Truncation of exp(a.z): coefficients a^alpha / alpha!."""
    n = len(a)
    terms = {}

    def fill(prefix, left, coeff):
        k = len(prefix)
        if k == n - 1:
            terms[prefix + (left,)] = coeff * a[k] ** left / math.factorial(left)
            return
        for e in range(left + 1):
            fill(prefix + (e,), left - e, coeff * a[k] ** e / math.factorial(e))

    for m in range(degree + 1):
        fill((), m, 1.0 + 0j)
    return se.PowerSeries(n, degree, terms)


def exp_radius_floor(a: np.ndarray, degree: int) -> float:
    """Lower bound of every windowed root-test radius of exp(a.z) at the
    default window 1/2.  On a unit line the coefficients are s^m/m! with
    s <= |a|, and m! >= (m/e)^m gives |b_m|^(1/m) <= e s/m for every m at or
    above the window start."""
    lo = degree - math.ceil(se.DEFAULT_WINDOW * degree) + 1
    return lo / (math.e * float(np.linalg.norm(a)))


def _hartogs_op(name, path, directions, check, probe):
    def call():
        F = se.load_series(path)
        v, lines, partial = ls.hartogs_test(F, directions, probe_partial_sums=probe)
        report = {"verdict": v.to_dict(), "lines": [r.to_dict() for r in lines]}
        if partial is not None:
            report["partial_sum_sup"] = partial.to_dict()
        return (v, lines, partial), _payload(report)

    return Op(name, call, check)


def _geometric_check(ratio: complex):
    radius = 1.0 / abs(ratio)

    def check(result):
        v, lines, partial = result
        low = min(r.radius for r in lines)
        if v.classification != ls.CONVERGENT or abs(low - radius) > ROUNDING * radius:
            return f"{v.classification} min radius {low!r}, expected CONVERGENT {radius!r}"
        if partial is not None:
            # partial sums of sum (r z1)^k on the ball of radius rho have
            # |grad| <= |r| / (1 - |r| rho)^2
            rho = min(0.5 * low, 4.0)
            q = abs(ratio) * rho
            return _bounded_by(partial.sup_value, abs(ratio) / (1.0 - q) ** 2, "partial-sum sup")
        return None

    return check


def _exp_check(a: np.ndarray, degree: int):
    floor = exp_radius_floor(a, degree)
    an = float(np.linalg.norm(a))

    def check(result):
        v, lines, partial = result
        low = min(r.radius for r in lines)
        # criterion 9: exp truncations converge; at degree >= 20 and
        # |a| <= 0.75 the floor exceeds the criterion's radius 5
        if v.classification != ls.CONVERGENT or not low >= floor * (1.0 - ROUNDING):
            return f"{v.classification} min radius {low!r}, expected CONVERGENT >= {floor!r}"
        if partial is not None:
            # every partial sum of exp(a.z) has |grad| <= |a| e^(|a| rho), rho <= 4
            return _bounded_by(partial.sup_value, an * math.exp(4.0 * an), "partial-sum sup")
        return None

    return check


def _factorial_check(arity: int):
    def check(result):
        v, lines, _ = result
        axis = np.eye(arity)[0]
        # criterion 9: sum k! z1^k diverges, worst along e1
        if v.classification != ls.DIVERGENT:
            return f"verdict {v.classification}, expected DIVERGENT"
        if not np.allclose(v.estimate.argmax_point, axis, atol=1e-12):
            return f"worst direction {v.estimate.argmax_point!r}, expected e1"
        if not lines[0].radius < ls.DEFAULT_RMIN:
            return f"e1 radius {lines[0].radius!r} not below {ls.DEFAULT_RMIN}"
        return None

    return check


def random_exp_vector(rng, arity: int, lo: float, hi: float) -> np.ndarray:
    raw = rng.standard_normal(2 * arity)
    v = raw[:arity] + 1j * raw[arity:]
    return v / np.linalg.norm(v) * rng.uniform(lo, hi)


def write_series(workdir: str, name: str, F: se.PowerSeries) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(se.series_to_dict(F), fh)
    return path


def build_series(seed: int, workdir: str, tiny: bool = False) -> Workload:
    """Hartogs sweeps read through load_series.  Restriction-only sweeps run
    on dense arity-3 series of a few thousand terms (a Python loop per term
    and line); full sweeps probe the partial sums of series of at most 325
    terms, i.e. a few deep expression trees on ~300 points."""
    rng = np.random.default_rng(seed)
    ops = []

    def dirs(arity, count):
        return ls.direction_set(arity, 2 if tiny else count, int(rng.integers(1 << 30)))

    def exp_op(arity, degree, count, probe):
        degree = 16 if tiny else degree
        # |a| <= 0.75 keeps the radius floor of the degree-20 truncation above 5
        a = random_exp_vector(rng, arity, 0.3, 0.75)
        path = write_series(workdir, f"exp{arity}-{degree}-{len(ops)}", exp_series(a, degree))
        name = f"exp-a{arity}-m{degree}-d{count}" + ("-probe" if probe else "")
        ops.append(_hartogs_op(name, path, dirs(arity, count), _exp_check(a, degree), probe))

    def geometric_op(arity, degree, count, probe):
        ratio = cmath.rect(rng.uniform(0.5, 1.8), rng.uniform(0, 2 * math.pi))
        zeros = (0,) * (arity - 1)
        F = se.PowerSeries(arity, degree, {(k,) + zeros: ratio ** k for k in range(degree + 1)})
        path = write_series(workdir, f"geo{arity}-{len(ops)}", F)
        name = f"geometric-a{arity}-m{degree}-d{count}" + ("-probe" if probe else "")
        ops.append(_hartogs_op(name, path, dirs(arity, count), _geometric_check(ratio), probe))

    # Costs depend on shapes only.  Four equal ops hold the median and three
    # the top decile, so both percentiles fall inside a group of equal ops.
    for _ in range(4):
        exp_op(3, 20, 16, False)
    exp_op(3, 22, 24, False)
    exp_op(2, 22, 16, True)
    exp_op(2, 24, 16, True)
    for _ in range(3):
        exp_op(3, 24, 32, False)
    geometric_op(3, 64, 32, False)
    geometric_op(2, 40, 16, True)
    # factorial series sum k! z1^k, scaled by a seeded positive factor
    scale = rng.uniform(0.5, 2.0)
    F = se.PowerSeries(2, 64, {(k, 0): scale * math.factorial(k) for k in range(65)})
    path = write_series(workdir, f"factorial-{len(ops)}", F)
    ops.append(_hartogs_op("factorial-a2-m64-d16", path, dirs(2, 16), _factorial_check(2), False))
    return Workload("series", ops, ops)


# --------------------------------------------------------------------------
# discs: analytic discs in the ball
# --------------------------------------------------------------------------

def _kobayashi_op(name, z, v, budget, seed):
    B = mt.BallDomain(len(z))

    def call():
        est = mt.kobayashi_upper(B, z, v, budget, seed=seed)
        return est, _payload({"z": list(z), "v": list(v), "budget": budget, "estimate": est})

    exact = kobayashi_ball(z, v)

    def check(est):
        # criterion 5: never below the closed form, within 2% above it, and
        # within 1e-6 at the origin
        if not est >= exact * (1.0 - ROUNDING):
            return f"estimate {est!r} undercuts closed form {exact!r}"
        limit = 1e-6 if not np.any(z) else 0.02
        if (est - exact) / exact > limit:
            return f"estimate {est!r} exceeds closed form {exact!r} by more than {limit}"
        return None

    return Op(name, call, check)


def _disc_probe_op(name, f, w_norm, arity, count, degree, seed):
    def call():
        discs = mt.random_disc_maps(arity, count, degree, seed)
        est = nr.disc_family_probe(f, discs=discs)
        return est, _payload(est.to_dict())

    def check(est):
        # f = <z, w>: (1-|l|^2)|(f o phi)'| <= |w| (1-|l|^2)|phi'| <= |w| by
        # Schwarz-Pick for discs in the ball.  Discs are verified on 256
        # boundary samples only, so allow 5% for the unsampled excursion.
        return _bounded_by(est.sup_value, 1.05 * w_norm, "disc sup")

    return Op(name, call, check)


def _kobayashi_check_op(name, f, bound, directions, radii, vectors, seed):
    def call():
        v = nr.kobayashi_normality_check(f, directions=directions, radii=radii,
                                         v_count=vectors, seed=seed)
        return v, _payload(v.to_dict())

    def check(v):
        # levi / F_K^2 <= |grad f|^2 (1-|z|^2) <= L^2: bounded, hence BOUNDED
        return _first(_verdict_is(v, nr.BOUNDED),
                      _bounded_by(v.estimate.sup_value, bound * bound, "levi/F_K^2 sup"))

    return Op(name, call, check)


def build_discs(seed: int, tiny: bool = False) -> Workload:
    """Kobayashi upper estimates at budgets 20-200 (thousands of 256-sample
    containment checks each), random disc families, and one heavy
    Levi-over-Kobayashi check with the largest matrices of the package."""
    rng = np.random.default_rng(seed)
    ops = []

    def point(arity):
        raw = rng.standard_normal(2 * arity)
        z = raw[:arity] + 1j * raw[arity:]
        z *= rng.uniform(0.05, 0.85) / np.linalg.norm(z)
        raw = rng.standard_normal(2 * arity)
        v = raw[:arity] + 1j * raw[arity:]
        return z, v

    # three budget-200 calls of one shape hold the top decile, so the p90
    # falls inside them and averages over their seeded points
    for budget, arity in ((20, 2), (20, 3), (20, 2), (100, 3), (200, 3), (200, 3), (200, 3)):
        z, v = point(arity)
        budget = 20 if tiny else budget
        ops.append(_kobayashi_op(f"kobayashi-a{arity}-b{budget}", z, v, budget,
                                 int(rng.integers(1 << 30))))
    _, v = point(3)
    ops.append(_kobayashi_op("kobayashi-origin-a3-b20", np.zeros(3, complex), v,
                             20, int(rng.integers(1 << 30))))
    for count, degree in ((20, 2), (50, 3)):
        lits, w = _unit_vector(rng, 3)
        count = 2 if tiny else count
        ops.append(_disc_probe_op(f"disc-probe-c{count}-g{degree}", ex.parse(_linear(lits), 3),
                                  float(np.linalg.norm(w)), 3, count, degree,
                                  int(rng.integers(1 << 30))))
    text, bound = _poly(rng, POLY_MONOMIALS[3])
    shape = (8, 4, 4) if tiny else (256, 32, 64)
    ops.append(_kobayashi_check_op("kobayashi-check-a3-d%d-r%d-v%d" % shape, ex.parse(text, 3),
                                   bound, *shape, int(rng.integers(1 << 30))))
    return Workload("discs", ops, ops)


# --------------------------------------------------------------------------
# cli: the command line as a subprocess
# --------------------------------------------------------------------------

def report_fields(payload: bytes, fmt: str) -> dict:
    """Scalar report fields keyed as in the CSV view ('results.sup', ...)."""
    text = payload.decode()
    out: dict = {}
    if fmt == "csv":
        for row in list(csv.reader(io.StringIO(text)))[1:]:
            out.setdefault(row[0], row[1])
        return out

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        elif not isinstance(obj, list):
            out[prefix] = obj

    walk("", json.loads(text))
    return out


def _field(fields: dict, key: str):
    if key not in fields:
        raise KeyError(f"report has no field {key!r}")
    value = fields[key]
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def _cli_check(expect: dict) -> Callable:
    """expect maps a report field to an exact value, a (lo, hi) interval, or
    a classification string."""

    def check(fields):
        for key, want in expect.items():
            got = _field(fields, key)
            if isinstance(want, str):
                ok = got == want
            elif isinstance(want, tuple):
                lo, hi = want
                ok = isinstance(got, float) and lo <= got <= hi * (1.0 + ROUNDING)
            else:
                ok = isinstance(got, float) and abs(got - want) <= ROUNDING * abs(want)
            if not ok:
                return f"{key} = {got!r}, expected {want!r}"
        return None

    return check


def cli_commands(seed: int, workdir: str, tiny: bool = False) -> list:
    """(argv, expectations) for all ten subcommands at their default settings,
    then heavy settings of linescan, kobayashi and hartogs."""
    rng = np.random.default_rng(seed)
    cmds = []
    lits, w = _unit_vector(rng, 2)
    lin, wn = _linear(lits), float(np.linalg.norm(w))
    # sharp of a linear map peaks at the origin, which every grid contains
    cmds.append((["sharp", "--expr", lin, "--arity", "2"], {"results.sup": wn}))
    c_lit, c = _cnum(rng, 0.5, 2.0)
    # mu(1/(c z)) = mu(c z) = 2|c|/(1+|c z|^2): the pole at 0 gives the sup
    cmds.append((["mu", "--expr", f"1/({c_lit}*z1)"], {"results.sup": 2 * abs(c)}))
    s, size = float(_num(rng, 0.5, 1.5)), 5
    fam = [a for j in range(1, size + 1) for a in ("--expr", f"({s * j:.6f})*z1")]
    # criterion 6: sup of sharp over the dilations j z on a grid with 0 is max j
    cmds.append((["marty", *fam], {"results.sup": float(f"{s * size:.6f}")}))
    cmds.append((["yosida", "--expr", f"sin({_num(rng, 0.8, 1.2)}/(1-z1))"],
                 {"results.classification": nr.UNBOUNDED_TREND}))
    # levi / bergman <= |grad f|^2 |v|^2 / ((n+1)|v|^2)
    cmds.append((["ball-ratio", "--expr", lin, "--arity", "2"],
                 {"results.sup": (0.0, wn * wn / 3.0)}))
    cmds.append((["kobayashi", "--expr", lin, "--arity", "2"],
                 {"results.classification": nr.BOUNDED,
                  "results.estimate.sup": (0.0, wn * wn)}))
    # Schwarz-Pick with 5% for the sampled containment check, as in discs
    cmds.append((["disc-probe", "--expr", lin, "--arity", "2"],
                 {"results.sup": (0.0, 1.05 * wn)}))
    # two terms only: the default of 128 directions makes this the longest
    # default command already
    text, bound = _poly(rng, ("z1*z2", "z1"))
    cmds.append((["linescan", "--expr", text, "--arity", "2"],
                 {"results.classification": nr.BOUNDED,
                  "results.estimate.sup": (0.0, bound)}))
    ratio = cmath.rect(rng.uniform(0.5, 1.8), rng.uniform(0, 2 * math.pi))
    geo = se.PowerSeries(2, 40, {(k, 0): ratio ** k for k in range(41)})
    path = write_series(workdir, "cli-geometric", geo)
    cmds.append((["hartogs", "--series", path],
                 {"results.classification": ls.CONVERGENT,
                  "results.min_radius": 1.0 / abs(ratio)}))
    # |D phi_a| <= 1/(1-|z|^2) <= 4/3 on the ball of radius 1/2
    cmds.append((["orbit", "--expr", lin, "--arity", "2"],
                 {"results.sup": (0.0, 4.0 / 3.0 * wn)}))
    text, bound = _poly(rng, ("z1*z2", "z3"))
    cmds.append((["linescan", "--expr", text, "--arity", "3", "--directions", "160"],
                 {"results.classification": nr.BOUNDED,
                  "results.estimate.sup": (0.0, bound)}))
    text, bound = _poly(rng, POLY_MONOMIALS[3])
    cmds.append((["kobayashi", "--expr", text, "--arity", "3", "--directions", "256",
                  "--radii", "32", "--vectors", "64"],
                 {"results.classification": nr.BOUNDED,
                  "results.estimate.sup": (0.0, bound * bound)}))
    a = random_exp_vector(rng, 2, 0.3, 0.75)
    an = float(np.linalg.norm(a))
    path = write_series(workdir, "cli-exp", exp_series(a, 24))
    cmds.append((["hartogs", "--series", path, "--directions", "64"],
                 {"results.classification": ls.CONVERGENT,
                  "results.min_radius": (exp_radius_floor(a, 24), math.inf),
                  "results.partial_sum_sup.sup": (0.0, an * math.exp(4.0 * an))}))
    if tiny:
        cmds = [cmds[0], cmds[8]]
    return cmds


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int


def run_child(argv: list, env: dict, stderr_path: str) -> ChildResult:
    """Run one child process to completion and collect its own peak RSS.

    stderr goes to a file so that reading stdout to its end cannot block on
    a full stderr pipe; os.wait4 then reaps the child with its rusage.
    """
    with open(stderr_path, "w+b") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildResult(proc.returncode, out, err.read(), usage.ru_maxrss)


def _main_in_process(argv: list) -> tuple:
    """cli.main in this process with stdout captured: the CLI's own layers
    without interpreter start-up."""
    from holonorm import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()[-200:]}")
    payload = out.getvalue().encode()
    return payload, payload


def build_cli(seed: int, workdir: str, env: dict, tiny: bool = False) -> Workload:
    """Each command runs twice in a row, as its own op; the second run must
    reproduce the first byte for byte (criterion 11).  The traced pass runs
    each command once through cli.main in process."""
    ops, traced_ops = [], []
    stderr_path = os.path.join(workdir, "cli-stderr.txt")
    for argv, expect in cli_commands(seed, workdir, tiny):
        check_fields = _cli_check(expect)
        for fmt in ("json", "csv"):
            full = argv + ["--seed", str(seed), "--format", fmt]
            name = f"{argv[0]}-{fmt}" + ("-heavy" if "--directions" in argv else "")

            def call(full=full):
                res = run_child([sys.executable, "-m", "holonorm.cli", *full], env,
                                stderr_path)
                return res, res.stdout

            def check(res, fmt=fmt, check_fields=check_fields):
                if res.returncode != 0:
                    tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
                    return f"exit {res.returncode}: {' '.join(tail)}"
                return check_fields(report_fields(res.stdout, fmt))

            def check_in_process(payload, fmt=fmt, check_fields=check_fields):
                return check_fields(report_fields(payload, fmt))

            first = len(ops)
            ops.append(Op(name, call, check))
            ops.append(Op(name + "-replay", call, check, twin=first))
            traced_ops.append(Op(name + "-in-process", lambda full=full: _main_in_process(full),
                                 check_in_process))
    return Workload("cli", ops, traced_ops)


def build(name: str, seed: int, workdir: str, env: dict, tiny: bool = False) -> Workload:
    if name == "slices":
        return build_slices(seed, tiny)
    if name == "series":
        return build_series(seed, workdir, tiny)
    if name == "discs":
        return build_discs(seed, tiny)
    if name == "cli":
        return build_cli(seed, workdir, env, tiny)
    raise ValueError(f"unknown workload {name!r}")

