"""Line restrictions on the ball: slice certifiers and series convergence.

A function or family on the unit ball is probed along complex lines
lambda -> lambda * c through the origin.  A slice g(lambda) = f(lambda * c)
is evaluated by the directional mode of f's tape (value and grad f . c), so
all one-variable machinery (ladders, trend verdicts) applies unchanged
without building the composed expression; ``restrict_function`` still
builds it for callers that want the tree.  For power series the same
direction sweep yields root-test radius estimates and a convergence verdict
for the Hartogs-type partial-sum argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from . import expr as ex
from . import normality as nr
from . import sampling as sp
from . import series as se

DEFAULT_DIRECTIONS = 128
DEFAULT_RMIN = 0.05

CONVERGENT = "CONVERGENT"
DIVERGENT = "DIVERGENT"

#: Line radius estimates from truncations this short are refused.
MIN_HARTOGS_DEGREE = 16

#: A refinement shrink beyond this factor reads as genuine decay.
_SHRINK_TOL = 0.05


@dataclass(frozen=True)
class DirectionSet:
    """Unit directions in C^n: the coordinate axes plus seeded samples."""

    directions: np.ndarray  # (m, n) complex, unit rows
    seed: int
    count: int

    @property
    def arity(self) -> int:
        return self.directions.shape[1]

    def __len__(self):
        return self.directions.shape[0]


def direction_set(arity: int, count: int = DEFAULT_DIRECTIONS,
                  seed: int = 0) -> DirectionSet:
    """Seeded uniform sphere directions; the n coordinate axes always lead."""
    if count < 0:
        raise InputError("direction count must be nonnegative")
    rows = [np.eye(arity, dtype=complex)]
    if count:
        rows.append(sp.unit_sphere_points(arity, count, seed))
    return DirectionSet(np.concatenate(rows), seed=seed, count=count)


def canonical_direction(c) -> np.ndarray:
    """Phase-normalised representative of the complex line through c.

    All of lambda -> lambda * exp(i theta) * c trace the same line, so line
    reports must not depend on the phase choice.  Rotating the largest
    coordinate onto the positive real axis picks one representative per line.
    """
    cv = np.asarray(c, dtype=complex).reshape(-1)
    k = int(np.argmax(np.abs(cv)))
    if cv[k] == 0:
        raise InputError("direction must be nonzero")
    return cv * (abs(cv[k]) / cv[k])


def restrict_function(f: ex.HoloExpr, c) -> ex.HoloExpr:
    """The one-variable slice g(lambda) = f(lambda * c), as an expression."""
    cv = np.asarray(c, dtype=complex).reshape(-1)
    if cv.shape[0] != f.arity:
        raise InputError(f"direction must have {f.arity} coordinates")
    lam = ex.var_expr(1, 1)
    parts = [ex.const_expr(ck, 1) * lam for ck in cv]
    return ex.substitute(f, parts)


@dataclass(frozen=True)
class LineReport:
    """Per-direction record: trend data for slices, radii for series."""

    direction: np.ndarray
    verdict: nr.Verdict | None = None
    radius: float | None = None
    radius_half: float | None = None

    def to_dict(self) -> dict:
        d = [{"re": float(w.real), "im": float(w.imag)} for w in self.direction]
        out: dict = {"direction": d}
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_dict()
        if self.radius is not None:
            out["radius"] = self.radius
            out["radius_half"] = self.radius_half
        return out


def _aggregate(per_line: list[nr.Verdict], sup_samples: int) -> nr.Verdict:
    """Combine per-line verdicts: any trending line decides, all-BOUNDED
    yields the common stabilized bound, anything else is INCONCLUSIVE."""
    labels = [v.classification for v in per_line]
    sup = max(v.estimate.sup_value for v in per_line)
    k = int(np.argmax([v.estimate.sup_value for v in per_line]))
    arg = per_line[k].estimate.argmax_point
    trend = max(v.trend_ratio for v in per_line)
    series = [(float(i + 1), v.estimate.sup_value) for i, v in enumerate(per_line)]
    est = nr.SupEstimate(sup, arg, samples=sup_samples, growth_series=series)
    if nr.UNBOUNDED_TREND in labels:
        worst = max(v.trend_ratio for v in per_line
                    if v.classification == nr.UNBOUNDED_TREND)
        return nr.Verdict(nr.UNBOUNDED_TREND, est, nr.GROWTH_FACTOR, worst)
    if all(lbl == nr.BOUNDED for lbl in labels):
        return nr.Verdict(nr.BOUNDED, est, nr.GROWTH_FACTOR, trend)
    return nr.Verdict(nr.INCONCLUSIVE, est, nr.GROWTH_FACTOR, trend)


def _check_directions(D: DirectionSet | None, arity: int) -> DirectionSet:
    if D is None:
        D = direction_set(arity)
    if D.arity != arity:
        raise InputError("direction set arity mismatch")
    if len(D) == 0:
        raise InputError("direction set is empty")
    return D


def _slice_verdicts(fam, D: DirectionSet, ladder, radii: int, angles: int):
    """Family verdict of each line slice, and their aggregate.

    The ladder grid is built once; per line, each member's weighted sharp
    table comes from its directional jets along the line.
    """
    grid = nr.disc_ladder(ladder, radii, angles)
    reports = []
    verdicts = []
    total = 0
    for c in D.directions:
        cc = canonical_direction(c)
        tables = [grid.weights * nr._finite_or_raise(
                      nr.line_sharp(f, cc, grid.points), "weighted ladder")
                  for f in fam]
        v = _family_line_verdict(tables, grid, ladder)
        verdicts.append(v)
        reports.append(LineReport(direction=c, verdict=v))
        total += v.estimate.samples
    return _aggregate(verdicts, total), reports


def alexander_function_test(f: ex.HoloExpr, D: DirectionSet | None = None,
                            ladder=sp.DEFAULT_LADDER, radii: int = 48,
                            angles: int = 64) -> tuple[nr.Verdict, list[LineReport]]:
    """Boundary-weighted trend of every line slice of a single function.

    The aggregate is BOUNDED only when every slice stabilises; one slice
    with sustained growth drives the whole verdict to UNBOUNDED_TREND.
    Each slice's verdict is ``yosida_bound`` of the slice.
    """
    return _slice_verdicts([f], _check_directions(D, f.arity), ladder, radii, angles)


def _prefix_checkpoints(size: int) -> list[int]:
    pts = sorted({max(1, size // 8), max(1, size // 4), max(1, size // 2), size})
    return pts


def _family_line_verdict(tables, grid: nr.DiscLadder, ladder) -> nr.Verdict:
    """Trend of a one-variable family along both refinement axes.

    ``tables`` hold each member's (1-|l|^2) sharp on ``grid``.  Axis one is
    the boundary ladder (suprema over the whole family, cumulative grids).
    Axis two is family size: the running supremum at the deepest rung, read
    at doubling checkpoints.  Either axis showing sustained geometric growth
    is an unbounded trend; BOUNDED needs both to stabilise.  For a single
    member this is the ``yosida_bound`` verdict.
    """
    sups, arg, member_running = nr.rung_sups(tables, grid.lengths, grid.points)
    rung_label, rung_trend = nr.classify_trend(sups)
    cps = _prefix_checkpoints(len(member_running))
    prefix = [member_running[i - 1] for i in cps]
    if len(prefix) >= 2:
        ratios = nr.consecutive_ratios(prefix)
        prefix_trend = min(ratios)
        prefix_growing = prefix_trend >= nr.GROWTH_FACTOR
        prefix_stable = ratios[-1] <= 1.0 + nr.STABILIZATION
    else:
        prefix_trend = 1.0
        prefix_growing = False
        prefix_stable = True
    est = nr.SupEstimate(max(sups), arg, len(tables) * grid.points.shape[0],
                         growth_series=list(zip([float(e) for e in ladder], sups)))
    if rung_label == nr.UNBOUNDED_TREND or prefix_growing:
        trend = max(rung_trend, prefix_trend)
        return nr.Verdict(nr.UNBOUNDED_TREND, est, nr.GROWTH_FACTOR, trend)
    if rung_label == nr.BOUNDED and prefix_stable:
        return nr.Verdict(nr.BOUNDED, est, nr.GROWTH_FACTOR, rung_trend)
    return nr.Verdict(nr.INCONCLUSIVE, est, nr.GROWTH_FACTOR, rung_trend)


def alexander_family_test(family, D: DirectionSet | None = None,
                          ladder=sp.DEFAULT_LADDER, radii: int = 48,
                          angles: int = 64, seed: int = 0):
    """Family slices along lines, aggregated, plus a direct ball supremum.

    Returns (verdict, line reports, ball SupEstimate).  Running the family
    on the ball grid directly (radius 0.5, 64 seeded directions, 12 radii)
    and along slices reports both sides of the slice-versus-ball comparison.
    A singleton family reproduces alexander_function_test report for report.
    """
    fam = [f for f in family]
    if not fam:
        raise InputError("family must be nonempty")
    arity = fam[0].arity
    verdict, reports = _slice_verdicts(fam, _check_directions(D, arity),
                                       ladder, radii, angles)
    grid = sp.ball_grid(arity, 0.5, 64, 12, seed)
    ball_est = nr.marty_sup(fam, grid)
    return verdict, reports, ball_est


# --------------------------------------------------------------------------
# Hartogs-type series convergence
# --------------------------------------------------------------------------

def hartogs_test(F: se.PowerSeries, D: DirectionSet | None = None,
                 R_min: float = DEFAULT_RMIN, window: float = se.DEFAULT_WINDOW,
                 probe_partial_sums: bool = True, seed: int = 0):
    """Directional convergence verdict for a truncated power series.

    Per direction the slice coefficients feed a windowed root test twice,
    with the full truncation degree and with half of it.  The verdict is
    CONVERGENT when the worst direction still clears R_min under both
    truncations without material shrink, DIVERGENT when some direction
    falls below R_min and keeps shrinking as the degree grows, otherwise
    INCONCLUSIVE.  Optionally the partial sums f_0 .. f_M are run through
    marty_sup on a grid (32 seeded directions, 8 radii) of the ball of half
    the worst radius, the family whose normality the slice argument feeds on.

    Returns (verdict, line reports, partial-sum SupEstimate or None).
    """
    if F.max_degree < MIN_HARTOGS_DEGREE:
        raise InputError(
            f"series truncated below degree {MIN_HARTOGS_DEGREE}; "
            "radius trends would be meaningless"
        )
    if R_min <= 0:
        raise InputError("R_min must be positive")
    D = _check_directions(D, F.arity)
    half_len = F.max_degree // 2 + 1
    reports = []
    worst = math.inf
    worst_dir = None
    shrinking_below = False
    stable_everywhere = True
    for c in D.directions:
        u = se.restrict_to_line(F, canonical_direction(c))
        r_full = se.radius_estimate(u, window)
        r_half = se.radius_estimate(se.UniSeries(u.coefficients[:half_len]), window)
        reports.append(LineReport(direction=c, radius=r_full, radius_half=r_half))
        if r_full < worst:
            worst = r_full
            worst_dir = c
        if math.isfinite(r_half):
            shrank = r_full < r_half * (1.0 - _SHRINK_TOL)
        else:
            shrank = math.isfinite(r_full)
        if shrank:
            stable_everywhere = False
            if r_full < R_min:
                shrinking_below = True
        if min(r_full, r_half) < R_min:
            stable_everywhere = False
    if shrinking_below:
        label = DIVERGENT
    elif worst >= R_min and stable_everywhere:
        label = CONVERGENT
    else:
        label = nr.INCONCLUSIVE
    trend = 1.0
    est = nr.SupEstimate(worst if math.isfinite(worst) else math.inf,
                         worst_dir, samples=len(D.directions),
                         growth_series=[])
    verdict = nr.Verdict(label, est, threshold=R_min, trend_ratio=trend)
    partial_report = None
    if probe_partial_sums:
        ball_r = 0.5 * worst if math.isfinite(worst) else 1.0
        ball_r = min(ball_r, 4.0)
        if ball_r > 0:
            fam = [se.partial_sum(F, m) for m in range(F.max_degree + 1)]
            grid = sp.ball_grid(F.arity, ball_r, 32, 8, seed)
            partial_report = nr.marty_sup(fam, grid)
    return verdict, reports, partial_report
