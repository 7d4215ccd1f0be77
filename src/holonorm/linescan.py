"""Line restrictions on the ball: slice certifiers and series convergence.

A function or family on the unit ball is probed along complex lines
lambda -> lambda * c through the origin.  A slice g(lambda) = f(lambda * c)
is evaluated along ``ex.line_map(c)`` by the directional mode of f's tape
(value and grad f . c), so all one-variable machinery (ladders, trend
verdicts) applies unchanged without building the composed expression; a
slice's ladder table is formed as ``yosida_bound``'s (``nr._ladder_tables``).
For power series the same direction sweep yields root-test radius estimates
and a convergence verdict for the Hartogs-type partial-sum argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


#: Placeholder for a removed name, kept as bench/tracer.py's LAYERS names it.
restrict_function = None


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

    The ladder grid and the evaluation workspace are built once; per line,
    one ``ex.line_map`` serves every member's weighted sharp table
    (``nr._ladder_tables``, from the directional jets along the line).
    """
    grid = nr.disc_ladder(ladder, radii, angles)
    reports, verdicts, total = [], [], 0
    with ex.Workspace():
        for c in D.directions:
            tables = nr._ladder_tables(fam, ex.line_map(canonical_direction(c)), grid)
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
    v = nr.ladder_verdict(sups, arg, len(tables) * grid.points.shape[0], ladder)
    cps = _prefix_checkpoints(len(member_running))
    ratios = nr.consecutive_ratios([member_running[i - 1] for i in cps])
    if ratios and min(ratios) >= nr.GROWTH_FACTOR:
        return replace(v, classification=nr.UNBOUNDED_TREND,
                       trend_ratio=max(v.trend_ratio, min(ratios)))
    if v.classification == nr.BOUNDED and ratios and ratios[-1] > 1.0 + nr.STABILIZATION:
        return replace(v, classification=nr.INCONCLUSIVE)
    return v


def alexander_family_test(family, D: DirectionSet | None = None,
                          ladder=sp.DEFAULT_LADDER, radii: int = 48,
                          angles: int = 64, seed: int = 0):
    """Family slices along lines, aggregated, plus a direct ball supremum.

    Returns (verdict, line reports, ball SupEstimate).  Running the family
    on the ball grid directly (radius 0.5, 64 seeded directions, 12 radii)
    and along slices reports both sides of the slice-versus-ball comparison.
    A singleton family reproduces alexander_function_test report for report.
    """
    fam = nr._as_family(family)
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
    INCONCLUSIVE.  Optionally the partial sums f_0 .. f_M, the family whose
    normality the slice argument feeds on, are reduced as in marty_sup on a
    grid (32 seeded directions, 8 radii) of the ball of half the worst
    radius, from their jets (``se.partial_sum_jets``), not from trees.

    Returns (verdict, line reports, partial-sum SupEstimate or None).
    """
    if F.max_degree < MIN_HARTOGS_DEGREE:
        raise InputError(
            f"series truncated below degree {MIN_HARTOGS_DEGREE}; "
            "radius trends would be meaningless"
        )
    if not 0 < R_min < math.inf:
        raise InputError("R_min must be positive and finite")
    D = _check_directions(D, F.arity)
    B = se.restrict_to_lines(F, [canonical_direction(c) for c in D.directions])
    full, half = (np.array([se.radius_estimate(se.UniSeries(b[:m]), window) for b in B])
                  for m in (None, F.max_degree // 2 + 1))
    reports = [LineReport(c, radius=r, radius_half=h) for c, r, h in zip(D.directions, full, half)]
    # a radius that turns finite as the degree grows shrank too
    shrank = np.where(np.isfinite(half), full < half * (1.0 - _SHRINK_TOL), np.isfinite(full))
    k = int(np.argmin(full))
    worst = float(full[k])
    if (shrank & (full < R_min)).any():
        label = DIVERGENT
    elif min(worst, half.min()) >= R_min and not shrank.any():
        label = CONVERGENT
    else:
        label = nr.INCONCLUSIVE
    est = nr.SupEstimate(worst, D.directions[k] if math.isfinite(worst) else None,
                         samples=len(D.directions), growth_series=[])
    verdict = nr.Verdict(label, est, threshold=R_min, trend_ratio=1.0)
    partial_report = None
    if probe_partial_sums:
        ball_r = min(0.5 * worst if math.isfinite(worst) else 1.0, 4.0)
        if ball_r > 0:
            grid = ex.as_points(sp.ball_grid(F.arity, ball_r, 32, 8, seed), F.arity)
            vals, grads = se.partial_sum_jets(F, grid)
            sharp = nr._spherical(np.linalg.norm(grads, axis=2), vals)
            partial_report = nr._family_sup(sharp, grid, "marty_sup")
    return verdict, reports, partial_report
