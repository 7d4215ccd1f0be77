"""Deterministic grids and seeded samplers used by the certifiers.

Every sampler takes an explicit seed and is reproducible bit for bit; grid
builders are purely deterministic.  Ladder grids are cumulative: the grid for
a later rung contains every earlier rung's points plus a freshly resolved
boundary annulus, so suprema along a ladder are nondecreasing by
construction.  The rungs of a ladder are prefix views of one array.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError

DEFAULT_LADDER = (0.2, 0.1, 0.05, 0.02, 0.01)
DEFAULT_RADII = 64
DEFAULT_ANGLES = 128


def check_ladder(ladder) -> tuple:
    lad = tuple(float(e) for e in ladder)
    if not lad:
        raise InputError("ladder must be nonempty")
    if any(not 0 < e < 1 for e in lad):
        raise InputError("ladder entries must lie in (0, 1)")
    if any(b >= a for a, b in zip(lad, lad[1:])):
        raise InputError("ladder must be strictly decreasing")
    # 1 - e rounds to 1 for e below about 1.1e-16, and two gaps closer than
    # that can round to one radius: such a rung samples nothing new
    radii = [1.0 - e for e in lad] + [1.0]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InputError("ladder radii 1 - e must increase and stay below 1 in floats")
    return lad


def annulus_radii(eps_outer: float, eps_inner: float, count: int) -> np.ndarray:
    """Radii with 1 - r geometrically spaced in (eps_inner, eps_outer]."""
    j = np.arange(1, count + 1, dtype=float)
    one_minus = eps_outer * (eps_inner / eps_outer) ** (j / count)
    return 1.0 - one_minus


def first_rung_radii(eps: float, count: int) -> np.ndarray:
    """Radii from 0 out to 1 - eps, clustering toward the boundary."""
    j = np.arange(count, dtype=float)
    return 1.0 - eps ** (j / (count - 1)) if count > 1 else np.array([1.0 - eps])


def _rung_radii(lad: tuple, radii: int):
    """The radii each rung of a ladder adds: out to 1 - eps for the first,
    then the annulus between consecutive entries."""
    yield first_rung_radii(lad[0], radii)
    for outer, inner in zip(lad, lad[1:]):
        yield annulus_radii(outer, inner, radii)


def disc_ladder_grids(ladder=DEFAULT_LADDER, radii: int = DEFAULT_RADII,
                      angles: int = DEFAULT_ANGLES) -> list[np.ndarray]:
    """Cumulative radial-angular grids on |z| <= 1 - eps for each rung.

    Returns one complex (m_k,) array per rung with m_1 < m_2 < ...; rung k
    is a superset of rung k-1, as a prefix view of the rung blocks joined once.
    """
    lad = check_ladder(ladder)
    if radii < 2 or angles < 1:
        raise InputError("need at least 2 radii and 1 angle")
    theta = 2.0 * np.pi * np.arange(angles) / angles
    ring = np.exp(1j * theta)
    blocks = [(rs[:, None] * ring[None, :]).ravel() for rs in _rung_radii(lad, radii)]
    deep = np.concatenate(blocks)
    return [deep[:m] for m in np.cumsum([len(b) for b in blocks])]


def disc_grid(radius: float, radii: int = 24, angles: int = 48) -> np.ndarray:
    """Plain polar grid on the closed disc of the given radius."""
    rs = np.linspace(0.0, radius, radii)
    theta = 2.0 * np.pi * np.arange(angles) / angles
    return (rs[:, None] * np.exp(1j * theta)[None, :]).ravel()


def axis_directions(arity: int) -> np.ndarray:
    """The coordinate unit vectors of C^arity as complex rows."""
    return np.eye(arity, dtype=complex)


def _unit_rows(rng, arity: int, count: int) -> np.ndarray:
    """count unit rows of C^arity, normalised Gaussian draws from rng."""
    raw = rng.standard_normal((count, 2 * arity))
    vecs = raw[:, :arity] + 1j * raw[:, arity:]
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    # a zero draw has probability zero but guard anyway
    norms[norms == 0] = 1.0
    return vecs / norms


def unit_sphere_points(arity: int, count: int, seed: int) -> np.ndarray:
    """Seeded uniform sample on the unit sphere of C^arity, shape (count, arity)."""
    if count < 1:
        raise InputError("count must be positive")
    return _unit_rows(np.random.default_rng(seed), arity, count)


def uniform_ball_points(arity: int, count: int, radius: float, seed: int) -> np.ndarray:
    """Seeded uniform sample in the closed complex ball of the given radius."""
    if count < 1:
        raise InputError("count must be positive")
    rng = np.random.default_rng(seed)
    dirs = _unit_rows(rng, arity, count)
    u = rng.uniform(size=(count, 1))
    return dirs * (radius * u ** (1.0 / (2 * arity)))


def uniform_disc_points(count: int, radius: float, seed: int) -> np.ndarray:
    """Seeded uniform sample in a disc, returned as a complex (count,) array."""
    if count < 1:
        raise InputError("count must be positive")
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(size=count))
    th = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return r * np.exp(1j * th)


def ball_grid(arity: int, radius: float, directions: int = 64,
              radii: int = 12, seed: int = 0) -> np.ndarray:
    """Polar product grid on a closed ball: seeded directions times radii.

    Coordinate axes lead the direction list so axis singularities are
    always approached.  Includes the origin.
    """
    dirs = np.concatenate([axis_directions(arity),
                           unit_sphere_points(arity, directions, seed)])
    rs = np.linspace(0.0, radius, radii + 1)[1:]
    pts = (rs[:, None, None] * dirs[None, :, :]).reshape(-1, arity)
    origin = np.zeros((1, arity), dtype=complex)
    return np.concatenate([origin, pts])


@dataclass(frozen=True)
class BallLadder:
    """The deepest grid of ``ball_ladder_grids`` without building it: the
    origin, then every rung's positive radii times the directions.  Its
    ``len`` is its point count and ``lengths`` are its rungs'.  An index
    (0 or more) or a slice of step 1 builds just those points, with the bits
    the whole grid holds, so a caller can walk the grid one block at a time."""

    dirs: np.ndarray    # (d, n): the coordinate axes, then seeded sphere points
    radii: np.ndarray   # each rung's positive radii, rung after rung
    lengths: tuple

    def __len__(self) -> int:
        return self.lengths[-1]

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return self[key:key + 1][0]
        s, e, _ = key.indices(len(self))
        count, n = self.dirs.shape
        a, b = max(s, 1) - 1, max(e, 1) - 1  # positions after the origin
        lo, hi = a // count, -(-b // count)
        pts = (self.radii[lo:hi, None, None] * self.dirs[None, :, :]).reshape(-1, n)
        pts = pts[a - lo * count:b - lo * count]
        if s == 0 < e:
            return np.concatenate([np.zeros((1, n), dtype=complex), pts])
        return pts


def ball_ladder(arity: int, ladder=DEFAULT_LADDER, directions: int = 64,
                radii: int = 16, seed: int = 0) -> BallLadder:
    """The cumulative polar grids of ``ball_ladder_grids`` as a
    :class:`BallLadder`, which holds only their radii and directions."""
    lad = check_ladder(ladder)
    if radii < 1:
        raise InputError("need at least 1 radius")
    dirs = np.concatenate([axis_directions(arity),
                           unit_sphere_points(arity, directions, seed)])
    rungs = [rs[rs > 0] for rs in _rung_radii(lad, radii)]
    lengths = itertools.accumulate((len(rs) * len(dirs) for rs in rungs), initial=1)
    return BallLadder(dirs, np.concatenate(rungs), tuple(lengths)[1:])


def ball_ladder_grids(arity: int, ladder=DEFAULT_LADDER, directions: int = 64,
                      radii: int = 16, seed: int = 0) -> list[np.ndarray]:
    """Cumulative polar grids on the balls of radius 1 - eps along a ladder.

    Coordinate axes lead the direction list, then seeded sphere points; the
    origin leads the first rung.
    """
    grid = ball_ladder(arity, ladder, directions, radii, seed)
    deep = grid[:]
    return [deep[:m] for m in grid.lengths]
