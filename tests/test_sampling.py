"""Grid builders: determinism, cumulative nesting, coverage."""

import numpy as np
import pytest

import holonorm.sampling as sp
from holonorm.errors import InputError


def test_ladder_validation():
    assert sp.check_ladder((0.2, 0.1)) == (0.2, 0.1)
    with pytest.raises(InputError):
        sp.check_ladder(())
    with pytest.raises(InputError):
        sp.check_ladder((0.1, 0.2))
    with pytest.raises(InputError):
        sp.check_ladder((0.5, 0.0))
    # radii 1 - e that round to 1, or to the previous rung's radius
    for ladder in [(0.1, 1e-17), (0.1, 0.1 - 1e-17), (1e-17,)]:
        with pytest.raises(InputError, match="ladder radii"):
            sp.check_ladder(ladder)
    assert sp.check_ladder((0.1, 2e-16)) == (0.1, 2e-16)


def test_disc_ladder_grids_are_prefix_nested():
    grids = sp.disc_ladder_grids((0.2, 0.1, 0.05), radii=8, angles=16)
    assert len(grids) == 3
    for early, late in zip(grids, grids[1:]):
        assert late.shape[0] > early.shape[0]
        assert np.array_equal(late[: early.shape[0]], early)


def test_disc_ladder_grids_reach_each_rung():
    ladder = (0.2, 0.1, 0.05)
    grids = sp.disc_ladder_grids(ladder, radii=8, angles=16)
    for eps, g in zip(ladder, grids):
        r = np.abs(g)
        assert np.all(r <= 1 - eps + 1e-12)
        assert r.max() > 1 - 2 * eps  # the rung annulus is actually sampled


def test_disc_ladder_first_rung_contains_origin():
    g = sp.disc_ladder_grids((0.2,), radii=8, angles=16)[0]
    assert np.any(g == 0)


def test_ball_ladder_grids_prefix_nested_and_axis_led():
    grids = sp.ball_ladder_grids(2, (0.2, 0.1), directions=5, radii=6, seed=0)
    for early, late in zip(grids, grids[1:]):
        assert np.array_equal(late[: early.shape[0]], early)
    deep = grids[-1]
    norms = np.linalg.norm(deep, axis=1)
    assert np.all(norms <= 0.9 + 1e-12)
    assert norms.max() > 0.85
    # origin plus both coordinate axis rays are present
    assert np.any(norms == 0)
    on_e1 = np.abs(deep[:, 1]) < 1e-15
    assert np.count_nonzero(on_e1 & (norms > 0.5)) > 0


@pytest.mark.parametrize("radii", [0, -3])
def test_ball_ladder_grids_need_a_radius_per_rung(radii):
    # with no radii every annulus is empty and all rungs are one grid
    with pytest.raises(InputError):
        sp.ball_ladder_grids(2, (0.2, 0.1), directions=5, radii=radii, seed=0)


def _cumulative_disc_grids(ladder, radii, angles):
    # the loop that built every rung as its own array, kept as the reference
    lad = sp.check_ladder(ladder)
    theta = 2.0 * np.pi * np.arange(angles) / angles
    ring = np.exp(1j * theta)
    grids, blocks = [], []
    for rs in sp._rung_radii(lad, radii):
        blocks.append((rs[:, None] * ring[None, :]).ravel())
        grids.append(np.concatenate(blocks))
    return grids


def _cumulative_ball_grids(arity, ladder, directions, radii, seed):
    lad = sp.check_ladder(ladder)
    dirs = np.concatenate([sp.axis_directions(arity),
                           sp.unit_sphere_points(arity, directions, seed)])
    grids, blocks = [], [np.zeros((1, arity), dtype=complex)]
    for rs in sp._rung_radii(lad, radii):
        rs = rs[rs > 0]
        blocks.append((rs[:, None, None] * dirs[None, :, :]).reshape(-1, arity))
        grids.append(np.concatenate(blocks))
    return grids


def _same_rungs(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    # one array: every rung is a prefix view of the deepest
    assert all(np.shares_memory(g, got[-1]) for g in got)


LADDERS = [(0.2,), (0.5, 0.3), sp.DEFAULT_LADDER, (0.9, 0.5, 0.1, 0.01, 1e-3, 1e-6)]


@pytest.mark.parametrize("ladder", LADDERS)
@pytest.mark.parametrize("radii,angles", [(2, 1), (3, 7), (24, 32), (64, 128)])
def test_disc_ladder_grids_match_the_cumulative_loop(ladder, radii, angles):
    _same_rungs(sp.disc_ladder_grids(ladder, radii, angles),
                _cumulative_disc_grids(ladder, radii, angles))


@pytest.mark.parametrize("ladder", LADDERS)
@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
def test_ball_ladder_grids_match_the_cumulative_loop(ladder, arity):
    for directions, radii, seed in ((1, 1, 0), (5, 2, 3), (64, 16, 11), (256, 32, 7)):
        _same_rungs(sp.ball_ladder_grids(arity, ladder, directions, radii, seed),
                    _cumulative_ball_grids(arity, ladder, directions, radii, seed))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_ball_ladder_builds_any_stretch_of_the_grid(arity):
    ladder = (0.5, 0.1, 0.01)
    grid = sp.ball_ladder(arity, ladder, 7, 5, 2)
    grids = sp.ball_ladder_grids(arity, ladder, 7, 5, 2)
    deep = grids[-1]
    m = len(grid)
    assert m == len(deep) and list(grid.lengths) == [len(g) for g in grids]
    rng = np.random.default_rng(arity)
    spans = [(0, 0), (0, 1), (0, m), (1, 2), (m - 1, m), (m, m + 5), (3, 1)]
    spans += [tuple(sorted(rng.integers(0, m + 1, 2))) for _ in range(50)]
    for s, e in spans:
        got, want = grid[s:e], deep[s:e]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (s, e)
    for i in (0, 1, 9, m - 1):
        assert grid[i].tobytes() == deep[i].tobytes()


def test_unit_sphere_points_seeded():
    a = sp.unit_sphere_points(3, 10, seed=4)
    b = sp.unit_sphere_points(3, 10, seed=4)
    c = sp.unit_sphere_points(3, 10, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_uniform_ball_points_inside():
    pts = sp.uniform_ball_points(2, 200, 0.9, seed=6)
    assert np.all(np.linalg.norm(pts, axis=1) <= 0.9 + 1e-12)


def test_ball_grid_includes_origin_and_axes():
    g = sp.ball_grid(2, 0.5, directions=4, radii=3, seed=1)
    assert np.any(np.all(g == 0, axis=1))
    norms = np.linalg.norm(g, axis=1)
    assert np.all(norms <= 0.5 + 1e-12)
    on_e2 = np.abs(g[:, 0]) < 1e-15
    assert np.count_nonzero(on_e2 & (norms > 0)) > 0


def test_axis_directions():
    ax = sp.axis_directions(3)
    assert np.array_equal(ax, np.eye(3, dtype=complex))
