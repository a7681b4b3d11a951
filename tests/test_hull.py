import numpy as np
import pytest

from sunlab import (
    DuplicatePoints,
    PointCloud,
    ball_hull_outer,
    builtin,
    hull_interval_gap,
    interval,
    interval_contains,
    m_connected,
    mei_check,
    random_space,
    slab_vertices_2d,
)
from sunlab.hull import _pair_positions

LINF2 = builtin("linf", 2)
L12 = builtin("l1", 2)


# --- intervals -------------------------------------------------------------


def test_interval_linf2_is_coordinate_box():
    box = interval(LINF2, [0, 0], [2, 1])
    # canonical representative order for linf(2) is (0,1), (1,0)
    assert np.array_equal(box.lo, [0.0, 0.0])
    assert np.array_equal(box.hi, [1.0, 2.0])
    assert interval_contains(box, [1, 0.5])
    assert not interval_contains(box, [1, 1.2])


def test_interval_symmetric_in_endpoints():
    rng = np.random.default_rng(8)
    for s in (LINF2, L12, builtin("l1", 3)):
        x = rng.uniform(-2, 2, s.dim)
        y = rng.uniform(-2, 2, s.dim)
        a, b = interval(s, x, y), interval(s, y, x)
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)


def test_interval_degenerate_pair_is_singleton():
    x = np.array([0.7, -1.3])
    box = interval(L12, x, x)
    assert interval_contains(box, x)
    assert not interval_contains(box, x + [1e-3, 0])


def test_interval_l12_brute_force_grid():
    """Slab membership for the pair (0,0),(2,0) in l1(2) against an
    independently coded predicate on a 0.01 grid over [-1,3]^2."""
    box = interval(L12, [0, 0], [2, 0])
    axis = np.round(np.arange(-1.0, 3.0 + 1e-9, 0.01), 10)
    g = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    got = box.contains_many(g)
    su, di = g[:, 0] + g[:, 1], g[:, 0] - g[:, 1]
    tol = 1e-10
    expect = (su >= -tol) & (su <= 2 + tol) & (di >= -tol) & (di <= 2 + tol)
    assert np.array_equal(got, expect)


def test_interval_l12_vertex_membership():
    box = interval(L12, [0, 0], [2, 0])
    assert interval_contains(box, [1, 1])
    for v in ([0, 0], [1, 1], [2, 0], [1, -1]):
        assert interval_contains(box, v)


def test_slab_vertices_l12_parallelogram():
    verts = slab_vertices_2d(interval(L12, [0, 0], [2, 0]))
    expect = {(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (1.0, -1.0)}
    assert {tuple(np.round(v, 9)) for v in verts} == expect


# --- sampled ball hulls ----------------------------------------------------


def test_hull_contains_endpoints_midpoint_and_segment():
    rng = np.random.default_rng(21)
    for s in (LINF2, L12, builtin("l1", 3), random_space(2, 4, seed=1)):
        x = rng.uniform(-2, 2, s.dim)
        y = rng.uniform(-2, 2, s.dim)
        h = ball_hull_outer(s, x, y, n_balls=50, seed=0)
        for t in np.linspace(0, 1, 17):
            assert h.contains((1 - t) * x + t * y)


def test_hull_includes_interval_grid():
    rng = np.random.default_rng(22)
    for s in (LINF2, L12, builtin("linf", 3)):
        for _ in range(20):
            x = rng.uniform(-1, 1, s.dim)
            y = rng.uniform(-1, 1, s.dim)
            rep = hull_interval_gap(s, x, y, n_balls=200, seed=3)
            assert rep.contained, rep.inclusion_witness


def test_hull_upper_bounds_shrink_with_nested_samples():
    x, y = np.array([0.0, 0.0]), np.array([2.0, 1.0])
    h1 = ball_hull_outer(LINF2, x, y, n_balls=100, seed=5)
    h2 = ball_hull_outer(LINF2, x, y, n_balls=1000, seed=5)
    assert np.array_equal(h1.centers, h2.centers[:100])
    assert np.all(h2.upper <= h1.upper)


def test_hull_degenerate_pair_shrinks_to_point():
    x = np.array([0.4, -0.9])
    h = ball_hull_outer(LINF2, x, x, n_balls=10, seed=0)
    assert h.contains(x)
    assert not h.contains(x + [0.01, 0.0])


def test_hull_as_slabs_matches_predicate():
    rng = np.random.default_rng(23)
    s = random_space(2, 5, seed=11)
    x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    h = ball_hull_outer(s, x, y, n_balls=300, seed=2)
    slabs = h.as_slabs()
    pts = rng.uniform(-3, 3, size=(500, 2))
    assert np.array_equal(h.contains_many(pts), slabs.contains_many(pts))


@pytest.mark.parametrize(
    "s",
    [builtin(name, n) for name in ("linf", "l1") for n in (1, 2, 3, 4)]
    + [random_space(dim, dim + extra, seed=dim * 10 + extra) for dim in (2, 3) for extra in (0, 3)],
    ids=lambda s: s.name,
)
def test_pair_positions_locate_each_representative_and_its_negation(s):
    rep, neg = _pair_positions(s)
    assert np.array_equal(s.functionals[rep], s.representatives)
    assert np.array_equal(s.functionals[neg], -s.representatives)


def test_gap_zero_for_linf2_box():
    rep = hull_interval_gap(LINF2, [0, 0], [2, 1], n_balls=2000, seed=0)
    assert rep.contained
    assert rep.gap == 0.0


def test_gap_nonincreasing_in_ball_count():
    gaps = []
    for n in (100, 1000):
        rep = hull_interval_gap(L12, [0, 0], [2, 0], n_balls=n, seed=9)
        assert rep.contained
        gaps.append(rep.gap)
    assert gaps[1] <= gaps[0]


@pytest.mark.parametrize("resolution", [-3, 0, 1])
def test_gap_grid_needs_two_points_per_axis(resolution):
    """A one-point grid checks no interval point and so passed vacuously;
    0 fell back to the default grid."""
    with pytest.raises(ValueError, match=f"at least 2 points per axis, got {resolution}$"):
        hull_interval_gap(LINF2, [0, 0], [1, 0.5], n_balls=10, resolution=resolution)


def test_mei_check_builtin_spaces():
    for s in (LINF2, builtin("l1", 3)):
        rep = mei_check(s, trials=25, seed=4, n_balls=600)
        assert rep.passed, rep.violations
        assert rep.max_gap <= 2.0 * (rep.worst.step if rep.worst else 0.0) + 1e-12


def test_mei_check_dim1_exact():
    rep = mei_check(builtin("linf", 1), trials=10, seed=0, n_balls=10)
    assert rep.passed
    assert rep.max_gap == 0.0


# --- m-connectedness -------------------------------------------------------


def test_mconnected_collinear_three_points():
    cloud = PointCloud([[0, 0], [1, 0], [2, 0]])
    rep = m_connected(LINF2, cloud)
    assert rep.connected
    assert rep.witness is None


def test_mconnected_two_points_never():
    rep = m_connected(LINF2, PointCloud([[0, 0], [1, 1]]))
    assert not rep.connected
    assert rep.witness == (0, 1)


def test_mconnected_singleton():
    assert m_connected(LINF2, PointCloud([[3.0, -2.0]])).connected


def test_mconnected_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        m_connected(LINF2, PointCloud([[0, 0], [0, 0], [1, 0]]))


def _two_sheets(q, values=(0.0, 0.5, 1.0)):
    rest = np.stack(np.meshgrid(*([np.array(values)] * (q - 1)), indexing="ij"), axis=-1)
    rest = rest.reshape(-1, q - 1)
    lifted = [np.hstack([np.full((rest.shape[0], 1), c), rest]) for c in (1.0, 2.0)]
    return PointCloud(np.vstack(lifted))


def test_mconnected_two_sheet_witness_aligned():
    """The discretized union {x1=1} u {x1=2} fails, and the witness pair
    agrees in every coordinate except the first."""
    cloud = _two_sheets(3)
    rep = m_connected(builtin("linf", 3), cloud)
    assert not rep.connected
    i, j = rep.witness
    u, v = cloud.points[i], cloud.points[j]
    assert {u[0], v[0]} == {1.0, 2.0}
    assert np.array_equal(u[1:], v[1:])


@pytest.mark.parametrize("step, stop", [(0.1, 0.85), (0.05, 0.425)])
def test_mconnected_arange_grid(step, stop):
    """Neighbour spacings of an np.arange grid differ in the last bit
    (0.1 against 0.09999999999999998); the exemption tolerance keeps them
    all exempt, so the 9 x 9 grid is connected."""
    ticks = np.arange(0.0, stop, step)
    assert ticks.size == 9
    grid = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    rep = m_connected(LINF2, PointCloud(grid))
    assert rep.connected and rep.witness is None
    assert rep.pairs_checked + rep.pairs_exempt == 81 * 80 // 2


def test_mconnected_oracle_hull_agrees_on_hand_cases():
    cloud = PointCloud([[0, 0], [1, 0], [2, 0]])
    assert m_connected(LINF2, cloud, hull="oracle", n_balls=200).connected
    two = PointCloud([[0, 0], [1, 1]])
    assert not m_connected(LINF2, two, hull="oracle", n_balls=200).connected


def test_mconnected_interval_implies_oracle():
    # the sampled hull contains the interval, so the oracle test is weaker
    rng = np.random.default_rng(31)
    for trial in range(5):
        cloud = PointCloud(np.round(rng.uniform(-1, 1, size=(7, 2)), 3))
        a = m_connected(LINF2, cloud, hull="interval")
        b = m_connected(LINF2, cloud, hull="oracle", n_balls=300, seed=trial)
        if a.connected:
            assert b.connected
