from unittest import mock

import numpy as np
import pytest

from sunlab import (
    DimensionMismatch,
    DuplicatePoints,
    PointCloud,
    ball_hull_outer,
    builtin,
    hull_interval_gap,
    interval,
    interval_contains,
    m_connected,
    make_space,
    mei_check,
    random_space,
    slab_vertices_2d,
)
from sunlab import hull
from sunlab.verify import hull_inclusion_suite, two_sheet_cloud

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
    """Slab membership agrees with the ball predicate F z <= upper."""
    rng = np.random.default_rng(23)
    s = random_space(2, 5, seed=11)
    x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    h = ball_hull_outer(s, x, y, n_balls=300, seed=2)
    pts = rng.uniform(-3, 3, size=(500, 2))
    predicate = (pts @ s.functionals.T <= h.upper + 1e-10).all(axis=1)
    assert np.array_equal(h.contains_many(pts), predicate)


@pytest.mark.parametrize(
    "s",
    [builtin(name, n) for name in ("linf", "l1") for n in (1, 2, 3, 4)]
    + [random_space(dim, dim + extra, seed=dim * 10 + extra) for dim in (2, 3) for extra in (0, 3)],
    ids=lambda s: s.name,
)
def test_pair_positions_locate_each_representative_and_its_negation(s):
    """`upper`, read from the slabs, is the per-functional bound
    min over balls of f(center) + radius, in the order of s.functionals."""
    rng = np.random.default_rng(24)
    x, y = rng.uniform(-1, 1, (2, s.dim))
    h = ball_hull_outer(s, x, y, n_balls=64, seed=1)
    expect = (h.centers @ s.functionals.T + h.radii[:, None]).min(axis=0)
    assert np.array_equal(h.upper, expect)


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


def test_gap_checks_endpoints_when_the_grid_misses_the_interval():
    """The grid holds no point of this thin interval, so a grid scan finds
    nothing; the endpoint (1, 0) lies outside the hull of (0, 0) and
    (0.5, 0)."""
    h = ball_hull_outer(LINF2, [0, 0], [0.5, 0])
    rep = hull_interval_gap(LINF2, [0, 0], [1, 0], hull=h)
    assert rep.n_interval == 0
    assert not rep.contained
    assert rep.inclusion_witness == [1.0, 0.0]


def test_gap_degenerate_pair_checks_the_given_hull():
    h = ball_hull_outer(LINF2, [0, 0], [0.5, 0])
    assert hull_interval_gap(LINF2, [0.25, 0], [0.25, 0], hull=h).contained
    rep = hull_interval_gap(LINF2, [2, 0], [2, 0], hull=h)
    assert not rep.contained
    assert rep.inclusion_witness == [2.0, 0.0]


def test_gap_endpoint_slack_scales_with_the_pair():
    """Sampled hulls contain their own endpoints up to rounding at every
    scale, so containment holds far from the unit box too."""
    rng = np.random.default_rng(25)
    for s in (LINF2, L12, builtin("l1", 3)):
        for scale in (1e-6, 1.0, 1e12):
            x, y = scale * rng.uniform(-1, 1, (2, s.dim))
            rep = hull_interval_gap(s, x, y, n_balls=100, seed=4, resolution=8)
            assert rep.contained, (s.name, scale, rep.inclusion_witness)


@pytest.mark.parametrize("resolution", [-3, 0, 1, 2])
def test_gap_grid_needs_three_points_per_axis(resolution):
    """A one-point grid checks no interval point and so passed vacuously;
    0 fell back to the default grid. A two-point grid is the corners of its
    box, outside the midpoint ball and so outside both shapes: it passed
    with no grid point in the interval or the hull."""
    with pytest.raises(ValueError, match=f"at least 3 points per axis, got {resolution}$"):
        hull_interval_gap(LINF2, [0, 0], [1, 0.5], n_balls=10, resolution=resolution)


def test_three_point_grid_sees_both_shapes():
    rep = hull_interval_gap(LINF2, [0, 0], [1, 1], n_balls=10, resolution=3)
    assert (rep.n_grid, rep.n_interval, rep.n_hull) == (9, 1, 1)


def test_dimension_limit_has_one_message():
    """The gap report, mei_check and the hull inclusion suite each had their
    own message for a space without gap grids."""
    s = builtin("linf", 4)
    messages = set()
    for run in (
        lambda: hull_interval_gap(s, [0, 0, 0, 0], [1, 1, 1, 1]),
        lambda: mei_check(s, trials=1, seed=0),
        lambda: hull_inclusion_suite([s], pairs=1, seed=0),
    ):
        with pytest.raises(DimensionMismatch) as err:
            run()
        messages.add(str(err.value))
    assert messages == {"gap grids exist for dim <= 3 only, got dim 4"}


def test_mei_check_builtin_spaces():
    for s in (LINF2, builtin("l1", 3)):
        rep = mei_check(s, trials=25, seed=4, n_balls=600)
        assert rep.passed, rep.violations
        assert rep.max_gap <= 2.0 * (rep.worst.step if rep.worst else 0.0) + 1e-12


def test_mei_check_dim1_exact():
    rep = mei_check(builtin("linf", 1), trials=10, seed=0, n_balls=10)
    assert rep.passed
    assert rep.max_gap == 0.0


@pytest.mark.parametrize("trials", [0, -2])
def test_mei_check_needs_a_trial(trials):
    """Zero trials passed with no worst pair."""
    with pytest.raises(ValueError, match=f"at least 1 trial, got {trials}$"):
        mei_check(LINF2, trials=trials, seed=0, n_balls=10)

def test_mei_check_reports_are_pinned():
    """The slab tests on the gap grid must leave these aggregates exact:
    five-ball hulls, which leave a sliver in l1(2) and linf(3) and none in
    linf(1)."""
    rep = mei_check(builtin("linf", 1), trials=10, seed=3, n_balls=5)
    assert (rep.max_gap, rep.mean_gap, rep.violations) == (0.0, 0.0, [])
    rep = mei_check(L12, trials=6, seed=3, n_balls=5)
    assert (rep.max_gap, rep.mean_gap) == (0.7097320830390861, 0.6404765981381587)
    assert rep.violations == [
        {"trial": 0, "kind": "gap", "gap": 0.6841977990283274,
         "witness": [-0.10167307099950684, -1.218727452532496]},
        {"trial": 1, "kind": "gap", "gap": 0.5518868272828492,
         "witness": [-0.40559364318481106, 0.22258287574757274]},
        {"trial": 2, "kind": "gap", "gap": 0.6899292681644236,
         "witness": [-0.6042360930132926, -0.37761023080798195]},
        {"trial": 3, "kind": "gap", "gap": 0.6109225499000954,
         "witness": [0.5102915201504391, 0.21578588882775962]},
        {"trial": 4, "kind": "gap", "gap": 0.7097320830390861,
         "witness": [-0.3744488811005961, -0.46311427726716703]},
        {"trial": 5, "kind": "gap", "gap": 0.5961910614141706,
         "witness": [-0.36089653784208764, 0.893916494446199]},
    ]
    rep = mei_check(builtin("linf", 3), trials=3, seed=3, n_balls=5)
    assert (rep.max_gap, rep.mean_gap) == (0.44714112568972464, 0.3317502347908125)
    assert rep.violations == [
        {"trial": 0, "kind": "gap", "gap": 0.37543506156577955,
         "witness": [-0.8249473150970935, -1.1618193694685865, -0.11756896477504758]},
        {"trial": 1, "kind": "gap", "gap": 0.17267451711693327,
         "witness": [-0.7698931678833223, -0.7771144773894325, 0.6139338199761379]},
        {"trial": 2, "kind": "gap", "gap": 0.44714112568972464,
         "witness": [-0.13476937138773573, -0.4022531749567884, -0.1352796522660268]},
    ]


def test_hull_inclusion_suite_is_pinned():
    spaces = [L12, builtin("linf", 3), random_space(2, 4, seed=3)]
    assert hull_inclusion_suite(spaces, pairs=3, seed=5) == {
        "spaces": [
            {"space": "l1(2)", "pairs": 3, "grid_points_checked": 426, "violations": 0,
             "witness": None},
            {"space": "linf(3)", "pairs": 3, "grid_points_checked": 640, "violations": 0,
             "witness": None},
            {"space": "random(dim=2,pairs=4,seed=3)", "pairs": 3, "grid_points_checked": 1006,
             "violations": 0, "witness": None},
        ],
        "violations": 0,
        "passed": True,
    }


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


def test_mconnected_singleton_of_another_dimension_is_named():
    """A one-point cloud returned before its dimension was checked."""
    with pytest.raises(DimensionMismatch, match="^cloud dimension 3 does not match space dim"):
        m_connected(LINF2, PointCloud([[0.0, 0.0, 0.0]]))


def test_mconnected_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        m_connected(LINF2, PointCloud([[0, 0], [0, 0], [1, 0]]))


_HUGE_AXIS = np.arange(4) / 3 * 1.7e308


@pytest.mark.parametrize("mode", ["interval", "oracle"])
@pytest.mark.parametrize(
    "space, points, match",
    [
        (L12, [[a, b] for a in _HUGE_AXIS for b in _HUGE_AXIS], "functional values overflow$"),
        (LINF2, [[-1e308, 0.0], [1e308, 0.0]], "least sup distance overflows$"),
    ],
    ids=["values", "eps"],
)
def test_mconnected_rejects_overflow(mode, space, points, match):
    """The l1(2) grid's values overflow to inf, which made every distance
    NaN and eps NaN, so no pair was far and the grid passed with 0 pairs
    checked; a finite cloud whose sup distances overflow had eps inf."""
    with pytest.raises(ValueError, match=f"^the cloud's {match}"):
        m_connected(space, PointCloud(points), hull=mode)


def test_oracle_rejects_overflowing_balls():
    """The oracle sampled the hull of (0, 2), whose box width 4e308
    overflowed to inf; inf * 0 in the product gave NaN bounds, and the
    oracle reported a gap that the interval scan does not see."""
    cloud = PointCloud([[0, 0], [0.25e308, 0], [0.5e308, 0]])
    assert m_connected(LINF2, cloud).connected
    with pytest.raises(ValueError, match="^the sampled balls overflow"):
        m_connected(LINF2, cloud, hull="oracle")


@pytest.mark.parametrize(
    "space, y", [(LINF2, [1e308, 0.0]), (L12, [0.2e308, 0.2e308])], ids=["width", "product"]
)
def test_ball_hull_outer_rejects_overflow(space, y):
    """linf(2)'s box width overflows; l1(2)'s width is finite, but the sum
    in its product overflows. Either raises, under any errstate."""
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(ValueError, match="^the sampled balls overflow"):
            ball_hull_outer(space, [0.0, 0.0], y)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_mconnected_takes_no_tolerance(tol):
    """A tolerance argument went unchecked: nan and inf passed the two
    sheets with 0 pairs checked, and -1 counted adjacent pairs as gaps. The
    tolerance is SLAB_TOL, which the two sheets fail at (0, 3)."""
    cloud = two_sheet_cloud(2)
    with pytest.raises(TypeError):
        m_connected(LINF2, cloud, tol=tol)
    rep = m_connected(LINF2, cloud)
    assert (rep.connected, rep.witness, rep.pairs_checked) == (False, (0, 3), 2)


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



def _kernel_boxes(s, cloud):
    """The report, and the ends of every box m_connected sends the kernel."""
    boxes = []

    def spy(vals, lo, hi, ends, tol):
        boxes.extend(np.asarray(ends).tolist())
        return kernel(vals, lo, hi, ends, tol)

    kernel = hull._slab_witnesses
    with mock.patch.object(hull, "_slab_witnesses", spy):
        return m_connected(s, cloud), boxes


def test_mconnected_grid_needs_no_kernel():
    """Each pair of a connected grid has a witness among the grid
    neighbours of its first point, so the prefilter settles every pair."""
    ticks = np.arange(9) / 8.0
    grid = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    rep, boxes = _kernel_boxes(LINF2, PointCloud(grid))
    assert rep.connected and rep.pairs_checked == 2968
    assert boxes == []


def test_mconnected_two_sheets_stop_in_the_first_block():
    """The gap between a point and its copy in the other sheet lies in row
    0, and the first block is row 0 alone. The nearest neighbour of row 0
    settles its other pairs, so the kernel sees the gap's box alone."""
    y = np.arange(98) / 32.0
    pts = np.vstack([np.column_stack([np.full(98, x), y]) for x in (0.0, 0.25)])
    rep, boxes = _kernel_boxes(LINF2, PointCloud(pts))
    assert rep.witness == (0, 98)
    assert boxes == [[0, 98]]

def test_mconnected_oracle_hull_agrees_on_hand_cases():
    cloud = PointCloud([[0, 0], [1, 0], [2, 0]])
    assert m_connected(LINF2, cloud, hull="oracle", n_balls=200).connected
    two = PointCloud([[0, 0], [1, 1]])
    assert not m_connected(LINF2, two, hull="oracle", n_balls=200).connected


# The norm is that of linf(2), but (1/2, 1/2) is not an extreme functional:
# the ball hull of (0, 1) and (1, 0) is the unit square, while their
# interval is the segment on which (1/2, 1/2) equals 1/2.
NON_EXTREME = make_space(np.array([[1, 0], [0, 1], [0.5, 0.5], [-1, 0], [0, -1], [-0.5, -0.5]]))


def _sampled_pairs(s, cloud, **kwargs):
    """The oracle report and the pairs whose ball hull it sampled."""
    pairs = []
    sample = hull.ball_hull_outer

    def counted(s, x, y, *args):
        pairs.append((x.tolist(), y.tolist()))
        return sample(s, x, y, *args)

    with mock.patch.object(hull, "ball_hull_outer", counted):
        return m_connected(s, cloud, hull="oracle", **kwargs).to_json(), pairs


def _oracle_report(witness, eps, checked, exempt):
    return {
        "m_connected": witness is None,
        "witness": witness,
        "adjacency_eps": eps,
        "pairs_checked": checked,
        "pairs_exempt": exempt,
        "hull": "oracle",
    }


def test_mconnected_oracle_samples_only_pairs_without_an_interval_witness():
    """Every sampled ball contains the interval, so an interval witness
    settles a pair; the reports are those of sampling every far pair."""
    ticks = np.arange(5) / 8.0
    grid = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    rep, pairs = _sampled_pairs(LINF2, PointCloud(grid))
    assert rep == _oracle_report(None, 0.125, 228, 72)
    assert pairs == []

    y = np.arange(6) / 32.0
    sheets = np.vstack([np.column_stack([np.full(6, x), y]) for x in (0.0, 0.25)])
    rep, pairs = _sampled_pairs(LINF2, PointCloud(sheets))
    assert rep == _oracle_report([0, 6], 0.03125, 5, 1)
    assert pairs == [([0.0, 0.0], [0.25, 0.0])]

    cloud = PointCloud([[0, 1], [1, 0], [1, 1]])
    rep, pairs = _sampled_pairs(NON_EXTREME, cloud, adjacency_eps=0)
    assert rep == _oracle_report([0, 2], 0.0, 2, 0)
    assert pairs == [([0.0, 1.0], [1.0, 0.0]), ([0.0, 1.0], [1.0, 1.0])]
    assert m_connected(NON_EXTREME, cloud, adjacency_eps=0).witness == (0, 1)


@pytest.mark.parametrize("points", [[[0, 0], [1, 0], [0, 1]], [[0, 0], [1, 0], [2, 0]]])
def test_mconnected_oracle_checks_n_balls_before_the_scan(points):
    """Every pair of the triangle is exempt and every pair of the line has
    an interval witness, so the oracle would sample no hull."""
    cloud = PointCloud(points)
    with pytest.raises(ValueError, match="n_balls must be at least 3"):
        m_connected(LINF2, cloud, hull="oracle", n_balls=2)
    assert m_connected(LINF2, cloud, n_balls=2).connected


def test_mconnected_interval_implies_oracle():
    # the sampled hull contains the interval, so the oracle test is weaker
    rng = np.random.default_rng(31)
    for trial in range(5):
        cloud = PointCloud(np.round(rng.uniform(-1, 1, size=(7, 2)), 3))
        a = m_connected(LINF2, cloud, hull="interval")
        b = m_connected(LINF2, cloud, hull="oracle", n_balls=300, seed=trial)
        if a.connected:
            assert b.connected
