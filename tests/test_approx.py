import pickle
from unittest import mock

import numpy as np
import pytest

from sunlab import (
    DimensionMismatch,
    EmptyCloud,
    NoCandidate,
    NotANearestPoint,
    PointCloud,
    QueryInCloud,
    builtin,
    find_luminosity,
    is_sun_sampled,
    project,
    sun_check,
)
from sunlab import approx

LINF2 = builtin("linf", 2)


# --- metric projection -------------------------------------------------------


def test_project_hand_cases():
    cloud = PointCloud([[0, 0], [2, 0]])
    pr = project(LINF2, cloud, [0.6, 0])
    assert pr.distance == 0.6
    assert list(pr.indices) == [0]

    member = project(LINF2, cloud, [2, 0])
    assert member.distance == 0.0
    assert 1 in member.indices


def test_project_tie():
    pr = project(LINF2, PointCloud([[0, 0], [0, 2]]), [1, 1])
    assert pr.distance == 1.0
    assert list(pr.indices) == [0, 1]


def test_project_empty_cloud():
    with pytest.raises(EmptyCloud):
        project(LINF2, PointCloud(np.empty((0, 2))), [0, 0])


def test_project_translation_equivariant():
    rng = np.random.default_rng(14)
    cloud = PointCloud(rng.uniform(-2, 2, size=(12, 2)))
    x = rng.uniform(-2, 2, 2)
    v = rng.uniform(-5, 5, 2)
    a = project(LINF2, cloud, x)
    b = project(LINF2, PointCloud(cloud.points + v), x + v)
    assert np.array_equal(a.indices, b.indices)
    assert abs(a.distance - b.distance) <= 1e-12


def test_project_scale_equivariant():
    rng = np.random.default_rng(15)
    cloud = PointCloud(rng.uniform(-2, 2, size=(12, 2)))
    x = rng.uniform(-2, 2, 2)
    t = 3.0
    a = project(LINF2, cloud, x)
    b = project(LINF2, PointCloud(t * cloud.points), t * x)
    assert np.array_equal(a.indices, b.indices)
    assert abs(b.distance - t * a.distance) <= 1e-12


# --- ray condition -----------------------------------------------------------


def test_sun_singleton_always_holds():
    cloud = PointCloud([[0.3, -0.7]])
    rep = sun_check(LINF2, cloud, [2, 2], [0.3, -0.7])
    assert rep.holds
    assert rep.falsifier is None


def test_sun_hand_case_and_mirror():
    cloud = PointCloud([[0, 0], [0, 2]])
    rep = sun_check(LINF2, cloud, [1, 1], [0, 0], lambda_max=10, grid=100)
    assert rep.verdict == "holds-on-grid"
    mirror = sun_check(LINF2, cloud, [1, 1], [0, 2], lambda_max=10, grid=100)
    assert mirror.holds


def test_sun_requires_nearest_candidate():
    cloud = PointCloud([[0, 0], [0, 2]])
    with pytest.raises(NotANearestPoint):
        sun_check(LINF2, cloud, [1, 1], [0, 2.5])


def test_sun_lambda_zero_and_one_pass():
    cloud = PointCloud([[0, 0], [1, 0], [2, 0]])
    rep = sun_check(LINF2, cloud, [0.5, 0.2], [0, 0], lambda_max=4, grid=9)
    # grid includes lambda = 0, 0.5, 1.0, ...; the first three are safe
    assert rep.holds or rep.falsifier["lambda"] > 1.0


def test_sun_falsifier_reports_competitor():
    """A query whose horizontal offset beats its height is falsified by the
    next cloud point along the ray."""
    cloud = PointCloud([[0, 0], [1, 0], [2, 0]])
    rep = sun_check(LINF2, cloud, [0.5, 0.2], [0, 0])
    assert rep.verdict == "falsified"
    assert rep.falsifier["competitor"] == [1.0, 0.0]
    assert rep.falsifier["lambda"] > 1.0


def test_ray_scan_stops_at_the_falsifying_block():
    """On a 1024-point circle the default budget puts 16 ray points in a
    block, and an interior query is falsified just past lambda 1, at grid
    index 19: the scan forms the distances of blocks 0 and 1 and stops.
    The ray's distances to the candidate alone, a (256, 1) column, are not
    a block of the scan."""
    a = np.arange(1024) * (np.pi / 512)
    circle = PointCloud(np.round(np.column_stack([np.cos(a), np.sin(a)]) * 1024) / 1024)
    x = np.array([0.1, 0.2])
    y = circle.points[project(LINF2, circle, x).indices[0]]
    blocks = []

    def spy(columns):
        d = max_abs(columns)
        blocks.append(d.shape)
        return d

    max_abs = approx._max_abs
    with mock.patch.object(approx, "_max_abs", spy):
        rep = sun_check(LINF2, circle, x, y)
    g = int(np.flatnonzero(np.linspace(0.0, 16.0, 256) == rep.falsifier["lambda"])[0])
    assert (rep.verdict, g) == ("falsified", 19)
    assert [b for b in blocks if b[1] == 1024] == [(16, 1024)] * 2


def test_falsified_reports_pickle():
    """A report is a plain record: a falsified one, alone or in a
    NoCandidate, survives pickle with the same JSON."""
    a = np.arange(1024) * (np.pi / 512)
    circle = PointCloud(np.round(np.column_stack([np.cos(a), np.sin(a)]) * 1024) / 1024)
    x = [0.1, 0.2]
    none = find_luminosity(LINF2, circle, x)
    one = sun_check(LINF2, circle, x, none.falsifications[0].y)
    assert isinstance(none, NoCandidate) and one.verdict == "falsified"
    for rep in (none, one):
        assert pickle.loads(pickle.dumps(rep)).to_json() == rep.to_json()


def test_find_luminosity_prefers_first_passing_candidate():
    cloud = PointCloud([[0, 0], [0, 2]])
    rep = find_luminosity(LINF2, cloud, [1, 1])
    assert rep.holds
    assert rep.y == [0.0, 0.0]


def test_find_luminosity_rejects_member_query():
    with pytest.raises(QueryInCloud):
        find_luminosity(LINF2, PointCloud([[0, 0], [0, 2]]), [0, 2])


def test_find_luminosity_no_candidate():
    cloud = PointCloud([[0, 0], [1, 0], [2, 0]])
    out = find_luminosity(LINF2, cloud, [0.5, 0.1])
    assert isinstance(out, NoCandidate)
    assert not out.holds
    assert len(out.falsifications) == 2


def _segment_cloud(step=0.1):
    ts = np.round(np.arange(0.0, 2.0 + step / 2, step), 10)
    return PointCloud(np.stack([ts, np.zeros_like(ts)], axis=1))


def test_far_query_on_dense_segment_holds():
    rep = find_luminosity(LINF2, _segment_cloud(), [1.0, 5.0])
    assert rep.holds


def _clearance_queries(cloud, count, seed, clearance):
    """Uniform box queries kept only when farther than `clearance` from the
    cloud in the space norm."""
    rng = np.random.default_rng(seed)
    lo = cloud.points.min(axis=0) - 1.0
    hi = cloud.points.max(axis=0) + 1.0
    out = []
    while len(out) < count:
        q = rng.uniform(lo, hi)
        d = np.abs(cloud.points - q).max(axis=1).min()
        if d >= clearance:
            out.append(q)
    return np.asarray(out)


def test_dense_segment_sun_sampled_above_resolution():
    cloud = _segment_cloud(step=0.1)
    queries = _clearance_queries(cloud, 25, seed=2, clearance=0.15)
    rep = is_sun_sampled(LINF2, cloud, queries)
    assert rep.passed, rep.failures[:2]


def test_sun_sampled_skips_member_queries():
    cloud = PointCloud([[0, 0], [0, 2]])
    queries = np.array([[0.0, 0.0], [1.0, 1.0]])
    rep = is_sun_sampled(LINF2, cloud, queries)
    assert rep.skipped == [0]
    assert rep.passed


@pytest.mark.parametrize("strict", [False, True])
def test_sun_sampled_rejects_queries_that_are_all_in_the_cloud(strict):
    """A strict run whose only query was a cloud point passed with nothing
    tested (default mode raised through find_luminosity); both modes raise
    QueryInCloud when no query is left, and still test the rest otherwise."""
    cloud = PointCloud([[0, 0], [0.5, 0], [1, 0]])
    with pytest.raises(QueryInCloud, match="^every query already belongs to the cloud"):
        is_sun_sampled(LINF2, cloud, [[0.5, 0.0], [1.0, 0.0]], strict=strict)
    rep = is_sun_sampled(LINF2, cloud, [[0.5, 0.0], [0.5, 2.0]], strict=strict)
    assert (rep.skipped, rep.passed) == ([0], True)


@pytest.mark.parametrize("bad", [{"grid": 0}, {"lambda_max": -5}])
def test_sun_sampled_checks_the_ray_when_every_query_is_skipped(bad):
    cloud = PointCloud([[0, 0], [0, 2]])
    with pytest.raises(ValueError):
        is_sun_sampled(LINF2, cloud, cloud.points, **bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_is_rejected(bad):
    """A NaN or infinite query used to give a NaN distance with no
    minimisers, so is_sun_sampled passed vacuously in both modes."""
    cloud = PointCloud([[0, 0], [0, 2]])
    q = [0.5, bad]
    calls = [
        lambda: project(LINF2, cloud, q),
        lambda: sun_check(LINF2, cloud, q, [0, 0]),
        lambda: sun_check(LINF2, cloud, [1, 1], [0, bad]),
        lambda: find_luminosity(LINF2, cloud, q),
        lambda: is_sun_sampled(LINF2, cloud, [q]),
        lambda: is_sun_sampled(LINF2, cloud, [q], strict=True),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^vector coordinates must be finite$"):
            call()


def test_sun_sampled_strict_hand_case():
    cloud = PointCloud([[0, 0], [0, 2]])
    rep = is_sun_sampled(LINF2, cloud, np.array([[1.0, 1.0]]), strict=True)
    assert rep.strict and rep.passed


def test_sun_sampled_two_point_diagonal_report():
    """No a-priori verdict for the diagonal pair; the report just records
    what the grid oracle finds for each query."""
    cloud = PointCloud([[0, 0], [1, 1]])
    rng = np.random.default_rng(3)
    queries = rng.uniform(-1, 2, size=(20, 2))
    rep = is_sun_sampled(LINF2, cloud, queries)
    assert rep.queries == 20
    assert isinstance(rep.failures, list)
    for f in rep.failures:
        assert "query" in f


# --- the certificate in front of the ray grid ----------------------------------


def _grid_reference(cloud, q, ray, stop):
    """sun_check, the grid on one candidate, on each nearest point of q in
    index order, up to and including the first report whose holds is stop."""
    reports = []
    for idx in project(LINF2, cloud, q).indices:
        reports.append(sun_check(LINF2, cloud, q, cloud.points[idx], **ray))
        if reports[-1].holds == stop:
            break
    return reports


SEGMENT_16 = PointCloud([[t / 16, 0.0] for t in range(33)])
BUMP = PointCloud([[i / 8, 0.0] for i in range(9)] + [[0.5, 0.75]])
CIRCLE_64 = PointCloud(
    np.stack([np.cos(np.arange(64) * np.pi / 32), np.sin(np.arange(64) * np.pi / 32)], axis=1)
)
DEFAULT_RAY = {"lambda_max": 16.0, "grid": 256}
BUMP_RAY = {"lambda_max": 4.0, "grid": 64}


@pytest.mark.parametrize(
    "cloud, q, ray, stop, reports, calls",
    [
        # 13 points of the axis segment tie at distance 3/8 below and above.
        (SEGMENT_16, [1.0, 0.375], DEFAULT_RAY, True, 1, 0),
        (SEGMENT_16, [1.0, 0.375], DEFAULT_RAY, False, 13, 0),
        (SEGMENT_16, [0.5, -0.375], DEFAULT_RAY, False, 13, 0),
        # (0.125, 0) is falsified by the bump at lambda 3.05; (0.25, 0)
        # holds on the grid, but the bump overtakes it past lambda_max.
        (BUMP, [0.1875, 0.125], BUMP_RAY, False, 1, 1),
        (BUMP, [0.1875, 0.125], BUMP_RAY, True, 2, 2),
        (BUMP, [0.8125, 0.125], BUMP_RAY, False, 2, 2),
        (CIRCLE_64, [0.1, 0.2], DEFAULT_RAY, True, 1, 1),
    ],
    ids=["segment-first", "segment-all", "segment-below", "bump-falsified",
         "bump-first-pass", "bump-last-falsified", "circle"],
)
def test_only_uncertified_candidates_run_the_grid(cloud, q, ray, stop, reports, calls):
    """The candidate loop runs the ray kernel only on candidates whose
    certificate fails, and its reports are the grid's."""
    with mock.patch.object(approx, "_ray_falsifier", wraps=approx._ray_falsifier) as spy:
        rc = approx._ray_cloud(LINF2, cloud)
        got = approx._candidate_falsifiers(LINF2, cloud, rc, np.asarray(q), stop=stop, **ray)
    want = _grid_reference(cloud, q, ray, stop)
    assert (len(got), spy.call_count) == (reports, calls)
    assert [(y.tolist(), f) for y, f in got] == [(r.y, r.falsifier) for r in want]


@pytest.mark.parametrize("strict", [False, True])
def test_tied_segment_query_runs_no_grid_in_either_mode(strict):
    q = [[1.0, 0.375]]
    with mock.patch.object(approx, "_ray_falsifier", wraps=approx._ray_falsifier) as spy:
        rep = is_sun_sampled(LINF2, SEGMENT_16, q, strict=strict)
    assert (spy.call_count, rep.passed, rep.failures) == (0, True, [])


# The benchmark's strict operation: queries 3/64 off a 513-point segment,
# with about 25 tied nearest points each.
SEGMENT_513 = PointCloud([[t / 256, 0.0] for t in range(513)])


def test_strict_segment_queries_run_no_pass_over_the_cloud_per_candidate():
    """Every tied candidate of a strict query beside the segment is
    certified in O(p), so none runs the grid, not even the two candidates
    3/64 along the segment from the dyadic query, where both functionals
    are active. The report is the one a loop of sun_check calls gives."""
    queries = np.array([[0.5, 3 / 64], [0.7, -3 / 64]])
    with mock.patch.object(approx, "_ray_falsifier", wraps=approx._ray_falsifier) as grid:
        rep = is_sun_sampled(LINF2, SEGMENT_513, queries, strict=True)
    assert grid.call_count == 0
    failures = []
    for qi, q in enumerate(queries):
        reports = _grid_reference(SEGMENT_513, q, DEFAULT_RAY, stop=False)
        assert len(reports) == len(project(LINF2, SEGMENT_513, q).indices) > 20
        if not reports[-1].holds:
            failures.append({"query": qi, "report": reports[-1].to_json()})
    assert rep.to_json() == {
        "queries": 2, "skipped": [], "failures": failures, "strict": True,
        "lambda_max": 16.0, "grid": 256, "passed": not failures,
    }


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("count", [1, 10])
def test_cloud_values_are_formed_once_per_call(count, strict):
    """is_sun_sampled forms the cloud's (p, m) block once, however many
    queries it tests; it formed one per query."""
    queries = np.column_stack([np.linspace(0.1, 0.9, count), np.full(count, 0.3)])
    with mock.patch.object(approx, "_values", wraps=approx._values) as spy:
        is_sun_sampled(LINF2, SEGMENT_513, queries, strict=strict)
    on_cloud = [c for c in spy.call_args_list if c.args[1] is SEGMENT_513.points]
    assert len(on_cloud) == 1


def test_records_are_built_only_where_read():
    """A SunReport is built only for a record that a caller returns or
    prints: none for passing strict queries with about 24 tied candidates
    each, the last one of a failing strict query, every falsification of a
    default query without a luminosity point, and the luminous record."""

    def built(call, *args, **kwargs):
        with mock.patch.object(approx, "_sun_report", wraps=approx._sun_report) as spy:
            out = call(LINF2, *args, **kwargs)
        return out, spy.call_count

    passing, n = built(is_sun_sampled, SEGMENT_513, [[0.5, 3 / 64], [0.7, -3 / 64]], strict=True)
    assert (passing.passed, n) == (True, 0)
    strict, n = built(is_sun_sampled, BUMP, [[0.8125, 0.125]], strict=True, **BUMP_RAY)
    assert (len(strict.failures), n) == (1, 1)
    default, n = built(is_sun_sampled, BUMP, [[0.3125, 0.125]], **BUMP_RAY)
    assert (len(default.failures[0]["report"]["falsifications"]), n) == (2, 2)
    luminous, n = built(find_luminosity, BUMP, [0.1875, 0.125], **BUMP_RAY)
    assert (luminous.holds, n) == (True, 1)


def test_one_point_cloud_far_from_the_origin_holds_on_the_grid():
    """A one-point cloud has no competitor. Near 2**34 the grid once
    measured the ray's distance to the candidate apart from its distance
    to the cloud, rounded the two apart and falsified the point at lambda
    0.0627 with itself as the competitor."""
    s = builtin("l1", 2)
    cloud = PointCloud([[25769803776, 0]])
    x = [25769803776, 0.125]
    out = find_luminosity(s, cloud, x)
    assert out.holds and out.verdict == "holds-on-grid"
    assert sun_check(s, cloud, x, cloud.points[0]).verdict == "holds-on-grid"


def test_float_limit_query_runs_the_grid():
    """At 1.7e308 the slack is inf, so the grid runs, and its overflowing
    scan falsifies the query where it always has."""
    cloud = PointCloud(np.array([[0, 0], [0.5, 0], [1, 0]]) * 1.7e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with mock.patch.object(approx, "_ray_falsifier", wraps=approx._ray_falsifier) as spy:
            out = find_luminosity(builtin("l1", 2), cloud, [0.5e308, 1.2e308])
    assert spy.call_count == 1
    assert out.to_json()["falsifications"] == [
        {
            "x": [5e307, 1.2e308],
            "y": [8.5e307, 0.0],
            "lambda_max": 16.0,
            "grid": 256,
            "verdict": "falsified",
            "falsifier": {"lambda": 5.145098039215686, "competitor": [0.0, 0.0]},
        }
    ]


@pytest.mark.parametrize(
    "top, lambda_max", [(1e308, 1.0), (1e300, 1e10), (1.0, 1e308)], ids=["top", "product", "lambda"]
)
def test_ray_slack_is_inf_where_the_ray_can_overflow(top, lambda_max):
    assert approx._ray_slack(top, 2.0, 2, lambda_max) == (np.inf, np.inf)
    assert all(np.isfinite(approx._ray_slack(1.0, 2.0, 2, 16.0)))


CLOUD_3D = PointCloud([[0, 0, 0], [1, 1, 1]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: project(LINF2, CLOUD_3D, [1, 1]),
        lambda: find_luminosity(LINF2, CLOUD_3D, [1, 1]),
        lambda: sun_check(LINF2, CLOUD_3D, [1, 1], [0, 0]),
        lambda: is_sun_sampled(LINF2, CLOUD_3D, [[1, 2, 3]]),
        lambda: is_sun_sampled(LINF2, CLOUD_3D, [[1, 2]], strict=True),
    ],
    ids=["project", "find_luminosity", "sun_check", "sampled", "sampled-strict"],
)
def test_cloud_of_another_dimension_is_named(call):
    with pytest.raises(DimensionMismatch, match="cloud dimension 3 does not match space dim"):
        call()


def test_sun_sampled_names_a_query_of_another_dimension():
    cloud = PointCloud([[0, 0], [2, 0]])
    with pytest.raises(DimensionMismatch, match="query dimension 3 does not match space dim"):
        is_sun_sampled(LINF2, cloud, [[1, 2, 3]])
