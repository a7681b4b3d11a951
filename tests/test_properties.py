"""Property tests: the betweenness kernel behind m_connected and path
refinement against a brute-force triple loop, m_connected's blocked pair
scan against a pair-by-pair scan, the oracle's interval certificate against
the sampled hulls it stands in for, the nearest-point kernel behind the sun
ray scan and the hull gap against a brute-force scan, the ray kernel's
early exit against a scan of the whole grid, the invariants of
monotone paths on epsilon-nets, the monotone-path sweep against Dijkstra
on the dense hop graph (tests/dense.py), the nearest-neighbour scale
against the dense distance matrix, the sun test's
candidate loop against sun_check on one nearest point at a time, the
batched sun certificate against the one-candidate pass, the symmetries of
project, contraction under a partial embedding, the three-way
betweenness equivalence, and the duplicate-row kernel against a byte-keyed
dict.

Coordinates are dyadic (small integers times a power of two), so every
functional value and every distance is exact in binary floating point and
the brute force needs no tolerance. Some properties use random floats
instead: `norms`, `space._distances` and the nearest-point kernel must
equal the plain max-over-an-axis formulas bit for bit, the slab kernel
the row-wise formula on faces and one ulp outside them, the
nearest-neighbour scale the dense matrix's, the oracle's certificate must
hold on clouds scaled from 2**-30 to 2**40, and a candidate the sun
certificate passes must pass the grid at every scale and offset. The
pair-scan properties also run in random spaces, whose values are inexact;
there the pair-by-pair scan applies the kernel's own inequality to the
same floats.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

import dense

from sunlab import (
    DuplicatePoints,
    NoCandidate,
    PathNotFound,
    PointCloud,
    ball_hull_outer,
    between_equiv_check,
    builtin,
    embed_cloud,
    find_luminosity,
    geometric_weights,
    is_sun_sampled,
    m_connected,
    make_embedding,
    make_space,
    monotone_path,
    norm,
    norms,
    project,
    random_space,
    sun_check,
    uniform_weights,
)
from sunlab import approx, hull, metric, space
from sunlab.approx import _nearest
from sunlab.hull import _in_slabs, _slab_witnesses
from sunlab.space import _first_rows
from sunlab.verify import max_nn_distance

SPACES = [builtin("linf", 2), builtin("l1", 2), builtin("linf", 3), builtin("l1", 3)]
LINF2, L12 = SPACES[0], SPACES[1]

# x = u @ L1_FROM_LINF.T sends a linf(2) net to an l1(2) net whose
# functionals read the linf coordinates back exactly.
L1_FROM_LINF = np.array([[0.5, 0.5], [0.5, -0.5]])

PROPERTY = settings(max_examples=60, deadline=None)
DEFAULT_RAY = {"lambda_max": 16.0, "grid": 256}


@st.composite
def dyadic_clouds(draw):
    s = draw(st.sampled_from(SPACES))
    coords = st.tuples(*[st.integers(-4, 4)] * s.dim)
    rows = draw(st.lists(coords, min_size=3, max_size=10, unique=True))
    return s, PointCloud(np.asarray(rows, dtype=float) / 8.0)


def _between(vals, i, j):
    """Cloud indices other than i and j whose values lie in the interval."""
    lo, hi = np.minimum(vals[i], vals[j]), np.maximum(vals[i], vals[j])
    return [
        k
        for k in range(len(vals))
        if k not in (i, j) and np.all(lo <= vals[k]) and np.all(vals[k] <= hi)
    ]


def _pairs(m):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


@PROPERTY
@given(dyadic_clouds(), st.data())
def test_slab_witnesses_is_lowest_brute_force_witness(case, data):
    """With tol = 0 the slab faces themselves count as inside. A small
    element budget makes the kernel split the boxes into several blocks."""
    s, cloud = case
    vals = cloud.points @ s.representatives.T
    index = st.integers(0, len(cloud) - 1)
    ends = np.array(data.draw(st.lists(st.tuples(index, index), max_size=12)), dtype=int)
    ends = ends.reshape(-1, 2)
    a, b = vals[ends[:, 0]], vals[ends[:, 1]]
    budget = data.draw(st.sampled_from([1, 100, hull._WITNESS_BUDGET]))
    with mock.patch.object(hull, "_WITNESS_BUDGET", budget):
        found = _slab_witnesses(vals.T.copy(), np.minimum(a, b).T, np.maximum(a, b).T, ends, 0.0)
    want = [min(_between(vals, i, j), default=-1) for i, j in ends]
    assert found.tolist() == want


@PROPERTY
@given(dyadic_clouds(), st.data())
def test_nearest_is_lowest_brute_force_minimiser(case, data):
    """Dyadic values make max-norm distances tie often; the kernel must
    return the lowest tied index. A small budget splits the queries."""
    s, cloud = case
    vals = cloud.points @ s.representatives.T
    coords = st.tuples(*[st.integers(-6, 6)] * s.dim)
    queries = np.asarray(data.draw(st.lists(coords, min_size=1, max_size=12)), dtype=float) / 8.0
    q_vals = queries @ s.representatives.T
    budget = data.draw(st.sampled_from([1, 7, 100, approx._NEAREST_BUDGET]))
    with mock.patch.object(approx, "_NEAREST_BUDGET", budget):
        dist, arg = _nearest(q_vals.T, vals.T.copy())
    for q, d, k in zip(q_vals, dist, arg):
        brute = [np.max(np.abs(q - v)) for v in vals]
        assert d == min(brute)
        assert k == brute.index(min(brute))


# Non-dyadic families: unit Euclidean directions.
RANDOM_SPACES = [random_space(2, 5, 1), random_space(3, 7, 2), random_space(4, 6, 3)]


def _random_rows(draw, count, dim):
    finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.tuples(*[finite] * dim), min_size=count, max_size=count))
    return np.asarray(rows, dtype=float).reshape(count, dim)


@PROPERTY
@given(st.sampled_from(SPACES + RANDOM_SPACES), st.data())
def test_nearest_equals_the_three_axis_formula(s, data):
    """Random floats, and a repeated cloud row so ties still occur; budgets
    that are not a multiple of the cloud size split queries mid-chunk."""
    reps = s.representatives
    cloud = _random_rows(data.draw, data.draw(st.integers(1, 12)), s.dim)
    vals = np.vstack([cloud, cloud[:1]]) @ reps.T
    q_vals = _random_rows(data.draw, data.draw(st.integers(1, 20)), s.dim) @ reps.T
    budget = data.draw(st.integers(1, 5 * len(vals)) | st.just(approx._NEAREST_BUDGET))
    with mock.patch.object(approx, "_NEAREST_BUDGET", budget):
        dist, arg = _nearest(q_vals.T, vals.T.copy())
    d = np.abs(q_vals[:, :, None] - vals.T).max(axis=1)
    assert dist.tobytes() == d.min(axis=1).tobytes()
    assert arg.tolist() == d.argmin(axis=1).tolist()


@st.composite
def ray_cases(draw):
    """A cloud of up to 300 points, a query, one of its nearest points and
    a ray grid: Euclidean circles, whose interior queries are falsified
    once the ray leaves the circle, or uniform clouds, whose outer queries
    mostly hold. Up to 300 grid points against up to 300 cloud points span
    several blocks even at the default budget."""
    s = draw(st.sampled_from(SPACES + RANDOM_SPACES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 300))
    if draw(st.booleans()):
        t = rng.uniform(0.0, 2.0 * np.pi, m)
        pts = rng.uniform(-0.1, 0.1, (m, s.dim))
        pts[:, 0], pts[:, 1] = np.cos(t), np.sin(t)
        x = rng.uniform(-0.5, 0.5, s.dim)
    else:
        pts = rng.uniform(-1.0, 1.0, (m, s.dim))
        x = rng.uniform(-2.0, 2.0, s.dim)
    assume(len(np.unique(pts, axis=0)) == m)
    cloud = PointCloud(pts)
    y = cloud.points[draw(st.sampled_from(project(s, cloud, x).indices.tolist()))]
    ray = {
        "lambda_max": draw(st.sampled_from([1.0, 4.0, 16.0])),
        "grid": draw(st.integers(2, 300)),
    }
    return s, cloud, x, y, ray


# A 200-point segment that every query above it holds on, and a 64-point
# circle whose interior query is falsified at grid index 20 of 256.
SEGMENT_200 = PointCloud([[i / 199, 0.0] for i in range(200)])
CIRCLE_64 = PointCloud(
    np.column_stack([np.cos(np.arange(64) * np.pi / 32), np.sin(np.arange(64) * np.pi / 32)])
)


@PROPERTY
@given(ray_cases(), st.sampled_from([1, 7, 100, approx._NEAREST_BUDGET]))
@example((LINF2, SEGMENT_200, np.array([0.5, 5.0]), SEGMENT_200.points[0], DEFAULT_RAY), 7)
@example((LINF2, CIRCLE_64, np.array([0.1, 0.2]), CIRCLE_64.points[9], DEFAULT_RAY), 100)
def test_ray_report_is_the_full_grid_scan(case, budget):
    """The ray kernel stops at the first block with a failing grid point;
    its falsifier, None when every point passes, under any budget, must
    equal a brute-force scan of the whole grid: the max-norm distance from
    every ray point to every cloud point, the lowest index at each row's
    minimum and the first failing point."""
    s, cloud, x, y, ray = case
    reps = s.representatives
    vals = cloud.points @ reps.T
    with mock.patch.object(approx, "_NEAREST_BUDGET", budget):
        falsifier = approx._ray_falsifier(s, cloud, vals.T.copy(), x, y, **ray)
    lams = np.linspace(0.0, ray["lambda_max"], ray["grid"])
    pts = y[None, :] + lams[:, None] * (x - y)[None, :]
    q_vals = pts @ reps.T
    d = np.max(np.abs(q_vals[:, None] - vals[None]), axis=2)
    best, arg = d.min(axis=1), d.argmin(axis=1)
    ok = norms(s, pts - y) <= approx._tie_threshold(best, approx.TIE_TOL)
    if ok.all():
        assert falsifier is None
    else:
        g = int(np.argmin(ok))
        competitor = cloud.points[arg[g]].tolist()
        assert falsifier == {"lambda": float(lams[g]), "competitor": competitor}


NORM_SPACES = (
    [builtin("linf", n) for n in range(1, 6)]
    + [builtin("l1", n) for n in range(2, 5)]
    + RANDOM_SPACES
)


@PROPERTY
@given(st.sampled_from(NORM_SPACES), st.data())
def test_norms_equals_the_max_abs_formula(s, data):
    """Bit for bit, with zero rows, no rows, and scales from 1e-6 to 1e12."""
    m = data.draw(st.integers(0, 20))
    pts = _random_rows(data.draw, m, s.dim) * 10.0 ** data.draw(st.integers(-6, 12))
    pts[np.asarray(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)] = 0.0
    want = np.max(np.abs(pts @ s.representatives.T), axis=1)
    got = norms(s, pts)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# Ball centres per sampled hull and the default gap grids in 2 and 3 dimensions.
KERNEL_SIZES = [2000, 96**2, 24**3]

# Every dimension from 1 to 5 in builtin and inexact families.
DISTANCE_SPACES = NORM_SPACES + [make_space([[0.7], [-0.7]]), random_space(5, 8, 4)]


@settings(max_examples=10, deadline=None)
@given(st.data())
@pytest.mark.parametrize("frozen", [False, True], ids=["array", "cloud"])
@pytest.mark.parametrize("s", DISTANCE_SPACES, ids=lambda s: s.name or "0.7")
def test_distances_equal_the_row_form(s, frozen, data):
    """space._distances(s, P, x), norms(s, P) and the (p, m) block
    space._values(s, P) against the row forms they replaced, bit for bit,
    and P is left as it was. Clouds are 1 to 20 drawn floats or up to
    13824 seeded uniform ones, among them the sizes the kernels receive:
    2000 ball centres and the 96 x 96 and 24 x 24 x 24 gap grids. They are
    scaled by 1e-6 to 1e12 and given as a plain array or as a PointCloud's
    read-only buffer; in dimension 1, P.T of that buffer is already
    contiguous."""
    reps = s.representatives
    scale = 10.0 ** data.draw(st.integers(-6, 12))
    if data.draw(st.booleans()):
        pts = _random_rows(data.draw, data.draw(st.integers(1, 20)), s.dim)
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.integers(1, 24**3) | st.sampled_from(KERNEL_SIZES))
        pts = rng.uniform(-4.0, 4.0, (m, s.dim))
    pts = pts * scale
    if frozen:
        pts = PointCloud(pts).points
    x = _random_rows(data.draw, 1, s.dim)[0] * scale
    before = pts.copy()
    got = space._distances(s, pts, x)
    assert got.tobytes() == np.max(np.abs((pts - x) @ reps.T), axis=1).tobytes()
    assert norms(s, pts).tobytes() == np.max(np.abs(pts @ reps.T), axis=1).tobytes()
    cols = space._values(s, pts)
    assert cols.flags.c_contiguous and cols.tobytes() == (pts @ reps.T).T.tobytes()
    assert pts.tobytes() == before.tobytes()


@st.composite
def slab_cases(draw):
    """Values and bounds for the slab kernel in one of its three layouts: a
    vector, an (m, p) block, or (k, 24, p) values against (k, 1, p) bounds.
    Bounds are dyadic. Each value is a face lo - tol or hi + tol exactly,
    the midpoint, a dyadic draw, or one ulp outside a face."""
    p = draw(st.integers(1, 8))
    tol = draw(st.sampled_from([0.0, hull.SLAB_TOL]))
    layout = draw(st.sampled_from(["vector", "block", "batched"]))
    if layout == "vector":
        shape, bounds = (p,), (p,)
    elif layout == "block":
        shape, bounds = (draw(st.integers(1, 40)), p), (p,)
    else:
        k = draw(st.integers(1, 3))
        shape, bounds = (k, 24, p), (k, 1, p)
    a, b = (draw(npst.arrays(float, bounds, elements=st.integers(-16, 16))) / 8.0 for _ in "ab")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    below, above = lo - tol, hi + tol
    dyadic = draw(npst.arrays(float, shape, elements=st.integers(-24, 24))) / 8.0
    picks = [below, above, 0.5 * (lo + hi), dyadic]
    picks += [np.nextafter(below, -np.inf), np.nextafter(above, np.inf)]
    choice = draw(npst.arrays(np.int64, shape, elements=st.integers(0, len(picks) - 1)))
    vals = np.choose(choice, [np.broadcast_to(v, shape) for v in picks])
    return layout, vals, lo, hi, tol


@PROPERTY
@given(slab_cases())
def test_in_slabs_equals_the_trailing_axis_formula(case):
    """The functional-major kernel against the row-wise formula it
    replaced, bit for bit, on faces and one ulp outside them."""
    layout, vals, lo, hi, tol = case
    want = ((vals >= lo - tol) & (vals <= hi + tol)).all(axis=-1)
    if layout == "vector":
        got = _in_slabs(vals, lo, hi, tol)
    elif layout == "block":
        got = _in_slabs(np.ascontiguousarray(vals.T), lo, hi, tol)
    else:
        got = _in_slabs(*(np.moveaxis(v, -1, 0) for v in (vals, lo, hi)), tol)
    got = np.asarray(got)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(dyadic_clouds())
def test_mconnected_witness_is_first_brute_force_gap(case):
    s, cloud = case
    vals = cloud.points @ s.representatives.T
    dist = {(i, j): np.max(np.abs(vals[i] - vals[j])) for i, j in _pairs(len(cloud))}
    eps = min(dist.values())
    checked = exempt = 0
    witness = None
    for pair, d in dist.items():
        if d <= eps:
            exempt += 1
            continue
        checked += 1
        if not _between(vals, *pair):
            witness = pair
            break
    rep = m_connected(s, cloud)
    assert rep.witness == witness
    assert rep.connected == (witness is None)
    assert (rep.adjacency_eps, rep.pairs_checked, rep.pairs_exempt) == (eps, checked, exempt)


def _pair_by_pair(s, cloud, eps, box):
    """(witness, pairs_checked, pairs_exempt) of the literal row-major scan:
    a pair farther apart than the exemption limit is a gap when no third
    point satisfies lo - tol <= v <= hi + tol for its box(i, j) = (lo, hi)."""
    vals = cloud.points @ s.representatives.T
    limit = eps + hull.SLAB_TOL * (1.0 + eps)
    checked = exempt = 0
    for i, j in _pairs(len(vals)):
        if np.max(np.abs(vals[i] - vals[j])) <= limit:
            exempt += 1
            continue
        checked += 1
        lo, hi = box(vals, i, j)
        inside = ((vals >= lo - hull.SLAB_TOL) & (vals <= hi + hull.SLAB_TOL)).all(axis=1)
        inside[[i, j]] = False
        if not inside.any():
            return (i, j), checked, exempt
    return None, checked, exempt


def _min_distance(s, cloud):
    vals = cloud.points @ s.representatives.T
    return min(np.max(np.abs(vals[i] - vals[j])) for i, j in _pairs(len(vals)))


@st.composite
def scan_clouds(draw):
    """A random dyadic cloud, or a shuffled dyadic grid with holes, in a
    builtin or random space. Grids are often connected, so the scan runs
    through every block."""
    s = draw(st.sampled_from(SPACES + RANDOM_SPACES))
    if draw(st.booleans()):
        coords = st.tuples(*[st.integers(-4, 4)] * s.dim)
        rows = np.asarray(draw(st.lists(coords, min_size=3, max_size=24, unique=True)))
    else:
        n = draw(st.integers(2, {2: 6, 3: 3, 4: 2}[s.dim]))
        rows = np.stack(np.meshgrid(*[np.arange(n)] * s.dim, indexing="ij"), -1)
        rows = rows.reshape(-1, s.dim)
        keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        rows = rows[np.asarray(keep) | (np.arange(len(rows)) < 3)]
        rows = rows[draw(st.permutations(range(len(rows))))]
    return s, PointCloud(np.asarray(rows, dtype=float) / 8.0)


# One neighbour and one-row blocks make prefilter misses and block edges
# occur on every cloud; None keeps the library's own value.
SCAN_PATCHES = st.tuples(st.sampled_from([1, None]), st.sampled_from([1, None]))


@contextmanager
def _scan_patch(patches):
    count, budget = patches
    with mock.patch.object(
        hull, "_neighbour_count", hull._neighbour_count if count is None else lambda dim: count
    ), mock.patch.object(hull, "_SCAN_BUDGET", budget or hull._SCAN_BUDGET):
        yield


@PROPERTY
@given(scan_clouds(), st.sampled_from([None, 0.0, 0.125, 0.3]), SCAN_PATCHES)
def test_mconnected_scan_is_the_pair_by_pair_scan(case, adjacency_eps, patches):
    s, cloud = case
    eps = _min_distance(s, cloud) if adjacency_eps is None else adjacency_eps

    def interval(vals, i, j):
        return np.minimum(vals[i], vals[j]), np.maximum(vals[i], vals[j])

    witness, checked, exempt = _pair_by_pair(s, cloud, eps, interval)
    with _scan_patch(patches):
        rep = m_connected(s, cloud, adjacency_eps=adjacency_eps)
    assert rep.witness == witness
    assert rep.connected == (witness is None)
    assert (rep.adjacency_eps, rep.pairs_checked, rep.pairs_exempt) == (eps, checked, exempt)


@settings(max_examples=25, deadline=None)
@given(scan_clouds(), st.integers(0, 2**16), SCAN_PATCHES, st.one_of(st.just(0), st.integers(1, 40)))
def test_mconnected_oracle_scan_is_the_pair_by_pair_scan(case, seed, patches, k):
    """The hull of pair (i, j) is sampled with seed + i*m + j. Clouds scaled
    by 2**k keep their values exact; from k of about 12 the certificate's
    rounding slack exceeds the tolerance, so it certifies at a negative one."""
    s, cloud = case
    cloud = PointCloud(cloud.points * 2.0**k)
    m = len(cloud)

    def sampled(vals, i, j):
        box = ball_hull_outer(s, cloud.points[i], cloud.points[j], 12, seed + i * m + j)
        return box.lo, box.hi

    witness, checked, exempt = _pair_by_pair(s, cloud, _min_distance(s, cloud), sampled)
    with _scan_patch(patches):
        rep = m_connected(s, cloud, hull="oracle", n_balls=12, seed=seed)
    assert rep.witness == witness
    assert (rep.pairs_checked, rep.pairs_exempt) == (checked, exempt)


# The norm of linf(2) with a functional, (1/2, 1/2), that is not extreme:
# its intervals are smaller than its ball hulls.
NON_EXTREME = make_space(np.array([[1, 0], [0, 1], [0.5, 0.5], [-1, 0], [0, -1], [-0.5, -0.5]]))


@st.composite
def certificate_clouds(draw):
    """Random floats, or rows that share a few random values per axis so
    that points lie on faces of intervals, scaled by 2**-30 to 2**40."""
    s = draw(st.sampled_from(SPACES + RANDOM_SPACES + [NON_EXTREME]))
    m = draw(st.integers(3, 10))
    if draw(st.booleans()):
        rows = _random_rows(draw, m, s.dim)
    else:
        ticks = _random_rows(draw, 3, s.dim)
        pick = draw(st.lists(st.tuples(*[st.integers(0, 2)] * s.dim), min_size=m, max_size=m))
        rows = ticks[np.asarray(pick), np.arange(s.dim)]
    rows = np.unique(rows, axis=0)
    assume(len(rows) >= 3)
    return s, PointCloud(rows * 2.0 ** draw(st.integers(-30, 40)))


@settings(max_examples=40, deadline=None)
@given(certificate_clouds(), st.sampled_from([0.0, hull.SLAB_TOL]), st.integers(0, 2**16))
def test_certified_interval_witnesses_lie_in_the_sampled_hulls(case, tol, seed):
    """Every point that the oracle's scan takes as an interval witness at
    tol minus the slack passes the sampled hull's own test at tol, for few
    and many balls. The bounds of each hull lie inside the interval bounds
    by at most half the slack, and the two dot products of a point, reps @ x
    and its row of cloud.points @ reps.T, differ by at most half the part
    of the slack that grows with the dimension."""
    s, cloud = case
    reps, m = s.representatives, len(cloud)
    vals = cloud.points @ reps.T
    cols = np.ascontiguousarray(vals.T)
    top, l1 = float(np.abs(cloud.points).max()), float(np.abs(reps).sum(axis=1).max())
    slack = hull._hull_slack(top, l1, s.dim)
    dots = slack - hull._hull_slack(top, l1, 0)
    cert_tol = hull._certified_tol(s, cloud, tol)
    for i, j in _pairs(m):
        lo, hi = np.minimum(vals[i], vals[j]), np.maximum(vals[i], vals[j])
        certified = _in_slabs(cols, lo, hi, cert_tol)
        certified[[i, j]] = False
        for row in (i, j):
            assert 2.0 * np.abs(reps @ cloud.points[row] - vals[row]).max() <= dots
        for n_balls in (3, 12, 2000):
            box = ball_hull_outer(s, cloud.points[i], cloud.points[j], n_balls, seed + i * m + j)
            assert 2.0 * max((box.lo - lo).max(), (hi - box.hi).max()) <= slack
            assert _in_slabs(cols, box.lo, box.hi, tol)[certified].all()


@st.composite
def dyadic_nets(draw):
    """A box net or a monotone staircase net, laid out in linf(2)
    coordinates with step 2**-k and a dyadic shift, then placed in linf(2)
    or l1(2)."""
    h = 2.0 ** -draw(st.integers(0, 4))
    if draw(st.booleans()):
        nx, ny = draw(st.integers(2, 7)), draw(st.integers(2, 7))
        u = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"), axis=-1)
        u = u.reshape(-1, 2)
    else:
        runs = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
        steps = [[1, 0] if r % 2 == 0 else [0, 1] for r, k in enumerate(runs) for _ in range(k)]
        u = np.vstack([[0, 0], np.cumsum(steps, axis=0)])
    shift = np.array([draw(st.integers(-8, 8)), draw(st.integers(-8, 8))])
    u = (u + shift) * h
    s = draw(st.sampled_from([LINF2, L12]))
    pts = u @ L1_FROM_LINF.T if s is L12 else u
    w = draw(st.sampled_from([uniform_weights, geometric_weights]))(s)
    src = draw(st.integers(0, len(pts) - 1))
    dst = draw(st.integers(0, len(pts) - 1).filter(lambda k: k != src))
    return s, w, PointCloud(pts), src, dst


@PROPERTY
@given(dyadic_nets())
def test_found_paths_are_additive_unskipping_and_monotone(case):
    s, w, cloud, src, dst = case
    hop = 1.5 * max_nn_distance(s, w, cloud)
    p = monotone_path(s, w, cloud, cloud.points[src], cloud.points[dst], hop=hop)
    if isinstance(p, PathNotFound):
        return
    assert abs(p.length - p.target) <= 1e-6 * p.target
    vals = cloud.points @ s.representatives.T
    idx = [cloud.index_of(q) for q in p.points]
    assert idx[0] == src and idx[-1] == dst
    for a, b in zip(idx[:-1], idx[1:]):
        assert _between(vals, a, b) == []
    assert p.monotone


@st.composite
def hop_cases(draw):
    """Random floats or dyadic points, in a builtin space or a random one
    with at most 6 functional pairs, under either weight scheme. With 8
    pairs BLAS's row dot depends on the array's shape, and a few distances
    then differ from the dense matrix's in the last bits."""
    if draw(st.booleans()):
        s = draw(st.sampled_from(SPACES))
    else:
        dim = draw(st.integers(2, 4))
        s = random_space(dim, pairs=draw(st.integers(dim, 6)), seed=draw(st.integers(0, 999)))
    m = draw(st.integers(2, 30))
    if draw(st.booleans()):
        rows = _random_rows(draw, m, s.dim)
    else:
        coords = st.tuples(*[st.integers(-4, 4)] * s.dim)
        rows = np.asarray(draw(st.lists(coords, min_size=m, max_size=m)), dtype=float) / 8.0
    cloud = PointCloud(rows[np.sort(np.unique(rows, axis=0, return_index=True)[1])])
    w = draw(st.sampled_from([uniform_weights, geometric_weights]))(s)
    # Rows a subnormal apart can still be at distance 0, which monotone_path
    # refuses and the dense reference cannot tell from a missing edge.
    assume(np.all(dense.assoc_dist_matrix(s, w, cloud) + np.eye(len(cloud)) > 0.0))
    return s, w, cloud


# (budget, waste): one-row and seven-pair blocks split every cloud, and no
# waste ends a block wherever the next row's window differs.
_BUDGET, _WASTE = space._WINDOW_BUDGET, space._WINDOW_WASTE
WINDOW_PATCHES = st.sampled_from([(1, _WASTE), (7, _WASTE), (_BUDGET, 0), (_BUDGET, _WASTE)])


def _window_patch(patches):
    budget, waste = patches
    return mock.patch.multiple(space, _WINDOW_BUDGET=budget, _WINDOW_WASTE=waste)


def _separated(case):
    """At least two points, and no two distinct values of a functional
    closer than 1e-6: no point lies within the path tolerance of a slab box
    that does not hold it, or of another point."""
    s, w, cloud = case
    gaps = [np.diff(np.unique(col)) for col in space._values(s, cloud.points)]
    return len(cloud) > 1 and all(g.size == 0 or g.min() >= 1e-6 for g in gaps)


@PROPERTY
@given(
    hop_cases().filter(_separated),
    st.sampled_from([0.0, 1.0, 1.5]),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
    WINDOW_PATCHES,
)
@example(
    (LINF2, uniform_weights(LINF2), PointCloud([[0, 0], [1, 1], [0.5, -1e-11]])),
    1.0, 1, 0, (1, _WASTE),
)
@example(
    (LINF2, geometric_weights(LINF2), PointCloud([[0, -0.125], [0, 0.25], [0, 0]])),
    1.0, 1, 0, (1, _WASTE),
)
def test_monotone_path_agrees_with_dense_dijkstra(case, scale, pick, ends, patches):
    """The sweep looks for a monotone route inside the slab box of the ends;
    the reference, Dijkstra on the whole cloud's hop graph, for a shortest
    route. hop is 0, a pair distance, so that a step of exactly hop occurs,
    or 1.5 times one. eps = 1e-10 exceeds the rounding of a length and is
    below 2 min(alpha) 1e-6, so on separated clouds a route within eps of
    the target stays in the box and rises in every functional, and the two
    searches agree. The first example steps 1e-11 back in f_1, which only
    the sweep's rise tolerance admits; in the second, the step of length hop
    from (0, 0) to (0, 0.25) rises in phi by one ulp more than hop."""
    s, w, cloud = case
    m = len(cloud)
    dist = dense.assoc_dist_matrix(s, w, cloud)
    pairs = np.unique(dist[~np.eye(m, dtype=bool)])
    hop = scale * pairs[pick % pairs.size]
    src = ends % m
    dst = (src + 1 + ends // m % (m - 1)) % m
    with _window_patch(patches):
        got = monotone_path(s, w, cloud, cloud.points[src], cloud.points[dst], 1e-10, hop)
    want = dense.dijkstra_path(s, w, cloud, src, dst, 1e-10, hop)
    assert isinstance(got, PathNotFound) == isinstance(want, PathNotFound)
    if not isinstance(got, PathNotFound):
        assert got.verdicts == want.verdicts
        assert abs(got.length - want.length) <= 1e-10


@PROPERTY
@given(WINDOW_PATCHES, st.sampled_from([0.0, 2.0]), st.integers(1, 8), st.permutations(range(4)))
def test_path_rejects_a_zero_distance_pair_outside_the_box(patches, hop, far, perm):
    """(0, 0) and (0, 5e-324) lie at uniform-linf2 distance 0, far outside
    the slab box of the path's ends. The zero check orders the cloud by
    f_0, the second coordinate, plus a small blend of the first, so the
    pair's keys differ by 5e-324 and leave no room for rounding: without
    the subnormals a distance may lose to underflow, each window holds one
    point and the pair is missed."""
    assert LINF2.representatives[0].tolist() == [0.0, 1.0]
    pts = np.array([[1.0, far], [2.0, far], [0.0, 0.0], [0.0, 5e-324]])[list(perm)]
    with _window_patch(patches), pytest.raises(DuplicatePoints, match="distance 0"):
        monotone_path(LINF2, uniform_weights(LINF2), PointCloud(pts), [1, far], [2, far], hop=hop)


@PROPERTY
@given(hop_cases(), WINDOW_PATCHES)
@example(
    (LINF2, uniform_weights(LINF2), PointCloud([[0.5, 0.75], [-1.25, 0.75], [3.0, 0.75]])),
    (1, _WASTE),
)
def test_max_nn_distance_is_the_dense_formula(case, patches):
    """The example holds f_0, the second coordinate, constant, so only the
    small blend of the first in the sort key orders the points."""
    s, w, cloud = case
    dist = dense.assoc_dist_matrix(s, w, cloud)
    np.fill_diagonal(dist, np.inf)
    with _window_patch(patches):
        got = max_nn_distance(s, w, cloud)
    assert np.float64(got).tobytes() == dist.min(axis=1).max().tobytes()


@st.composite
def eps_clouds(draw):
    """Non-dyadic clouds for m_connected's default eps. Either 2 to 16
    random rows in a builtin or random space, scaled by 2**k down to
    subnormal spacings and translated by up to 2**40, or an edge cloud in
    linf(n): a = T e_0 for T up to 2**40 (or subnormal), g = ulp(T), b = a
    + N g (1, ..., 1) + r g (0, 1, ..., 1) and z = a + (N + 1) g e_0 - e
    (0, 1, ..., 1) with e far below g. (a, b) is the nearest pair and z
    lies between them in any key with positive weights of sum about 1, so
    the least neighbour distance is |z - b| = d(a, b) + e. b's key exceeds
    a's by about N g, so where its rounding at the ulp of T's key rounds
    up, b lies beyond the edge of a's window unless the window is widened
    for rounding."""
    if draw(st.booleans()):
        s = draw(st.sampled_from(SPACES + RANDOM_SPACES))
        rows = _random_rows(draw, draw(st.integers(2, 16)), s.dim)
        shift = _random_rows(draw, 1, s.dim)[0] * 2.0 ** draw(st.integers(0, 38))
        pts = rows * 2.0 ** draw(st.integers(-1074, 8)) + draw(st.sampled_from([0.0, 1.0])) * shift
        pts = pts[np.sort(np.unique(pts, axis=0, return_index=True)[1])]
        assume(len(pts) >= 2)
    else:
        s = draw(st.sampled_from([LINF2, SPACES[2]]))
        t = draw(st.floats(1.0, 2.0, exclude_max=True)) * 2.0 ** draw(st.integers(-60, 40))
        g, n = np.spacing(t), draw(st.integers(1, 16))
        r = draw(st.sampled_from([0.0625, 0.125, 0.25]))
        e = g * 2.0 ** -draw(st.integers(4, 40))
        fine = np.arange(s.dim) != 0
        a = np.where(fine, 0.0, t)
        pts = np.array([a, a + n * g + r * g * fine, a + np.where(fine, -e, (n + 1) * g)])
    return s, PointCloud(pts)


@PROPERTY
@given(eps_clouds(), WINDOW_PATCHES)
@example(
    (
        SPACES[2],
        PointCloud([
            [13.62121656527829, 0.0, 0.0],
            [13.621216565278292, 1.9984014443252818e-15, 1.9984014443252818e-15],
            [13.621216565278294, -6.938893903907228e-18, -6.938893903907228e-18],
        ]),
    ),
    (_BUDGET, _WASTE),
)
def test_default_eps_is_the_brute_force_least_distance(case, patches):
    """m_connected measures only the pairs in sorted windows; its default
    eps must still be the least of all pairwise sup distances, bit for bit,
    on every cloud, the 2- and 3-point ones included. In the example, an
    edge cloud with T near 13.6, b's key rounds to more than the least
    neighbour distance above a's: a window of exactly that distance misses
    the nearest pair."""
    s, cloud = case
    with _window_patch(patches):
        got = m_connected(s, cloud).adjacency_eps
    assert np.float64(got).tobytes() == np.float64(_min_distance(s, cloud)).tobytes()


@st.composite
def sun_cases(draw):
    """A builtin or random 2-d or 3-d space, a dyadic cloud (with tied
    nearest points) or a random one, and one to four queries, dyadic at
    half the cloud's step or random, at least one of them off the cloud.
    A dyadic query may move by one ulp along an axis, which flips ties
    |b_i| = max |b| in the certificate's active set. Cloud and queries are
    scaled by 1, 1e9 or 2**-30 to 2**40; from about 2**12 up, the
    certificate's slack passes the tie tolerance and the grid must run."""
    s = draw(st.sampled_from(SPACES + RANDOM_SPACES[:2]))
    count = draw(st.integers(1, 10))
    if draw(st.booleans()):
        coords = st.tuples(*[st.integers(-2, 2)] * s.dim)
        rows = draw(st.lists(coords, min_size=count, max_size=count, unique=True))
        pts = np.asarray(rows, dtype=float) / 4.0
        coords = st.tuples(*[st.integers(-5, 5)] * s.dim)
        queries = np.asarray(draw(st.lists(coords, min_size=1, max_size=4)), dtype=float) / 8
        if draw(st.booleans()):
            axis = draw(st.integers(0, s.dim - 1))
            toward = draw(st.sampled_from([-np.inf, np.inf]))
            queries[:, axis] = np.nextafter(queries[:, axis], toward)
    else:
        pts = _random_rows(draw, count, s.dim)
        assume(len(np.unique(pts, axis=0)) == count)
        queries = _random_rows(draw, draw(st.integers(1, 4)), s.dim)
    scale = draw(st.one_of(st.just(1.0), st.just(1e9), st.integers(-30, 40).map(lambda k: 2.0**k)))
    pts, queries = pts * scale, queries * scale
    assume(len(np.unique(pts, axis=0)) == count)
    cloud = PointCloud(pts)
    assume(any(cloud.index_of(q) is None for q in queries))
    ray = {
        "lambda_max": draw(st.sampled_from([1.0, 4.0, 16.0])),
        "grid": draw(st.sampled_from([2, 9, 64])),
    }
    return s, cloud, queries, ray


def _reference_reports(s, cloud, x, ray, stop):
    """sun_check on each nearest point of x in index order, up to and
    including the first report whose holds equals stop."""
    reports = []
    for idx in project(s, cloud, x).indices:
        reports.append(sun_check(s, cloud, x, cloud.points[idx], **ray))
        if reports[-1].holds == stop:
            break
    return reports


def _assert_same_reports(got, want):
    assert [r.to_json() for r in got] == [r.to_json() for r in want]


# Two tied nearest points whose verdicts differ, so that the last candidate
# decides: [False, True] for the first query, [True, False] for the second.
BUMP = PointCloud([[i / 8, 0.0] for i in range(9)] + [[0.5, 0.75]])
BUMP_QUERIES = np.array([[0.1875, 0.125], [0.8125, 0.125]])


# Near the float limit project and the ray scan overflow; the grid still
# falsifies this query, at lambda 5.145..., with competitor (0, 0).
FLOAT_LIMIT = PointCloud(np.array([[0, 0], [0.5, 0], [1, 0]]) * 1.7e308)
FLOAT_LIMIT_QUERIES = np.array([[0.5e308, 1.2e308]])


@PROPERTY
@given(sun_cases())
@example((LINF2, BUMP, BUMP_QUERIES, {"lambda_max": 4.0, "grid": 64}))
@example((L12, FLOAT_LIMIT, FLOAT_LIMIT_QUERIES, DEFAULT_RAY))
def test_candidate_loop_is_sun_check_one_candidate_at_a_time(case):
    """find_luminosity and both modes of is_sun_sampled against a loop of
    sun_check calls: whole reports, verdicts and falsifiers.
    Random draws rarely make the last of several candidates decide; the
    BUMP example does, in both modes. The float-limit example overflows,
    in the reference as in the loop, so its warnings are silenced there."""
    s, cloud, queries, ray = case
    overflow = {"over": "ignore", "invalid": "ignore"} if cloud is FLOAT_LIMIT else {}
    with np.errstate(**overflow):
        _check_candidate_loop(s, cloud, queries, ray)


def _check_candidate_loop(s, cloud, queries, ray):
    skipped, failures = [], {False: [], True: []}
    for qi, q in enumerate(queries):
        if cloud.index_of(q) is not None:
            skipped.append(qi)
            continue
        want = _reference_reports(s, cloud, q, ray, stop=True)
        got = find_luminosity(s, cloud, q, **ray)
        if want[-1].holds:
            _assert_same_reports([got], want[-1:])
        else:
            assert isinstance(got, NoCandidate)
            _assert_same_reports(got.falsifications, want)
            failures[False].append({"query": qi, "report": NoCandidate(want).to_json()})
        strict = _reference_reports(s, cloud, q, ray, stop=False)
        if not strict[-1].holds:
            failures[True].append({"query": qi, "report": strict[-1].to_json()})
    for mode in (False, True):
        rep = is_sun_sampled(s, cloud, queries, strict=mode, **ray)
        want = (skipped, failures[mode], not failures[mode])
        assert (rep.skipped, rep.failures, rep.passed) == want


@st.composite
def certificate_cases(draw):
    """A sun case with a random lambda_max and grid, in place or moved by
    up to 4 * 2**35 along each axis, so that near a small cloud the grid's
    rounding reaches the tie tolerance."""
    s, cloud, queries, _ = draw(sun_cases())
    shift = np.asarray(draw(st.tuples(*[st.integers(-4, 4)] * s.dim)), dtype=float)
    shift *= draw(st.one_of(st.just(0.0), st.integers(0, 35).map(lambda k: 2.0**k)))
    ray = {"lambda_max": draw(st.floats(0.25, 64.0)), "grid": draw(st.integers(2, 300))}
    return s, PointCloud(cloud.points + shift), queries + shift, ray


@settings(max_examples=200, deadline=None)
@given(certificate_cases())
@example((LINF2, PointCloud([[0, 0], [0, -1]]), np.array([[0, -0.4]]), {"lambda_max": 4.0, "grid": 64}))
@example((L12, PointCloud([[24 * 2.0**30, 0]]), np.array([[24 * 2.0**30, 0.125]]), DEFAULT_RAY))
def test_certified_candidates_hold_on_the_grid(case):
    """Every nearest point the certificate passes also passes sun_check's
    grid, at every scale and offset. In the first example the ray from
    (0, 0) runs down into (0, -1), which only the sign of b sees. In the
    second the grid's rounding falsifies even a one-point cloud, so only
    the slack keeps the certificate from passing it."""
    s, cloud, queries, ray = case
    reps = s.representatives
    cols = np.ascontiguousarray((cloud.points @ reps.T).T)
    for x in queries:
        if cloud.index_of(x) is not None:
            continue
        margin, floor = approx._certificate_floor(s, cloud, x, ray["lambda_max"])
        for idx in project(s, cloud, x).indices:
            y = cloud.points[idx]
            if approx._ray_certificate(reps, cols, idx, x, y, margin) >= floor:
                assert sun_check(s, cloud, x, y, **ray).holds


@settings(max_examples=200, deadline=None)
@given(certificate_cases())
@example((LINF2, PointCloud([[0, 0], [1, 0]]), np.array([[0.5, 0.5]]), DEFAULT_RAY))
@example((LINF2, PointCloud([[i / 8, 0] for i in range(9)]), np.array([[0.5, 0.25]]), DEFAULT_RAY))
def test_batched_certificates_are_the_single_candidate_pass(case):
    """_ray_certificates gives each nearest point the value of
    _ray_certificate's O(m p) pass bit for bit, at every scale and offset,
    and runs that pass only for the candidates with several active
    functionals. In the first example both candidates have two; in the
    second the candidates 1/4 along the segment from the query do."""
    s, cloud, queries, ray = case
    reps = s.representatives
    cols = np.ascontiguousarray((cloud.points @ reps.T).T)
    for x in queries:
        if cloud.index_of(x) is not None:
            continue
        margin, _ = approx._certificate_floor(s, cloud, x, ray["lambda_max"])
        indices = project(s, cloud, x).indices
        with mock.patch.object(approx, "_ray_certificate", wraps=approx._ray_certificate) as spy:
            got = list(approx._ray_certificates(reps, cols, cloud.points, indices, x, margin))
        want = [approx._ray_certificate(reps, cols, i, x, cloud.points[i], margin) for i in indices]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        a = np.abs(approx._ray_directions(reps, x, cloud.points[indices]))
        several = (a >= a.max(axis=1, keepdims=True) - margin).sum(axis=1) > 1
        assert [int(c.args[2]) for c in spy.call_args_list] == indices[several].tolist()


def _dyadic_vector(dim):
    return st.tuples(*[st.integers(-6, 6)] * dim).map(lambda v: np.asarray(v, dtype=float) / 8.0)


@PROPERTY
@given(dyadic_clouds(), st.data())
def test_project_is_translation_equivariant(case, data):
    s, cloud = case
    q = data.draw(_dyadic_vector(s.dim))
    shift = data.draw(_dyadic_vector(s.dim))
    before = project(s, cloud, q)
    after = project(s, PointCloud(cloud.points + shift), q + shift)
    assert after.indices.tolist() == before.indices.tolist()
    assert after.distance == before.distance


@PROPERTY
@given(dyadic_clouds(), st.data())
def test_project_is_scale_equivariant(case, data):
    """Distinct dyadic distances differ by at least 1/8, far above the tie
    tolerance at every drawn scale, so the tied set cannot change."""
    s, cloud = case
    q = data.draw(_dyadic_vector(s.dim))
    c = 2.0 ** data.draw(st.integers(-4, 4))
    before = project(s, cloud, q)
    after = project(s, PointCloud(cloud.points * c), q * c)
    assert after.indices.tolist() == before.indices.tolist()
    assert after.distance == c * before.distance


@PROPERTY
@given(dyadic_clouds(), st.data())
def test_partial_embedding_never_increases_a_distance(case, data):
    s, cloud = case
    indices = data.draw(
        st.lists(st.integers(0, s.n_pairs - 1), min_size=1, max_size=s.n_pairs - 1, unique=True)
    )
    e = make_embedding(s, indices)
    res = embed_cloud(e, cloud)
    img, src = res.cloud.points, cloud.points[res.preimages]
    for i, j in _pairs(len(img)):
        assert norm(e.target, img[i] - img[j]) <= norm(s, src[i] - src[j])


@st.composite
def equiv_spaces(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(SPACES))
    dim = draw(st.integers(2, 3))
    return random_space(dim, pairs=dim + draw(st.integers(0, 3)), seed=draw(st.integers(0, 999)))


@settings(max_examples=30, deadline=None)
@given(
    equiv_spaces(),
    st.sampled_from([uniform_weights, geometric_weights]),
    st.integers(0, 2**32 - 1),
)
def test_betweenness_equivalence_has_no_disagreement(s, weights, seed):
    rep = between_equiv_check(s, weights(s), trials=60, seed=seed)
    assert rep.disagreements == []
    assert rep.passed


@PROPERTY
@given(st.integers(1, 4), st.data())
def test_first_rows_matches_byte_keyed_dict(width, data):
    """Entries from a small set repeat rows often, and -0.0 must match 0.0."""
    entry = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    rows = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=40))
    rows = np.asarray(rows, dtype=float).reshape(-1, width)
    seen: dict[bytes, int] = {}
    want = [seen.setdefault(np.where(r == 0.0, 0.0, r).tobytes(), i) for i, r in enumerate(rows)]
    assert _first_rows(rows).tolist() == want
