"""Property tests: the betweenness kernel behind m_connected and path
refinement against a brute-force triple loop, the nearest-point
kernel behind the sun ray scan and the hull gap against a brute-force
scan, the invariants of monotone paths on epsilon-nets, the symmetries of
project, contraction under a partial embedding, the three-way
betweenness equivalence, and the duplicate-row kernel against a byte-keyed
dict.

Coordinates are dyadic (small integers times a power of two), so every
functional value and every distance is exact in binary floating point and
the brute force needs no tolerance.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sunlab import (
    PathNotFound,
    PointCloud,
    between_equiv_check,
    builtin,
    embed_cloud,
    geometric_weights,
    m_connected,
    make_embedding,
    monotone_path,
    norm,
    project,
    random_space,
    uniform_weights,
)
from sunlab import approx, hull
from sunlab.approx import _nearest
from sunlab.hull import _slab_witnesses
from sunlab.space import _first_rows
from sunlab.verify import max_nn_distance

SPACES = [builtin("linf", 2), builtin("l1", 2), builtin("linf", 3), builtin("l1", 3)]
LINF2, L12 = SPACES[0], SPACES[1]

# x = u @ L1_FROM_LINF.T sends a linf(2) net to an l1(2) net whose
# functionals read the linf coordinates back exactly.
L1_FROM_LINF = np.array([[0.5, 0.5], [0.5, -0.5]])

PROPERTY = settings(max_examples=60, deadline=None)


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
        found = _slab_witnesses(vals, np.minimum(a, b), np.maximum(a, b), ends, 0.0)
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
        dist, arg = _nearest(q_vals, vals)
    for q, d, k in zip(q_vals, dist, arg):
        brute = [np.max(np.abs(q - v)) for v in vals]
        assert d == min(brute)
        assert k == brute.index(min(brute))


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
