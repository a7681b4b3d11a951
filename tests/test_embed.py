import numpy as np
import pytest

from sunlab import (
    DimensionMismatch,
    PointCloud,
    builtin,
    embed_cloud,
    embed_point,
    interval,
    interval_contains,
    m_connected,
    make_embedding,
    norm,
    norms,
    random_space,
    space_from_json,
)

LINF2 = builtin("linf", 2)
L12 = builtin("l1", 2)


def test_identity_embedding_of_linf():
    # canonical representatives of linf(2) are (0,1), (1,0); the reversed
    # selection recovers the identity map
    e = make_embedding(LINF2, indices=[1, 0])
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rng.uniform(-3, 3, 2)
        assert np.array_equal(embed_point(e, x), x)


def test_embed_zero_is_zero():
    e = make_embedding(L12)
    assert np.array_equal(embed_point(e, [0.0, 0.0]), [0.0, 0.0])


def test_embed_hand_value_l12():
    e = make_embedding(L12, indices=[1, 0])  # (1,1) then (1,-1)
    assert np.array_equal(embed_point(e, [2, 0]), [2.0, 2.0])
    assert norm(e.target, embed_point(e, [2, 0])) == norm(L12, [2, 0])


def test_embedding_validates_indices():
    with pytest.raises(DimensionMismatch):
        make_embedding(L12, indices=[0, 0])
    with pytest.raises(DimensionMismatch):
        make_embedding(L12, indices=[5])


def test_embedding_json_roundtrip():
    e = make_embedding(L12, indices=[1])
    data = e.to_json()
    back = make_embedding(space_from_json(data["source"]), data["indices"])
    assert np.array_equal(back.indices, e.indices)
    assert np.array_equal(back.source.functionals, L12.functionals)


def test_contraction_random_pairs():
    rng = np.random.default_rng(11)
    for s in (L12, builtin("linf", 3), random_space(3, 6, seed=8)):
        full = make_embedding(s)
        part = make_embedding(s, indices=list(range(s.n_pairs - 1)))
        x = rng.normal(size=(200, s.dim))
        y = rng.normal(size=(200, s.dim))
        src = norms(s, x - y)
        for e in (full, part):
            img = (x - y) @ e.selected.T
            tgt = np.abs(img).max(axis=1)
            assert np.all(tgt <= src + 1e-12)
        # the full family attains the norm
        imgx = x @ full.selected.T
        imgy = y @ full.selected.T
        tgt_full = np.abs(imgx - imgy).max(axis=1)
        assert np.all(np.abs(tgt_full - src) <= 1e-12 * (1 + src))


def test_betweenness_transport_exact():
    rng = np.random.default_rng(12)
    for s in (L12, random_space(2, 4, seed=9)):
        e = make_embedding(s)
        for _ in range(100):
            x, y = rng.uniform(-2, 2, s.dim), rng.uniform(-2, 2, s.dim)
            t = rng.uniform(-0.3, 1.3)
            z = (1 - t) * x + t * y
            src_in = interval_contains(interval(s, x, y), z)
            ex, ey, ez = (embed_point(e, v) for v in (x, y, z))
            tgt_in = interval_contains(interval(e.target, ex, ey), ez)
            if src_in:
                assert tgt_in


def test_embed_cloud_identity():
    e = make_embedding(LINF2, indices=[1, 0])
    cloud = PointCloud([[0, 0], [1, 1], [2, 0]])
    res = embed_cloud(e, cloud)
    assert np.array_equal(res.cloud.points, cloud.points)
    assert res.multiplicities == [1, 1, 1]


def test_embed_cloud_hand_values():
    cloud = PointCloud([[0, 0], [1, 1], [2, 0]])
    res = embed_cloud(make_embedding(L12, indices=[1, 0]), cloud)
    assert np.array_equal(res.cloud.points, [[0, 0], [2, 0], [2, 2]])
    assert res.preimages == [0, 1, 2]


def test_embed_cloud_collapses_collisions():
    cloud = PointCloud([[0, 0], [1, 1], [2, 0]])
    res = embed_cloud(make_embedding(L12, indices=[1]), cloud)
    # the (1,1) functional sends both (1,1) and (2,0) to 2
    assert np.array_equal(res.cloud.points, [[0.0], [2.0]])
    assert res.multiplicities == [1, 2]
    assert res.preimages == [0, 1]


def test_mconnectedness_transports_through_full_family():
    cloud = PointCloud([[0, 0], [1, 0], [2, 0]])
    assert m_connected(L12, cloud).connected
    res = embed_cloud(make_embedding(L12), cloud)
    assert m_connected(builtin("linf", 2), res.cloud).connected


def _embed_cloud_by_dict(e, cloud):
    """Reference: collapse embedded rows with a dict keyed by their bytes."""
    rows, preimages, multiplicities, seen = [], [], [], {}
    for i, row in enumerate(cloud.points @ e.selected.T):
        row = np.where(row == 0.0, 0.0, row)
        key = row.tobytes()
        if key in seen:
            multiplicities[seen[key]] += 1
            continue
        seen[key] = len(rows)
        rows.append(row)
        preimages.append(i)
        multiplicities.append(1)
    return np.asarray(rows).reshape(-1, e.indices.size), preimages, multiplicities


def test_embed_cloud_matches_dict_reference():
    """Small integer points under random partial indices collide often, and
    points with zero coordinates give -0.0 and 0.0 images."""
    rng = np.random.default_rng(8)
    s = builtin("l1", 3)
    for _ in range(20):
        k = int(rng.integers(1, s.n_pairs + 1))
        e = make_embedding(s, rng.permutation(s.n_pairs)[:k])
        pts = rng.integers(-2, 3, size=(int(rng.integers(0, 60)), 3)).astype(float)
        pts[rng.random(pts.shape) < 0.2] = -0.0
        res = embed_cloud(e, PointCloud(pts))
        rows, preimages, multiplicities = _embed_cloud_by_dict(e, PointCloud(pts))
        assert res.cloud.points.tobytes() == rows.tobytes()
        assert res.cloud.points.shape == rows.shape
        assert res.preimages == preimages
        assert res.multiplicities == multiplicities
