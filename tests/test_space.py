import numpy as np
import pytest

from sunlab import (
    Ball,
    Degenerate,
    NotSymmetric,
    TooLarge,
    ball_contains,
    builtin,
    make_space,
    norm,
    norms,
    random_space,
    space_from_json,
    space_from_name,
    space_to_json,
    unit_ball_extents,
)
from sunlab.hull import SlabPolytope, slab_vertices_2d


def test_linf_norm_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        s = builtin("linf", n)
        pts = rng.uniform(-5, 5, size=(200, n))
        expect = np.abs(pts).max(axis=1)
        got = norms(s, pts)
        assert np.array_equal(got, expect)


def test_l1_norm_matches_numpy():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        s = builtin("l1", n)
        pts = rng.uniform(-5, 5, size=(200, n))
        expect = np.abs(pts).sum(axis=1)
        got = norms(s, pts)
        assert np.allclose(got, expect, rtol=0, atol=1e-12)


def test_norm_hand_values():
    assert norm(builtin("linf", 2), [3, -4]) == 4.0
    assert norm(builtin("l1", 2), [3, -4]) == 7.0
    assert norm(builtin("l1", 3), np.zeros(3)) == 0.0


def test_norms_batch_matches_scalar():
    # matmul may accumulate in a different order than matvec, so allow a
    # couple of ulps on irrational functionals
    s = random_space(3, pairs=5, seed=7)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 3))
    batch = norms(s, pts)
    for i, p in enumerate(pts):
        assert abs(batch[i] - norm(s, p)) <= 1e-14 * (1.0 + batch[i])


def test_norm_axioms_random():
    """Homogeneity, triangle inequality, positive definiteness at 1e-12."""
    rng = np.random.default_rng(3)
    for seed in (10, 11, 12):
        s = random_space(3, pairs=6, seed=seed)
        x = rng.normal(size=(10_000 // 3, 3))
        y = rng.normal(size=x.shape)
        t = rng.uniform(-3, 3, size=x.shape[0])
        nx, ny = norms(s, x), norms(s, y)
        assert np.all(np.abs(norms(s, t[:, None] * x) - np.abs(t) * nx) <= 1e-12 * (1 + nx))
        assert np.all(norms(s, x + y) <= nx + ny + 1e-12 * (1 + nx + ny))
        assert np.all(nx[np.linalg.norm(x, axis=1) > 1e-9] > 0)


def test_make_space_requires_negations():
    with pytest.raises(NotSymmetric):
        make_space([[1.0, 0.0], [0.0, 1.0]])


def test_make_space_rejects_duplicates():
    with pytest.raises(NotSymmetric):
        make_space([[1, 0], [-1, 0], [1, 0], [0, 1], [0, -1]])


def test_make_space_rejects_zero_functional():
    with pytest.raises(Degenerate):
        make_space([[1, 0], [-1, 0], [0, 0]])


def test_make_space_rejects_rank_deficient():
    # four functionals all living on the first coordinate of R^2
    with pytest.raises(Degenerate):
        make_space([[1, 0], [-1, 0], [2, 0], [-2, 0]])


def test_make_space_symmetric_families():
    s = make_space([[1, 0], [-1, 0], [0, 1], [0, -1]])
    assert s.functionals.shape == (4, 2)
    assert norm(s, [3, -4]) == 4.0
    t = make_space([[1, 1], [-1, -1], [1, -1], [-1, 1]])
    assert norm(t, [3, -4]) == 7.0


def test_canonical_order_ignores_input_order():
    rows = [[0, 1], [1, 0], [0, -1], [-1, 0]]
    a = make_space(rows)
    b = make_space(rows[::-1])
    assert np.array_equal(a.functionals, b.functionals)
    # minus zero must not split otherwise equal rows
    c = make_space([[0.0, 1.0], [-0.0, -1.0], [1, 0], [-1, 0]])
    assert np.array_equal(a.functionals, c.functionals)


def test_representatives_one_per_pair():
    for s in (builtin("linf", 3), builtin("l1", 3), random_space(2, 4, seed=5)):
        reps = s.representatives
        assert reps.shape[0] == s.n_pairs == s.functionals.shape[0] // 2
        rows = {tuple(r) for r in s.functionals}
        for r in reps:
            assert tuple(-r) in rows
            lead = r[np.nonzero(r)[0][0]]
            assert lead > 0


def test_builtin_sizes_and_budget():
    assert builtin("linf", 3).functionals.shape == (6, 3)
    assert builtin("l1", 2).functionals.shape == (4, 2)
    with pytest.raises(TooLarge):
        builtin("l1", 25)


def test_random_space_properties():
    s = random_space(3, pairs=7, seed=42)
    assert s.functionals.shape == (14, 3)
    assert np.allclose(np.linalg.norm(s.functionals, axis=1), 1.0)
    assert np.linalg.matrix_rank(s.functionals) == 3
    again = random_space(3, pairs=7, seed=42)
    assert np.array_equal(s.functionals, again.functionals)
    other = random_space(3, pairs=7, seed=43)
    assert not np.array_equal(s.functionals, other.functionals)


def test_space_json_roundtrip():
    s = random_space(2, pairs=4, seed=9)
    data = space_to_json(s)
    back = space_from_json(data)
    assert np.array_equal(s.functionals, back.functionals)
    assert back.dim == 2
    bad = dict(data, dim=3)
    with pytest.raises(Exception):
        space_from_json(bad)


def test_space_from_name():
    assert space_from_name("linf2").dim == 2
    assert space_from_name("l1(3)").dim == 3
    assert space_from_name("linf(10)").n_pairs == 10
    with pytest.raises(ValueError):
        space_from_name("l2(3)")
    with pytest.raises(ValueError):
        space_from_name("banana")


def test_ball_contains_hand_cases():
    s2 = builtin("linf", 2)
    assert ball_contains(s2, Ball(center=np.array([0.0, 0.0]), radius=1.0), [1, 1])
    assert not ball_contains(s2, Ball(center=np.array([0.0, 0.0]), radius=1.0), [1.5, 0])
    s1 = builtin("l1", 2)
    assert ball_contains(s1, Ball(center=np.array([0.0, 0.0]), radius=2.0), [1, 1])


def test_unit_ball_extents_builtins():
    for name, n in (("linf", 2), ("linf", 4), ("l1", 2), ("l1", 3)):
        ext = unit_ball_extents(builtin(name, n))
        assert np.allclose(ext, 1.0, atol=1e-9)


def test_unit_ball_extents_vertex_oracle_2d():
    """Cross-check the LP extents against explicit vertex enumeration of the
    unit ball, which is the slab polytope with every slab equal to [-1, 1]."""
    for seed in (3, 4, 5):
        s = random_space(2, pairs=5, seed=seed)
        k = s.n_pairs
        ball = SlabPolytope(space=s, lo=np.full(k, -1.0), hi=np.ones(k))
        verts = slab_vertices_2d(ball)
        assert len(verts) >= 3
        ext = unit_ball_extents(s)
        assert np.allclose(np.abs(verts).max(axis=0), ext, atol=1e-7)


def test_make_space_zero_functional_is_degenerate():
    with pytest.raises(Degenerate, match="^zero functional in family$"):
        make_space([[1, 0], [-1, 0], [0, 0], [0, 1]])


def test_make_space_names_the_first_row_lacking_its_negation():
    with pytest.raises(NotSymmetric) as err:
        make_space([[-2, 0], [0, 0], [1, 0], [-1, 0]])
    assert str(err.value) == "family lacks the negation of [-2.0, 0.0]"


def test_make_space_names_duplicate_rows_in_canonical_order():
    with pytest.raises(NotSymmetric) as err:
        make_space([[1, 0], [1, 0], [0, 0]])
    assert str(err.value) == "duplicate functional at rows 1 and 2"
