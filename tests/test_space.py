import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunlab import (
    Degenerate,
    DimensionMismatch,
    NotSymmetric,
    ParseError,
    TooLarge,
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


def test_unit_ball_extents_builtins():
    spaces = [builtin("linf", n) for n in range(1, 9)] + [builtin("l1", n) for n in range(1, 5)]
    for s in spaces:
        assert unit_ball_extents(s).tolist() == [1.0] * s.dim, s.name


def test_unit_ball_extents_follow_a_tiny_scale():
    """An absolute singularity threshold would reject every basis of a family
    scaled by 1e-8 (det 1e-24 in dimension 3); a relative one scales along."""
    for s in (builtin("linf", 3), builtin("l1", 3), random_space(3, pairs=6, seed=1)):
        small = make_space(s.functionals * 1e-8)
        assert np.allclose(unit_ball_extents(small), 1e8 * unit_ball_extents(s), rtol=1e-14)


def test_unit_ball_extents_over_budget_name_the_basis_count():
    with pytest.raises(TooLarge, match=f"need {math.comb(64, 7)} bases"):
        unit_ball_extents(builtin("l1", 7))


def _linprog_extents(s):
    """Reference: R_i = max v_i subject to F v <= 1, one HiGHS LP per axis."""
    from scipy.optimize import linprog

    ext = []
    for i in range(s.dim):
        c = np.zeros(s.dim)
        c[i] = -1.0
        res = linprog(
            c,
            A_ub=s.functionals,
            b_ub=np.ones(s.functionals.shape[0]),
            bounds=[(None, None)] * s.dim,
            method="highs",
        )
        assert res.status == 0, res.message
        ext.append(-res.fun)
    return np.array(ext)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(0, 6),
    st.integers(0, 2**16),
    st.sampled_from([-20, 0, 20]),
)
def test_unit_ball_extents_match_linprog(dim, extra, seed, power):
    """HiGHS fails on families scaled by 2**20, so the reference solves the
    unscaled family and scales back; powers of two scale exactly."""
    s = random_space(dim, pairs=dim + extra, seed=seed)
    expect = _linprog_extents(s) * 2.0**-power
    got = unit_ball_extents(make_space(s.functionals * 2.0**power))
    assert np.max(np.abs(got - expect) / expect) <= 1e-12


def test_unit_ball_extents_span_several_blocks():
    """C(60, 3) = 34220 bases of 3 x 3 fill two blocks of 2**18 entries."""
    s = random_space(3, pairs=60, seed=8)
    expect = _linprog_extents(s)
    assert np.max(np.abs(unit_ball_extents(s) - expect) / expect) <= 1e-12


def test_unit_ball_extents_vertex_oracle_2d():
    """Cross-check the extents against explicit vertex enumeration of the
    unit ball, which is the slab polytope with every slab equal to [-1, 1]."""
    for seed in (3, 4, 5):
        s = random_space(2, pairs=5, seed=seed)
        k = s.n_pairs
        ball = SlabPolytope(space=s, lo=np.full(k, -1.0), hi=np.ones(k))
        verts = slab_vertices_2d(ball)
        assert len(verts) >= 3
        ext = unit_ball_extents(s)
        assert np.allclose(np.abs(verts).max(axis=0), ext, atol=1e-7)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_make_space_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="^functional entries must be finite$"):
        make_space([[bad, 1], [-bad, -1], [0, 1], [0, -1]])


def test_make_space_rejects_zero_width_functionals():
    with pytest.raises(DimensionMismatch):
        make_space([[], []])
    with pytest.raises(DimensionMismatch):
        space_from_json({"functionals": [[], []]})


def test_make_space_names_ragged_rows():
    with pytest.raises(DimensionMismatch) as err:
        space_from_json({"functionals": [[1, 0], [-1]]})
    assert str(err.value) == (
        "functional rows have inconsistent lengths: row 0 has 2 entries, row 1 has 1"
    )


@pytest.mark.parametrize(
    "functionals, message",
    [
        ([["x", 1]], "row 0 holds an entry that is not a number: ['x', 1]"),
        ([[1, 0], [{"a": 1}, 0]], "row 1 holds an entry that is not a number: [{'a': 1}, 0]"),
        ([["x", 1], [1]], "rows have inconsistent lengths: row 0 has 2 entries, row 1 has 1"),
        ([[True, 0], [-1, 0], [0, 1], [0, -1]], "row 0 holds an entry that is not a number: "
         "[True, 0]"),
        ([[1, 0], ["-1", 0], [0, 1], [0, -1]], "row 1 holds an entry that is not a number: "
         "['-1', 0]"),
        ([[None, 0], [-1, 0], [0, 1], [0, -1]], "row 0 holds an entry that is not a number: "
         "[None, 0]"),
    ],
    ids=["string", "object", "ragged-first", "boolean", "numeric-string", "null"],
)
def test_make_space_names_non_numeric_rows(functionals, message):
    """numpy's "could not convert string to float: 'x'" named neither the
    family nor the row, and an object entry raised a TypeError. A ragged
    family keeps its message, which comes first. numpy read "-1" and true
    as numbers."""
    with pytest.raises(DimensionMismatch) as err:
        space_from_json({"functionals": functionals})
    assert str(err.value) == f"functional {message}"


def test_make_space_takes_numpy_rows_as_they_are():
    """Only the str and bool of parsed JSON are refused: numpy scalars,
    arrays and rows of arrays are read as numbers, as before."""
    fam = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    want = make_space(fam).functionals
    for rows in (
        np.array(fam),
        [np.array(row) for row in fam],
        [[np.float64(v) for v in row] for row in fam],
        np.array(fam).astype(str),
    ):
        assert np.array_equal(make_space(rows).functionals, want)


@pytest.mark.parametrize("dim", ["two", None, [2]])
def test_space_json_dim_must_be_an_integer(dim):
    """int()'s "invalid literal for int() with base 10: 'two'" did not name
    the field, and None or a list raised a TypeError."""
    functionals = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    with pytest.raises(DimensionMismatch) as err:
        space_from_json({"functionals": functionals, "dim": dim})
    assert str(err.value) == f"space JSON 'dim' must be an integer, got {dim!r}"


@pytest.mark.parametrize("dim", [2.5, "2", True, float("inf")], ids=["2.5", "str", "true", "inf"])
def test_space_json_dim_is_not_truncated(dim):
    """int() read 2.5 and "2" as 2 and true as 1, so such a file passed for
    a family of that length."""
    functionals = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    with pytest.raises(DimensionMismatch) as err:
        space_from_json({"functionals": functionals, "dim": dim})
    assert str(err.value) == f"space JSON 'dim' must be an integer, got {dim!r}"


@pytest.mark.parametrize("dim", [2, 2.0])
def test_space_json_integral_dim_is_accepted(dim):
    functionals = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    assert space_from_json({"functionals": functionals, "dim": dim}).dim == 2
    with pytest.raises(DimensionMismatch, match="^declared dim 3"):
        space_from_json({"functionals": functionals, "dim": dim + 1})


@pytest.mark.parametrize("name", [None, {"a": [1]}, 3])
def test_space_json_name_must_be_a_string(name):
    """str() turned null into the name "None" and an object into its repr."""
    functionals = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    with pytest.raises(ParseError) as err:
        space_from_json({"functionals": functionals, "name": name})
    assert str(err.value) == f"space JSON 'name' must be a string, got {name!r}"
    assert space_from_json({"functionals": functionals, "name": "box"}).name == "box"


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
