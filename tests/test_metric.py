import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sunlab import (
    DimensionMismatch,
    DuplicatePoints,
    EmptyCloud,
    EndpointNotInCloud,
    PathNotFound,
    PointCloud,
    WeightMismatch,
    Weights,
    associated_norm,
    between_equiv_check,
    betweenness_defect,
    builtin,
    check_monotone,
    check_weights,
    geometric_weights,
    is_between,
    m_connected,
    monotone_path,
    norm,
    project,
    random_space,
    seq_convergence_check,
    uniform_weights,
    weights_from_json,
)
from sunlab import metric
from sunlab.verify import max_nn_distance

LINF2 = builtin("linf", 2)
L12 = builtin("l1", 2)
ONES = Weights(alphas=np.array([1.0, 1.0]))


# --- weights and the associated norm ----------------------------------------


def test_geometric_weights_normalized():
    for s in (LINF2, builtin("l1", 3), random_space(3, 6, seed=2)):
        w = geometric_weights(s)
        assert w.alphas.shape == (s.n_pairs,)
        assert np.all(w.alphas > 0)
        assert abs(w.total - 1.0) <= 1e-12
        # strictly decreasing, each weight half the previous
        assert np.allclose(w.alphas[1:] / w.alphas[:-1], 0.5)


def test_uniform_weights():
    w = uniform_weights(builtin("l1", 3))
    assert np.allclose(w.alphas, 0.25)


def test_weights_validation():
    with pytest.raises(WeightMismatch):
        check_weights(LINF2, Weights(alphas=np.array([1.0, 1.0, 1.0])))
    with pytest.raises(Exception):
        Weights(alphas=np.array([0.5, 0.0]))
    with pytest.raises(WeightMismatch, match="^all weights must be finite$"):
        weights_from_json(LINF2, {"alphas": [float("inf"), 1.0]})


def test_weights_from_json_forms():
    assert np.allclose(weights_from_json(LINF2, {"scheme": "uniform"}).alphas, 0.5)
    w = weights_from_json(LINF2, {"alphas": [0.3, 0.7]})
    assert np.allclose(w.alphas, [0.3, 0.7])
    with pytest.raises(WeightMismatch):
        weights_from_json(LINF2, {"scheme": "harmonic"})


@pytest.mark.parametrize(
    "data, message",
    [
        ([0.5, 0.5], "^weights JSON needs an 'alphas' array or a 'scheme'$"),
        ("uniform", "^weights JSON needs an 'alphas' array or a 'scheme'$"),
        ({"alphas": ["x", 1]}, "^weights JSON 'alphas' must be an array of numbers$"),
        ({"alphas": [[1], [1, 2]]}, "^weights JSON 'alphas' must be an array of numbers$"),
        ({"alphas": {"a": 1}}, "^weights JSON 'alphas' must be an array of numbers$"),
        ({"alphas": ["0.5", 0.5]}, "^weights JSON 'alphas' must be an array of numbers$"),
        ({"alphas": [0.5, True]}, "^weights JSON 'alphas' must be an array of numbers$"),
        ({"alphas": [None, 1]}, "^weights JSON 'alphas' must be an array of numbers$"),
    ],
    ids=["list", "string", "alphas-text", "alphas-ragged", "alphas-object",
         "alphas-numeric-string", "alphas-boolean", "alphas-null"],
)
def test_weights_from_json_rejects_other_shapes(data, message):
    """A list or string made the parser fail with AttributeError, and a
    non-numeric alphas entry with numpy's message, which names no field.
    numpy read "0.5" and true as numbers, and null as NaN, which the weight
    check called not strictly positive."""
    with pytest.raises(WeightMismatch, match=message):
        weights_from_json(LINF2, data)


def test_associated_norm_hand_values():
    assert associated_norm(LINF2, ONES, [3, -4]) == 7.0
    assert associated_norm(LINF2, ONES, [0, 0]) == 0.0
    w = Weights(alphas=np.array([0.5, 0.25]))
    assert associated_norm(L12, w, [2, 0]) == 1.5


def test_associated_norm_bounded_by_weighted_norm():
    rng = np.random.default_rng(4)
    for s in (LINF2, L12, random_space(3, 5, seed=6)):
        w = geometric_weights(s)
        pts = rng.normal(size=(300, s.dim))
        for p in pts:
            assert associated_norm(s, w, p) <= norm(s, p) * w.total + 1e-12


# --- betweenness -------------------------------------------------------------


def test_is_between_hand_cases():
    assert is_between(LINF2, ONES, [0, 0], [1, 0.5], [2, 1])
    assert not is_between(LINF2, ONES, [0, 0], [0, 5], [2, 1])
    assert is_between(LINF2, ONES, [0, 0], [0, 0], [2, 1])


def test_midpoint_always_between():
    rng = np.random.default_rng(5)
    for s in (LINF2, L12, random_space(2, 4, seed=3)):
        w = geometric_weights(s)
        for _ in range(50):
            x, y = rng.uniform(-4, 4, s.dim), rng.uniform(-4, 4, s.dim)
            mid = 0.5 * (x + y)
            assert betweenness_defect(s, w, x, mid, y) <= 1e-12


def test_between_equiv_no_disagreements():
    for s in (builtin("linf", 3), L12):
        rep = between_equiv_check(s, geometric_weights(s), trials=2000, seed=17)
        assert rep.counts["disagreements"] == 0, rep.disagreements[:3]


@pytest.mark.parametrize("trials", [0, -3])
def test_between_equiv_needs_a_trial(trials):
    """Zero trials passed with no triple checked, and so did run_verify."""
    with pytest.raises(ValueError, match=f"at least 1 trial, got {trials}$"):
        between_equiv_check(LINF2, geometric_weights(LINF2), trials=trials, seed=0)

def test_between_equiv_degenerate_pair():
    """With x = y all three betweenness readings collapse to z = x."""
    from sunlab import interval, interval_contains

    w = geometric_weights(LINF2)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 2)
    box = interval(LINF2, x, x)
    for z in (x, x + [0.5, 0.0], rng.uniform(-1, 1, 2)):
        in_slab = interval_contains(box, z)
        in_assoc = is_between(LINF2, w, x, z, x)
        vals = np.abs((np.asarray(z) - x) @ LINF2.representatives.T)
        in_funcs = bool(vals.max() <= 1e-9)
        assert in_slab == in_assoc == in_funcs


# --- monotone paths ----------------------------------------------------------


def test_path_collinear_goes_through_middle():
    cloud = PointCloud([[0, 0], [1, 0], [2, 0]])
    p = monotone_path(LINF2, ONES, cloud, [0, 0], [2, 0])
    assert not isinstance(p, PathNotFound)
    assert np.array_equal(p.points, [[0, 0], [1, 0], [2, 0]])
    assert p.length == 2.0
    assert p.defect == 0.0
    assert p.monotone


def test_path_forms_the_cloud_values_once():
    """The verdicts are read off the cloud's block at the route's columns,
    with no second product over the path's points."""
    s = random_space(2, 5, seed=4)
    cloud = PointCloud(np.random.default_rng(3).uniform(-1, 1, size=(120, 2)))
    with (
        mock.patch.object(metric, "_values", wraps=metric._values) as values,
        mock.patch.object(metric, "_verdicts", wraps=metric._verdicts) as verdicts,
    ):
        p = monotone_path(s, geometric_weights(s), cloud, cloud.points[0], cloud.points[1], hop=0.4)
    assert not isinstance(p, PathNotFound) and len(p.points) > 2
    assert values.call_count == 1 and values.call_args.args[1] is cloud.points
    assert np.array_equal(verdicts.call_args.args[0], s.representatives @ p.points.T)


def test_path_same_endpoint():
    cloud = PointCloud([[0, 0], [1, 0]])
    p = monotone_path(LINF2, ONES, cloud, [1, 0], [1, 0])
    assert p.length == 0.0 and len(p.points) == 1
    assert [v.label() for v in p.verdicts] == ["constant", "constant"]


def test_path_direct_edge_when_no_witness():
    cloud = PointCloud([[0, 0], [1, 1], [2, 0]])
    p = monotone_path(LINF2, ONES, cloud, [0, 0], [2, 0], eps=1e-9)
    assert not isinstance(p, PathNotFound)
    assert len(p.points) == 2
    assert p.length == 2.0


NAN, INF = float("nan"), float("inf")
LINE = PointCloud([[0, 0], [1, 0], [2, 0]])
GAPPED = PointCloud([[0, 0], [5, 0], [9, 3]])  # not m-connected: witness (0, 1)
BUMP = [[0, 0], [1, 1], [2, 0]]  # not monotone in the second coordinate
FAR = [[5, 5]] * 3  # every term at distance 5 from the limit 0


@pytest.mark.parametrize(
    "name, call",
    [
        ("tie_tol", lambda: project(LINF2, LINE, [0.5, 0.5], tie_tol=-1.0)),
        ("tie_tol", lambda: project(LINF2, LINE, [0.5, 0.5], tie_tol=INF)),
        ("adjacency_eps", lambda: m_connected(LINF2, GAPPED, adjacency_eps=NAN)),
        ("eps", lambda: monotone_path(LINF2, ONES, LINE, [0, 0], [2, 0], eps=-1.0)),
        ("hop", lambda: monotone_path(LINF2, ONES, LINE, [0, 0], [2, 0], hop=INF)),
        ("hop", lambda: monotone_path(LINF2, ONES, LINE, [0, 0], [2, 0], hop=-1.0)),
        ("tol", lambda: monotone_path(LINF2, ONES, LINE, [0, 0], [0, 0], tol=NAN)),
        ("tol", lambda: check_monotone(LINF2, BUMP, tol=INF)),
        ("tol", lambda: check_monotone(LINF2, LINE.points, tol=-1.0)),
        ("tol", lambda: seq_convergence_check(LINF2, ONES, FAR, [0, 0], NAN)),
        ("tol", lambda: seq_convergence_check(LINF2, ONES, FAR, [0, 0], INF)),
        ("tol", lambda: between_equiv_check(LINF2, ONES, 3, 0, tol=NAN)),
    ],
    ids=[
        "tie_tol-neg", "tie_tol-inf", "adjacency_eps-nan", "eps-neg", "hop-inf", "hop-neg",
        "tol-nan", "monotone-tol-inf", "monotone-tol-neg", "seq-tol-nan", "seq-tol-inf",
        "equiv-tol-nan",
    ],
)
def test_tolerances_must_be_finite_and_nonnegative(name, call):
    """A NaN adjacency_eps exempted every pair, so GAPPED passed, and a
    negative tie_tol kept no nearest point; an infinite tol called BUMP
    monotone, a negative one called a straight segment "none", and a NaN
    or infinite one reported FAR converged at index 0. Each bad value
    names its parameter."""
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative, got "):
        call()


def test_path_endpoint_must_be_member():
    cloud = PointCloud([[0, 0], [2, 0]])
    with pytest.raises(EndpointNotInCloud):
        monotone_path(LINF2, ONES, cloud, [0, 0], [1, 0])


@pytest.mark.parametrize(
    "x, y", [([0, 0], [1, 0]), ([1, 0, 0], [1, 0, 0])], ids=["2d-ends", "3d-ends"]
)
def test_path_cloud_must_match_the_space(x, y):
    """numpy's broadcast error (2-d ends) or matmul error (one 3-d end
    twice) reached the user instead."""
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    match = "^cloud dimension 3 does not match space dimension 2$"
    with pytest.raises(DimensionMismatch, match=match):
        monotone_path(LINF2, ONES, cloud, x, y)


@pytest.mark.parametrize("dst", [0, 1])
def test_path_rejects_duplicate_points_for_every_endpoint(dst):
    """A path from a point to itself returned before the cloud's points
    were checked for duplicates."""
    cloud = PointCloud([[0, 0], [1, 0], [0, 0]])
    with pytest.raises(DuplicatePoints, match="^points 0 and 2 coincide$"):
        monotone_path(LINF2, ONES, cloud, [0, 0], cloud.points[dst])


def test_path_hop_disconnects():
    cloud = PointCloud([[0, 0], [1, 1]])
    out = monotone_path(LINF2, ONES, cloud, [0, 0], [1, 1], hop=0.5)
    assert isinstance(out, PathNotFound)
    assert out.reason == "unreachable"


def test_path_slack_exceeded_reports_best_length():
    """(1, -1e-10) lies in the slab box of the ends at the default tol, so
    the route steps through it, but the detour is longer than eps."""
    cloud = PointCloud([[0, 0], [1, -1e-10], [2, 0]])
    out = monotone_path(LINF2, ONES, cloud, [0, 0], [2, 0], eps=1e-12, hop=1.8)
    assert isinstance(out, PathNotFound)
    assert out.reason == "slack_exceeded"
    assert out.best_length == 2.0000000002


def test_path_through_a_point_outside_the_box_is_unreachable():
    """The only route at this hop passes (1, 0.5), outside the slab box of
    the ends, so no monotone route exists; a shortest-path search reported
    the detour as slack_exceeded with best_length 3."""
    cloud = PointCloud([[0, 0], [1, 0.5], [2, 0]])
    out = monotone_path(LINF2, ONES, cloud, [0, 0], [2, 0], hop=1.8)
    assert isinstance(out, PathNotFound)
    assert (out.reason, out.best_length) == ("unreachable", None)


def test_path_without_hop_uses_direct_edge():
    cloud = PointCloud([[0, 0], [1, 0.5], [2, 0]])
    p = monotone_path(LINF2, ONES, cloud, [0, 0], [2, 0])
    assert not isinstance(p, PathNotFound)
    assert p.length == 2.0 and len(p.points) == 2


@pytest.mark.parametrize("dst", [2, 1])
def test_path_near_coincident_points(dst):
    """Points 1 and 2 lie within the slab tolerance of each other, so each
    is a witness for the other's steps; splitting must still terminate."""
    w = uniform_weights(LINF2)
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0 + 1e-12, 0.0]])
    p = monotone_path(LINF2, w, cloud, cloud.points[0], cloud.points[dst])
    assert not isinstance(p, PathNotFound)
    assert p.monotone
    assert np.array_equal(p.points[[0, -1]], cloud.points[[0, dst]])


@pytest.mark.parametrize("hop", [0.0, 2.0])
def test_path_rejects_points_at_distance_zero(hop):
    """The two points differ in their bytes, so require_unique passes, but
    half of the least subnormal rounds to a uniform-linf2 distance of 0."""
    cloud = PointCloud([[0.0, 0.0], [5e-324, 0.0], [1.0, 0.0]])
    cloud.require_unique()
    with pytest.raises(DuplicatePoints, match="distance 0"):
        monotone_path(LINF2, uniform_weights(LINF2), cloud, [0, 0], [1, 0], hop=hop)


def test_max_nn_distance_checks_weights_and_emptiness():
    """A one-point cloud has no neighbour, hence inf."""
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(WeightMismatch):
        max_nn_distance(LINF2, Weights(alphas=np.ones(3)), cloud)
    with pytest.raises(EmptyCloud):
        max_nn_distance(LINF2, ONES, PointCloud(np.zeros((0, 2))))
    assert max_nn_distance(LINF2, ONES, PointCloud([[1.0, 2.0]])) == np.inf


@pytest.mark.parametrize("near", [[], [[0.0, 0.0], [1.0, 1.0]]], ids=["two", "five"])
def test_nearest_distances_where_the_sort_key_overflows(near):
    """Near the float limit the zero check's sort key, f_k plus a blend of
    the other functionals, overflows to inf, and an inf key less an
    infinite reach is NaN. Such a window starts at the first point, so every
    point still finds its nearest, d / 2 away under uniform weights. With
    two points the NaN start once left each window empty."""
    top = [[1.796e308, 1.796e308], [1.795e308, 1.796e308], [1.796e308, 1.795e308]]
    cloud = PointCloud(top[: 3 if near else 2] + near)
    w = uniform_weights(LINF2)
    d = 1.796e308 - 1.795e308
    with np.errstate(over="ignore", invalid="ignore"):
        assert max_nn_distance(LINF2, w, cloud) == d / 2
        assert monotone_path(LINF2, w, cloud, top[0], top[1], hop=d).length == d / 2


def test_path_at_hop_0_needs_no_quadratic_memory():
    """Corner to corner on a 41 x 41 net at hop 0, where a shortest-path
    search on the complete hop graph peaked at 122 MB."""
    ticks = np.arange(41) / 40.0
    net = PointCloud(np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2))
    tracemalloc.start()
    try:
        p = monotone_path(LINF2, geometric_weights(LINF2), net, [0, 0], [1, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not isinstance(p, PathNotFound) and len(p.points) == 81
    assert peak < 16 * 2**20


# --- monotonicity verdicts ---------------------------------------------------


def test_check_monotone_hand_paths():
    path = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
    assert all(v.monotone for v in check_monotone(LINF2, path))

    bump = np.array([[0, 0], [1, 1], [2, 0]], dtype=float)
    assert not all(v.monotone for v in check_monotone(LINF2, bump))
    # the same polyline is monotone under the l1(2) functionals
    assert all(v.monotone for v in check_monotone(L12, bump))


def test_check_monotone_labels():
    path = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
    labels = {v.functional: v.label() for v in check_monotone(LINF2, path)}
    assert labels == {0: "constant", 1: "nondecreasing"}


def test_check_monotone_reversal_same_verdict():
    rng = np.random.default_rng(12)
    for s in (LINF2, L12):
        for _ in range(20):
            pts = rng.uniform(-2, 2, size=(5, 2))
            fwd = [v.monotone for v in check_monotone(s, pts)]
            rev = [v.monotone for v in check_monotone(s, pts[::-1])]
            assert fwd == rev


def test_check_monotone_rejects_empty_and_nonfinite_paths():
    """An empty path failed with numpy's IndexError."""
    with pytest.raises(DimensionMismatch, match=r"^path points must form a nonempty \(m, 2\)"):
        check_monotone(LINF2, np.empty((0, 2)))
    with pytest.raises(DimensionMismatch, match="^path dimension 3 does not match space dim"):
        check_monotone(LINF2, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^vector coordinates must be finite$"):
        check_monotone(LINF2, [[0, 0], [np.nan, 1]])


def test_path_passes_check_monotone_within_scaled_slack():
    """A found path with slack eps stays monotone at tolerance eps/min(alpha)."""
    s = LINF2
    w = uniform_weights(s)
    step = 0.25
    xs = np.arange(0.0, 2.0 + step / 2, step)
    ys = np.arange(0.0, 1.0 + step / 2, step)
    net = PointCloud(
        np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    )
    eps = 1e-6
    p = monotone_path(s, w, net, [0, 0], [2, 1], eps=eps)
    assert not isinstance(p, PathNotFound)
    c = 1.0 / w.alphas.min()
    assert all(v.monotone for v in check_monotone(s, p, tol=c * eps))


# --- sequence convergence ----------------------------------------------------


def test_seq_alternating_converges_in_both_measures():
    # run far enough that both tails end well under tol: the associated tail
    # is twice the functional tail here, so the verdicts only agree once
    # 2/n is clear of the threshold
    n = np.arange(1, 2000)
    seq = np.stack([1.0 / n, ((-1.0) ** n) / n], axis=1)
    rep = seq_convergence_check(LINF2, ONES, seq, [0, 0], tol=1e-2)
    assert rep.assoc_converged and rep.funcs_converged and rep.agree
    assert rep.assoc_index is not None and rep.assoc_index >= rep.funcs_index


def test_seq_constant_settles_immediately():
    seq = np.tile([1.5, -0.5], (10, 1))
    rep = seq_convergence_check(LINF2, ONES, seq, [1.5, -0.5], tol=1e-9)
    assert rep.agree and rep.assoc_index == 0 and rep.funcs_index == 0


def test_seq_verdicts_differ_for_a_weakly_null_sequence():
    """The unit vectors of linf(16), taken in weight order, settle in the
    associated norm, whose geometric weights shrink along the sequence,
    while their sup norm stays 1."""
    s = builtin("linf", 16)
    rep = seq_convergence_check(s, geometric_weights(s), np.eye(16)[::-1], np.zeros(16), 1e-3)
    assert rep.assoc_converged and rep.assoc_index == 9
    assert rep.assoc_final == pytest.approx(1.5259e-5, rel=1e-4)
    assert not rep.funcs_converged and rep.funcs_final == 1.0
    assert not rep.agree


def test_seq_stuck_coordinate_fails_both():
    n = np.arange(1, 100)
    seq = np.stack([np.ones_like(n, dtype=float), 1.0 / n], axis=1)
    rep = seq_convergence_check(LINF2, ONES, seq, [0, 0], tol=1e-3)
    assert not rep.assoc_converged and not rep.funcs_converged and rep.agree
    assert rep.funcs_final >= 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_seq_nonfinite_terms_are_rejected(bad):
    """A NaN offset compares false against tol, and an inf coordinate times
    a zero functional entry is NaN, so such a sequence was reported as
    converged in both measures."""
    seq = np.full((5, 2), bad)
    with pytest.raises(ValueError, match="^vector coordinates must be finite$"):
        seq_convergence_check(LINF2, ONES, seq, [0, 0], tol=1e-3)


@pytest.mark.parametrize("seq", [np.empty((0, 2)), [1.0, 2.0]], ids=["empty", "1d"])
def test_seq_needs_a_nonempty_2d_sequence(seq):
    with pytest.raises(DimensionMismatch, match=r"^sequence points must form a nonempty \(m, 2\)"):
        seq_convergence_check(LINF2, ONES, seq, [0, 0], tol=1e-3)
