import numpy as np
import pytest

from sunlab import (
    DuplicatePoints,
    EndpointNotInCloud,
    PathNotFound,
    PointCloud,
    WeightMismatch,
    Weights,
    associated_norm,
    between_equiv_check,
    betweenness_defect,
    betweenness_graph,
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
        for p in pts[:5]:
            assert associated_norm(s, w, p) <= norm(s, p) * w.total + 1e-12
        from sunlab import associated_norms, norms

        assert np.all(associated_norms(s, w, pts) <= norms(s, pts) * w.total + 1e-12)


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


# --- betweenness graph -------------------------------------------------------


def test_graph_collinear_weights():
    g = betweenness_graph(LINF2, ONES, PointCloud([[0, 0], [1, 0], [2, 0]]))
    weights = sorted(round(w, 9) for _, _, w in g.edges())
    assert weights == [1.0, 1.0, 2.0]


def test_graph_unit_square_weights():
    corners = PointCloud([[0, 0], [1, 0], [0, 1], [1, 1]])
    g = betweenness_graph(LINF2, ONES, corners)
    weights = sorted(round(w, 9) for _, _, w in g.edges())
    assert weights == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]


def test_graph_single_vertex():
    g = betweenness_graph(LINF2, ONES, PointCloud([[0.0, 0.0]]))
    assert g.edges() == []


def test_graph_eps_prunes_long_edges():
    g = betweenness_graph(LINF2, ONES, PointCloud([[0, 0], [1, 0], [2, 0]]), eps=1.5)
    assert sorted(round(w, 9) for _, _, w in g.edges()) == [1.0, 1.0]


def test_graph_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        betweenness_graph(LINF2, ONES, PointCloud([[0, 0], [0, 0]]))


# --- monotone paths ----------------------------------------------------------


def test_path_collinear_goes_through_middle():
    cloud = PointCloud([[0, 0], [1, 0], [2, 0]])
    p = monotone_path(LINF2, ONES, cloud, [0, 0], [2, 0])
    assert not isinstance(p, PathNotFound)
    assert np.array_equal(p.points, [[0, 0], [1, 0], [2, 0]])
    assert p.length == 2.0
    assert p.defect == 0.0
    assert p.monotone


def test_path_same_endpoint():
    cloud = PointCloud([[0, 0], [1, 0]])
    p = monotone_path(LINF2, ONES, cloud, [1, 0], [1, 0])
    assert p.length == 0.0 and len(p.points) == 1


def test_path_direct_edge_when_no_witness():
    cloud = PointCloud([[0, 0], [1, 1], [2, 0]])
    p = monotone_path(LINF2, ONES, cloud, [0, 0], [2, 0], eps=1e-9)
    assert not isinstance(p, PathNotFound)
    assert len(p.points) == 2
    assert p.length == 2.0


NAN, INF = float("nan"), float("inf")
LINE = PointCloud([[0, 0], [1, 0], [2, 0]])
GAPPED = PointCloud([[0, 0], [5, 0], [9, 3]])  # not m-connected: witness (0, 1)


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
    ],
    ids=[
        "tie_tol-neg", "tie_tol-inf", "adjacency_eps-nan", "eps-neg", "hop-inf", "hop-neg",
        "tol-nan",
    ],
)
def test_tolerances_must_be_finite_and_nonnegative(name, call):
    """A NaN adjacency_eps exempted every pair, so GAPPED passed, and a
    negative tie_tol kept no nearest point; each bad value names its
    parameter."""
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative, got "):
        call()


def test_path_endpoint_must_be_member():
    cloud = PointCloud([[0, 0], [2, 0]])
    with pytest.raises(EndpointNotInCloud):
        monotone_path(LINF2, ONES, cloud, [0, 0], [1, 0])


def test_path_hop_disconnects():
    cloud = PointCloud([[0, 0], [1, 1]])
    out = monotone_path(LINF2, ONES, cloud, [0, 0], [1, 1], hop=0.5)
    assert isinstance(out, PathNotFound)
    assert out.reason == "unreachable"


def test_path_slack_exceeded_reports_best_length():
    cloud = PointCloud([[0, 0], [1, 0.5], [2, 0]])
    out = monotone_path(LINF2, ONES, cloud, [0, 0], [2, 0], hop=1.8)
    assert isinstance(out, PathNotFound)
    assert out.reason == "slack_exceeded"
    assert out.best_length == 3.0


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


def test_path_calls_dijkstra_through_the_module(monkeypatch):
    """scipy is imported on first use, but `sunlab.metric.dijkstra` stays an
    attribute, and replacing it (perfbench times Dijkstra that way) takes
    effect in monotone_path."""
    from sunlab import metric

    calls = []
    scipy_dijkstra = metric.dijkstra

    def counted(*args, **kwargs):
        calls.append(kwargs["indices"])
        return scipy_dijkstra(*args, **kwargs)

    monkeypatch.setattr(metric, "dijkstra", counted)
    cloud = PointCloud([[0, 0], [1, 0], [2, 0]])
    p = monotone_path(LINF2, ONES, cloud, [0, 0], [2, 0])
    assert not isinstance(p, PathNotFound)
    assert calls == [0]


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


def test_seq_stuck_coordinate_fails_both():
    n = np.arange(1, 100)
    seq = np.stack([np.ones_like(n, dtype=float), 1.0 / n], axis=1)
    rep = seq_convergence_check(LINF2, ONES, seq, [0, 0], tol=1e-3)
    assert not rep.assoc_converged and not rep.funcs_converged and rep.agree
    assert rep.funcs_final >= 1.0
