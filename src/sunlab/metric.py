"""The weighted associated norm and everything built on it.

|x| = sum_i alpha_i |f_i(x)| over one representative per antipodal pair is a
norm whenever every alpha_i is positive, and |x| <= ||x|| * sum(alpha). Its
value is additive along a triple exactly when every functional value of z
sits between those of x and y, which ties metric betweenness to interval
membership and makes shortest paths in the weighted cloud graph discrete
surrogates for monotone geodesics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DimensionMismatch, DuplicatePoints, EndpointNotInCloud, WeightMismatch
from .hull import SLAB_TOL, _rep_values, _slab_witnesses
from .space import Space, _check_slack, _check_vector, unit_ball_extents

BETWEEN_TOL = 1e-9


def __getattr__(name: str):
    """`dijkstra` is scipy's, imported on first use: scipy.sparse takes
    about 0.2 s to import and only monotone_path needs it."""
    if name == "dijkstra":
        from scipy.sparse.csgraph import dijkstra

        return dijkstra
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, eq=False)
class Weights:
    """Positive finite weights, one per representative functional pair."""

    alphas: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.alphas, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise WeightMismatch("alphas must be a nonempty vector")
        if not np.all(arr > 0):
            raise WeightMismatch("all weights must be strictly positive")
        if not np.isfinite(arr).all():
            raise WeightMismatch("all weights must be finite")
        object.__setattr__(self, "alphas", arr)
        arr.setflags(write=False)

    @property
    def total(self) -> float:
        return float(self.alphas.sum())


def geometric_weights(s: Space) -> Weights:
    """alpha_i = 2^-i, normalized to sum exactly 1."""
    raw = 0.5 ** np.arange(1, s.n_pairs + 1)
    return Weights(alphas=raw / raw.sum())


def uniform_weights(s: Space) -> Weights:
    return Weights(alphas=np.full(s.n_pairs, 1.0 / s.n_pairs))


def weights_from_json(s: Space, data: dict) -> Weights:
    if "alphas" in data:
        return check_weights(s, Weights(alphas=np.asarray(data["alphas"], dtype=float)))
    scheme = data.get("scheme", "geometric")
    if scheme == "geometric":
        return geometric_weights(s)
    if scheme == "uniform":
        return uniform_weights(s)
    raise WeightMismatch(f"unknown weight scheme {scheme!r}")


def check_weights(s: Space, w: Weights) -> Weights:
    if w.alphas.shape != (s.n_pairs,):
        raise WeightMismatch(
            f"{w.alphas.size} weights for a space with {s.n_pairs} functional pairs"
        )
    return w


def associated_norm(s: Space, w: Weights, x) -> float:
    check_weights(s, w)
    return float(np.abs(s.representatives @ _check_vector(s, x)) @ w.alphas)


def associated_norms(s: Space, w: Weights, points: np.ndarray) -> np.ndarray:
    check_weights(s, w)
    pts = np.asarray(points, dtype=float)
    return np.abs(pts @ s.representatives.T) @ w.alphas


def betweenness_defect(s: Space, w: Weights, x, z, y) -> float:
    """|x-z| + |z-y| - |x-y|, always >= 0 up to rounding."""
    x = _check_vector(s, x)
    y = _check_vector(s, y)
    z = _check_vector(s, z)
    return (
        associated_norm(s, w, x - z)
        + associated_norm(s, w, z - y)
        - associated_norm(s, w, x - y)
    )


def is_between(s: Space, w: Weights, x, z, y, tol: float = BETWEEN_TOL) -> bool:
    """Metric betweenness in the associated norm."""
    return betweenness_defect(s, w, x, z, y) <= tol


@dataclass(frozen=True)
class EquivReport:
    """Outcome of the three-way betweenness equivalence suite."""

    trials: int
    seed: int
    tol: float
    disagreements: list
    counts: dict
    passed: bool


def between_equiv_check(
    s: Space,
    w: Weights,
    trials: int,
    seed: int,
    tol: float = BETWEEN_TOL,
) -> EquivReport:
    """Run three independent betweenness predicates on random triples.

    (a) slab membership of z in the interval of (x, y), (b) per-functional
    additivity of |f(x)-f(y)|, (c) additivity of the associated norm. The
    triples mix unconstrained points, exact segment points and points
    rejection-sampled inside the interval, so every predicate is exercised
    on both sides of its decision boundary.
    """
    check_weights(s, w)
    rng = np.random.default_rng(seed)
    n, reps, alphas = s.dim, s.representatives, w.alphas

    X = rng.uniform(-1.0, 1.0, size=(trials, n))
    Y = rng.uniform(-1.0, 1.0, size=(trials, n))
    Z = np.empty_like(X)
    mode = np.arange(trials) % 3

    # Mode 0: unconstrained draws from a box twice the pair's extent.
    m0 = mode == 0
    Z[m0] = rng.uniform(-2.0, 2.0, size=(int(m0.sum()), n))
    # Mode 1: exact segment points.
    m1 = mode == 1
    t = rng.uniform(0.0, 1.0, size=(int(m1.sum()), 1))
    Z[m1] = X[m1] * (1.0 - t) + Y[m1] * t
    VX = X @ reps.T
    VY = Y @ reps.T
    lo = np.minimum(VX, VY)
    hi = np.maximum(VX, VY)
    # Mode 2: rejection samples from the interval's coordinate box, 24 per
    # trial, falling back to the midpoint when no candidate lands inside.
    m2 = np.nonzero(mode == 2)[0]
    if m2.size:
        mid = 0.5 * (X[m2] + Y[m2])
        spread = np.max(np.abs((X[m2] - Y[m2]) @ reps.T), axis=1, keepdims=True)
        half = 0.5 * spread * unit_ball_extents(s)
        cand = mid[:, None] + rng.uniform(-1.0, 1.0, size=(m2.size, 24, n)) * half[:, None]
        vals = cand @ reps.T
        hits = ((vals >= lo[m2, None]) & (vals <= hi[m2, None])).all(axis=2)
        picked = cand[np.arange(m2.size), hits.argmax(axis=1)]
        Z[m2] = np.where(hits.any(axis=1)[:, None], picked, mid)

    VZ = Z @ reps.T
    in_a = np.logical_and((VZ >= lo - SLAB_TOL).all(axis=1), (VZ <= hi + SLAB_TOL).all(axis=1))
    defect_b = np.abs(VX - VZ) + np.abs(VZ - VY) - np.abs(VX - VY)
    in_b = np.max(defect_b, axis=1) <= tol
    defect_c = defect_b @ alphas
    in_c = defect_c <= tol

    bad = np.nonzero((in_a != in_b) | (in_b != in_c))[0]
    disagreements = [
        {
            "trial": int(i),
            "x": X[i].tolist(),
            "z": Z[i].tolist(),
            "y": Y[i].tolist(),
            "interval": bool(in_a[i]),
            "functional": bool(in_b[i]),
            "norm": bool(in_c[i]),
        }
        for i in bad[:32]
    ]
    return EquivReport(
        trials=trials,
        seed=seed,
        tol=tol,
        disagreements=disagreements,
        counts={
            "between": int(in_b.sum()),
            "not_between": int(trials - in_b.sum()),
            "disagreements": int(bad.size),
        },
        passed=bad.size == 0,
    )


@dataclass(frozen=True, eq=False)
class BetweennessGraph:
    """Weighted graph on a cloud under the associated norm.

    eps = 0 keeps the complete graph. eps > 0 drops every edge longer than
    eps, which is the hop bound used for epsilon-net geodesics.
    """

    cloud: PointCloud
    dist: np.ndarray
    adjacency: np.ndarray
    eps: float

    @property
    def n(self) -> int:
        return len(self.cloud)

    def edges(self) -> list[tuple[int, int, float]]:
        i, j = np.nonzero(np.triu(self.adjacency))
        return [(int(a), int(b), float(self.dist[a, b])) for a, b in zip(i, j)]


def _assoc_dist_matrix(s: Space, w: Weights, cloud: PointCloud) -> np.ndarray:
    vals = _rep_values(s, cloud)
    return np.array([np.abs(vals - v) @ w.alphas for v in vals])


def betweenness_graph(s: Space, w: Weights, cloud: PointCloud, eps: float = 0.0) -> BetweennessGraph:
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    check_weights(s, w)
    cloud.require_nonempty()
    cloud.require_unique()
    dist = _assoc_dist_matrix(s, w, cloud)
    if np.any((dist + np.eye(len(cloud))) <= 0.0):
        raise DuplicatePoints("cloud has points at associated-norm distance 0")
    adjacency = np.ones_like(dist, dtype=bool)
    np.fill_diagonal(adjacency, False)
    if eps > 0.0:
        adjacency &= dist <= eps
    return BetweennessGraph(cloud=cloud, dist=dist, adjacency=adjacency, eps=eps)


@dataclass(frozen=True)
class MonotoneVerdict:
    functional: int
    nondecreasing: bool
    nonincreasing: bool
    max_backstep: float

    @property
    def monotone(self) -> bool:
        return self.nondecreasing or self.nonincreasing

    def label(self) -> str:
        if self.nondecreasing and self.nonincreasing:
            return "constant"
        if self.nondecreasing:
            return "nondecreasing"
        if self.nonincreasing:
            return "nonincreasing"
        return "none"


def _verdicts(s: Space, pts: np.ndarray, tol: float) -> list[MonotoneVerdict]:
    vals = pts @ s.representatives.T
    span = np.abs(vals[-1] - vals[0])
    scale = tol * (1.0 + span)
    diffs = np.diff(vals, axis=0) if vals.shape[0] > 1 else np.zeros((1, vals.shape[1]))
    out = []
    for j in range(s.n_pairs):
        d = diffs[:, j]
        nd = bool(np.all(d >= -scale[j]))
        ni = bool(np.all(d <= scale[j]))
        # Violation against the better-fitting direction.
        worst = float(min(np.max(-d, initial=0.0), np.max(d, initial=0.0)))
        out.append(
            MonotoneVerdict(functional=j, nondecreasing=nd, nonincreasing=ni, max_backstep=worst)
        )
    return out


def check_monotone(s: Space, path, tol: float = BETWEEN_TOL) -> list[MonotoneVerdict]:
    """Per-functional monotonicity of a path, with backward slack scaled by
    1 + |f(endpoint difference)|. Verdicts are direction-symmetric, so
    reversing the path swaps nothing."""
    pts = np.asarray(getattr(path, "points", path), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != s.dim:
        raise DimensionMismatch("path points must be an (m, dim) array")
    return _verdicts(s, pts, tol)


@dataclass(frozen=True, eq=False)
class Path:
    """A polyline through cloud points with its computed verdicts."""

    points: np.ndarray
    length: float
    target: float
    defect: float
    verdicts: list[MonotoneVerdict]

    @property
    def monotone(self) -> bool:
        return all(v.monotone for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "length": self.length,
            "defect": self.defect,
            "monotone": {str(v.functional): v.label() for v in self.verdicts},
        }


@dataclass(frozen=True)
class PathNotFound:
    """Search outcome when no admissible path exists: either the endpoints
    are disconnected at this hop scale or every route exceeds the slack.
    best_length reports the shortest length seen so the caller can refine."""

    reason: str
    target: float
    eps: float
    hop: float
    best_length: float | None = None

    def to_json(self) -> dict:
        return {"found": False, **asdict(self)}


def monotone_path(
    s: Space,
    w: Weights,
    cloud: PointCloud,
    x,
    y,
    eps: float | None = None,
    hop: float = 0.0,
    refine: bool = True,
    tol: float = BETWEEN_TOL,
) -> Path | PathNotFound:
    """Shortest admissible path between two cloud points.

    Dijkstra runs on the cloud graph, where hop > 0 drops edges longer than
    hop: the epsilon-net regime, in which an unreachable endpoint means the
    set is not monotone path-connected at that scale. refine then splits
    each step at a cloud point in its slab interval (widened by tol), and
    the halves again, until no step skips an intermediary; no point enters
    the path twice, so at most m splits happen. Splitting keeps the length,
    since betweenness is exactly additivity of the associated norm. Success
    requires the length, summed left to right, to be <= |x - y| + eps, with
    eps defaulting to 1e-6 * |x - y|. eps, hop and tol must be finite and
    nonnegative.
    """
    if eps is not None:
        _check_slack("eps", eps)
    _check_slack("hop", hop)
    _check_slack("tol", tol)
    check_weights(s, w)
    cloud.require_nonempty()
    ix = cloud.index_of(x)
    iy = cloud.index_of(y)
    if ix is None or iy is None:
        raise EndpointNotInCloud("both path endpoints must belong to the cloud")
    if ix == iy:
        pts = cloud.points[[ix]]
        return Path(points=pts, length=0.0, target=0.0, defect=0.0, verdicts=_verdicts(s, pts, tol))

    graph = betweenness_graph(s, w, cloud, eps=hop)
    dist = graph.dist
    target = float(dist[ix, iy])
    eps_val = 1e-6 * target if eps is None else float(eps)

    from scipy.sparse import csr_matrix

    # Read through the module, so that a replaced `metric.dijkstra` is the
    # one called: perfbench's tracer times Dijkstra that way.
    from .metric import dijkstra

    weights = np.where(graph.adjacency, dist, 0.0)
    lengths, pred = dijkstra(
        csr_matrix(weights), directed=False, indices=ix, return_predecessors=True
    )
    if not np.isfinite(lengths[iy]):
        return PathNotFound(reason="unreachable", target=target, eps=eps_val, hop=hop)
    order = [iy]
    while order[-1] != ix:
        order.append(int(pred[order[-1]]))
    order.reverse()
    if refine:
        order = _split_steps(_rep_values(s, cloud), order, tol)
    length = float(np.cumsum(dist[order[:-1], order[1:]])[-1])
    if length > target + eps_val:
        return PathNotFound(
            reason="slack_exceeded", target=target, eps=eps_val, hop=hop, best_length=length
        )
    pts = cloud.points[order]
    return Path(
        points=pts,
        length=length,
        target=target,
        defect=length - target,
        verdicts=_verdicts(s, pts, tol),
    )


def _split_steps(vals: np.ndarray, order: list[int], tol: float) -> list[int]:
    """Split each step (u, nxt[u]) of a path at its witness from
    _slab_witnesses, and the new steps again. A witness already on the path
    (it has a successor or ends the path) is skipped."""
    nxt = np.full(len(vals), -1)
    nxt[order[:-1]] = order[1:]
    starts = np.asarray(order[:-1])
    while starts.size:
        ends = np.stack([starts, nxt[starts]], axis=1)
        found = _slab_witnesses(vals, vals[ends].min(1), vals[ends].max(1), ends, tol)
        new = (found >= 0) & (nxt[found] < 0) & (found != order[-1])
        z, first = np.unique(found[new], return_index=True)
        u = starts[new][first]
        nxt[z], nxt[u] = nxt[u], z
        starts = np.concatenate([u, z])
    out = [order[0]]
    while out[-1] != order[-1]:
        out.append(int(nxt[out[-1]]))
    return out


@dataclass(frozen=True)
class SeqReport:
    """Tail behaviour of a sequence against a limit, in two measures."""

    tol: float
    assoc_converged: bool
    funcs_converged: bool
    assoc_index: int | None
    funcs_index: int | None
    assoc_final: float
    funcs_final: float

    @property
    def agree(self) -> bool:
        return self.assoc_converged == self.funcs_converged


def _first_settled(tail: np.ndarray, tol: float) -> int | None:
    above = np.nonzero(tail > tol)[0]
    if above.size == 0:
        return 0
    idx = int(above[-1]) + 1
    return idx if idx < tail.size else None


def seq_convergence_check(s: Space, w: Weights, sequence, limit, tol: float) -> SeqReport:
    """Compare associated-norm convergence with per-functional convergence.

    The two measures are equivalent norms, so the boolean verdicts must
    agree for any sequence whose tail behaviour is not borderline at tol;
    the first settled indices differ by the weight scale and are reported
    for inspection.
    """
    check_weights(s, w)
    seq = np.asarray(sequence, dtype=float)
    lim = _check_vector(s, limit)
    if seq.ndim != 2 or seq.shape[1] != s.dim or seq.shape[0] == 0:
        raise DimensionMismatch("sequence must be a nonempty (N, dim) array")
    vals = np.abs((seq - lim) @ s.representatives.T)
    assoc_tail = vals @ w.alphas
    funcs_tail = vals.max(axis=1)
    ai = _first_settled(assoc_tail, tol)
    fi = _first_settled(funcs_tail, tol)
    return SeqReport(
        tol=tol,
        assoc_converged=ai is not None,
        funcs_converged=fi is not None,
        assoc_index=ai,
        funcs_index=fi,
        assoc_final=float(assoc_tail[-1]),
        funcs_final=float(funcs_tail[-1]),
    )
