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
from .errors import DuplicatePoints, EndpointNotInCloud, WeightMismatch
from .hull import _in_slabs, _slab_witnesses
from .space import Space, _check_points, _check_slack, _check_vector, _values, unit_ball_extents

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


def weights_from_json(s: Space, data) -> Weights:
    if not isinstance(data, dict):
        raise WeightMismatch("weights JSON needs an 'alphas' array or a 'scheme'")
    if "alphas" in data:
        try:
            alphas = np.asarray(data["alphas"], dtype=float)
        except (TypeError, ValueError):
            raise WeightMismatch("weights JSON 'alphas' must be an array of numbers") from None
        return check_weights(s, Weights(alphas=alphas))
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


def is_between(s: Space, w: Weights, x, z, y) -> bool:
    """Metric betweenness in the associated norm, up to BETWEEN_TOL."""
    return betweenness_defect(s, w, x, z, y) <= BETWEEN_TOL


@dataclass(frozen=True)
class EquivReport:
    """Outcome of the three-way betweenness equivalence suite."""

    trials: int
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
    on both sides of its decision boundary. tol must be finite and
    nonnegative.
    """
    _check_slack("tol", tol)
    check_weights(s, w)
    if trials < 1:
        raise ValueError(f"between_equiv_check needs at least 1 trial, got {trials}")
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
        cols = np.moveaxis(cand @ reps.T, -1, 0)
        hits = _in_slabs(cols, lo[m2].T[:, :, None], hi[m2].T[:, :, None], 0.0)
        picked = cand[np.arange(m2.size), hits.argmax(axis=1)]
        Z[m2] = np.where(hits.any(axis=1)[:, None], picked, mid)

    VZ = Z @ reps.T
    in_a = _in_slabs(VZ.T, lo.T, hi.T)
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
        disagreements=disagreements,
        counts={
            "between": int(in_b.sum()),
            "not_between": int(trials - in_b.sum()),
            "disagreements": int(bad.size),
        },
        passed=bad.size == 0,
    )


def _assoc_dist_matrix(s: Space, w: Weights, cloud: PointCloud) -> np.ndarray:
    """Dense associated distances, the reference for _hop_csr and
    max_nn_distance, one row dot product per point pair. The rows are a
    C-order copy: a matrix-vector product on a strided array may sum in
    another order."""
    cloud.require_dim(s.dim)
    vals = np.ascontiguousarray(_values(s, cloud.points).T)
    return np.array([np.abs(vals - v) @ w.alphas for v in vals])


# Point pairs per block of _sorted_windows (each holds p floats), and the
# pairs a block may add outside its rows' own windows: about what one more
# block costs in numpy calls.
_WINDOW_BUDGET = 2**17
_WINDOW_WASTE = 2**12
_ULP = np.finfo(float).eps


def _pair_dists(cols, alphas, a, b) -> np.ndarray:
    """Associated distances of the pairs (a[t], b[t]) of points of the
    (p, m) block cols, by the expression that _assoc_dist_matrix and
    _sorted_windows use: a dot product per row of the C-order array that
    fancy indexing returns."""
    return np.abs(cols.T[b] - cols.T[a]) @ alphas


def _sort_key(cols, alphas) -> tuple[int, np.ndarray]:
    """The functional k of largest weight and the cloud's order by f_k."""
    k = int(np.argmax(alphas))
    return k, np.argsort(cols[k], kind="stable")


def _sorted_windows(cols, alphas, k, order, reach):
    """Yield blocks (rows, near, d) with d[r, c] the associated distance of
    the points rows[r] and near[c], so that for every point i every j with
    d(i, j) <= reach[i] is among the near points of i's block; cols is the
    cloud's (p, m) block of representative values.

    d(i, j) >= alpha_k |f_k(i) - f_k(j)|, so those j lie within
    reach[i] / alpha_k of i in the order by f_k. The window is widened by a
    few ulps of the distance sum and of f_k, so that a rounded distance
    <= reach[i] is never left out; the caller filters on d itself. reach is
    per point in that order (or one value for all), inf for the whole cloud.
    Rows come in that order, in blocks of at most _WINDOW_BUDGET pairs and
    _WINDOW_WASTE pairs outside the rows' windows (one row at least); each
    block's near points are the union of its rows' windows, in index order.
    """
    p, m = cols.shape
    key = cols[k, order]
    reach = reach / alphas[k] * (1.0 + (p + 8) * _ULP)
    slack = 4 * _ULP * (np.abs(key) + reach)
    start = np.searchsorted(key, key - reach - slack, "left")
    stop = np.searchsorted(key, key + reach + slack, "right")
    widths = stop - start
    r0 = 0
    while r0 < m:
        end = r0 + max(1, _WINDOW_BUDGET // int(widths[r0]))
        span = np.maximum.accumulate(stop[r0:end]) - np.minimum.accumulate(start[r0:end])
        cost = span * np.arange(1, span.size + 1)
        waste = cost - np.cumsum(widths[r0:end])
        r1 = r0 + max(1, np.count_nonzero((cost <= _WINDOW_BUDGET) & (waste <= _WINDOW_WASTE)))
        rows = order[r0:r1]
        near = np.sort(order[start[r0:r1].min() : stop[r0:r1].max()])
        # One functional at a time: a broadcast over the short last axis
        # is several times slower.
        diff = np.empty((rows.size, near.size, p))
        for j, col in enumerate(cols):
            np.subtract(col[near], col[rows, None], out=diff[:, :, j])
        yield rows, near, np.abs(diff, out=diff) @ alphas
        r0 = r1


def _hop_csr(cols, alphas, hop: float):
    """The hop graph of the cloud with (p, m) representative values cols, as a
    canonical scipy CSR matrix: an edge of weight d(i, j) for every i != j
    with d(i, j) <= hop, or every i != j when hop is 0. Memory grows with
    the edges, not with m^2. Each distance is a row dot product with
    alphas, as in _assoc_dist_matrix, and matches it bit for bit as long as
    BLAS sums a row in the same order whatever the array's shape."""
    from scipy.sparse import csr_matrix

    m = cols.shape[1]
    k, order = _sort_key(cols, alphas)
    counts, indices, data = [], [], []
    for rows, near, d in _sorted_windows(cols, alphas, k, order, hop if hop > 0.0 else np.inf):
        keep = near != rows[:, None]
        if hop > 0.0:
            keep &= d <= hop
        counts.append(keep.sum(axis=1))
        indices.append(np.broadcast_to(near, d.shape)[keep])
        data.append(d[keep])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    graph = csr_matrix((np.concatenate(data), np.concatenate(indices), indptr), shape=(m, m))
    inv = np.empty_like(order)
    inv[order] = np.arange(m)
    return graph[inv]


@dataclass(frozen=True)
class MonotoneVerdict:
    functional: int
    nondecreasing: bool
    nonincreasing: bool

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
    return [
        MonotoneVerdict(
            functional=j,
            nondecreasing=bool(np.all(diffs[:, j] >= -scale[j])),
            nonincreasing=bool(np.all(diffs[:, j] <= scale[j])),
        )
        for j in range(s.n_pairs)
    ]


def check_monotone(s: Space, path, tol: float = BETWEEN_TOL) -> list[MonotoneVerdict]:
    """Per-functional monotonicity of a path, with backward slack scaled by
    1 + |f(endpoint difference)|. Verdicts are direction-symmetric, so
    reversing the path swaps nothing. tol must be finite and nonnegative."""
    _check_slack("tol", tol)
    return _verdicts(s, _check_points(s, getattr(path, "points", path), "path"), tol)


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
    set is not monotone path-connected at that scale. The graph is built
    sparse (_hop_csr), so memory grows with its edges. refine then splits
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
    cloud.require_dim(s.dim)
    ix = cloud.index_of(_check_vector(s, x))
    iy = cloud.index_of(_check_vector(s, y))
    if ix is None or iy is None:
        raise EndpointNotInCloud("both path endpoints must belong to the cloud")
    cloud.require_unique()
    if ix == iy:
        pts = cloud.points[[ix]]
        return Path(points=pts, length=0.0, target=0.0, defect=0.0, verdicts=_verdicts(s, pts, tol))

    cols = _values(s, cloud.points)
    graph = _hop_csr(cols, w.alphas, hop)
    if np.any(graph.data <= 0.0):
        raise DuplicatePoints("cloud has points at associated-norm distance 0")
    target = float(_pair_dists(cols, w.alphas, [ix], [iy])[0])
    eps_val = 1e-6 * target if eps is None else float(eps)

    # Read through the module, so that a replaced `metric.dijkstra` is the
    # one called: perfbench's tracer times Dijkstra that way.
    from .metric import dijkstra

    lengths, pred = dijkstra(graph, directed=False, indices=ix, return_predecessors=True)
    if not np.isfinite(lengths[iy]):
        return PathNotFound(reason="unreachable", target=target, eps=eps_val, hop=hop)
    order = [iy]
    while order[-1] != ix:
        order.append(int(pred[order[-1]]))
    order.reverse()
    if refine:
        order = _split_steps(cols, order, tol)
    length = float(np.cumsum(_pair_dists(cols, w.alphas, order[:-1], order[1:]))[-1])
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


def _split_steps(cols: np.ndarray, order: list[int], tol: float) -> list[int]:
    """Split each step (u, nxt[u]) of a path through the points of the
    (p, m) block cols at its witness from _slab_witnesses, and the new
    steps again. A witness already on the path (it has a successor or ends
    the path) is skipped."""
    nxt = np.full(cols.shape[1], -1)
    nxt[order[:-1]] = order[1:]
    starts = np.asarray(order[:-1])
    while starts.size:
        ends = np.stack([starts, nxt[starts]], axis=1)
        v = cols[:, ends]
        found = _slab_witnesses(cols, v.min(2), v.max(2), ends, tol)
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

    With sup the largest |f_i| of a term's offset from the limit, its
    associated value lies between min(alpha) * sup and sum(alpha) * sup. So
    when sum(alpha) <= 1 a tail settled in sup at tol is settled in the
    associated norm too, while a tail settled in the associated norm at tol
    is only known to be settled in sup at tol / min(alpha). The verdicts
    can differ: in linf(16) with geometric weights the unit vectors taken
    in weight order settle in the associated norm and keep sup 1. The first
    settled indices are reported for inspection. tol must be finite and
    nonnegative.
    """
    _check_slack("tol", tol)
    check_weights(s, w)
    seq = _check_points(s, sequence, "sequence")
    lim = _check_vector(s, limit)
    vals = np.abs((seq - lim) @ s.representatives.T)
    assoc_tail = vals @ w.alphas
    funcs_tail = vals.max(axis=1)
    ai = _first_settled(assoc_tail, tol)
    fi = _first_settled(funcs_tail, tol)
    return SeqReport(
        assoc_converged=ai is not None,
        funcs_converged=fi is not None,
        assoc_index=ai,
        funcs_index=fi,
        assoc_final=float(assoc_tail[-1]),
        funcs_final=float(funcs_tail[-1]),
    )
