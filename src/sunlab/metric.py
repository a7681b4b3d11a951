"""The weighted associated norm and everything built on it.

|x| = sum_i alpha_i |f_i(x)| over one representative per antipodal pair is a
norm whenever every alpha_i is positive, and |x| <= ||x|| * sum(alpha). Its
value is additive along a triple exactly when every functional value of z
sits between those of x and y, which ties metric betweenness to interval
membership: every monotone route from x to y has length |x - y|, so a
monotone path is found by reachability in the slab box of x and y.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DuplicatePoints, EndpointNotInCloud, WeightMismatch
from .hull import _in_slabs, _slab_witnesses
from .space import (
    _TINY,
    _ULP,
    Space,
    _check_points,
    _check_slack,
    _check_vector,
    _holds_non_numbers,
    _values,
    _window_blocks,
    norms,
    unit_ball_extents,
)

BETWEEN_TOL = 1e-9


def __getattr__(name: str):
    """`dijkstra` is scipy's, imported on first use. sunlab never calls it;
    perfbench's tracer wraps it by this name, and it goes when that stops."""
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
        bad = WeightMismatch("weights JSON 'alphas' must be an array of numbers")
        if _holds_non_numbers(data["alphas"]):
            raise bad
        try:
            alphas = np.asarray(data["alphas"], dtype=float)
        except (TypeError, ValueError):
            raise bad from None
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
    n, alphas = s.dim, w.alphas

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
    VX = _values(s, X)
    VY = _values(s, Y)
    lo = np.minimum(VX, VY)
    hi = np.maximum(VX, VY)
    # Mode 2: rejection samples from the interval's coordinate box, 24 per
    # trial, falling back to the midpoint when no candidate lands inside.
    m2 = np.nonzero(mode == 2)[0]
    if m2.size:
        mid = 0.5 * (X[m2] + Y[m2])
        spread = norms(s, X[m2] - Y[m2])[:, None]
        half = 0.5 * spread * unit_ball_extents(s)
        cand = mid[:, None] + rng.uniform(-1.0, 1.0, size=(m2.size, 24, n)) * half[:, None]
        cols = _values(s, cand.reshape(-1, n)).reshape(-1, m2.size, 24)
        hits = _in_slabs(cols, lo[:, m2, None], hi[:, m2, None], 0.0)
        picked = cand[np.arange(m2.size), hits.argmax(axis=1)]
        Z[m2] = np.where(hits.any(axis=1)[:, None], picked, mid)

    VZ = _values(s, Z)
    in_a = _in_slabs(VZ, lo, hi)
    defect_b = np.abs(VX - VZ) + np.abs(VZ - VY) - np.abs(VX - VY)
    in_b = defect_b.max(axis=0) <= tol
    in_c = alphas @ defect_b <= tol

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


def _pair_dists(cols, alphas, a, b) -> np.ndarray:
    """Associated distances of the point pairs (a[t], b[t]) of the (p, m)
    block cols, one row dot product each, as _sorted_windows' callers."""
    return np.abs(cols.T[b] - cols.T[a]) @ alphas


def _sorted_windows(cols, order, start, stop):
    """Yield blocks (rows, near, diff) over the points order[i] of the
    cloud with (p, m) representative values cols: rows and near are ranges
    of positions in order, and diff[r, c] holds the p differences
    f(order[near[c]]) - f(order[rows[r]]) in C order. Rows come in order,
    in the blocks of space._window_blocks over the rows' own windows
    [start, stop) of positions, each holding its row; near is the union of
    the block's windows."""
    sub = cols[:, order]
    for r0, r1, lo, hi in _window_blocks(start, stop):
        # One functional at a time: a broadcast over the short last axis
        # is several times slower.
        diff = np.empty((r1 - r0, hi - lo, sub.shape[0]))
        for j, col in enumerate(sub):
            np.subtract(col[lo:hi], col[r0:r1, None], out=diff[:, :, j])
        yield np.arange(r0, r1), np.arange(lo, hi), diff


def _nearest_dists(cols, alphas, reach=None) -> np.ndarray:
    """The associated distance from each point of the (p, m) block cols to
    its nearest other point, exact where it is at most reach and inf where
    no point is that near; reach defaults to the distance to a neighbour in
    the order by g, which bounds it. g is f_k, the functional of largest
    weight, plus a blend of the others, spread by the golden ratio so that
    no two points of a grid tie, and small enough that |g(i) - g(j)| <=
    d(i, j) / alpha_k. Each window is widened by a few ulps of the distance
    sum and of g, and by the p subnormals that a distance's products may
    lose to underflow: at reach 0, a point a subnormal away in g can still
    be at distance 0."""
    p, k = cols.shape[0], int(np.argmax(alphas))
    c = 2.0**-10 * alphas / alphas[k] * (1.0 + np.arange(p) * 0.6180339887498949 % 1.0)
    c[k] = 1.0
    order = np.argsort(c @ cols, kind="stable")
    if reach is None:
        steps = _pair_dists(cols, alphas, order[:-1], order[1:])
        reach = np.minimum(np.append(steps, np.inf), np.insert(steps, 0, np.inf))
    key = np.sort(c @ cols)
    reach = (reach + p * _TINY) / alphas[k] * (1.0 + (p + 8) * _ULP)
    slack = (p + 8) * _ULP * (c @ np.abs(cols[:, order]) + reach) + p * _TINY
    start = np.searchsorted(key, key - reach - slack, "left")
    stop = np.searchsorted(key, key + reach + slack, "right")
    if np.all(stop - start == 1):
        return np.full(order.size, np.inf)
    return np.concatenate([
        np.where(near == rows[:, None], np.inf, np.abs(diff, out=diff) @ alphas).min(axis=1)
        for rows, near, diff in _sorted_windows(cols, order, start, stop)
    ])


def _monotone_route(cols, alphas, ix: int, iy: int, hop: float, tol: float):
    """A monotone route from x = ix to y = iy through the points of the (p, m)
    block cols, as point indices, or None. The candidates are the points in
    the slab box of x and y (_in_slabs at tol). With s_k = sgn f_k(y - x),
    a step u -> v is admissible when s_k (f_k(v) - f_k(u)) >= -tol (1 +
    |f_k(y) - f_k(x)|) for every k, the slack of _verdicts, and its
    distance, a row dot product as in _pair_dists, is <= hop. At hop 0 the
    route is [x, y]. phi(v) = sum_k alpha_k s_k (f_k(v) - f_k(x)) orders
    the candidates, ties broken by index. A step rises in phi by at most
    its length, so the points that can step to v lie within hop of phi(v)
    before it, a window widened by ulps of hop and of the phi sums (each at
    most sum_k alpha_k (|f_k(y - x)| + tol)). The sweep visits the
    candidates in that order, in the blocks of _sorted_windows: v is
    reached when a reached point before it has an admissible step to it,
    and its predecessor is the first such point."""
    if hop == 0.0:
        return [ix, iy]
    p = cols.shape[0]
    span = cols[:, iy] - cols[:, ix]
    sign, back = np.sign(span), tol * (1.0 + np.abs(span))
    ends = cols[:, [ix, iy]]
    cand = np.flatnonzero(_in_slabs(cols, ends.min(axis=1), ends.max(axis=1), tol))
    phi = (sign * alphas) @ (cols[:, cand] - cols[:, [ix]])
    order, key = cand[np.argsort(phi, kind="stable")], np.sort(phi, kind="stable")
    reach = hop + (p + 8) * _ULP * (hop + 2.0 * (np.abs(span) + tol) @ alphas) + 4 * p * _TINY
    start = np.searchsorted(key, key - reach, "left")
    pred = {ix: -1}
    for rows, near, diff in _sorted_windows(cols, order, start, np.arange(1, order.size + 1)):
        # diff holds f(u) - f(v) for a step from u, a near point, to v, a row.
        ok = near < rows[:, None]
        for j in range(p):
            ok &= sign[j] * diff[:, :, j] <= back[j]
        ok &= np.abs(diff, out=diff) @ alphas <= hop
        # Steps by row, then in order: the first from a reached point wins.
        r, c = np.nonzero(ok)
        for v, u in zip(order[rows[r]].tolist(), order[near[c]].tolist()):
            if u in pred and v not in pred:
                pred[v] = u
    if iy not in pred:
        return None
    route = [iy]
    while route[-1] != ix:
        route.append(pred[route[-1]])
    return route[::-1]


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


def _verdicts(vals: np.ndarray, tol: float) -> list[MonotoneVerdict]:
    """The verdicts of a path from its (p, L) values; one point is constant."""
    scale = tol * (1.0 + np.abs(vals[:, -1] - vals[:, 0]))
    return [
        MonotoneVerdict(j, bool(np.all(d >= -c)), bool(np.all(d <= c)))
        for j, (d, c) in enumerate(zip(np.diff(vals, axis=1), scale))
    ]


def check_monotone(s: Space, path, tol: float = BETWEEN_TOL) -> list[MonotoneVerdict]:
    """Per-functional monotonicity of a path, with backward slack scaled by
    1 + |f(endpoint difference)|. Verdicts are direction-symmetric, so
    reversing the path swaps nothing. tol must be finite and nonnegative."""
    _check_slack("tol", tol)
    return _verdicts(_values(s, _check_points(s, getattr(path, "points", path), "path")), tol)


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
    """Search outcome when no admissible path exists: "unreachable" when no
    monotone route joins the ends at this hop, "slack_exceeded" when the
    route is longer than target + eps; best_length reports its length."""

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
    """A monotone path between two cloud points.

    _monotone_route finds a route of steps inside the slab box of x and y
    that rise, up to tol, in every functional x and y tell apart; hop > 0
    bounds the steps, the epsilon-net regime. refine then splits each step
    at a cloud point in its slab interval (widened by tol), and the halves
    again, until no step skips an intermediary; no point enters the path
    twice, so at most m splits happen. Splitting keeps the length, since
    betweenness is exactly additivity of the associated norm. Success
    requires the length, summed left to right, to be <= |x - y| + eps, with
    eps defaulting to 1e-6 * |x - y|. A cloud with two points at associated
    distance 0 is refused. eps, hop and tol must be finite and nonnegative.
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
    cols = _values(s, cloud.points)
    if ix == iy:
        return Path(cloud.points[[ix]], 0.0, 0.0, 0.0, _verdicts(cols[:, [ix]], tol))
    if _nearest_dists(cols, w.alphas, 0.0).min() <= 0.0:
        raise DuplicatePoints("cloud has points at associated-norm distance 0")
    target = float(_pair_dists(cols, w.alphas, [ix], [iy])[0])
    eps_val = 1e-6 * target if eps is None else float(eps)
    order = _monotone_route(cols, w.alphas, ix, iy, hop, tol)
    if order is None:
        return PathNotFound(reason="unreachable", target=target, eps=eps_val, hop=hop)
    if refine:
        order = _split_steps(cols, order, tol)
    length = float(np.cumsum(_pair_dists(cols, w.alphas, order[:-1], order[1:]))[-1])
    if length > target + eps_val:
        return PathNotFound(
            reason="slack_exceeded", target=target, eps=eps_val, hop=hop, best_length=length
        )
    return Path(
        points=cloud.points[order],
        length=length,
        target=target,
        defect=length - target,
        verdicts=_verdicts(cols[:, order], tol),
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
    vals = np.abs(_values(s, seq - lim))
    assoc_tail = w.alphas @ vals
    funcs_tail = vals.max(axis=0)
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
