"""Dense references for the path, distance, duplicate-row and sun
certificate kernels, for tests only.

assoc_dist_matrix is the full associated-distance matrix, one row dot
product per point pair. dijkstra_path is the search monotone_path ran
before its reachability sweep: scipy's Dijkstra on the hop graph of the
whole cloud (every pair at distance <= hop, every pair at hop 0), built
from the dense matrix, then the predecessor walk and the same
refinement, length check and verdicts. nearest is every block of
approx._nearest_blocks, the brute-force scan that the hull gap's bounded
search (hull._farthest_nearest) skips most of. first_rows is the kernel
space._first_rows ran before it sorted hashes: np.unique on each folded
row viewed as one void scalar, a stable byte-compare sort. ray_certificate
is the sun certificate as an O(m p) pass over the cloud: the minimum over
the cloud points of the maximum over the active functionals, which
approx._ray_certificates bounds from below in O(p) per candidate.
"""

import functools

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from sunlab import Path, PathNotFound
from sunlab.approx import _nearest_blocks, _ray_directions
from sunlab.metric import BETWEEN_TOL, _pair_dists, _split_steps, _verdicts
from sunlab.space import _values


def first_rows(rows):
    """For each row, the index of the first row with the same bytes, with
    -0.0 read as 0.0. The void view needs C-order rows, and np.where keeps
    the layout of rows, so the folded copy is made contiguous first.
    np.unique sorts stably when asked for indices, so it returns first
    occurrences."""
    m, width = rows.shape
    if width == 0:  # no void view of zero bytes; every empty row matches row 0
        return np.zeros(m, dtype=np.intp)
    folded = np.ascontiguousarray(np.where(rows == 0.0, 0.0, rows))
    keys = folded.view(np.dtype((np.void, folded.itemsize * width))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse]


def nearest(q_cols, cols):
    """For each column of q_cols, the max-norm distance to the nearest
    column of cols and the lowest index attaining it."""
    k = q_cols.shape[1]
    dist = np.empty(k)
    arg = np.empty(k, dtype=int)
    for start, d, a in _nearest_blocks(q_cols, cols):
        dist[start : start + len(d)] = d
        arg[start : start + len(a)] = a
    return dist, arg


def ray_certificate(reps, cols, idx, vx, vy, margin):
    """min over the cloud points u of g(u) = max over the active i of
    sgn(b_i) (f_i(y) - f_i(u)), for the candidate vy = cloud row idx of
    query vx, with b = F(x - y) and cols the cloud's (p, m) functional
    values; i is active when |b_i| is within margin of max |b|. Exactly,
    g(u) is the limit of ||z - u|| - ||z - y|| along the ray z = y + lam
    (x - y)."""
    b = _ray_directions(reps, vx, vy[None, :])[0]
    a = np.abs(b)
    active = np.flatnonzero(a >= a.max() - margin).tolist()
    g = functools.reduce(np.maximum, (np.sign(b[i]) * (cols[i, idx] - cols[i]) for i in active))
    # A zero minimum carries the sign of whichever zero the reduction kept;
    # adding 0.0 makes it +0.0 and leaves every other value as it is.
    return float(g.min()) + 0.0


def assoc_dist_matrix(s, w, cloud) -> np.ndarray:
    """The rows are a C-order copy: a matrix-vector product on a strided
    array may sum in another order."""
    cloud.require_dim(s.dim)
    vals = np.ascontiguousarray(_values(s, cloud.points).T)
    return np.array([np.abs(vals - v) @ w.alphas for v in vals])


def dijkstra_path(s, w, cloud, ix, iy, eps=None, hop=0.0, tol=BETWEEN_TOL):
    """A shortest path from point ix to point iy; the cloud must have no two
    points at distance 0, which the dense graph cannot tell from no edge."""
    dist = assoc_dist_matrix(s, w, cloud)
    keep = ~np.eye(len(cloud), dtype=bool) & ((dist <= hop) if hop > 0.0 else True)
    cols = _values(s, cloud.points)
    target = float(_pair_dists(cols, w.alphas, [ix], [iy])[0])
    eps = 1e-6 * target if eps is None else eps
    # A dense graph would go through np.ma.masked_values, which drops
    # distances within 1e-8 of 0 as missing edges.
    graph = csr_matrix(np.where(keep, dist, 0.0))
    lengths, pred = dijkstra(graph, directed=False, indices=ix, return_predecessors=True)
    if not np.isfinite(lengths[iy]):
        return PathNotFound(reason="unreachable", target=target, eps=eps, hop=hop)
    order = [iy]
    while order[-1] != ix:
        order.append(int(pred[order[-1]]))
    order = _split_steps(cols, order[::-1], tol)
    length = float(np.cumsum(_pair_dists(cols, w.alphas, order[:-1], order[1:]))[-1])
    if length > target + eps:
        return PathNotFound(
            reason="slack_exceeded", target=target, eps=eps, hop=hop, best_length=length
        )
    pts = cloud.points[order]
    return Path(pts, length, target, length - target, _verdicts(_values(s, pts), tol))
