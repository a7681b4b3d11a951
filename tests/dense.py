"""Dense references for the path kernels, for tests only.

assoc_dist_matrix is the full associated-distance matrix, one row dot
product per point pair. dijkstra_path is the search monotone_path ran
before its reachability sweep: scipy's Dijkstra on the hop graph of the
whole cloud (every pair at distance <= hop, every pair at hop 0), built
from the dense matrix, then the predecessor walk and the same
refinement, length check and verdicts.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from sunlab import Path, PathNotFound
from sunlab.metric import BETWEEN_TOL, _pair_dists, _split_steps, _verdicts
from sunlab.space import _values


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
    return Path(pts, length, target, length - target, _verdicts(s, pts, tol))
