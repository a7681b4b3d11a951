"""Intervals and sampled ball hulls.

The interval of a pair (x, y) is the set of points whose value under every
functional lies between the values at x and y; with one slab per antipodal
pair it is a polytope in H-representation. The ball hull of {x, y} is the
intersection of all closed balls containing both; it is approximated from
outside by sampling admissible balls. In a polyhedral norm the intersection
of sampled balls is itself a slab polytope over the representatives, which
keeps membership queries cheap no matter how many balls were drawn.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .approx import _NEAREST_BUDGET, _nearest_blocks, _tie_threshold
from .cloud import PointCloud
from .errors import DimensionMismatch
from .space import (
    _TINY,
    _ULP,
    Space,
    _check_slack,
    _check_vector,
    _differences,
    _max_abs,
    _rep_mask,
    _sorted_bands,
    _values,
    norm,
    unit_ball_extents,
)

SLAB_TOL = 1e-10

# Most box x point x functional entries _slab_witnesses compares at once.
_WITNESS_BUDGET = 1 << 18

# Most row x point x neighbour entries one block of m_connected's pair
# scan holds.
_SCAN_BUDGET = 1 << 18

_GRID_DEFAULT = {1: 512, 2: 96, 3: 24}

# Columns of the reference, nearest in key order, whose distances bound a
# sliver point's nearest distance in _farthest_nearest.
_BOUND_NEIGHBOURS = 64


@dataclass(frozen=True, eq=False)
class SlabPolytope:
    """Conjunction of slabs lo_i <= f_i(z) <= hi_i over the representative
    functionals of a space."""

    space: Space
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != (self.space.n_pairs,) or hi.shape != lo.shape:
            raise DimensionMismatch("slab bounds must match the representative count")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        lo.setflags(write=False)
        hi.setflags(write=False)

    def contains(self, z, tol: float = SLAB_TOL) -> bool:
        vals = self.space.representatives @ _check_vector(self.space, z)
        return bool(_in_slabs(vals, self.lo, self.hi, tol))

    def contains_many(self, points: np.ndarray, tol: float = SLAB_TOL) -> np.ndarray:
        cols = _values(self.space, np.asarray(points, dtype=float))
        return _in_slabs(cols, self.lo, self.hi, tol)

    def to_json(self) -> dict:
        return {
            "slabs": [
                {"functional": i, "lo": float(a), "hi": float(b)}
                for i, (a, b) in enumerate(zip(self.lo, self.hi))
            ]
        }


def interval(s: Space, x, y) -> SlabPolytope:
    """The order interval of the pair {x, y}: one slab per antipodal pair."""
    vx = s.representatives @ _check_vector(s, x)
    vy = s.representatives @ _check_vector(s, y)
    return SlabPolytope(space=s, lo=np.minimum(vx, vy), hi=np.maximum(vx, vy))


def interval_contains(p: SlabPolytope, z, tol: float = SLAB_TOL) -> bool:
    """Slab membership; points on a face count as members."""
    return p.contains(z, tol=tol)


def _in_slabs(columns, lo, hi, tol: float = SLAB_TOL) -> np.ndarray:
    """Slab membership on representative values, functional-major: columns
    holds p equal-shape arrays, the values of functional i at every point,
    and lo and hi hold p bounds each, scalars or arrays that broadcast
    against a column. A point is inside when lo_i - tol <= c_i <= hi_i + tol
    for every i; the result has the shape of one column.

    The test runs one functional at a time and ANDs into one mask, as
    space._max_abs does for norms: reducing a short trailing axis of p
    values is the slowest way to reduce in numpy, and elementwise
    comparisons over long contiguous columns are not. Callers with many
    points therefore pass a contiguous (p, m) block; a single point passes
    its p values as scalars. Comparisons and & are exact and lo_i - tol is
    formed as in the row-wise formula, so the mask equals
    ((vals >= lo - tol) & (vals <= hi + tol)).all(axis=-1) bit for bit."""
    it = zip(columns, lo, hi)
    c, a, b = next(it)
    inside = c >= a - tol
    inside &= c <= b + tol
    for c, a, b in it:
        inside &= c >= a - tol
        inside &= c <= b + tol
    return inside


@dataclass(frozen=True, eq=False)
class HullApprox(SlabPolytope):
    """Outer approximation of the ball hull of {x, y} by sampled balls.

    Each ball is the slab polytope |f_i(z) - f_i(c)| <= r, so their
    intersection is one too: `hi[i]` is the min over balls of f_i(c) + r and
    `lo[i]` the max of f_i(c) - r. Centers are a seed-deterministic stream
    whose first three entries are x, y and the midpoint, and each radius is
    the smallest one admissible for its center, so refining n_balls keeps
    earlier balls.
    """

    centers: np.ndarray
    radii: np.ndarray
    n_balls: int

    @property
    def upper(self) -> np.ndarray:
        """The bound of each functional of the space, in the order of
        `space.functionals`: hi for a representative, -lo for its negation.
        The functionals are sorted and closed under negation, and negation
        reverses that order, so row i negates row k-1-i."""
        funcs = self.space.functionals
        rep = _rep_mask(funcs)
        out = np.empty(len(funcs))
        out[rep] = self.hi
        out[::-1][rep] = -self.lo
        return out


def ball_hull_outer(
    s: Space,
    x,
    y,
    n_balls: int = 2000,
    seed: int = 0,
) -> HullApprox:
    """Sample balls containing {x, y} and intersect them.

    The first three centers are x, y and the midpoint; the rest are drawn
    uniformly from the coordinate box of half-width `4 * ||x - y||` around
    the midpoint. Each ball gets the smallest admissible radius
    max(||c - x||, ||c - y||).

    Every ball is a slab polytope over the representatives that contains x
    and y, so it contains their interval, and so does the intersection: lo
    and hi never lie inside the interval bounds by more than rounding.
    m_connected's oracle relies on this (see _hull_slack). Near the float
    limit the box, the functional values or the bounds overflow (the width
    is a Python float, which overflows without a flag, and inf * 0 in the
    product is NaN); that raises ValueError.
    """
    vx = _check_vector(s, x)
    vy = _check_vector(s, y)
    if n_balls < 3:
        raise ValueError("n_balls must be at least 3 (the deterministic seeds)")
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * (vx + vy)
        width = 4.0 * norm(s, vx - vy)
        rng = np.random.default_rng(seed)
        centers = np.empty((n_balls, s.dim))
        centers[:3] = vx, vy, mid
        drawn = centers[3:]
        drawn[...] = rng.uniform(-1.0, 1.0, size=drawn.shape)
        drawn *= max(width, 0.0)
        drawn += mid
        reps = s.representatives
        # One row per representative, so that every reduction runs along the
        # balls; work holds one (p, n_balls) difference at a time.
        cols = _values(s, centers)
        work = np.empty_like(cols)
        radii = _max_abs(np.subtract(cols, (reps @ vx)[:, None], out=work))
        np.maximum(radii, _max_abs(np.subtract(cols, (reps @ vy)[:, None], out=work)), out=radii)
        lo = np.subtract(cols, radii, out=work).max(axis=1)
        hi = np.add(cols, radii, out=work).min(axis=1)
    # A non-finite centre makes its values, and so its radius, inf or NaN.
    if not (math.isfinite(radii.max()) and all(map(math.isfinite, lo.tolist() + hi.tolist()))):
        raise ValueError("the sampled balls overflow: the points are too far apart")
    return HullApprox(
        space=s,
        lo=lo,
        hi=hi,
        centers=centers,
        radii=radii,
        n_balls=n_balls,
    )


def _grid_resolution(s: Space, resolution: int | None = None) -> int:
    """Points per axis of a gap grid: the default for the dimension, or the
    given count, which must be at least 3. With 2 the grid is the corners of
    its box, which lie outside the midpoint ball and so outside both the
    interval and the hull: it would compare nothing and pass vacuously."""
    if s.dim not in _GRID_DEFAULT:
        raise DimensionMismatch(f"gap grids exist for dim <= 3 only, got dim {s.dim}")
    res = _GRID_DEFAULT[s.dim] if resolution is None else resolution
    if res < 3:
        raise ValueError(f"the gap grid needs at least 3 points per axis, got {res}")
    return res


def _gap_grid(s: Space, x: np.ndarray, y: np.ndarray, resolution: int, dist: float):
    """The gap grid of the pair, dist = norm(s, x - y) apart: its C-order
    (n, m) block of points (_grid_block), their (p, m) _values block and
    the largest axis step. Point j of the grid is column j of both blocks.
    Each axis spans the midpoint ball, which holds the interval and every
    sampled hull (it is one of the hull's balls), plus one step on each
    side."""
    mid = 0.5 * (x + y)
    r = 0.5 * dist
    axes = []
    for i, ext in enumerate(unit_ball_extents(s)):
        half = r * ext
        step = 2.0 * half / (resolution - 1)
        axes.append(np.linspace(mid[i] - half - step, mid[i] + half + step, resolution))
    grid = _grid_block(axes)
    return grid, _values(s, grid.T), max(float(a[1] - a[0]) for a in axes)


def _grid_block(axes: list[np.ndarray]) -> np.ndarray:
    """The product grid of the axes as a C-order (n, m) block, row i
    holding coordinate i of every point, the points in the order of
    np.meshgrid(*axes, indexing="ij") raveled (the last axis fastest). Each
    row is filled through one broadcast view of the grid's shape, so the
    block is a copy of the axis values, written once; the row form of a
    net is a C-order copy of its transpose."""
    shape = tuple(len(a) for a in axes)
    grid = np.empty((len(axes), math.prod(shape)))
    for i, (row, a) in enumerate(zip(grid, axes)):
        row.reshape(shape)[...] = a.reshape([-1 if k == i else 1 for k in range(len(shape))])
    return grid


def _farthest_nearest(q_cols: np.ndarray, cols: np.ndarray) -> tuple[float, int]:
    """The largest distance from a column of q_cols to the nearest column
    of cols, and the lowest index attaining it: the max and the argmax of
    every query's distance from approx._nearest_blocks, bit for bit,
    without measuring every query.

    Each query first gets a bound, its least distance to the
    _BOUND_NEIGHBOURS columns of cols nearest to it in the key order of
    _least_distance (the weights _key_weights). Those distances are entries
    of the query's brute-force row, formed by the same subtraction, abs and
    max, so the bound is at least the nearest distance, exactly. The
    queries are then measured by approx._nearest_blocks in order of
    decreasing bound, lower index first among equal bounds, until a block
    starts below the running maximum: no query after it can reach that
    maximum. A query whose bound equals the maximum is measured, as it may
    attain it at a lower index. _nearest_blocks gives a query the same
    distance in any block, so the result is the brute force's."""
    p, m = cols.shape
    weights = _key_weights(p)
    key = weights @ cols
    order = np.argsort(key, kind="stable")
    ref, key = cols[:, order], key[order]
    width = min(_BOUND_NEIGHBOURS, m)
    first = np.searchsorted(key, weights @ q_cols) - width // 2
    np.clip(first, 0, m - width, out=first)
    # Row j of band i is the window of functional i's sorted values that
    # starts at column j.
    bands = [np.lib.stride_tricks.sliding_window_view(r, width) for r in ref]
    bound = np.empty(q_cols.shape[1])
    step = max(1, _NEAREST_BUDGET // width)
    for start in range(0, bound.size, step):
        near = first[start : start + step]
        part = _max_abs(q[start : start + step, None] - b[near] for q, b in zip(q_cols, bands))
        bound[start : start + step] = part.min(axis=1)

    rank = np.argsort(-bound, kind="stable")
    best, arg = -np.inf, -1
    for start, d, _ in _nearest_blocks(q_cols[:, rank], cols):
        if bound[rank[start]] < best:
            break
        top = d.max()
        if top >= best:
            low = int(rank[start : start + d.size][d == top].min())
            arg = low if top > best else min(arg, low)
            best = top
    return float(best), arg


@dataclass(frozen=True)
class GapReport:
    """Grid comparison of a sampled hull against the interval of a pair."""

    pair: tuple[list, list]
    contained: bool
    gap: float
    witness: list | None
    step: float
    n_grid: int
    n_interval: int
    n_hull: int
    inclusion_witness: list | None = None


def hull_interval_gap(
    s: Space,
    x,
    y,
    n_balls: int = 2000,
    seed: int = 0,
    resolution: int | None = None,
    hull: HullApprox | None = None,
) -> GapReport:
    """Measure the one-sided Hausdorff gap from the sampled hull to the
    interval on a shared grid (the interval lies inside the hull, so the
    other side is zero; `contained` checks this at x and y, which is exact
    for two slab polytopes with the same normals). The grid has
    `resolution` points per axis, at least 3, with a per-dimension
    default."""
    vx = _check_vector(s, x)
    vy = _check_vector(s, y)
    res = _grid_resolution(s, resolution)
    box = interval(s, vx, vy)
    approx = hull if hull is not None else ball_hull_outer(s, vx, vy, n_balls=n_balls, seed=seed)
    # Both shapes are slab polytopes with the same normals, so the interval
    # lies in the hull iff its endpoints do.
    end_tol = SLAB_TOL * (1.0 + float(np.abs([box.lo, box.hi]).max()))
    outside = [p.tolist() for p in (vx, vy) if not approx.contains(p, tol=end_tol)]

    # Equal ends make both shapes one point, which the grid need not sample.
    gap, witness, step, n_grid, n_interval, n_hull = 0.0, None, 0.0, 1, 1, 1
    dist = norm(s, vx - vy)
    if dist != 0.0:
        grid, cols, step = _gap_grid(s, vx, vy, res, dist)
        in_box = _in_slabs(cols, box.lo, box.hi)
        in_hull = _in_slabs(cols, approx.lo, approx.hi)
        n_grid, n_interval, n_hull = grid.shape[1], int(in_box.sum()), int(in_hull.sum())
        sliver = np.flatnonzero(in_hull & ~in_box)
        if sliver.size:
            # Distance reference: interval grid points plus a dense segment
            # sample, so thin intervals that miss every grid node still have
            # a target.
            ts = np.linspace(0.0, 1.0, 257)[:, None]
            segment = vx[None, :] * (1.0 - ts) + vy[None, :] * ts
            reference = np.hstack([cols[:, in_box], _values(s, segment)])
            gap, k = _farthest_nearest(cols[:, sliver], reference)
            witness = grid[:, sliver[k]].tolist()

    return GapReport(
        pair=(vx.tolist(), vy.tolist()),
        contained=not outside,
        gap=gap,
        witness=witness,
        step=step,
        n_grid=n_grid,
        n_interval=n_interval,
        n_hull=n_hull,
        inclusion_witness=outside[0] if outside else None,
    )


@dataclass(frozen=True)
class MeiReport:
    """Aggregate of hull-vs-interval gaps over random pairs."""

    max_gap: float
    mean_gap: float
    worst: GapReport
    violations: list
    passed: bool


def mei_check(
    s: Space,
    trials: int,
    seed: int,
    n_balls: int = 2000,
) -> MeiReport:
    """Compare the sampled hull against the interval on random pairs.

    A trial counts as a violation when an end of the interval lies outside
    the sampled hull (never expected) or when the gap exceeds twice the grid
    step of that trial.
    """
    if trials < 1:
        raise ValueError(f"mei_check needs at least 1 trial, got {trials}")
    rng = np.random.default_rng(seed)
    reports: list[GapReport] = []
    violations: list[dict] = []
    for t in range(trials):
        x = rng.uniform(-1.0, 1.0, size=s.dim)
        y = rng.uniform(-1.0, 1.0, size=s.dim)
        rep = hull_interval_gap(s, x, y, n_balls=n_balls, seed=seed + 1 + t)
        reports.append(rep)
        if not rep.contained:
            violations.append({"trial": t, "kind": "inclusion", "witness": rep.inclusion_witness})
        elif rep.gap > 2.0 * rep.step:
            violations.append({"trial": t, "kind": "gap", "gap": rep.gap, "witness": rep.witness})
    gaps = [r.gap for r in reports]
    return MeiReport(
        max_gap=float(max(gaps)),
        mean_gap=float(np.mean(gaps)),
        worst=reports[int(np.argmax(gaps))],
        violations=violations,
        passed=not violations,
    )


@dataclass(frozen=True)
class MConnectReport:
    connected: bool
    witness: tuple[int, int] | None
    adjacency_eps: float
    pairs_checked: int
    pairs_exempt: int
    hull: str

    def to_json(self) -> dict:
        return {
            "m_connected": self.connected,
            "witness": list(self.witness) if self.witness else None,
            "adjacency_eps": self.adjacency_eps,
            "pairs_checked": self.pairs_checked,
            "pairs_exempt": self.pairs_exempt,
            "hull": self.hull,
        }


def _hull_slack(top: float, l1: float, dim: int) -> float:
    """How far the float bounds of ball_hull_outer(s, x, y), for any two
    rows x, y of a cloud and any seed and ball count, can lie inside the
    interval bounds min(c_i, c_j) and max(c_i, c_j) that m_connected's scan
    uses, c_i the column of point i in the product reps @ cloud.points.T
    (space._values). top is the cloud's largest |coordinate| X, l1 the
    largest l1-norm L of a representative, dim the dimension n; u = 2**-53.

    Take lo for a functional f (hi is symmetric). Let c be a centre, c' =
    fl(f(c)) its value from the product reps @ centers.T, x' = fl(f(x))
    from reps @ x, and r >= fl(|c' - x'|) its radius. Exactly, f(c) - r
    <= f(x) for each ball; in floats fl(|c' - x'|) >= |c' - x'| (1 - u), so
    c' - r <= x' + u |c' - x'| and lo = max fl(c' - r) <= x' + u (|c' - x'|
    + |c' - r|), and the same for y. Additions and subtractions are exact
    in the subnormal range, so this holds there too.

    x' and c_i are two dot products of f and x whose summation order
    BLAS picks (a matrix-vector and a matrix-matrix product); each lies
    within gamma_n L X of f(x), gamma_n = n u / (1 - n u), so they differ
    by at most 2 gamma_n L X, plus n 2**-1074 for products that underflow.

    The centres are x, y, the midpoint, all within X per coordinate, and
    points of the box of half-width 4 ||x - y|| <= 8 (1 + gamma_n) L X
    around the midpoint, so |c_k| <= C = (1 + 8L) X up to factors 1 + O(u).
    Then |c' - x'| <= L (C + X) and |c' - r| <= L (2C + X), whose sum is
    L X (5 + 24L). Together lo - min(c_i, c_j) <= u L X (5 + 24L + 2n), up
    to factors 1 + O(n u); the slack is twice that.

    Every magnitude ball_hull_outer forms is at most L X (3 + 16L) up to
    the same factors, below scale = L X (5 + 24L + 2n). When 2 scale
    overflows, so may the hull's own arithmetic, and the slack is inf: the
    oracle then certifies nothing and samples every pair."""
    scale = top * l1 * (5.0 + 24.0 * l1 + 2.0 * dim)
    if not math.isfinite(2.0 * scale):
        return math.inf
    return 2.0**-52 * scale + dim * 2.0**-1073


def _certified_tol(s: Space, cloud: PointCloud, tol: float) -> float:
    """The tolerance t of the oracle's interval scan: tol - _hull_slack for
    the cloud, rounded down so that tol - t >= slack exactly. Then lo - tol
    <= min - t for every sampled hull, and rounding is monotone, so a point
    the scan accepts, fl(min - t) <= v <= fl(max + t), also passes the
    hull's test fl(lo - tol) <= v <= fl(hi + tol)."""
    l1 = float(np.abs(s.representatives).sum(axis=1).max())
    slack = _hull_slack(float(np.abs(cloud.points).max()), l1, s.dim)
    return math.nextafter(tol - slack, -math.inf)


def _slab_witnesses(cols, lo, hi, ends, tol) -> np.ndarray:
    """For each box k, the lowest index of a column of cols (the cloud's
    p x m representative values), other than the two points ends[k], with
    lo[:, k] - tol <= cols <= hi[:, k] + tol; -1 if there is none. lo and
    hi are p x k. _in_slabs tests a block of boxes against every point, one
    functional at a time, with the m points along the innermost axis."""
    out = np.full(lo.shape[1], -1)
    step = max(1, _WITNESS_BUDGET // cols.size)
    for start in range(0, lo.shape[1], step):
        part = slice(start, start + step)
        inside = _in_slabs(cols, lo[:, part, None], hi[:, part, None], tol)
        inside[np.arange(inside.shape[0])[:, None], ends[part]] = False
        out[part] = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    return out


def _sup_rows(cols: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Sup distances from cloud points start..stop-1 to every point (cols
    is the p x m block of representative values), inf on the diagonal.
    |a - b| == |b - a| in IEEE arithmetic, so each entry equals the
    distance taken the other way round bit for bit."""
    d = _max_abs(_differences(cols[:, start:stop], cols))
    d[np.arange(stop - start), np.arange(start, stop)] = np.inf
    return d


@functools.cache
def _key_weights(p: int) -> np.ndarray:
    """The sort key weights of _least_distance for p functionals: 1 + k phi
    mod 1, phi the golden ratio, scaled to sum to less than 1."""
    raw = 1.0 + np.arange(p) * 0.6180339887498949 % 1.0
    return raw * ((1.0 - (p + 2) * _ULP) / raw.sum())


def _least_distance(cols: np.ndarray) -> float:
    """The least sup distance between two of the m >= 2 points whose (p, m)
    representative values are cols, min over i < j of d(i, j) = max_k
    |cols[k, i] - cols[k, j]|, the minimum of _sup_rows over all rows bit
    for bit; inf when every distance overflows. Only pairs that share a
    sorted window are measured.

    The points are sorted by the key g = c @ cols. The weights c are
    positive, spread by the golden ratio so that no two points of a grid
    tie, and their exact sum S is below 1: the factor 1 - (p + 2) 2**-52
    outweighs the roundings of forming c, below (p + 1) 2**-53. So |G(i) -
    G(j)| <= S D(i, j) <= D(i, j) for the exact key G and exact distance
    D, and no partial sum of a key exceeds the largest |value| X, so no key
    overflows. U, the least distance between neighbours in key order, is
    a pair's distance, so the least distance is at most U, and the pairs
    to measure beyond the neighbours are those with d(i, j) <= U. Each
    row's window holds the points after it whose key is at most its own
    plus reach = U + (p + 8) 2**-52 (X + U) + 4 p 2**-1074.

    The slack: with u = 2**-53, a rounded difference is exact or within a
    factor 1 + u, so D <= d (1 + 2u); a key's dot product lies within
    gamma_p X + p 2**-1074 of G (products may underflow), gamma_p <= (p +
    1) u. A pair with d <= U thus has |g(i) - g(j)| <= U (1 + 2u) + 2 (p +
    1) u X + 2 p 2**-1074, and reach exceeds that by more than the
    roundings of forming it and of key + reach, a few u (X + U). max and abs
    are exact and |a - b| = |b - a|, so each measured distance is the one
    _sup_rows gives, and the minimum is the same.

    The windows, beyond each row's neighbour, are offsets 2 up to the
    reach relative to their rows, read as bands by space._sorted_bands: the
    entries a band holds outside a window are still pairs of the cloud, or
    inf."""
    p, m = cols.shape
    _, key, sub, bands = _sorted_bands(cols, _key_weights(p) @ cols)
    step = sub[:, 1:] - sub[:, :-1]
    best = float(np.abs(step, out=step).max(axis=0).min())
    reach = best + (p + 8) * _ULP * (float(np.abs(cols).max()) + best) + 4 * p * _TINY
    hi = np.searchsorted(key, key + reach, "right") - np.arange(m)
    if hi.max() <= 2:
        return best
    for r0, r1, _, band in bands(np.full(m, 2), np.maximum(hi, 2, out=hi)):
        d = band - sub[:, r0:r1, None]
        best = min(best, float(np.abs(d, out=d).max(axis=0).min(initial=np.inf)))
    return best


def _neighbour_count(dim: int) -> int:
    """How many nearest points of row i m_connected tries as witnesses of
    the pairs (i, j) before the kernel: every neighbour of a point of a
    linf(dim) grid, all at one distance, up to the 26 of linf(3)."""
    return min(3**dim, 27) - 1


def _near_hits(cols: np.ndarray, near: np.ndarray, start: int, stop: int, tol: float) -> np.ndarray:
    """For rows i in start..stop-1 and columns j in start+1..m-1, whether
    a candidate near[:, i - start] other than i and j lies in the interval
    of (i, j). It is tested one functional at a time with the kernel's own
    inequality lo - tol <= v <= hi + tol, lo and hi taken exactly, so a hit
    is a real witness."""
    m = cols.shape[1]
    ok = near[:, :, None] != np.arange(start + 1, m)
    ok &= (near != np.arange(start, stop))[:, :, None]
    for col in cols:
        a, b = col[start:stop, None], col[start + 1 :]
        v = col[near][:, :, None]
        ok &= np.minimum(a, b) - tol <= v
        ok &= v <= np.maximum(a, b) + tol
    return ok.any(axis=0)


def m_connected(
    s: Space,
    cloud: PointCloud,
    hull: str = "interval",
    adjacency_eps: float | None = None,
    n_balls: int = 2000,
    seed: int = 0,
) -> MConnectReport:
    """Scale-relative Menger connectedness of a finite cloud.

    Every pair must have a third cloud point inside its hull, except pairs
    at distance at most eps + SLAB_TOL * (1 + eps), eps = adjacency_eps: a
    finite sample cannot refine below its own resolution, the default eps
    is that resolution (the minimal pairwise distance), and SLAB_TOL
    exempts spacings that exceed eps only by rounding, as in an np.arange
    grid. A two-point cloud never qualifies; adjacency_eps=0 gives the
    literal definition. hull="interval" tests the slab interval, "oracle"
    the sampled ball hull.

    The default eps comes from _least_distance, without an all-pairs
    pass: the points are sorted by a positively weighted sum of their
    values, which two points at distance d differ in by at most d, so
    only the pairs whose sums lie within the least distance between
    neighbours in that order, plus a proven rounding slack, are measured.
    Each is measured as _sup_rows measures it, and max and abs are exact,
    so eps is the least of all pairwise distances bit for bit.

    The scan visits the pairs (i, j), i < j, in row-major order, in blocks
    of 1, 2, 4, ... rows up to _SCAN_BUDGET row x point x neighbour
    entries, so a gap in row 0 costs one row. A block computes its rows'
    sup distances once and keeps the pairs farther apart than the
    exemption limit. Each row's nearest other points are tried as
    witnesses first, and only the pairs they miss go to the kernel, in one
    call per block. The oracle runs the same interval scan at
    _certified_tol, SLAB_TOL minus _hull_slack: every sampled ball contains
    the interval, so a witness there is a witness of the sampled hull at
    SLAB_TOL. It samples the hull of (i, j) with seed + i*m + j only for
    pairs without a certified interval witness, one pair at a time in
    row-major order, and none after the first gap. The report is the one a
    pair-by-pair scan gives.
    """
    cloud.require_nonempty()
    cloud.require_unique()
    if hull not in ("interval", "oracle"):
        raise ValueError("hull must be 'interval' or 'oracle'")
    if hull == "oracle" and n_balls < 3:
        raise ValueError("n_balls must be at least 3 (the deterministic seeds)")
    if adjacency_eps is not None:
        _check_slack("adjacency_eps", adjacency_eps)
    cloud.require_dim(s.dim)
    m = len(cloud)
    if m == 1:
        return MConnectReport(True, None, 0.0, 0, 0, hull)
    k = min(_neighbour_count(s.dim), m - 1)
    width = max(1, _SCAN_BUDGET // (m * k))
    # Overflow raises here instead of warning: inf values give NaN distances,
    # and an inf or NaN eps exempts every pair, so the cloud would pass
    # unchecked.
    with np.errstate(over="ignore"):
        cols = _values(s, cloud.points)
        if not np.isfinite(cols).all():
            raise ValueError("the cloud's functional values overflow")
        if adjacency_eps is None:
            eps = _least_distance(cols)
        else:
            eps = float(adjacency_eps)
    if not math.isfinite(eps):
        raise ValueError("the cloud's least sup distance overflows")
    if m == 2:
        return MConnectReport(False, (0, 1), eps, 1, 0, hull)

    scan_tol = SLAB_TOL if hull == "interval" else _certified_tol(s, cloud, SLAB_TOL)

    def first_gap(ends, dist, far, start, stop):
        """Index in ends of the block's first pair without a witness, or -1."""
        near = np.argpartition(dist, k - 1, axis=1)[:, :k].T
        miss = np.flatnonzero(~_near_hits(cols, near, start, stop, scan_tol)[far])
        pairs = ends[miss]
        v = cols[:, pairs]
        found = _slab_witnesses(cols, v.min(2), v.max(2), pairs, scan_tol)
        for g in miss[found < 0].tolist():
            if hull == "interval":
                return g
            i, j = ends[g].tolist()
            box = ball_hull_outer(s, cloud.points[i], cloud.points[j], n_balls, seed + i * m + j)
            lo, hi = box.lo[:, None], box.hi[:, None]
            if _slab_witnesses(cols, lo, hi, ends[g : g + 1], SLAB_TOL)[0] < 0:
                return g
        return -1

    checked = 0
    limit = _tie_threshold(eps, SLAB_TOL)
    start, rows = 0, 1
    while start < m - 1:
        stop = min(start + rows, m - 1)
        dist = _sup_rows(cols, start, stop)
        far = dist[:, start + 1 :] > limit
        far &= np.arange(start + 1, m) > np.arange(start, stop)[:, None]
        r, c = np.nonzero(far)
        ends = np.stack([start + r, start + 1 + c], axis=1)
        g = first_gap(ends, dist, far, start, stop)
        if g >= 0:
            i, j = ends[g].tolist()
            checked += g + 1
            visited = i * (m - 1) - i * (i - 1) // 2 + j - i
            return MConnectReport(False, (i, j), eps, checked, visited - checked, hull)
        checked += len(ends)
        start, rows = stop, min(2 * rows, width)
    return MConnectReport(True, None, eps, checked, m * (m - 1) // 2 - checked, hull)


def slab_vertices_2d(p: SlabPolytope) -> np.ndarray:
    """Vertices of a 2d slab polytope, ordered counterclockwise.

    Intersects all pairs of face lines and keeps the points feasible up to
    1e-9; degenerate polytopes come back as a segment (2 points), a point
    (1) or empty (0).
    """
    if p.space.dim != 2:
        raise DimensionMismatch("vertex enumeration is implemented for dim 2 only")
    lines: list[tuple[np.ndarray, float]] = []
    for f, a, b in zip(p.space.representatives, p.lo, p.hi):
        lines.append((f, b))
        lines.append((-f, -a))
    pts = []
    for (a1, b1), (a2, b2) in itertools.combinations(lines, 2):
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if abs(det) < 1e-14:
            continue
        z = np.array(
            [
                (b1 * a2[1] - b2 * a1[1]) / det,
                (a1[0] * b2 - a2[0] * b1) / det,
            ]
        )
        if p.contains(z, tol=1e-9):
            pts.append(z)
    if not pts:
        return np.empty((0, 2))
    arr = np.unique(np.round(np.asarray(pts), decimals=9), axis=0)
    if arr.shape[0] <= 2:
        return arr
    c = arr.mean(axis=0)
    ang = np.arctan2(arr[:, 1] - c[1], arr[:, 0] - c[0])
    return arr[np.argsort(ang)]
