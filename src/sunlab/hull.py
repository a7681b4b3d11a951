"""Intervals and sampled ball hulls.

The interval of a pair (x, y) is the set of points whose value under every
functional lies between the values at x and y; with one slab per antipodal
pair it is a polytope in H-representation. The ball hull of {x, y} is the
intersection of all closed balls containing both; it is approximated from
outside by sampling admissible balls. In a polyhedral norm the intersection
of sampled balls collapses exactly to one upper bound per functional, which
keeps membership queries cheap no matter how many balls were drawn.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .approx import _nearest, _tie_threshold
from .cloud import PointCloud
from .errors import DimensionMismatch
from .space import Space, _check_slack, _check_vector, _rep_mask, norm, unit_ball_extents

SLAB_TOL = 1e-10

# Most box x point x functional entries _slab_witnesses compares at once.
_WITNESS_BUDGET = 1 << 18

_GRID_DEFAULT = {1: 512, 2: 96, 3: 24}


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
        return bool(np.all(vals >= self.lo - tol) and np.all(vals <= self.hi + tol))

    def contains_many(self, points: np.ndarray, tol: float = SLAB_TOL) -> np.ndarray:
        vals = np.asarray(points, dtype=float) @ self.space.representatives.T
        return np.logical_and(
            (vals >= self.lo - tol).all(axis=1), (vals <= self.hi + tol).all(axis=1)
        )

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


@dataclass(frozen=True, eq=False)
class HullApprox:
    """Outer approximation of the ball hull of {x, y} by sampled balls.

    `upper[j]` is min over sampled balls of f_j(center) + radius, so a point
    z lies in the intersection of the sampled balls iff F z <= upper
    componentwise. Centers are a seed-deterministic stream whose first three
    entries are x, y and the midpoint, and each radius is the smallest one
    admissible for its center, so refining n_balls keeps earlier balls.
    """

    space: Space
    x: np.ndarray
    y: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    upper: np.ndarray
    seed: int
    n_balls: int

    def contains(self, z, tol: float = SLAB_TOL) -> bool:
        vals = self.space.functionals @ _check_vector(self.space, z)
        return bool(np.all(vals <= self.upper + tol))

    def contains_many(self, points: np.ndarray, tol: float = SLAB_TOL) -> np.ndarray:
        vals = np.asarray(points, dtype=float) @ self.space.functionals.T
        return (vals <= self.upper + tol).all(axis=1)

    def as_slabs(self) -> SlabPolytope:
        """The sampled intersection rewritten as slabs over representatives."""
        rep_idx, neg_idx = _pair_positions(self.space)
        return SlabPolytope(
            space=self.space, lo=-self.upper[neg_idx], hi=self.upper[rep_idx]
        )


def _pair_positions(s: Space) -> tuple[np.ndarray, np.ndarray]:
    """Positions of each representative and of its negation in s.functionals.

    The functionals are distinct, sorted lexicographically and closed under
    negation; negation reverses that order, so row i negates to row k-1-i."""
    rep = np.flatnonzero(_rep_mask(s.functionals))
    return rep, len(s.functionals) - 1 - rep


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
    """
    vx = _check_vector(s, x)
    vy = _check_vector(s, y)
    if n_balls < 3:
        raise ValueError("n_balls must be at least 3 (the deterministic seeds)")
    mid = 0.5 * (vx + vy)
    width = 4.0 * norm(s, vx - vy)
    rng = np.random.default_rng(seed)
    random_part = mid + rng.uniform(-1.0, 1.0, size=(n_balls - 3, s.dim)) * max(width, 0.0)
    centers = np.vstack([vx[None, :], vy[None, :], mid[None, :], random_part])
    # One row per functional, so that every reduction runs along the balls.
    vals = np.ascontiguousarray((centers @ s.functionals.T).T)
    to_x = np.max(vals - (s.functionals @ vx)[:, None], axis=0)
    to_y = np.max(vals - (s.functionals @ vy)[:, None], axis=0)
    radii = np.maximum(to_x, to_y)
    upper = np.min(vals + radii, axis=1)
    return HullApprox(
        space=s,
        x=vx,
        y=vy,
        centers=centers,
        radii=radii,
        upper=upper,
        seed=seed,
        n_balls=n_balls,
    )


def _grid_axes(s: Space, x: np.ndarray, y: np.ndarray, resolution: int) -> list[np.ndarray]:
    """Per-axis sample coordinates for a box that covers both the interval
    and any hull approximation that includes the midpoint ball."""
    mid = 0.5 * (x + y)
    r = 0.5 * norm(s, x - y)
    ext = unit_ball_extents(s)
    axes = []
    for i in range(s.dim):
        half = r * ext[i]
        step = 2.0 * half / max(resolution - 1, 1)
        axes.append(np.linspace(mid[i] - half - step, mid[i] + half + step, resolution))
    return axes


def _grid_points(axes: list[np.ndarray]) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


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
    interval on a shared grid (the interval is always inside the hull, so
    the other side is zero). The grid has `resolution` points per axis, at
    least 2, with a per-dimension default."""
    vx = _check_vector(s, x)
    vy = _check_vector(s, y)
    if s.dim not in _GRID_DEFAULT:
        raise DimensionMismatch("grid gap reports are available for dim <= 3 only")
    res = _GRID_DEFAULT[s.dim] if resolution is None else resolution
    if res < 2:
        raise ValueError(f"the gap grid needs at least 2 points per axis, got {res}")
    box = interval(s, vx, vy)
    approx = hull if hull is not None else ball_hull_outer(s, vx, vy, n_balls=n_balls, seed=seed)

    if norm(s, vx - vy) == 0.0:
        return GapReport(
            pair=(vx.tolist(), vy.tolist()),
            contained=True,
            gap=0.0,
            witness=None,
            step=0.0,
            n_grid=1,
            n_interval=1,
            n_hull=1,
        )

    axes = _grid_axes(s, vx, vy, res)
    step = max((float(a[1] - a[0]) for a in axes if a.size > 1), default=0.0)
    grid = _grid_points(axes)
    in_box = box.contains_many(grid)
    in_hull = approx.contains_many(grid)

    missing = in_box & ~in_hull
    inclusion_witness = grid[missing][0].tolist() if missing.any() else None

    # Distance reference: interval grid points plus a dense segment sample,
    # so thin intervals that miss every grid node still have a target.
    ts = np.linspace(0.0, 1.0, 257)[:, None]
    segment = vx[None, :] * (1.0 - ts) + vy[None, :] * ts
    reference = np.vstack([grid[in_box], segment])

    sliver = grid[in_hull & ~in_box]
    gap = 0.0
    witness = None
    if sliver.size:
        reps = s.representatives
        best, _ = _nearest(sliver @ reps.T, reference @ reps.T)
        k = int(np.argmax(best))
        gap = float(best[k])
        witness = sliver[k].tolist()

    return GapReport(
        pair=(vx.tolist(), vy.tolist()),
        contained=not missing.any(),
        gap=gap,
        witness=witness,
        step=step,
        n_grid=grid.shape[0],
        n_interval=int(in_box.sum()),
        n_hull=int(in_hull.sum()),
        inclusion_witness=inclusion_witness,
    )


@dataclass(frozen=True)
class MeiReport:
    """Aggregate of hull-vs-interval gaps over random pairs."""

    trials: int
    seed: int
    n_balls: int
    resolution: int
    max_gap: float
    mean_gap: float
    worst: GapReport | None
    violations: list
    passed: bool


def mei_check(
    s: Space,
    trials: int,
    seed: int,
    n_balls: int = 2000,
) -> MeiReport:
    """Compare the sampled hull against the interval on random pairs.

    A trial counts as a violation when the interval leaks outside the
    sampled hull (never expected) or when the gap exceeds twice the grid
    step of that trial.
    """
    rng = np.random.default_rng(seed)
    res = _GRID_DEFAULT.get(s.dim)
    if res is None:
        raise DimensionMismatch("mei_check needs dim <= 3 for its grids")
    reports: list[GapReport] = []
    violations: list[dict] = []
    for t in range(trials):
        x = rng.uniform(-1.0, 1.0, size=s.dim)
        y = rng.uniform(-1.0, 1.0, size=s.dim)
        rep = hull_interval_gap(s, x, y, n_balls=n_balls, seed=seed + 1 + t, resolution=res)
        reports.append(rep)
        if not rep.contained:
            violations.append({"trial": t, "kind": "inclusion", "witness": rep.inclusion_witness})
        elif rep.gap > 2.0 * rep.step:
            violations.append({"trial": t, "kind": "gap", "gap": rep.gap, "witness": rep.witness})
    gaps = [r.gap for r in reports]
    worst = reports[int(np.argmax(gaps))] if reports else None
    return MeiReport(
        trials=trials,
        seed=seed,
        n_balls=n_balls,
        resolution=res,
        max_gap=float(max(gaps)) if gaps else 0.0,
        mean_gap=float(np.mean(gaps)) if gaps else 0.0,
        worst=worst,
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


def _rep_values(s: Space, cloud: PointCloud) -> np.ndarray:
    if cloud.dim != s.dim:
        raise DimensionMismatch(
            f"cloud dimension {cloud.dim} does not match space dimension {s.dim}"
        )
    return cloud.points @ s.representatives.T


def _slab_witnesses(vals, lo, hi, ends, tol) -> np.ndarray:
    """For each box k, the lowest-index row of vals (the cloud's m x p
    representative values), other than the two rows ends[k], with
    lo[k] - tol <= vals <= hi[k] + tol; -1 if there is none. The m points
    lie along the innermost axis, where numpy compares far faster."""
    out = np.full(len(lo), -1)
    cols = np.ascontiguousarray(vals.T)
    step = max(1, _WITNESS_BUDGET // vals.size)
    for start in range(0, len(lo), step):
        part = slice(start, start + step)
        inside = ((cols >= lo[part, :, None] - tol) & (cols <= hi[part, :, None] + tol)).all(axis=1)
        inside[np.arange(inside.shape[0])[:, None], ends[part]] = False
        out[part] = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    return out


def _pair_witnesses(s, cloud, vals, limit, hull, tol, n_balls, seed):
    """Yield (i, js, found) over the pairs (i, j), i < j, farther apart than
    limit in row-major order, found[k] being the witness of (i, js[k]). The
    hull of (i, j) is sampled with seed + i*m + j, one pair at a time, so a
    caller that stops at a pair without a witness samples no hull after it."""
    m = len(cloud)
    for i in range(m - 1):
        js = i + 1 + np.flatnonzero(np.abs(vals[i + 1 :] - vals[i]).max(axis=1) > limit)
        ends = np.stack([np.full(js.size, i), js], axis=1)
        if hull == "interval":
            yield i, js, _slab_witnesses(vals, vals[ends].min(1), vals[ends].max(1), ends, tol)
            continue
        for e in ends:
            x, y = cloud.points[e]
            box = ball_hull_outer(s, x, y, n_balls, seed + i * m + int(e[1])).as_slabs()
            yield i, e[1:], _slab_witnesses(vals, box.lo[None], box.hi[None], e[None], tol)


def m_connected(
    s: Space,
    cloud: PointCloud,
    hull: str = "interval",
    adjacency_eps: float | None = None,
    tol: float = SLAB_TOL,
    n_balls: int = 2000,
    seed: int = 0,
) -> MConnectReport:
    """Scale-relative Menger connectedness of a finite cloud.

    Every pair must have a third cloud point inside its hull, except pairs
    at distance at most eps + tol * (1 + eps), eps = adjacency_eps: a finite
    sample cannot refine below its own resolution, the default eps is that
    resolution (the minimal pairwise distance), and tol exempts spacings
    that exceed eps only by rounding, as in an np.arange grid. A two-point
    cloud never qualifies; adjacency_eps=0 gives the literal definition.
    hull="interval" tests the slab interval, "oracle" the sampled ball hull.
    """
    cloud.require_nonempty()
    cloud.require_unique()
    if hull not in ("interval", "oracle"):
        raise ValueError("hull must be 'interval' or 'oracle'")
    if adjacency_eps is not None:
        _check_slack("adjacency_eps", adjacency_eps)
    m = len(cloud)
    if m == 1:
        return MConnectReport(True, None, 0.0, 0, 0, hull)
    vals = _rep_values(s, cloud)
    if adjacency_eps is None:
        eps = min(float(np.abs(vals[i + 1 :] - vals[i]).max(axis=1).min()) for i in range(m - 1))
    else:
        eps = float(adjacency_eps)
    if m == 2:
        return MConnectReport(False, (0, 1), eps, 1, 0, hull)

    checked = 0
    limit = _tie_threshold(eps, tol)
    for i, js, found in _pair_witnesses(s, cloud, vals, limit, hull, tol, n_balls, seed):
        gap = np.flatnonzero(found < 0)
        if gap.size:
            j = int(js[gap[0]])
            checked += int(gap[0]) + 1
            visited = i * (m - 1) - i * (i - 1) // 2 + j - i
            return MConnectReport(False, (i, j), eps, checked, visited - checked, hull)
        checked += js.size
    return MConnectReport(True, None, eps, checked, m * (m - 1) // 2 - checked, hull)


def slab_vertices_2d(p: SlabPolytope, tol: float = 1e-9) -> np.ndarray:
    """Vertices of a 2d slab polytope, ordered counterclockwise.

    Intersects all pairs of face lines and keeps feasible points; degenerate
    polytopes come back as a segment (2 points), a point (1) or empty (0).
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
        if p.contains(z, tol=tol):
            pts.append(z)
    if not pts:
        return np.empty((0, 2))
    arr = np.unique(np.round(np.asarray(pts), decimals=9), axis=0)
    if arr.shape[0] <= 2:
        return arr
    c = arr.mean(axis=0)
    ang = np.arctan2(arr[:, 1] - c[1], arr[:, 0] - c[0])
    return arr[np.argsort(ang)]
