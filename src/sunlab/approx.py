"""Metric projection onto finite clouds and sampled sun verification.

A cloud point y nearest to x is a luminosity point when it stays nearest to
every point of the outward ray (1 - lambda) y + lambda x. The checks here
are falsification-only: a pass verdict certifies the grid that was sampled,
never the full ray.
Distances to the cloud come from column-form products: one per projection
(space._distances), and the cloud's (p, m) space._values block, which each
driver forms once per call, for all of its queries, and every kernel reads.
One kernel, _ray_falsifier, gives every grid verdict: the first failing
point's lambda and competitor, or None. It reads every distance, to the
candidate y as to its competitors, from one ray x cloud block of values, so
the nearest distance never exceeds y's own and y is never its own
competitor. One loop over a query's nearest points, _candidate_falsifiers,
runs it for find_luminosity and both modes of is_sun_sampled, and
sun_check runs it on one checked pair; these three build a SunReport only
for a record they return or print. The loop first tries a certificate:
with b = F(x - y) and c_u,i = f_i(u), it is the maximum, over the
functionals i whose |b_i| is within a margin of max |b| (the active ones),
of the minimum over the cloud points u of sgn(b_i) (c_y,i - c_u,i). A
candidate whose certificate clears a rounding slack (_ray_slack) stays
nearest on the whole ray, so the grid cannot falsify it, and it skips the
grid with no falsifier. The grid runs on every other candidate, so every
falsifier is the grid's.
The grid is scanned in blocks of ray points, in ray order, by the one
distance kernel, _nearest_blocks, and the scan stops at the first block
that holds a failing point. A row's distances do not depend on its block,
so the falsifier is the one a scan of the whole grid finds.
_ray_certificates computes it for all of a query's tied candidates, b for
every candidate at once. What the loop reads of the cloud alone, a
_RayCloud, is formed once per find_luminosity or is_sun_sampled call:
the values block, the extremes max_u c_u,i and min_u c_u,i, the largest
|coordinate| and the largest l1 norm of a representative. Rounding is
monotone, so

    min_u fl(a - c_u) = fl(a - max_u c_u),

and each candidate's certificate costs O(p).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .cloud import PointCloud
from .errors import NotANearestPoint, QueryInCloud
from .space import (
    Space,
    _check_points,
    _check_slack,
    _check_vector,
    _differences,
    _distances,
    _max_abs,
    _values,
    norm,
)

TIE_TOL = 1e-9

# Most query x point distances one block of _nearest_blocks holds. Against
# 256 ray points in linf(2) (one core, OpenBLAS), 2**14 ran fastest at m =
# 257 to 1681 points, 2**15 took 1.2-2.2x as long there and 2**16 2-3x.
_NEAREST_BUDGET = 1 << 14


def _tie_threshold(dmin: float, tie_tol: float) -> float:
    return dmin + tie_tol * (1.0 + dmin)


def _nearest_blocks(q_cols: np.ndarray, cols: np.ndarray):
    """The distance kernel: for consecutive blocks of the columns of q_cols,
    the (p, k) functional values of k queries, in order, yield (start,
    dist, arg), each query's max-norm distance to the nearest column of
    cols, the (p, m) values of the points, and the lowest index attaining
    it, for the queries start, start + 1, ... A block holds at most
    _NEAREST_BUDGET query x point distances; _max_abs builds it one
    functional at a time from the contiguous rows of cols, and each
    distance is read at its argmin rather than found by a second pass. A
    query's distances are elementwise over its row of the block, so its
    results do not depend on the block that holds it, and a caller may
    stop after any block."""
    m, k = cols.shape[1], q_cols.shape[1]
    step = max(1, _NEAREST_BUDGET // max(m, 1))
    for start in range(0, k, step):
        d = _max_abs(_differences(q_cols[:, start : start + step], cols))
        arg = d.argmin(axis=1)
        yield start, d[np.arange(len(d)), arg], arg


def _check_ray_grid(lambda_max: float, grid: int) -> None:
    """A pass must never rest on an empty or degenerate ray."""
    if int(grid) < 2:
        raise ValueError(f"the ray grid needs at least 2 points, got {grid}")
    if not 0.0 < float(lambda_max) < np.inf:
        raise ValueError(f"lambda_max must be positive and finite, got {lambda_max}")


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Distance to the cloud and every minimizer within the tie tolerance."""

    distance: float
    indices: np.ndarray
    points: np.ndarray

    def to_json(self) -> dict:
        return {
            "distance": self.distance,
            "indices": [int(i) for i in self.indices],
            "points": self.points.tolist(),
        }


def project(s: Space, cloud: PointCloud, x, tie_tol: float = TIE_TOL) -> ProjectionResult:
    """Every cloud point within the tie threshold of the nearest distance;
    tie_tol must be finite and nonnegative."""
    _check_slack("tie_tol", tie_tol)
    cloud.require_nonempty()
    cloud.require_dim(s.dim)
    vx = _check_vector(s, x)
    dists = _distances(s, cloud.points, vx)
    dmin = float(dists.min())
    idx = np.nonzero(dists <= _tie_threshold(dmin, tie_tol))[0]
    return ProjectionResult(distance=dmin, indices=idx, points=cloud.points[idx])


@dataclass(frozen=True, eq=False)
class SunReport:
    """Grid verdict for one (query, nearest point) ray: "holds-on-grid", or
    "falsified" with a falsifier, the first failing lambda and its competitor."""

    x: list
    y: list
    lambda_max: float
    grid: int
    falsifier: dict | None = None

    @property
    def verdict(self) -> str:
        return "holds-on-grid" if self.falsifier is None else "falsified"

    @property
    def holds(self) -> bool:
        return self.falsifier is None

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "lambda_max": self.lambda_max,
            "grid": self.grid,
            "verdict": self.verdict,
            "falsifier": self.falsifier,
        }


def _sun_report(vx, vy, lambda_max, grid, falsifier=None) -> SunReport:
    return SunReport(vx.tolist(), vy.tolist(), float(lambda_max), int(grid), falsifier)


def _ray_falsifier(s: Space, cloud: PointCloud, cols, vx, idx, lambda_max, grid) -> dict | None:
    """The ray kernel: the falsifier of candidate y = cloud point idx of
    query vx, None when the grid passes, given the cloud's (p, m)
    functional values cols from space._values. Callers check the grid and
    that y is a nearest point. The distance from a ray point to y is read
    from the same ray x cloud values as its distance to every other point:
    it is column idx of each block of _nearest_blocks, bit for bit, so the
    nearest distance never exceeds it and y never falsifies itself.
    It walks the blocks of _nearest_blocks in ray order and stops at the
    first block that holds a failing grid point; the falsifier's lambda and
    competitor are that point's, as a scan of the whole grid gives them."""
    vy = cloud.points[idx]
    lams = np.linspace(0.0, float(lambda_max), int(grid))
    ray = vy[None, :] + lams[:, None] * (vx - vy)[None, :]
    ray_cols = _values(s, ray)
    to_y = _max_abs(_differences(ray_cols, cols[:, [idx]]))[:, 0]
    for start, best, arg in _nearest_blocks(ray_cols, cols):
        ok = to_y[start : start + len(best)] <= _tie_threshold(best, TIE_TOL)
        if not ok.all():
            g = int(np.argmin(ok))
            competitor = cloud.points[int(arg[g])].tolist()
            return {"lambda": float(lams[start + g]), "competitor": competitor}
    return None


def _ray_slack(top: float, l1: float, dim: int, lambda_max: float) -> tuple[float, float]:
    """The active-set margin and the slack of _ray_certificates. top is the
    largest |coordinate| X of the cloud and the query, l1 the largest
    l1-norm L of a representative, dim the dimension n, lambda_max the
    grid's end; u = 2**-53 and eta = 2**-1074, the least subnormal.

    Exactly, with b = F(x - y), d = max |b_i| and z = y + lam (x - y), every
    i and every |s| <= 1 give ||z - u|| >= s f_i(z - u) = s (f_i(y) -
    f_i(u)) + lam s b_i, and ||z - y|| = lam d, so

        ||z - u|| - ||z - y|| >= s (f_i(y) - f_i(u)) - lam (d - s b_i).

    The certificate takes one i for every u: an i whose |b_i'| lies within
    the margin of d' = max |b_i'| for the computed b', with s = sgn(b_i'),
    and it reports the least computed s (f_i(y) - f_i(u)) over u, so every
    u has a bound at least as large. Each b_i' is a dot product of a
    representative with fl(x - y), |x_k - y_k| <= 2X, so it lies within 2
    (n + 1) u L X of b_i (gamma_n = n u / (1 - n u) for the sum, u for the
    difference), plus n eta for products that underflow; E = 2**-51 (n + 1)
    L X + n eta is twice that, and s b_i >= |b_i'| - E. Likewise each value
    cols[i, u] = fl(f_i(u)) of the product reps @ cloud.points.T lies within
    gamma_n L X of f_i(u), so the certificate's fl(cols[i, y] - cols[i, u])
    lies within E of f_i(y) - f_i(u). The margin is 2E, so every i with
    |b_i| = d exactly is active, and for an active i, d - s b_i <= (d' -
    |b_i'|) + 2E <= 5E, counting E for the rounding of d' - margin. Then
    for lam <= lambda_max and every u, with G' the computed maximum over the
    active i of the minimum over u,

        ||z - u|| - ||z - y|| >= G' - E - 5 lambda_max E.

    The grid does not see z but z' = fl(y + fl(lam fl(x - y))), whose
    coordinates lie within u X (1 + 6 lambda_max) of z's, so ||z' - z|| <=
    u L X (1 + 6 lambda_max), counted once for y and once for u. Its
    distance to any cloud point v, y included, the maximum over i of
    |fl(fl(f_i(z')) - cols[i, v])|, lies within (n + 1) u L (Z + X) of
    ||z' - v||, |z'_k| <= Z = X (1 + 2 lambda_max), and the grid compares
    two such distances. Doubling these first-order terms covers the factors
    1 + O(n u), and the sum,

        E (1 + 5 lambda_max) + 2**-51 L X (1 + 6 lambda_max)
            + 2**-50 (n + 1) L X (1 + lambda_max),

    is at most the slack 2**-51 L X (n + 2) (3 + 7 lambda_max). Underflow
    adds n eta (1 + 5 lambda_max) through E, 2 n eta to each distance and
    L eta to each ||z' - z||, below the slack's (n + L) (3 + 7 lambda_max)
    2**-1071. So when G' >= slack - TIE_TOL, every computed distance from a
    grid point to y exceeds the computed distance to any cloud point by at
    most TIE_TOL, which the grid's tie threshold forgives, and every grid
    point passes.

    Every magnitude the grid and the certificate form is at most L X (2 +
    2 lambda_max) up to the same factors, below scale = L X (n + 2) (3 +
    7 lambda_max). When 2 scale overflows, so may the grid's arithmetic,
    and the slack is inf: the loop then certifies nothing and runs the grid
    on every candidate."""
    grow = 3.0 + 7.0 * lambda_max
    scale = top * l1 * (dim + 2.0) * grow
    if not math.isfinite(2.0 * scale):
        return math.inf, math.inf
    margin = 2.0 * (2.0**-51 * (dim + 1.0) * l1 * top + dim * 2.0**-1074)
    return margin, 2.0**-51 * scale + (dim + l1) * grow * 2.0**-1071


def _ray_directions(reps: np.ndarray, vx, ys: np.ndarray) -> np.ndarray:
    """b = F(x - y) for each row y of ys, one row of p values per candidate.
    The products are summed one coordinate at a time by elementwise numpy,
    not by a BLAS kernel, whose order of operations may follow the shape of
    the call; so a row's bits do not depend on how many rows share it."""
    d = vx - ys
    return functools.reduce(np.add, (d[:, k, None] * reps[:, k] for k in range(reps.shape[1])))


@dataclass(frozen=True)
class _RayCloud:
    """The cloud-only values of the candidate loop: cols, the (p, m)
    space._values block c; hi and lo, the extremes max_u c_u,i and
    min_u c_u,i per functional i; top, the largest |coordinate| of the
    cloud; and l1, the largest l1 norm of a representative."""

    cols: np.ndarray
    hi: list
    lo: list
    top: float
    l1: float


def _ray_cloud(s: Space, cloud: PointCloud) -> _RayCloud:
    """Form the _RayCloud of cloud once per call. The initial values only
    serve an empty cloud, which project rejects before any of them is read."""
    cols = _values(s, cloud.points)
    return _RayCloud(
        cols=cols,
        hi=cols.max(axis=1, initial=-math.inf).tolist(),
        lo=cols.min(axis=1, initial=math.inf).tolist(),
        top=float(np.abs(cloud.points).max(initial=0.0)),
        l1=float(np.abs(s.representatives).sum(axis=1).max()),
    )


def _ray_certificates(reps: np.ndarray, rc: _RayCloud, points: np.ndarray, indices, vx, margin):
    """The certificate of each candidate y = points[idx], idx in indices, of
    query vx, in order and lazily: with b = F(x - y) and c = rc.cols, the
    maximum over the active i (|b_i| within margin of max |b|) of the
    minimum over the cloud points u of sgn(b_i) (c_y,i - c_u,i). Rounding
    is monotone, so with the extremes max_u c_u,i and min_u c_u,i that come
    with rc each minimum is one subtraction,

        min_u fl(c_y,i - c_u,i) = fl(c_y,i - max_u c_u,i)    (b_i > 0),
        min_u fl(c_u,i - c_y,i) = fl(min_u c_u,i - c_y,i)    (b_i < 0),

    or 0 where b_i = 0, and a candidate costs O(p); a zero is yielded as
    +0.0. Exactly, min_u max_i sgn(b_i) (f_i(y) - f_i(u)) is the limit of
    min_u ||z - u|| - ||z - y|| along the ray z = y + lam (x - y), which
    never increases, and max_i min_u never exceeds min_u max_i, so a
    certificate >= 0 means y stays nearest on the whole ray (_ray_slack
    bounds the rounding). b is computed for every candidate at once."""
    b = _ray_directions(reps, vx, points[indices])
    cols, hi, lo = rc.cols, rc.hi, rc.lo
    for j, idx in enumerate(indices):
        row = b[j].tolist()
        top = max(map(abs, row)) - margin
        g = -math.inf
        for i, bi in enumerate(row):
            if abs(bi) >= top:
                cy = float(cols[i, idx])
                g = max(g, cy - hi[i] if bi > 0.0 else lo[i] - cy if bi < 0.0 else 0.0)
        yield g + 0.0


def sun_check(
    s: Space,
    cloud: PointCloud,
    x,
    y,
    lambda_max: float = 16.0,
    grid: int = 256,
) -> SunReport:
    """Test y against the ray condition on a uniform lambda grid.

    Requires y to be one of the nearest cloud points to x. The first grid
    value where some other point is strictly closer than the tie threshold
    falsifies the candidate and is reported with the competitor. The grid
    needs at least two points and lambda_max must be positive and finite.
    """
    _check_ray_grid(lambda_max, grid)
    vx = _check_vector(s, x)
    vy = _check_vector(s, y)
    pr = project(s, cloud, vx)
    dy = norm(s, vx - vy)
    idx = cloud.index_of(vy)
    if idx is None or dy > _tie_threshold(pr.distance, TIE_TOL):
        raise NotANearestPoint(
            f"candidate at distance {dy} is not nearest (distance {pr.distance})"
        )
    falsifier = _ray_falsifier(s, cloud, _values(s, cloud.points), vx, idx, lambda_max, grid)
    return _sun_report(vx, vy, lambda_max, grid, falsifier)


def _certificate_floor(s: Space, rc: _RayCloud, vx, lambda_max) -> tuple[float, float]:
    """The active-set margin of _ray_certificates for query vx, and the
    least certificate that passes a candidate: slack - TIE_TOL, rounded up."""
    top = max(rc.top, float(np.abs(vx).max()))
    margin, slack = _ray_slack(top, rc.l1, s.dim, float(lambda_max))
    return margin, math.nextafter(slack - TIE_TOL, math.inf)


def _candidate_falsifiers(s: Space, cloud: PointCloud, rc: _RayCloud, vx, lambda_max, grid, stop: bool):
    """Project vx, then test each nearest point y in index order against
    the cloud's _RayCloud rc, giving (y, falsifier) pairs up
    to and including the first whose (falsifier is None) equals stop (True:
    a luminosity point was found; False: a candidate was falsified). A
    candidate whose certificate clears slack - TIE_TOL gets no falsifier
    without the grid, which cannot falsify it; the ray kernel tests the rest."""
    pr = project(s, cloud, vx)
    _check_ray_grid(lambda_max, grid)
    reps = s.representatives
    margin, floor = _certificate_floor(s, rc, vx, lambda_max)
    # g(y) = 0 for the candidate itself, so a floor above 0 certifies nothing.
    if floor <= 0.0:
        certs = _ray_certificates(reps, rc, cloud.points, pr.indices, vx, margin)
    else:
        certs = itertools.repeat(-math.inf)
    pairs = []
    for idx, cert in zip(pr.indices, certs):
        f = None if cert >= floor else _ray_falsifier(s, cloud, rc.cols, vx, idx, lambda_max, grid)
        pairs.append((cloud.points[idx], f))
        if (f is None) == stop:
            break
    return pairs


@dataclass(frozen=True)
class NoCandidate:
    """No nearest point survives the ray test; all falsifications kept."""

    falsifications: list

    @property
    def holds(self) -> bool:
        return False

    def to_json(self) -> dict:
        return {
            "found": False,
            "falsifications": [r.to_json() for r in self.falsifications],
        }


def find_luminosity(
    s: Space,
    cloud: PointCloud,
    x,
    lambda_max: float = 16.0,
    grid: int = 256,
) -> SunReport | NoCandidate:
    """Search the nearest points of x for one passing the ray test."""
    cloud.require_dim(s.dim)
    vx = _check_vector(s, x)
    if cloud.index_of(vx) is not None:
        raise QueryInCloud("query already belongs to the cloud")
    pairs = _candidate_falsifiers(s, cloud, _ray_cloud(s, cloud), vx, lambda_max, grid, stop=True)
    if pairs[-1][1] is None:
        return _sun_report(vx, pairs[-1][0], lambda_max, grid)
    return NoCandidate([_sun_report(vx, vy, lambda_max, grid, f) for vy, f in pairs])


@dataclass(frozen=True)
class SunSampleReport:
    """Aggregate verdict over sampled queries."""

    queries: int
    skipped: list
    failures: list
    strict: bool
    lambda_max: float
    grid: int
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def is_sun_sampled(
    s: Space,
    cloud: PointCloud,
    queries,
    lambda_max: float = 16.0,
    grid: int = 256,
    strict: bool = False,
) -> SunSampleReport:
    """Run the ray test for every query.

    Default mode accepts a query when some nearest point passes; strict
    mode demands that every nearest point passes (the sampled analogue of
    requiring each best approximation to be a luminosity point). Queries
    already in the cloud are vacuous and recorded as skipped. When every
    query is skipped, QueryInCloud is raised after the ray grid is checked.
    A nearest point whose certificate shows that it stays nearest on the
    whole ray skips the grid; its report is the one the grid gives.
    """
    _check_ray_grid(lambda_max, grid)
    cloud.require_dim(s.dim)
    qs = _check_points(s, queries, "query")
    rc = _ray_cloud(s, cloud)
    skipped: list[int] = []
    failures: list[dict] = []
    for qi, q in enumerate(qs):
        if cloud.index_of(q) is not None:
            skipped.append(qi)
            continue
        pairs = _candidate_falsifiers(s, cloud, rc, q, lambda_max, grid, stop=not strict)
        if pairs[-1][1] is not None:
            tested = pairs[-1:] if strict else pairs
            reports = [_sun_report(q, vy, lambda_max, grid, f) for vy, f in tested]
            failed = reports[-1] if strict else NoCandidate(falsifications=reports)
            failures.append({"query": qi, "report": failed.to_json()})
    if len(skipped) == len(qs):
        raise QueryInCloud("every query already belongs to the cloud; none is left to test")
    return SunSampleReport(
        queries=qs.shape[0],
        skipped=skipped,
        failures=failures,
        strict=strict,
        lambda_max=float(lambda_max),
        grid=int(grid),
        passed=not failures,
    )
