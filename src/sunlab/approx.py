"""Metric projection onto finite clouds and sampled sun verification.

A cloud point y nearest to x is a luminosity point when it stays nearest to
every point of the outward ray (1 - lambda) y + lambda x. The checks here
are falsification-only: a pass verdict certifies the grid that was sampled,
never the full ray.
Distances to the cloud come from column-form products: one per projection
(space._distances), and the cloud's (p, m) space._values block, which each
driver forms once per call, for all of its queries, and every kernel reads.
One kernel, _ray_falsifier, gives every grid verdict: the first failing
point's lambda and competitor, or None. One loop over a query's nearest
points, _candidate_falsifiers, runs it for find_luminosity and both modes
of is_sun_sampled, and sun_check runs it on one checked pair; these three
build a SunReport only for a record they return or print. The loop first
tries a certificate: with b = F(x - y) and c_u,i = f_i(u), it is the
minimum over the cloud points u of the maximum, over the functionals i
whose |b_i| is within a margin of max |b| (the active ones), of sgn(b_i)
(c_y,i - c_u,i). A candidate whose certificate clears a rounding slack
(_ray_slack) stays nearest on the whole ray, so the grid cannot falsify
it, and it skips the grid with no falsifier. The grid runs on every other
candidate, so every falsifier is the grid's.
The grid is scanned in blocks of ray points, in ray order, by the one
distance kernel, _nearest_blocks, and the scan stops at the first block
that holds a failing point. A row's distances do not depend on its block,
so the falsifier is the one a scan of the whole grid finds.
_ray_certificates computes it for all of a query's tied candidates at
once: b for every candidate, and the cloud's extremes max_u c_u,i and
min_u c_u,i, once per query. Rounding is monotone, so

    min_u fl(a - c_u) = fl(a - max_u c_u),

and a candidate with exactly one active functional costs O(p), with the
very value of the O(m p) pass over the cloud, _ray_certificate. That pass
runs only for a candidate with several active functionals, or with b_i = 0.
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


def _ray_falsifier(s: Space, cloud: PointCloud, cols, vx, vy, lambda_max, grid) -> dict | None:
    """The ray kernel: the falsifier of candidate vy of query vx, None when
    the grid passes, given the cloud's (p, m) functional values cols from
    space._values. Callers check the grid and that vy is a nearest point.
    It walks the blocks of _nearest_blocks in ray order and stops at the
    first block that holds a failing grid point; the falsifier's lambda and
    competitor are that point's, as a scan of the whole grid gives them."""
    lams = np.linspace(0.0, float(lambda_max), int(grid))
    ray = vy[None, :] + lams[:, None] * (vx - vy)[None, :]
    to_y = _distances(s, ray, vy)
    for start, best, arg in _nearest_blocks(_values(s, ray), cols):
        ok = to_y[start : start + len(best)] <= _tie_threshold(best, TIE_TOL)
        if not ok.all():
            g = int(np.argmin(ok))
            competitor = cloud.points[int(arg[g])].tolist()
            return {"lambda": float(lams[start + g]), "competitor": competitor}
    return None


def _ray_slack(top: float, l1: float, dim: int, lambda_max: float) -> tuple[float, float]:
    """The active-set margin and the slack of _ray_certificate. top is the
    largest |coordinate| X of the cloud and the query, l1 the largest
    l1-norm L of a representative, dim the dimension n, lambda_max the
    grid's end; u = 2**-53 and eta = 2**-1074, the least subnormal.

    Exactly, with b = F(x - y), d = max |b_i| and z = y + lam (x - y), every
    i and every |s| <= 1 give ||z - u|| >= s f_i(z - u) = s (f_i(y) -
    f_i(u)) + lam s b_i, and ||z - y|| = lam d, so

        ||z - u|| - ||z - y|| >= s (f_i(y) - f_i(u)) - lam (d - s b_i).

    The certificate takes s = sgn(b_i') for the computed b' and the i whose
    |b_i'| lies within the margin of d' = max |b_i'|. Each b_i' is a dot
    product of a representative with fl(x - y), |x_k - y_k| <= 2X, so it
    lies within 2 (n + 1) u L X of b_i (gamma_n = n u / (1 - n u) for the
    sum, u for the difference), plus n eta for products that underflow; E =
    2**-51 (n + 1) L X + n eta is twice that, and s b_i >= |b_i'| - E. Likewise each value
    cols[i, u] = fl(f_i(u)) of the product reps @ cloud.points.T lies within
    gamma_n L X of f_i(u), so the certificate's fl(cols[i, y] - cols[i, u])
    lies within E of f_i(y) - f_i(u). The margin is 2E, so every i with
    |b_i| = d exactly is active, and for an active i, d - s b_i <= (d' -
    |b_i'|) + 2E <= 5E, counting E for the rounding of d' - margin. Then
    for lam <= lambda_max and every u, with G' the computed minimum over u
    of the maximum over the active i,

        ||z - u|| - ||z - y|| >= G' - E - 5 lambda_max E.

    The grid does not see z but z' = fl(y + fl(lam fl(x - y))), whose
    coordinates lie within u X (1 + 6 lambda_max) of z's, so ||z' - z|| <=
    u L X (1 + 6 lambda_max), counted once for y and once for u. Its
    distance to u, the maximum over i of |fl(fl(f_i(z')) - cols[i, u])|,
    lies within (n + 1) u L (Z + X) of ||z' - u||, |z'_k| <= Z = X (1 +
    2 lambda_max); its distance to y, from _distances(ray, vy), lies within
    (n + 1) u L W of ||z' - y||, W = 2 lambda_max X. Doubling these
    first-order terms covers the factors 1 + O(n u), and the sum,

        E (1 + 5 lambda_max) + 2**-51 L X (1 + 6 lambda_max)
            + 2**-51 (n + 1) L X (1 + 2 lambda_max),

    is at most the slack 2**-51 L X (n + 2) (2 + 7 lambda_max), plus (n +
    L) (1 + lambda_max) 2**-1071 for underflow. So when G' >= slack -
    TIE_TOL, every computed distance from a grid point to y exceeds the
    computed distance to any cloud point by at most TIE_TOL, which the
    grid's tie threshold forgives, and every grid point passes.

    Every magnitude the grid and the certificate form is at most L X (2 +
    2 lambda_max) up to the same factors, below scale = L X (n + 2) (2 +
    7 lambda_max). When 2 scale overflows, so may the grid's arithmetic,
    and the slack is inf: the loop then certifies nothing and runs the grid
    on every candidate."""
    scale = top * l1 * (dim + 2.0) * (2.0 + 7.0 * lambda_max)
    if not math.isfinite(2.0 * scale):
        return math.inf, math.inf
    margin = 2.0 * (2.0**-51 * (dim + 1.0) * l1 * top + dim * 2.0**-1074)
    return margin, 2.0**-51 * scale + (dim + l1) * (1.0 + lambda_max) * 2.0**-1071


def _ray_directions(reps: np.ndarray, vx, ys: np.ndarray) -> np.ndarray:
    """b = F(x - y) for each row y of ys, one row of p values per candidate.
    The products are summed one coordinate at a time by elementwise numpy,
    not by a BLAS kernel, whose order of operations may follow the shape of
    the call; so a row's bits do not depend on how many rows share it."""
    d = vx - ys
    return functools.reduce(np.add, (d[:, k, None] * reps[:, k] for k in range(reps.shape[1])))


def _ray_certificate(reps: np.ndarray, cols: np.ndarray, idx: int, vx, vy, margin: float) -> float:
    """min over the cloud points u of g(u) = max over the active i of
    sgn(b_i) (f_i(y) - f_i(u)), for the candidate vy = cloud row idx of
    query vx, with b = F(x - y) and cols the cloud's (p, m) functional
    values. i is active when |b_i| is within margin of max |b|.
    Exactly, g(u) is the limit of ||z - u|| - ||z - y|| along the ray
    z = y + lam (x - y), which never increases, so a minimum >= 0 means y
    stays nearest on the whole ray (_ray_slack bounds the rounding)."""
    b = _ray_directions(reps, vx, vy[None, :])[0]
    a = np.abs(b)
    active = np.flatnonzero(a >= a.max() - margin).tolist()
    g = functools.reduce(np.maximum, (np.sign(b[i]) * (cols[i, idx] - cols[i]) for i in active))
    # A zero minimum carries the sign of whichever zero the reduction kept;
    # adding 0.0 makes it +0.0 and leaves every other value as it is.
    return float(g.min()) + 0.0


def _ray_certificates(reps: np.ndarray, cols: np.ndarray, points: np.ndarray, indices, vx, margin):
    """_ray_certificate for each candidate points[idx], idx in indices, of
    query vx, bit for bit, in order and lazily. b = F(x - y) is computed for
    every candidate at once, and the extremes max_u c_u,i and min_u c_u,i
    of the cloud's functional values c = cols once. A candidate with one
    active functional i and b_i != 0 then costs O(p): its g(u) is
    sgn(b_i) (c_y,i - c_u,i), and rounding is monotone, so

        min_u fl(c_y,i - c_u,i) = fl(c_y,i - max_u c_u,i)    (b_i > 0),
        min_u fl(c_u,i - c_y,i) = fl(min_u c_u,i - c_y,i)    (b_i < 0),

    the value _ray_certificate's O(m p) pass returns (a zero as +0.0,
    there as here). A candidate with
    several active functionals, whose maximum over i does not commute with
    the minimum over u, or with b_i = 0, runs _ray_certificate. So the loop
    certifies the very candidates that _ray_certificate alone would, and
    every report is unchanged."""
    b = _ray_directions(reps, vx, points[indices])
    hi, lo = cols.max(axis=1).tolist(), cols.min(axis=1).tolist()
    for j, idx in enumerate(indices):
        row = b[j].tolist()
        a = list(map(abs, row))
        top = max(a) - margin
        active = [i for i, ai in enumerate(a) if ai >= top]
        i = active[0]
        if len(active) == 1 and row[i] != 0.0:
            cy = float(cols[i, idx])
            yield (cy - hi[i] if row[i] > 0.0 else lo[i] - cy) + 0.0
        else:
            yield _ray_certificate(reps, cols, idx, vx, points[idx], margin)


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
    if cloud.index_of(vy) is None or dy > _tie_threshold(pr.distance, TIE_TOL):
        raise NotANearestPoint(
            f"candidate at distance {dy} is not nearest (distance {pr.distance})"
        )
    falsifier = _ray_falsifier(s, cloud, _values(s, cloud.points), vx, vy, lambda_max, grid)
    return _sun_report(vx, vy, lambda_max, grid, falsifier)


def _certificate_floor(s: Space, cloud: PointCloud, vx, lambda_max) -> tuple[float, float]:
    """The active-set margin of _ray_certificate for query vx, and the
    least certificate that passes a candidate: slack - TIE_TOL, rounded up."""
    top = max(float(np.abs(cloud.points).max()), float(np.abs(vx).max()))
    l1 = float(np.abs(s.representatives).sum(axis=1).max())
    margin, slack = _ray_slack(top, l1, s.dim, float(lambda_max))
    return margin, math.nextafter(slack - TIE_TOL, math.inf)


def _candidate_falsifiers(s: Space, cloud: PointCloud, cols, vx, lambda_max, grid, stop: bool):
    """Project vx, then test each nearest point y in index order against
    cols, the cloud's space._values block, giving (y, falsifier) pairs up
    to and including the first whose (falsifier is None) equals stop (True:
    a luminosity point was found; False: a candidate was falsified). A
    candidate whose certificate clears slack - TIE_TOL gets no falsifier
    without the grid, which cannot falsify it; the ray kernel tests the rest."""
    pr = project(s, cloud, vx)
    _check_ray_grid(lambda_max, grid)
    reps = s.representatives
    margin, floor = _certificate_floor(s, cloud, vx, lambda_max)
    # g(y) = 0 for the candidate itself, so a floor above 0 certifies nothing.
    if floor <= 0.0:
        certs = _ray_certificates(reps, cols, cloud.points, pr.indices, vx, margin)
    else:
        certs = itertools.repeat(-math.inf)
    pairs = []
    for idx, cert in zip(pr.indices, certs):
        vy = cloud.points[idx]
        f = None if cert >= floor else _ray_falsifier(s, cloud, cols, vx, vy, lambda_max, grid)
        pairs.append((vy, f))
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
    cols = _values(s, cloud.points)
    pairs = _candidate_falsifiers(s, cloud, cols, vx, lambda_max, grid, stop=True)
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
    cols = _values(s, cloud.points)
    skipped: list[int] = []
    failures: list[dict] = []
    for qi, q in enumerate(qs):
        if cloud.index_of(q) is not None:
            skipped.append(qi)
            continue
        pairs = _candidate_falsifiers(s, cloud, cols, q, lambda_max, grid, stop=not strict)
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
