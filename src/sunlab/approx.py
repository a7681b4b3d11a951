"""Metric projection onto finite clouds and sampled sun verification.

A cloud point y nearest to x is a luminosity point when it stays nearest to
every point of the outward ray (1 - lambda) y + lambda x. The checks here
are falsification-only: a pass verdict certifies the grid that was sampled,
never the full ray.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .cloud import PointCloud
from .errors import NotANearestPoint, QueryInCloud
from .space import Space, _check_slack, _check_vector, norms

TIE_TOL = 1e-9

# Most query x point x functional entries _nearest compares at once.
_NEAREST_BUDGET = 1 << 18


def _tie_threshold(dmin: float, tie_tol: float) -> float:
    return dmin + tie_tol * (1.0 + dmin)


def _nearest(q_vals: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of q_vals, the max-norm distance to the nearest row of
    vals and the lowest index attaining it. The rows of vals lie along the
    innermost axis, where numpy reduces far faster."""
    dist = np.empty(len(q_vals))
    arg = np.empty(len(q_vals), dtype=int)
    cols = np.ascontiguousarray(vals.T)
    step = max(1, _NEAREST_BUDGET // max(cols.size, 1))
    for start in range(0, len(q_vals), step):
        part = slice(start, start + step)
        d = np.abs(q_vals[part, :, None] - cols).max(axis=1)
        arg[part] = d.argmin(axis=1)
        dist[part] = d.min(axis=1)
    return dist, arg


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
    tie_tol: float

    def to_json(self) -> dict:
        return {
            "distance": self.distance,
            "indices": [int(i) for i in self.indices],
            "points": [list(p) for p in self.points],
        }


def project(s: Space, cloud: PointCloud, x, tie_tol: float = TIE_TOL) -> ProjectionResult:
    """Every cloud point within the tie threshold of the nearest distance;
    tie_tol must be finite and nonnegative."""
    _check_slack("tie_tol", tie_tol)
    cloud.require_nonempty()
    vx = _check_vector(s, x)
    dists = norms(s, cloud.points - vx)
    dmin = float(dists.min())
    idx = np.nonzero(dists <= _tie_threshold(dmin, tie_tol))[0]
    return ProjectionResult(
        distance=dmin, indices=idx, points=cloud.points[idx], tie_tol=tie_tol
    )


@dataclass(frozen=True, eq=False)
class SunReport:
    """Grid verdict for one (query, nearest point) ray."""

    x: list
    y: list
    lambda_max: float
    grid: int
    verdict: str
    falsifier: dict | None = None
    per_lambda: np.ndarray | None = field(default=None, repr=False)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds-on-grid"

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "lambda_max": self.lambda_max,
            "grid": self.grid,
            "verdict": self.verdict,
            "falsifier": self.falsifier,
        }


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
    dy = float(np.max(np.abs(s.representatives @ (vx - vy))))
    if cloud.index_of(vy) is None or dy > _tie_threshold(pr.distance, TIE_TOL):
        raise NotANearestPoint(
            f"candidate at distance {dy} is not nearest (distance {pr.distance})"
        )

    lams = np.linspace(0.0, float(lambda_max), int(grid))
    ray = vy[None, :] + lams[:, None] * (vx - vy)[None, :]
    dist_to_y = norms(s, ray - vy)
    best, arg = _nearest(ray @ s.representatives.T, cloud.points @ s.representatives.T)

    ok = dist_to_y <= _tie_threshold(best, TIE_TOL)
    if bool(ok.all()):
        return SunReport(
            x=vx.tolist(),
            y=vy.tolist(),
            lambda_max=float(lambda_max),
            grid=int(grid),
            verdict="holds-on-grid",
            falsifier=None,
            per_lambda=ok,
        )
    g = int(np.argmin(ok))
    return SunReport(
        x=vx.tolist(),
        y=vy.tolist(),
        lambda_max=float(lambda_max),
        grid=int(grid),
        verdict="falsified",
        falsifier={
            "lambda": float(lams[g]),
            "competitor": cloud.points[int(arg[g])].tolist(),
        },
        per_lambda=ok,
    )


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
    vx = _check_vector(s, x)
    if cloud.index_of(vx) is not None:
        raise QueryInCloud("query already belongs to the cloud")
    pr = project(s, cloud, vx)
    reports = []
    for idx in pr.indices:
        rep = sun_check(s, cloud, vx, cloud.points[idx], lambda_max=lambda_max, grid=grid)
        if rep.holds:
            return rep
        reports.append(rep)
    return NoCandidate(falsifications=reports)


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
    already in the cloud are vacuous and recorded as skipped; the grid
    and lambda_max are checked even when every query is skipped.
    """
    _check_ray_grid(lambda_max, grid)
    qs = np.asarray(queries, dtype=float)
    if qs.ndim != 2 or qs.shape[0] == 0:
        raise ValueError("queries must be a nonempty (q, dim) array")
    skipped: list[int] = []
    failures: list[dict] = []
    for qi, q in enumerate(qs):
        if cloud.index_of(q) is not None:
            skipped.append(qi)
            continue
        if strict:
            pr = project(s, cloud, q)
            for idx in pr.indices:
                rep = sun_check(s, cloud, q, cloud.points[idx], lambda_max=lambda_max, grid=grid)
                if not rep.holds:
                    failures.append({"query": qi, "report": rep.to_json()})
                    break
        else:
            res = find_luminosity(s, cloud, q, lambda_max=lambda_max, grid=grid)
            if not res.holds:
                failures.append({"query": qi, "report": res.to_json()})
    return SunSampleReport(
        queries=qs.shape[0],
        skipped=skipped,
        failures=failures,
        strict=strict,
        lambda_max=float(lambda_max),
        grid=int(grid),
        passed=not failures,
    )
