"""Finite point clouds: the discretized closed sets every driver works on."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DuplicatePoints, EmptyCloud, ParseError
from .space import _first_rows, _float_rows


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered finite set of points in R^n (rows of `points`).

    Construction does not deduplicate; operations that need pairwise
    distinct points call require_unique().
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatch("a point cloud is a 2d array, one point per row")
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def require_nonempty(self) -> None:
        if len(self) == 0:
            raise EmptyCloud("operation needs at least one point")

    def require_unique(self) -> None:
        first = _first_rows(self.points)
        dup = np.flatnonzero(first != np.arange(len(self)))
        if dup.size:
            i = dup[0]
            raise DuplicatePoints(f"points {first[i]} and {i} coincide")

    def index_of(self, x, tol: float = 1e-12) -> int | None:
        """Index of x in the cloud (exact match first, then within tol)."""
        x = np.asarray(x, dtype=float)
        exact = np.nonzero((self.points == x).all(axis=1))[0]
        if exact.size:
            return int(exact[0])
        if len(self) and tol > 0:
            gaps = np.max(np.abs(self.points - x), axis=1)
            j = int(np.argmin(gaps))
            if gaps[j] <= tol:
                return j
        return None


def cloud_to_json(cloud: PointCloud) -> dict:
    return {"points": [list(row) for row in cloud.points]}


def cloud_from_json(data) -> PointCloud:
    if not isinstance(data, dict) or "points" not in data:
        raise ParseError("point cloud JSON needs a 'points' array")
    pts = _float_rows(data["points"], ParseError, "point cloud JSON")
    if pts.size == 0:
        raise EmptyCloud("point cloud JSON has no points")
    return PointCloud(pts)


def load_cloud(path: str) -> PointCloud:
    """Read a cloud from a .json file ({"points": [[...], ...]}) or a CSV
    file with one point per row."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(
                    f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
                ) from exc
        return cloud_from_json(data)
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in row if c.strip()]
            if not cells:
                continue
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ParseError(f"{path}: bad number at line {lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no points found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: rows have inconsistent lengths")
    return PointCloud(np.asarray(rows, dtype=float))
