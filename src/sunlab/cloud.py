"""Finite point clouds: the discretized closed sets every driver works on."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DuplicatePoints, EmptyCloud, ParseError
from .space import _first_rows, _float_rows, _max_abs

_INDEX_TOL = 1e-12


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

    def require_dim(self, dim: int) -> None:
        if self.dim != dim:
            raise DimensionMismatch(
                f"cloud dimension {self.dim} does not match space dimension {dim}"
            )

    def require_unique(self) -> None:
        first = _first_rows(self.points)
        dup = np.flatnonzero(first != np.arange(len(self)))
        if dup.size:
            i = dup[0]
            raise DuplicatePoints(f"points {first[i]} and {i} coincide")

    def index_of(self, x) -> int | None:
        """Index of the first point within _INDEX_TOL of x in every coordinate.
        An exact match has gap 0, and argmin returns the first minimum, so
        the first exact match wins over near ones. The gaps are taken one
        coordinate column at a time (see space._max_abs); x must have one
        entry per coordinate."""
        vx = np.asarray(x, dtype=float)
        if vx.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected a point of length {self.dim}, got shape {vx.shape}"
            )
        if not len(self):
            return None
        gaps = _max_abs(col - xk for col, xk in zip(self.points.T, vx.tolist()))
        j = int(np.argmin(gaps))
        return j if gaps[j] <= _INDEX_TOL else None


def cloud_to_json(cloud: PointCloud) -> dict:
    return {"points": cloud.points.tolist()}


def cloud_from_json(data) -> PointCloud:
    if not isinstance(data, dict) or "points" not in data:
        raise ParseError("point cloud JSON needs a 'points' array")
    pts = _float_rows(data["points"], ParseError, "point cloud JSON")
    if pts.size == 0:
        raise EmptyCloud("point cloud JSON has no points")
    return PointCloud(pts)


def _not_utf8(path: str, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{path}: not UTF-8 (byte 0x{exc.object[exc.start]:02x}: {exc.reason})")


def _read_json(path: str):
    """The parsed contents of a UTF-8 JSON input file (a cloud, space or
    weights file). A syntax error names the file, line and column, and a
    file that is not UTF-8 names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def load_cloud(path: str) -> PointCloud:
    """Read a cloud from a .json file ({"points": [[...], ...]}) or a UTF-8
    CSV file with one point per row. Blank lines and trailing empty cells
    are skipped; an empty cell before a number is an error, so that 0,,0
    is not read as the point (0, 0)."""
    if path.endswith(".json"):
        return cloud_from_json(_read_json(path))
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                cells = [c.strip() for c in row]
                if "" in cells:
                    while cells and not cells[-1]:
                        cells.pop()
                    if "" in cells:
                        raise ParseError(f"{path}: empty cell at line {lineno}")
                if not cells:
                    continue
                try:
                    rows.append([float(c) for c in cells])
                except ValueError as exc:
                    raise ParseError(f"{path}: bad number at line {lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
    if not rows:
        raise ParseError(f"{path}: no points found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: rows have inconsistent lengths")
    return PointCloud(np.asarray(rows, dtype=float))
