"""Seeded inputs for the benchmark.

Plain numpy only: the program under test receives the arrays built here,
never the seed. Nets use a dyadic mesh step, so every coordinate and every
neighbour spacing is exact in binary floating point and a verdict cannot
depend on rounding in how the net was built. The one net that is built
with ``np.arange(..., 0.1)`` on purpose is ``arange_grid``.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

H = 1.0 / 32

# x = u @ L1_FROM_LINF.T sends a linf(2) net to an l1(2) net: the l1(2)
# functionals (1, 1) and (1, -1) read the linf coordinates u back exactly.
L1_FROM_LINF = np.array([[0.5, 0.5], [0.5, -0.5]])


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """One independent stream per (seed, input) pair."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def dyadic_shift(rng: np.random.Generator, dim: int, span: int = 64) -> np.ndarray:
    """A random translation by whole mesh steps, so exactness survives it."""
    return rng.integers(-span, span + 1, size=dim) * H


def in_space(space: str, u: np.ndarray) -> np.ndarray:
    """Place a net laid out in linf coordinates into the named space."""
    return u @ L1_FROM_LINF.T if space == "l1(2)" else u


def box_net(n: int, dim: int = 2, h: float = H) -> np.ndarray:
    """The n**dim grid with step h, row-major."""
    axes = [np.arange(n) * h] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


def staircase(points: int, runs: int, rng: np.random.Generator, h: float = H) -> np.ndarray:
    """A monotone staircase line net: alternating +x and +y runs of random
    lengths with `points` points in all."""
    cuts = np.sort(rng.choice(np.arange(1, points - 1), size=runs - 1, replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [points - 1]]))
    steps = np.concatenate(
        [np.tile([1, 0] if r % 2 == 0 else [0, 1], (k, 1)) for r, k in enumerate(lengths)]
    )
    return np.vstack([[0, 0], np.cumsum(steps, axis=0)]) * h


def two_sheets(n: int, dim: int, h: float = H, gap: int = 8) -> np.ndarray:
    """Two parallel copies of the n**(dim-1) grid at x_1 = 0 and
    x_1 = gap * h, first sheet first. No point lies between a point of one
    sheet and its copy in the other."""
    sheet = box_net(n, dim - 1, h)
    first = np.hstack([np.zeros((sheet.shape[0], 1)), sheet])
    second = np.hstack([np.full((sheet.shape[0], 1), gap * h), sheet])
    return np.vstack([first, second])


def arange_grid() -> np.ndarray:
    """A 9 x 9 linf grid built with step 0.1. Its neighbour spacings
    differ in the last bit (0.1 against 0.09999999999999998)."""
    ticks = np.arange(0.0, 0.85, 0.1)
    return np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)


def segment(n: int, axis: int, h: float, origin: np.ndarray) -> np.ndarray:
    """n points with step h along a coordinate axis, starting at origin."""
    pts = np.tile(origin, (n, 1)).astype(float)
    pts[:, axis] += np.arange(n) * h
    return pts


def beside_queries(
    rng: np.random.Generator,
    seg: np.ndarray,
    axis: int,
    count: int,
    offsets: tuple[float, float],
    overhang: float,
) -> np.ndarray:
    """Queries off an axis-parallel segment: along the axis anywhere within
    `overhang` of its span (as a share of its length), and off it by a
    distance drawn from `offsets` on either side. Every query keeps at least
    offsets[0] from the segment."""
    lo, hi = seg[0, axis], seg[-1, axis]
    pad = overhang * (hi - lo)
    q = np.tile(seg[0], (count, 1)).astype(float)
    q[:, axis] = rng.uniform(lo - pad, hi + pad, size=count)
    off = rng.uniform(offsets[0], offsets[1], size=count) * rng.choice([-1.0, 1.0], size=count)
    q[:, 1 - axis] += off
    return q


def circle(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n points on the Euclidean unit circle around a random dyadic centre
    (random phase). Returns (points, centre)."""
    centre = dyadic_shift(rng, 2, span=32)
    theta = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(n) / n
    return centre + np.stack([np.cos(theta), np.sin(theta)], axis=1), centre


def interior_queries(rng: np.random.Generator, centre: np.ndarray, count: int) -> np.ndarray:
    """Queries at Euclidean radius at most 0.5 inside the unit circle, so
    each is at least 0.35 from it in the max norm."""
    radius = 0.5 * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return centre + radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)


def box_queries(rng: np.random.Generator, points: np.ndarray, count: int, pad: float) -> np.ndarray:
    lo = points.min(axis=0) - pad
    hi = points.max(axis=0) + pad
    return rng.uniform(lo, hi, size=(count, points.shape[1]))


def write_json_cloud(path, points: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"points": points.tolist()}, fh)


def write_csv_cloud(path, points: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in points)
