"""Seeded invariant suites behind the `verify` CLI command.

Each suite returns a JSON-ready dict with a `passed` flag; `run_verify`
bundles them. Tests reuse the suites directly with larger budgets.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud
from .hull import (
    _GRID_DEFAULT,
    _gap_grid,
    _grid_points,
    _grid_resolution,
    _in_slabs,
    ball_hull_outer,
    interval,
)
from .metric import (
    PathNotFound,
    Weights,
    _nearest_dists,
    between_equiv_check,
    check_weights,
    geometric_weights,
    monotone_path,
    seq_convergence_check,
    uniform_weights,
)
from .space import Space, _values, builtin, norm, random_space


def default_spaces(seed: int = 12345) -> list[Space]:
    """The builtin battery plus four random validated spaces."""
    spaces = [builtin(name, n) for name in ("linf", "l1") for n in (2, 3, 4)]
    for i in range(4):
        dim = 2 + i % 3
        spaces.append(random_space(dim, pairs=dim + 2, seed=seed + i))
    return spaces


def equivalence_suite(spaces: list[Space], trials: int, seed: int, tol: float = 1e-9) -> dict:
    """Three-way betweenness equivalence over every space."""
    per_space = []
    disagreements = 0
    for i, s in enumerate(spaces):
        rep = between_equiv_check(s, geometric_weights(s), trials, seed + i, tol=tol)
        disagreements += rep.counts["disagreements"]
        per_space.append(
            {
                "space": s.name,
                "trials": rep.trials,
                "disagreements": rep.counts["disagreements"],
                "examples": rep.disagreements[:4],
            }
        )
    return {
        "trials_per_space": trials,
        "spaces": per_space,
        "disagreements": disagreements,
        "passed": disagreements == 0,
    }


def hull_inclusion_suite(spaces: list[Space], pairs: int, seed: int) -> dict:
    """Every interval grid point must pass the predicate of 128 sampled
    balls, on a grid of half the gap report's default resolution (at least
    8 points per axis)."""
    per_space = []
    total_violations = 0
    for si, s in enumerate(spaces):
        res = max(8, _grid_resolution(s) // 2)
        rng = np.random.default_rng(seed + si)
        violations = 0
        witness = None
        checked = 0
        for t in range(pairs):
            x = rng.uniform(-1.0, 1.0, size=s.dim)
            y = rng.uniform(-1.0, 1.0, size=s.dim)
            box = interval(s, x, y)
            approx = ball_hull_outer(s, x, y, n_balls=128, seed=seed + 7919 * t)
            grid, cols, _ = _gap_grid(s, x, y, res)
            inside = _in_slabs(cols, box.lo, box.hi)
            checked += int(inside.sum())
            bad = inside & ~_in_slabs(cols, approx.lo, approx.hi)
            if bad.any():
                violations += int(bad.sum())
                if witness is None:
                    witness = {"pair": [x.tolist(), y.tolist()], "point": grid[bad][0].tolist()}
        total_violations += violations
        per_space.append(
            {
                "space": s.name,
                "pairs": pairs,
                "grid_points_checked": checked,
                "violations": violations,
                "witness": witness,
            }
        )
    return {"spaces": per_space, "violations": total_violations, "passed": total_violations == 0}


def _random_sequences(s: Space, count: int, length: int, rng: np.random.Generator):
    """Half clearly convergent, half offset by a vector far above tolerance
    in both measures."""
    for k in range(count):
        limit = rng.uniform(-1.0, 1.0, size=s.dim)
        noise = rng.uniform(-1.0, 1.0, size=(length, s.dim))
        decay = rng.uniform(0.75, 0.9) ** np.arange(length)
        seq = limit + decay[:, None] * noise
        convergent = k % 2 == 0
        if not convergent:
            v = rng.normal(size=s.dim)
            seq = seq + 3.0 * v / norm(s, v)
        yield seq, limit, convergent


def convergence_suite(
    spaces: list[Space],
    sequences: int,
    length: int,
    seed: int,
    tolerances: tuple[float, ...] = (1e-3, 1e-6),
) -> dict:
    """Associated-norm vs per-functional convergence verdicts must agree."""
    per_space = []
    mismatches = 0
    for si, s in enumerate(spaces):
        w = geometric_weights(s)
        rng = np.random.default_rng(seed + si)
        bad = 0
        for seq, limit, convergent in _random_sequences(s, sequences, length, rng):
            for tol in tolerances:
                rep = seq_convergence_check(s, w, seq, limit, tol)
                if not rep.agree or rep.assoc_converged != convergent:
                    bad += 1
        mismatches += bad
        per_space.append({"space": s.name, "sequences": sequences, "mismatches": bad})
    return {
        "tolerances": list(tolerances),
        "spaces": per_space,
        "mismatches": mismatches,
        "passed": mismatches == 0,
    }


def _box_net(step: float) -> PointCloud:
    """The grid of spacing step on the unit square."""
    axis = np.arange(0.0, 1.0 + step / 2, step)
    return PointCloud(_grid_points([axis, axis]))


def two_sheet_cloud(q: int, step: float = 0.5) -> PointCloud:
    """Discretized union of the slices {x_1 = 1} and {x_1 = 2}."""
    axes = [np.arange(0.0, 1.0 + step / 2, step) for _ in range(q - 1)]
    rest = _grid_points(axes)
    sheet1 = np.hstack([np.full((rest.shape[0], 1), 1.0), rest])
    sheet2 = np.hstack([np.full((rest.shape[0], 1), 2.0), rest])
    return PointCloud(np.vstack([sheet1, sheet2]))


def max_nn_distance(s: Space, w: Weights, cloud: PointCloud) -> float:
    """Largest nearest-neighbour associated-norm distance in the cloud; inf
    for a one-point cloud. It equals the dense matrix's, but only the
    sorted windows of metric._nearest_dists are scanned."""
    check_weights(s, w)
    cloud.require_nonempty()
    cloud.require_dim(s.dim)
    return float(_nearest_dists(_values(s, cloud.points), w.alphas).max())


def path_suite() -> dict:
    """Fixed monotone-path battery: refinement, direct edges, epsilon-net
    success and cross-sheet failure."""
    s = builtin("linf", 2)
    w = uniform_weights(s)
    results = []

    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    p = monotone_path(s, w, cloud, [0.0, 0.0], [2.0, 0.0])
    results.append(
        {
            "case": "collinear_refined",
            "ok": not isinstance(p, PathNotFound)
            and len(p.points) == 3
            and p.defect <= 1e-9
            and p.monotone,
        }
    )

    cloud = PointCloud([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    p = monotone_path(s, w, cloud, [0.0, 0.0], [2.0, 0.0])
    results.append(
        {
            "case": "direct_edge",
            "ok": not isinstance(p, PathNotFound) and len(p.points) == 2 and p.defect <= 1e-9,
        }
    )

    net = _box_net(0.1)
    hop = 1.5 * max_nn_distance(s, w, net)
    p = monotone_path(s, w, net, [0.0, 0.0], [1.0, 1.0], hop=hop)
    results.append(
        {
            "case": "box_net",
            "ok": not isinstance(p, PathNotFound)
            and p.defect <= 1e-6 * max(p.target, 1.0)
            and p.monotone,
        }
    )

    sheets = two_sheet_cloud(2, step=0.25)
    hop = 1.5 * max_nn_distance(s, w, sheets)
    p = monotone_path(s, w, sheets, [1.0, 0.0], [2.0, 1.0], hop=hop)
    results.append({"case": "two_sheet_notfound", "ok": isinstance(p, PathNotFound)})

    two = PointCloud([[0.0, 0.0], [1.0, 1.0]])
    p = monotone_path(s, w, two, [0.0, 0.0], [1.0, 1.0], hop=0.5)
    results.append({"case": "two_points_hop_notfound", "ok": isinstance(p, PathNotFound)})

    return {"cases": results, "passed": all(r["ok"] for r in results)}


def run_verify(trials: int = 1000, seed: int = 0) -> dict:
    spaces = default_spaces(seed=seed + 1000)
    grid_spaces = [s for s in spaces if s.dim in _GRID_DEFAULT]
    sections = {
        "equivalence": equivalence_suite(spaces, trials, seed),
        "hull_inclusion": hull_inclusion_suite(
            grid_spaces, pairs=max(10, trials // 100), seed=seed + 1
        ),
        "convergence": convergence_suite(
            spaces, sequences=10, length=200, seed=seed + 2
        ),
        "paths": path_suite(),
    }
    return {"sections": sections, "passed": all(sec["passed"] for sec in sections.values())}
