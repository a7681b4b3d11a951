"""Output checks, computed apart from the program.

Every check here is plain numpy over the inputs the benchmark built and the
values the program returned; none calls into the package under test. Each
raises CheckError on a wrong output. Nothing is compared with stored output.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np

SLAB_TOL = 1e-10
TIE_TOL = 1e-9
ROUND = 1e-12


class CheckError(Exception):
    """The program returned a wrong output."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- norms, written out independently -------------------------------------


def family(name: str) -> np.ndarray:
    """The full functional family of a builtin space ("linf2", "l1(3)"),
    in lexicographic order."""
    m = re.fullmatch(r"(linf|l1)\(?(\d+)\)?", name)
    kind, n = m.group(1), int(m.group(2))
    if kind == "linf":
        rows = [tuple(s * float(i == j) for j in range(n)) for i in range(n) for s in (1.0, -1.0)]
    else:
        rows = list(itertools.product((-1.0, 1.0), repeat=n))
    return np.array(sorted({tuple(v + 0.0 for v in r) for r in rows}))


def representatives(functionals: np.ndarray) -> np.ndarray:
    """One functional per antipodal pair: the one whose first nonzero entry
    is positive, in the family's order."""
    f = np.asarray(functionals, dtype=float)
    lead = f[np.arange(f.shape[0]), (f != 0.0).argmax(axis=1)]
    return f[lead > 0]


def alphas(scheme: str, pairs: int) -> np.ndarray:
    if scheme == "uniform":
        return np.full(pairs, 1.0 / pairs)
    raw = 0.5 ** np.arange(1, pairs + 1)
    return raw / raw.sum()


def max_norms(reps: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(diffs, dtype=float) @ reps.T).max(axis=1)


def in_slab(vals: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float = SLAB_TOL) -> np.ndarray:
    """Rows of `vals` (functional values) inside the slab interval of the
    value rows a and b."""
    lo = np.minimum(a, b) - tol
    hi = np.maximum(a, b) + tol
    return ((vals >= lo) & (vals <= hi)).all(axis=1)


def row_index(points: np.ndarray, p) -> int:
    hits = np.nonzero((points == np.asarray(p, dtype=float)).all(axis=1))[0]
    require(hits.size == 1, f"point {list(p)} is not a cloud point")
    return int(hits[0])


# --- nets -------------------------------------------------------------------


def max_nn_distance(points: np.ndarray, reps: np.ndarray, w: np.ndarray) -> float:
    vals = points @ reps.T
    best = np.inf * np.ones(len(points))
    for start in range(0, len(points), 256):
        d = np.abs(vals[start : start + 256, None, :] - vals[None, :, :]) @ w
        d[np.arange(d.shape[0]), np.arange(start, start + d.shape[0])] = np.inf
        best[start : start + 256] = d.min(axis=1)
    return float(best.max())


def check_path(points, reps, w, src: int, dst: int, hop: float, path) -> None:
    """A monotone path on a net: endpoints, length against the target, hop
    bound, monotonicity in every functional, and no skipped witness."""
    require(hasattr(path, "points"), f"no path found: {getattr(path, 'reason', path)}")
    nn = max_nn_distance(points, reps, w)
    require(abs(hop - 1.5 * nn) <= ROUND * hop, f"hop {hop} is not 1.5 x max nn distance {nn}")
    idx = [row_index(points, p) for p in path.points]
    require(idx[0] == src and idx[-1] == dst, "path does not join the requested endpoints")
    vals = points @ reps.T
    steps = np.diff(vals[idx], axis=0)
    lengths = np.abs(steps) @ w
    target = float(np.abs(vals[dst] - vals[src]) @ w)
    total = float(lengths.sum())
    require(abs(total - target) <= 1e-6 * target, f"length {total} misses target {target}")
    require(abs(total - path.length) <= 1e-9 * target, f"reported length {path.length} != {total}")
    require(bool((lengths <= hop * (1 + ROUND)).all()), "a step is longer than the hop bound")
    span = np.abs(vals[dst] - vals[src])
    slack = TIE_TOL * (1.0 + span)
    mono = (steps >= -slack).all(axis=0) | (steps <= slack).all(axis=0)
    require(bool(mono.all()), f"path not monotone in functionals {np.nonzero(~mono)[0].tolist()}")
    for a, b in zip(idx[:-1], idx[1:]):
        inside = in_slab(vals, vals[a], vals[b])
        inside[[a, b]] = False
        require(not inside.any(), f"step {a}->{b} skips cloud point {int(np.argmax(inside))}")


def _pair_count_ok(report, m: int) -> None:
    total = report.pairs_checked + report.pairs_exempt
    require(total == m * (m - 1) // 2, f"pairs checked + exempt = {total}, want {m * (m - 1) // 2}")


def connected_grid_verdict(points, reps, report) -> bool:
    """Checks a connected grid's report; False when it wrongly reports a
    witness (the caller decides whether that is a known fault)."""
    if not report.connected:
        return False
    require(report.witness is None, "connected report carries a witness")
    _pair_count_ok(report, len(points))
    return True


def check_witness(points, reps, report, split: int) -> None:
    """A two-sheet cloud (rows [0, split) form one sheet) is not connected,
    and its witness joins the sheets with nothing in its interval."""
    require(not report.connected, "two-sheet cloud reported m-connected")
    i, j = report.witness
    require((i < split) != (j < split), f"witness {i, j} does not join the sheets")
    vals = points @ reps.T
    require(max_norms(reps, points[[i]] - points[[j]])[0] > report.adjacency_eps,
            "witness pair is within the adjacency exemption")
    inside = in_slab(vals, vals[i], vals[j])
    inside[[i, j]] = False
    require(not inside.any(), f"witness interval holds cloud point {int(np.argmax(inside))}")


# --- nearest points ------------------------------------------------------------


def nearest(points, reps, q):
    """Brute-force distance to the cloud and the tie threshold."""
    d = max_norms(reps, points - np.asarray(q, dtype=float))
    dmin = float(d.min())
    return d, dmin, dmin + TIE_TOL * (1.0 + dmin)


def check_projection(points, reps, q, distance: float, indices) -> None:
    d, dmin, thr = nearest(points, reps, q)
    require(abs(distance - dmin) <= ROUND * (1.0 + dmin), f"distance {distance} != {dmin}")
    got = np.zeros(len(points), dtype=bool)
    got[np.asarray(indices, dtype=int)] = True
    slack = ROUND * (1.0 + dmin)
    require(not (~got & (d <= thr - slack)).any(), "a tied minimiser is missing")
    require(not (got & (d > thr + slack)).any(), "a reported minimiser is not nearest")


def check_sun_pass(report, count: int) -> None:
    """Queries on a sampled convex set, kept clear of it, all pass."""
    require(report.queries == count and not report.skipped, "queries skipped or miscounted")
    require(report.passed and not report.failures, f"{len(report.failures)} queries falsified")


def check_sun_holds(points, reps, sun: dict) -> None:
    """A pass names a cloud point y that is a nearest point of x."""
    require(sun["verdict"] == "holds-on-grid", "query falsified")
    x, y = np.asarray(sun["x"]), np.asarray(sun["y"])
    row_index(points, y)
    _, _, thr = nearest(points, reps, x)
    require(max_norms(reps, (x - y)[None])[0] <= thr, "passing candidate y is not nearest")


def check_falsification(points, reps, sun: dict) -> None:
    """y is a nearest point of x, and the competitor is strictly nearer than
    y to the ray point at the reported lambda."""
    require(sun["verdict"] == "falsified" and sun["falsifier"], "falsification without falsifier")
    x, y = np.asarray(sun["x"]), np.asarray(sun["y"])
    row_index(points, y)
    d, _, thr = nearest(points, reps, x)
    require(max_norms(reps, (x - y)[None])[0] <= thr, "falsified candidate y is not nearest")
    lam = sun["falsifier"]["lambda"]
    c = np.asarray(sun["falsifier"]["competitor"])
    row_index(points, c)
    z = y + lam * (x - y)
    dy, dc = max_norms(reps, np.array([z - y, z - c]))
    require(dc + TIE_TOL * (1.0 + dc) < dy, f"competitor not strictly nearer at lambda {lam}")


def check_sun_fail(points, reps, report, count: int) -> None:
    """Every query fails, and every falsification holds up."""
    require(report.queries == count and not report.skipped, "queries skipped or miscounted")
    require(not report.passed and len(report.failures) == count, "a non-sun query passed")
    for failure in report.failures:
        falsifications = failure["report"]["falsifications"]
        require(falsifications, "failure without falsifications")
        for sun in falsifications:
            check_falsification(points, reps, sun)


def check_embedding(points, reps, indices, result, rng) -> None:
    """Rows equal points @ reps[idx].T (collapsing nothing on these inputs),
    and the full embedding is an isometry on sampled pairs."""
    want = points @ reps[np.asarray(indices)].T
    got = np.asarray(result.cloud.points)
    require(got.shape == want.shape, f"embedded shape {got.shape} != {want.shape}")
    require(list(result.preimages) == list(range(len(points))), "unexpected preimages")
    require(set(result.multiplicities) == {1}, "unexpected multiplicities")
    require(np.allclose(got, want, rtol=0.0, atol=ROUND), "embedded rows differ")
    if len(indices) == reps.shape[0]:
        i = rng.integers(0, len(points), size=256)
        j = rng.integers(0, len(points), size=256)
        src = max_norms(reps, points[i] - points[j])
        dst = np.abs(got[i] - got[j]).max(axis=1)
        require(np.allclose(src, dst, rtol=ROUND, atol=ROUND), "full embedding not isometric")


# --- hulls -------------------------------------------------------------------


def check_hull(functionals, x, y, approx) -> None:
    """upper_j >= max(f_j x, f_j y) for every functional, and every radius
    is the smallest admissible one for its centre."""
    f = np.asarray(functionals)
    fx, fy = f @ x, f @ y
    floor = np.maximum(fx, fy)
    require(bool((approx.upper >= floor - ROUND * (1.0 + np.abs(floor))).all()),
            "hull bound below an endpoint value")
    c = np.asarray(approx.centers)
    radii = np.maximum((c - x) @ f.T, (c - y) @ f.T).max(axis=1)
    require(np.allclose(approx.radii, radii, rtol=ROUND, atol=ROUND), "radii differ")


def check_gap_sequence(gaps: list[float], step: float, contained: list[bool]) -> None:
    """Nested ball sets: the gap never grows with n_balls, the interval stays
    inside the hull, and the last gap is at most twice the grid step."""
    require(all(contained), "interval leaks out of the sampled hull")
    require(all(b <= a + ROUND for a, b in zip(gaps, gaps[1:])), f"gap grows: {gaps}")
    require(gaps[-1] <= 2.0 * step, f"final gap {gaps[-1]} above twice the step {step}")


def check_mei(report) -> None:
    require(report.passed and not report.violations, f"mei violations {report.violations[:2]}")


def check_oracle(interval_report, oracle_report, m: int) -> None:
    """Oracle mode says connected wherever interval mode does."""
    for rep in (interval_report, oracle_report):
        if rep.connected:
            _pair_count_ok(rep, m)
    require(interval_report.connected, "dyadic grid reported not m-connected")
    require(oracle_report.connected, "oracle mode disagrees with interval mode")


def check_verify(first: dict, again: dict) -> None:
    require(first["passed"], "run_verify failed a suite")
    a = json.dumps(first, sort_keys=True)
    require(a == json.dumps(again, sort_keys=True), "run_verify differs between two runs")


# --- command line ---------------------------------------------------------------


def _no_constants(token: str):
    raise CheckError(f"report is not strict JSON: {token}")


def parse_report(stdout: bytes, command: str) -> dict:
    """stdout is strict JSON (no NaN or Infinity) in the report envelope."""
    try:
        report = json.loads(stdout.decode("utf-8"), parse_constant=_no_constants)
    except ValueError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from exc
    require(
        isinstance(report, dict)
        and set(report) == {"command", "version", "seed", "config", "result"}
        and report["command"] == command,
        "report envelope is wrong",
    )
    return report


def check_exit(code: int, want: int, what: str) -> None:
    require(code == want, f"{what}: exit code {code}, want {want}")


def check_slabs(result: dict, reps: np.ndarray, x, y) -> None:
    vx, vy = reps @ np.asarray(x, dtype=float), reps @ np.asarray(y, dtype=float)
    slabs = result["interval"]["slabs"]
    require(len(slabs) == reps.shape[0], "wrong number of slabs")
    lo = np.array([s["lo"] for s in slabs])
    hi = np.array([s["hi"] for s in slabs])
    require(np.allclose(lo, np.minimum(vx, vy), rtol=0, atol=ROUND)
            and np.allclose(hi, np.maximum(vx, vy), rtol=0, atol=ROUND), "slab bounds differ")
