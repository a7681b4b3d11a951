"""The benchmark's checks reject corrupted outputs.

    python3 -m pytest perfbench

Each test builds a right output by hand, shows that its checker accepts it,
then corrupts it and expects a rejection.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import inputs
from checks import CheckError

LINF2 = checks.representatives(checks.family("linf2"))
UNIFORM = checks.alphas("uniform", 2)


def test_families_match_the_documented_canonical_order():
    assert checks.family("linf2").tolist() == [[-1, 0], [0, -1], [0, 1], [1, 0]]
    assert LINF2.tolist() == [[0, 1], [1, 0]]
    assert checks.representatives(checks.family("l1(2)")).tolist() == [[1, -1], [1, 1]]
    assert checks.family("l1(3)").shape == (8, 3)


def _line(n=5):
    return np.stack([np.arange(n) * inputs.H, np.zeros(n)], axis=1)


def test_path_with_skipped_witness_is_rejected():
    # A line of five points plus one far point, so the hop bound
    # (1.5 x the largest nearest-neighbour distance) allows a double step.
    pts = np.vstack([_line(), [[4 * inputs.H, 10 * inputs.H]]])
    hop = 1.5 * checks.max_nn_distance(pts, LINF2, UNIFORM)
    length = float(2 * inputs.H * 0.5)
    good = SimpleNamespace(points=pts[:3], length=length)
    checks.check_path(pts, LINF2, UNIFORM, 0, 2, hop, good)
    skipped = SimpleNamespace(points=pts[[0, 2]], length=length)
    with pytest.raises(CheckError, match="skips cloud point 1"):
        checks.check_path(pts, LINF2, UNIFORM, 0, 2, hop, skipped)
    with pytest.raises(CheckError, match="longer than the hop"):
        line = pts[:5]
        checks.check_path(line, LINF2, UNIFORM, 0, 2, 1.5 * checks.max_nn_distance(line, LINF2, UNIFORM),
                          skipped)


def test_sun_pass_whose_y_is_not_nearest_is_rejected():
    seg = _line(9)
    x = np.array([4 * inputs.H, -inputs.H / 4])
    good = {"verdict": "holds-on-grid", "x": x.tolist(), "y": seg[4].tolist()}
    checks.check_sun_holds(seg, LINF2, good)
    with pytest.raises(CheckError, match="not nearest"):
        checks.check_sun_holds(seg, LINF2, dict(good, y=seg[0].tolist()))
    with pytest.raises(CheckError, match="not a cloud point"):
        checks.check_sun_holds(seg, LINF2, dict(good, y=[4 * inputs.H, -inputs.H / 8]))
    res = SimpleNamespace(queries=1, skipped=[], passed=False, failures=[{"query": 0}])
    with pytest.raises(CheckError, match="falsified"):
        checks.check_sun_pass(res, 1)


def test_falsification_with_a_farther_competitor_is_rejected():
    ring = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    x = np.array([0.5, 0.0])
    good = {"verdict": "falsified", "x": x.tolist(), "y": [1.0, 0.0],
            "falsifier": {"lambda": 16.0, "competitor": [-1.0, 0.0]}}
    checks.check_falsification(ring, LINF2, good)
    bad = dict(good, falsifier={"lambda": 1.0, "competitor": [0.0, 1.0]})
    with pytest.raises(CheckError, match="not strictly nearer"):
        checks.check_falsification(ring, LINF2, bad)


def _hull(x, y, f):
    centers = np.vstack([x, y, 0.5 * (x + y)])
    radii = np.maximum((centers - x) @ f.T, (centers - y) @ f.T).max(axis=1)
    upper = (centers @ f.T + radii[:, None]).min(axis=0)
    return SimpleNamespace(centers=centers, radii=radii, upper=upper)


def test_hull_bound_below_an_endpoint_is_rejected():
    f = checks.family("linf2")
    x, y = np.array([0.0, 0.0]), np.array([2.0, 1.0])
    hull = _hull(x, y, f)
    checks.check_hull(f, x, y, hull)
    hull.upper = hull.upper.copy()
    hull.upper[np.argmax(f @ y)] -= 1e-6
    with pytest.raises(CheckError, match="below an endpoint"):
        checks.check_hull(f, x, y, hull)
    wrong_radius = _hull(x, y, f)
    wrong_radius.radii = wrong_radius.radii + 1e-6
    with pytest.raises(CheckError, match="radii"):
        checks.check_hull(f, x, y, wrong_radius)


def test_growing_gap_is_rejected():
    checks.check_gap_sequence([0.3, 0.1, 0.0], 0.01, [True] * 3)
    with pytest.raises(CheckError, match="gap grows"):
        checks.check_gap_sequence([0.1, 0.3, 0.0], 0.01, [True] * 3)
    with pytest.raises(CheckError, match="twice the step"):
        checks.check_gap_sequence([0.3, 0.1], 0.01, [True] * 2)


def _envelope(result):
    return {"command": "project", "version": "0", "seed": 0, "config": {}, "result": result}


def test_nan_report_is_rejected():
    ok = json.dumps(_envelope({"distance": 1.0, "indices": [0], "points": [[0, 0]]}))
    assert checks.parse_report(ok.encode(), "project")["result"]["distance"] == 1.0
    nan = json.dumps(_envelope({"distance": float("nan"), "indices": [], "points": []}))
    with pytest.raises(CheckError, match="not strict JSON"):
        checks.parse_report(nan.encode(), "project")
    with pytest.raises(CheckError, match="envelope"):
        checks.parse_report(json.dumps({"result": {}}).encode(), "project")


def test_projection_with_missing_tie_is_rejected():
    seg = _line(9)
    q = np.array([4 * inputs.H, 2 * inputs.H])
    d, dmin, thr = checks.nearest(seg, LINF2, q)
    ties = np.nonzero(d <= thr)[0]
    checks.check_projection(seg, LINF2, q, dmin, ties)
    with pytest.raises(CheckError, match="missing"):
        checks.check_projection(seg, LINF2, q, dmin, ties[1:])
    with pytest.raises(CheckError, match="distance"):
        checks.check_projection(seg, LINF2, q, dmin * 1.01, ties)


def test_witness_with_a_point_in_its_interval_is_rejected():
    pts = inputs.two_sheets(4, 2)
    good = SimpleNamespace(connected=False, witness=(0, 4), adjacency_eps=inputs.H)
    checks.check_witness(pts, LINF2, good, 4)
    inside = SimpleNamespace(connected=False, witness=(0, 7), adjacency_eps=inputs.H)
    with pytest.raises(CheckError, match="interval holds"):
        checks.check_witness(pts, LINF2, inside, 4)
    same_sheet = SimpleNamespace(connected=False, witness=(0, 2), adjacency_eps=inputs.H)
    with pytest.raises(CheckError, match="does not join"):
        checks.check_witness(pts, LINF2, same_sheet, 4)


def test_benchmark_json_lists_the_metrics_run_py_prints():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["library", "cli"]
