import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sunlab import cli, hull
from sunlab.cli import main

COLLINEAR3 = {"points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}
TWO_POINTS = {"points": [[0.0, 0.0], [2.0, 0.0]]}


@pytest.fixture
def cloud_file(tmp_path):
    def write(data, name="cloud.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mconnect_collinear_passes(capsys, cloud_file):
    code, out, _ = _run(
        capsys, ["mconnect", "--space", "linf2", "--cloud", cloud_file(COLLINEAR3)]
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "mconnect"
    assert report["result"]["m_connected"] is True


def test_mconnect_two_points_falsified(capsys, cloud_file):
    code, out, _ = _run(
        capsys, ["mconnect", "--space", "linf2", "--cloud", cloud_file(TWO_POINTS)]
    )
    assert code == 2
    report = json.loads(out)
    assert report["result"]["m_connected"] is False
    assert report["result"]["witness"] == [0, 1]


def test_path_hop_too_small_exits_two(capsys, cloud_file):
    code, out, _ = _run(
        capsys,
        [
            "path", "--space", "linf2", "--cloud", cloud_file(TWO_POINTS),
            "--from", "0", "--to", "1", "--hop", "0.5",
        ],
    )
    assert code == 2
    report = json.loads(out)
    assert report["result"]["reason"] == "unreachable"


def test_path_plain_succeeds(capsys, cloud_file):
    code, out, _ = _run(
        capsys,
        [
            "path", "--space", "linf2", "--cloud", cloud_file(COLLINEAR3),
            "--from", "0", "--to", "2",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["found"] is True
    # collinear cloud: the path length telescopes to the endpoint distance
    assert report["result"]["length"] == pytest.approx(report["result"]["target"])


def test_interval_reports_vertices(capsys):
    code, out, _ = _run(
        capsys,
        ["interval", "--space", "l1(2)", "--from", "0,0", "--to", "2,0"],
    )
    assert code == 0
    report = json.loads(out)
    verts = {tuple(v) for v in report["result"]["vertices"]}
    assert verts == {(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (1.0, -1.0)}


def test_hull_contained(capsys):
    code, out, _ = _run(
        capsys,
        ["hull", "--space", "linf2", "--from", "0,0", "--to", "2,1", "--balls", "500"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["contained"] is True
    assert report["result"]["gap"] >= 0.0


def test_project_reports_minimizers(capsys, cloud_file):
    code, out, _ = _run(
        capsys,
        [
            "project", "--space", "linf2", "--cloud", cloud_file(COLLINEAR3),
            "--query", "0.4,0",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["distance"] == pytest.approx(0.4)
    assert report["result"]["indices"] == [0]


def test_sun_single_query_holds(capsys, cloud_file):
    code, out, _ = _run(
        capsys,
        [
            "sun", "--space", "linf2", "--cloud", cloud_file(TWO_POINTS),
            "--query", "1,5",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "holds-on-grid"


def test_sun_single_query_falsified(capsys, cloud_file):
    code, out, _ = _run(
        capsys,
        [
            "sun", "--space", "linf2", "--cloud", cloud_file(COLLINEAR3),
            "--query", "0.5,0.2",
        ],
    )
    assert code == 2
    report = json.loads(out)
    assert report["result"]["found"] is False
    falsifications = report["result"]["falsifications"]
    assert falsifications and all(f["verdict"] == "falsified" for f in falsifications)


def test_embed_reports_target_dim(capsys, cloud_file):
    code, out, _ = _run(
        capsys,
        [
            "embed", "--space", "l1(2)", "--cloud", cloud_file(COLLINEAR3),
            "--indices", "1,0",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["target_dim"] == 2
    assert report["result"]["points"] == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]


# --- usage and input errors ----------------------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = _run(capsys, [])
    assert code == 1
    assert "error" in err


def test_unknown_flag_is_usage_error(capsys, cloud_file):
    code, _, err = _run(
        capsys,
        ["mconnect", "--space", "linf2", "--cloud", cloud_file(COLLINEAR3), "--bogus"],
    )
    assert code == 1
    assert "error" in err


def test_bad_space_name_is_usage_error(capsys, cloud_file):
    code, _, err = _run(
        capsys, ["mconnect", "--space", "l7(2)", "--cloud", cloud_file(COLLINEAR3)]
    )
    assert code == 1
    assert "l7(2)" in err


def test_sun_query_and_trials_conflict(capsys, cloud_file):
    code, _, err = _run(
        capsys,
        [
            "sun", "--space", "linf2", "--cloud", cloud_file(COLLINEAR3),
            "--query", "1,5", "--trials", "10",
        ],
    )
    assert code == 1
    assert "not both" in err


def test_malformed_cloud_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [[0, 0],\n oops]}')
    code, _, err = _run(
        capsys, ["mconnect", "--space", "linf2", "--cloud", str(bad)]
    )
    assert code == 1
    assert "error" in err


def test_point_index_out_of_range(capsys, cloud_file):
    code, _, err = _run(
        capsys,
        [
            "path", "--space", "linf2", "--cloud", cloud_file(TWO_POINTS),
            "--from", "0", "--to", "9",
        ],
    )
    assert code == 1
    assert "out of range" in err


# --- files and determinism -------------------------------------------------


def test_out_writes_report_file(capsys, cloud_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys,
        [
            "mconnect", "--space", "linf2", "--cloud", cloud_file(COLLINEAR3),
            "--out", str(out_path),
        ],
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["result"]["m_connected"] is True
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".sunlab-tmp-")]
    assert leftovers == []


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["verify", "--trials", "40", "--seed", "7", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


CLOUD = "<cloud path>"
LINF2_CLOUD = ["--space", "linf2", "--cloud", CLOUD]


@pytest.mark.parametrize(
    "argv, config",
    [
        pytest.param(
            ["interval", "--space", "linf2", "--from", "0,0", "--to", "2,1"],
            {"space": "linf2", "cloud": None, "from": "0,0", "to": "2,1", "seed": 0},
            id="interval",
        ),
        pytest.param(
            ["hull", *LINF2_CLOUD, "--from", "0", "--to", "2", "--balls", "50"],
            {
                "space": "linf2", "cloud": CLOUD, "from": "0", "to": "2", "balls": 50,
                "grid": None, "seed": 0,
            },
            id="hull",
        ),
        pytest.param(
            ["mconnect", *LINF2_CLOUD, "--seed", "3"],
            {
                "space": "linf2", "cloud": CLOUD, "hull": "interval", "eps": None,
                "balls": 2000, "seed": 3,
            },
            id="mconnect",
        ),
        pytest.param(
            ["path", *LINF2_CLOUD, "--from", "0", "--to", "2"],
            {
                "space": "linf2", "cloud": CLOUD, "weights": "geometric", "from": "0",
                "to": "2", "eps": None, "hop": 0.0, "tol": 1e-9, "seed": 0,
            },
            id="path",
        ),
        pytest.param(
            ["project", *LINF2_CLOUD, "--query", "1,5"],
            {"space": "linf2", "cloud": CLOUD, "query": "1,5", "tol": 1e-9, "seed": 0},
            id="project",
        ),
        pytest.param(
            ["sun", *LINF2_CLOUD, "--query", "1,5"],
            {
                "space": "linf2", "cloud": CLOUD, "query": "1,5", "trials": None,
                "lambda_max": 16.0, "grid": 256, "strict": False, "seed": 0,
            },
            id="sun",
        ),
        pytest.param(
            ["embed", *LINF2_CLOUD],
            {"space": "linf2", "cloud": CLOUD, "indices": None, "seed": 0},
            id="embed",
        ),
        pytest.param(["verify", "--trials", "5"], {"trials": 5, "seed": 0}, id="verify"),
    ],
)
def test_config_echoes_every_option(capsys, cloud_file, argv, config):
    path = cloud_file(COLLINEAR3)
    _, out, _ = _run(capsys, [path if a == CLOUD else a for a in argv])
    assert json.loads(out)["config"] == {k: path if v == CLOUD else v for k, v in config.items()}


def test_svg_written_for_planar_space(capsys, cloud_file, tmp_path):
    fig = tmp_path / "fig.svg"
    code, _, _ = _run(
        capsys,
        [
            "interval", "--space", "linf2", "--from", "0,0", "--to", "2,1",
            "--svg", str(fig),
        ],
    )
    assert code == 0
    text = fig.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_hull_svg_samples_the_hull_once(capsys, tmp_path, monkeypatch):
    calls = []
    ball_hull_outer = hull.ball_hull_outer

    def counted(*args, **kwargs):
        calls.append(args)
        return ball_hull_outer(*args, **kwargs)

    monkeypatch.setattr(hull, "ball_hull_outer", counted)
    monkeypatch.setattr(cli, "ball_hull_outer", counted)
    fig = tmp_path / "fig.svg"
    code, _, _ = _run(
        capsys,
        ["hull", "--space", "l1(2)", "--from", "0,0", "--to", "1,0.5", "--svg", str(fig)],
    )
    assert code == 0
    assert fig.read_text().startswith("<svg")
    assert len(calls) == 1


def test_svg_skipped_in_higher_dimension(capsys, tmp_path):
    fig = tmp_path / "fig.svg"
    code, out, err = _run(
        capsys,
        [
            "interval", "--space", "linf3", "--from", "0,0,0", "--to", "1,1,1",
            "--svg", str(fig),
        ],
    )
    assert code == 0
    assert not fig.exists()
    assert "skipped" in err
    assert json.loads(out)["result"]["interval"]["slabs"]


# --- malformed input ----------------------------------------------------------


NAN_CLOUD = {"points": [[0.0, 0.0], [1.0, float("nan")], [2.0, 0.0]]}
HUGE_CLOUD = {"points": [[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0]]}
SUN_QUERY = ["sun", "--query", "1,5"]
# A dict in argv is written to a JSON file: a space after --space, which
# comes after the test's own "--space linf2" and so overrides it, or
# weights after --weights.
NAN_SPACE = {"functionals": [[float("nan"), 1], [float("nan"), -1], [0, 1], [0, -1]]}
ZERO_WIDTH_SPACE = {"functionals": [[], []]}
RAGGED_SPACE = {"functionals": [[1, 0], [-1]]}
RAGGED_CLOUD = {"points": [[1, 0], [1]]}
INF_WEIGHTS = {"alphas": [float("inf"), 1]}
GAPPED_CLOUD = {"points": [[0, 0], [5, 0], [9, 3]]}
PATH_0_2 = ["path", "--from", "0", "--to", "2"]


@pytest.mark.parametrize(
    "cloud, argv",
    [
        pytest.param(TWO_POINTS, [*SUN_QUERY, "--grid", "0"], id="sun-grid-0"),
        pytest.param(TWO_POINTS, [*SUN_QUERY, "--grid", "1"], id="sun-grid-1"),
        pytest.param(TWO_POINTS, [*SUN_QUERY, "--lambda-max", "-5"], id="sun-lambda-neg"),
        pytest.param(TWO_POINTS, [*SUN_QUERY, "--lambda-max", "inf"], id="sun-lambda-inf"),
        pytest.param(TWO_POINTS, ["sun", "--trials", "0"], id="sun-trials-0"),
        pytest.param(
            TWO_POINTS, ["hull", "--from", "0", "--to", "1", "--balls", "2"], id="hull-balls-2"
        ),
        pytest.param(COLLINEAR3, [*PATH_0_2, "--hop", "-1"], id="path-hop-neg"),
        pytest.param(NAN_CLOUD, ["project", "--query", "0.5,0.5"], id="project-nan-cloud"),
        pytest.param(COLLINEAR3, ["project", "--query", "nan,0"], id="project-nan-query"),
        pytest.param(HUGE_CLOUD, ["mconnect"], id="mconnect-overflow"),
        pytest.param(HUGE_CLOUD, ["path", "--from", "0", "--to", "1"], id="path-overflow"),
        pytest.param(TWO_POINTS, ["mconnect", "--space", NAN_SPACE], id="space-nan"),
        pytest.param(
            TWO_POINTS, ["mconnect", "--space", ZERO_WIDTH_SPACE], id="space-zero-width"
        ),
        pytest.param(TWO_POINTS, ["mconnect", "--space", RAGGED_SPACE], id="space-ragged"),
        pytest.param(RAGGED_CLOUD, ["mconnect"], id="cloud-ragged"),
        pytest.param(COLLINEAR3, [*PATH_0_2, "--weights", INF_WEIGHTS], id="weights-inf"),
        pytest.param(
            COLLINEAR3, ["project", "--query", "0.5,0.5", "--tol", "-1"], id="project-tol-neg"
        ),
        pytest.param(GAPPED_CLOUD, ["mconnect", "--eps", "nan"], id="mconnect-eps-nan"),
        pytest.param(GAPPED_CLOUD, ["mconnect", "--eps", "-1"], id="mconnect-eps-neg"),
        pytest.param(COLLINEAR3, [*PATH_0_2, "--hop", "inf"], id="path-hop-inf"),
        pytest.param(COLLINEAR3, [*PATH_0_2, "--tol", "nan"], id="path-tol-nan"),
        pytest.param(COLLINEAR3, [*PATH_0_2, "--eps", "-1"], id="path-eps-neg"),
        pytest.param(
            TWO_POINTS, ["hull", "--from", "0", "--to", "1", "--grid", "1"], id="hull-grid-1"
        ),
        pytest.param(
            TWO_POINTS, ["hull", "--from", "0", "--to", "1", "--grid", "0"], id="hull-grid-0"
        ),
    ],
)
def test_bad_input_exits_one_with_one_line(capsys, cloud_file, cloud, argv):
    command, *rest = [
        cloud_file(a, name="space.json") if isinstance(a, dict) else a for a in argv
    ]
    code, out, err = _run(
        capsys, [command, "--space", "linf2", "--cloud", cloud_file(cloud), *rest]
    )
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("sunlab: error:")


def test_empty_json_cloud_reports_empty_cloud(capsys, cloud_file):
    code, _, err = _run(
        capsys,
        ["mconnect", "--space", "linf2", "--cloud", cloud_file({"points": []})],
    )
    assert code == 1
    assert err == "sunlab: error: point cloud JSON has no points\n"


# --- import boundary ------------------------------------------------------------


SCIPY_PROBE = """
import contextlib, io, json, sys
import sunlab.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = sunlab.cli.main(list(argv))
    return code, scipy_loaded()

cloud = sys.argv[1]
out = {"import": scipy_loaded()}
out["interval"] = run("interval", "--space", "linf2", "--from", "0,0", "--to", "2,1")
out["project"] = run("project", "--space", "linf2", "--cloud", cloud, "--query", "0.4,0")
out["sun"] = run("sun", "--space", "linf2", "--cloud", cloud, "--query", "1,5", "--grid", "8")
out["embed"] = run("embed", "--space", "l1(2)", "--cloud", cloud)
out["mconnect"] = run("mconnect", "--space", "linf2", "--cloud", cloud)
out["hull"] = run("hull", "--space", "l1(2)", "--from", "0,0", "--to", "1,0.5", "--balls", "50")
out["path"] = run("path", "--space", "linf2", "--cloud", cloud, "--from", "0", "--to", "2")
print(json.dumps(out))
"""


def test_only_path_loads_scipy(cloud_file):
    """scipy.sparse is most of the package's import time; only commands that
    reach Dijkstra may load it. hull sizes its grid by the unit ball's
    extents, which need no solver. path runs last, to show that the probe
    sees the import when it happens."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, cloud_file(COLLINEAR3)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(proc.stdout)
    assert seen.pop("import") == []
    path_code, path_scipy = seen.pop("path")
    assert seen == {
        "interval": [0, []],
        "project": [0, []],
        "sun": [0, []],
        "embed": [0, []],
        "mconnect": [0, []],
        "hull": [0, []],
    }
    assert path_code == 0
    assert "scipy.sparse.csgraph" in path_scipy
