import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sunlab import (
    PointCloud,
    builtin,
    check_monotone,
    cli,
    hull,
    make_space,
    metric,
    norms,
    random_space,
    svg,
)
from sunlab.cli import main
from sunlab.cloud import cloud_to_json
from sunlab.space import space_to_json

COLLINEAR3 = {"points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}
TWO_POINTS = {"points": [[0.0, 0.0], [2.0, 0.0]]}
FOUR_POINTS = {"points": [[0, 0], [1, 0], [0, 1], [5, 5]]}


@pytest.fixture
def cloud_file(tmp_path):
    """Write data to a file: a str verbatim, as cloud.csv by default, and
    anything else as JSON, as cloud.json by default."""

    def write(data, name=None):
        text = data if isinstance(data, str) else json.dumps(data)
        path = tmp_path / (name or ("cloud.csv" if isinstance(data, str) else "cloud.json"))
        path.write_text(text)
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


def test_report_point_lists_dump_as_rows_of_numpy_floats():
    """Reports build their point lists with tolist(); json.dumps writes the
    same string as for the rows of np.float64 they held before, also for
    -0.0, the least subnormal, 1e16 and the largest float."""
    big = np.finfo(float).max
    pts = np.array([[-0.0, 5e-324], [1e16, big], [-big, 0.1]])
    rows = [list(row) for row in pts]
    path = metric.Path(pts, 1.0, 1.0, 0.0, [metric.MonotoneVerdict(0, True, False)])
    s = make_space([[1e16, 5e-324], [-1e16, -5e-324], [0.1, 1e16], [-0.1, -1e16]])
    ends = {"from": "-0.0,5e-324", "to": "1e16,-0.0"}
    linf2 = builtin("linf", 2)
    result, _, _ = cli.cmd_interval(argparse.Namespace(**ends), linf2, None)
    box = hull.interval(linf2, [-0.0, 5e-324], [1e16, -0.0])
    pairs = [
        (cloud_to_json(PointCloud(pts)), {"points": rows}),
        (path.to_json()["points"], rows),
        (space_to_json(s)["functionals"], [list(row) for row in s.functionals]),
        (result["vertices"], [list(v) for v in hull.slab_vertices_2d(box)]),
    ]
    for got, old in pairs:
        assert json.dumps(got) == json.dumps(old)


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


def test_embed_has_no_svg_flag(capsys, cloud_file, tmp_path):
    """embed draws no figure, so --svg is a usage error; it used to exit 0
    and write nothing."""
    fig = tmp_path / "e.svg"
    code, out, err = _run(
        capsys,
        ["embed", "--space", "linf2", "--cloud", cloud_file(COLLINEAR3), "--svg", str(fig)],
    )
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --svg" in err
    assert not fig.exists()


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


@pytest.mark.parametrize("command", ["interval", "hull"])
def test_empty_cloud_path_is_read(capsys, command):
    """An optional --cloud given as '' is read like any other path, so it
    exits 1 naming the file; it used to be ignored."""
    code, out, err = _run(
        capsys, [command, "--space", "linf2", "--cloud", "", "--from", "0,0", "--to", "1,1"]
    )
    assert (code, out) == (1, "")
    assert err == "sunlab: error: [Errno 2] No such file or directory: ''\n"


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


def test_out_and_svg_files_get_the_umask_mode(cloud_file, tmp_path):
    """Under umask 022 the report and the figure are 0644, as open(path,
    "w") makes them, not the 0600 of a private temporary file."""
    out_path, fig = tmp_path / "m.json", tmp_path / "m.svg"
    old = os.umask(0o022)
    try:
        code = main(
            ["project", "--space", "linf2", "--cloud", cloud_file(COLLINEAR3),
             "--query", "0.5,0.5", "--out", str(out_path), "--svg", str(fig)]
        )
    finally:
        os.umask(old)
    assert code == 0
    assert [p.stat().st_mode & 0o777 for p in (out_path, fig)] == [0o644, 0o644]


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["verify", "--trials", "40", "--seed", "7", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_7_report_is_pinned(tmp_path):
    """Refactors must leave this report byte-identical. A change meant to
    alter it updates the size and hash here and says so in CHANGES.md."""
    path = tmp_path / "verify.json"
    assert main(["verify", "--seed", "7", "--out", str(path)]) == 0
    data = path.read_bytes()
    assert len(data) == 5213
    assert hashlib.sha256(data).hexdigest() == (
        "0ac914fe291159252d725d537bd9bc2f9927b730ce9c29f68d4ed48ad28134fe"
    )


def test_sun_and_project_reports_are_pinned(tmp_path, monkeypatch):
    """The nearest-point kernels must leave these reports byte-identical:
    23 of 50 sampled queries falsified on an 11-point segment, a four-way
    tie in an l1(3) grid cube, and a projection and 30 of 40 strict
    queries falsified on a 3000-point cloud in a random 3-d space. The
    builtin functionals are +-1, so their products are exact in any order;
    the random space's are not, so its reports change if a kernel sums its
    products in another order or with other fused multiply-adds. The clouds
    are written here, and named by relative paths so the echoed config does
    not vary."""
    monkeypatch.chdir(tmp_path)
    t = np.linspace(0.0, 1.0, 11)
    segment = np.column_stack([t, 0.3 * t])
    steps = (0.0, 0.1, 0.2)
    cube = [[a, b, c] for a in steps for b in steps for c in steps]
    blob = np.random.default_rng(9).uniform(-1.0, 1.0, (3000, 3))
    Path("segment.json").write_text(json.dumps({"points": segment.tolist()}))
    Path("cube.json").write_text(json.dumps({"points": cube}))
    Path("blob.json").write_text(json.dumps({"points": blob.tolist()}))
    Path("space.json").write_text(json.dumps(space_to_json(random_space(3, 7, seed=2))))
    runs = [
        (
            ["sun", "--space", "linf2", "--cloud", "segment.json", "--trials", "50",
             "--seed", "3"],
            2, 15498, "90a9433cf7fc212d5fcf72fcae37c06b9aefeb2ea6428cbcdea5783bc1c01077",
        ),
        (
            ["project", "--space", "l1(3)", "--cloud", "cube.json", "--query",
             "0.15,0.05,0.3"],
            0, 551, "d2a72363a527d4f403665bdd7589126d0bf7a2c415ab247bc35c284bee4afe78",
        ),
        (
            ["project", "--space", "space.json", "--cloud", "blob.json", "--query",
             "0.3,-0.2,0.25"],
            0, 410, "296780efd51d9adac1642d0dad3e1a75f29ccf028f05531e39369dccabc54a2f",
        ),
        (
            ["sun", "--space", "space.json", "--cloud", "blob.json", "--trials", "40",
             "--seed", "5", "--strict"],
            2, 19337, "76186f03e2dfad0dfeaead5e77e65944a4beb263f5105a12a2e60d43819bbb0a",
        ),
    ]
    for argv, code, size, digest in runs:
        assert main([*argv, "--out", "report.json"]) == code
        data = Path("report.json").read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_sun_reports_are_pinned(tmp_path, monkeypatch):
    """The ray test must leave these reports byte-identical: strict trials
    on the slanted segment, default and strict trials on a 24-point circle
    in linf2 and strict trials on it in l1(2) (all with falsifications), a
    query that holds, one with no candidate, a strict query with five tied
    nearest points on a flat segment, a strict query whose second tied
    candidate fails, and the figures of one query run and one trials run."""
    monkeypatch.chdir(tmp_path)
    t = np.linspace(0.0, 1.0, 11)
    a = np.arange(24) * (np.pi / 12)
    flat = [[i / 8, 0.0] for i in range(9)]
    clouds = {
        "segment": np.column_stack([t, 0.3 * t]).tolist(),
        "circle": (np.round(np.column_stack([np.cos(a), np.sin(a)]) * 64) / 64).tolist(),
        "flat": flat,
        "bump": flat + [[0.5, 0.75]],
    }
    for name, pts in clouds.items():
        Path(f"{name}.json").write_text(json.dumps({"points": pts}))
    runs = [
        (
            ["--space", "linf2", "--cloud", "segment.json", "--trials", "50", "--seed", "3",
             "--strict"],
            2, 11632, "da09b6b9c8d020614c62260b1e65bdcb0c584089592417dee50191b38f98c284",
        ),
        (
            ["--space", "linf2", "--cloud", "circle.json", "--trials", "30", "--seed", "4",
             "--svg", "trials.svg"],
            2, 13308, "f9f9d766727b61add99544a58d2d08ca7be4dccbdefec814b17adb3d8b1eb0b2",
        ),
        (
            ["--space", "linf2", "--cloud", "circle.json", "--trials", "30", "--seed", "4",
             "--strict"],
            2, 9596, "53f9d1687ddcf958be3774999a3843e41b55b82b37b2a5a36bfb4793ea3dd428",
        ),
        (
            ["--space", "l1(2)", "--cloud", "circle.json", "--trials", "20", "--seed", "2",
             "--strict"],
            2, 5687, "20cec2e95bfeab516019126ed6764525dd0bdb01ac96420674a90f4eb369eb0f",
        ),
        (
            ["--space", "linf2", "--cloud", "segment.json", "--query", "0.5,5", "--svg",
             "query.svg"],
            0, 438, "b2590c8920496c0b44c8f1f7fe180809abf7862139a5bcae17a5e8c5abe23dbd",
        ),
        (
            ["--space", "linf2", "--cloud", "segment.json", "--query", "0.45,0.1"],
            2, 1025, "e569e3992c0319d9e8c3828784c464f5cb8136a4b7f4ad3136e27c2ef690ceb4",
        ),
        (
            ["--space", "linf2", "--cloud", "flat.json", "--query", "0.5625,0.25", "--strict"],
            0, 404, "df21362d4665db5473754e9c63987e6e59f4d82a70fbbf6652f0fc4f004f93e4",
        ),
        (
            ["--space", "linf2", "--cloud", "bump.json", "--query", "0.625,0.125", "--strict"],
            2, 853, "7dbab0556b3bc651acbfacfa23ab3acd83864ec15964ac01404f906a79c85ac4",
        ),
    ]
    for argv, code, size, digest in runs:
        assert main(["sun", *argv, "--out", "report.json"]) == code
        data = Path("report.json").read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
    figures = {
        "trials.svg": (3486, "369ba494d08d1f250f073f81c6d0011e09b0fe2b6bdb1f0498bc886cfe956413"),
        "query.svg": (1166, "04beb2a1b972bae892c8303a200eb5325ffcab6c50835e0dc869afbc1a595a8d"),
    }
    for name, pin in figures.items():
        data = Path(name).read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == pin


def test_sun_reports_on_a_multi_block_circle_are_pinned(tmp_path, monkeypatch):
    """On a 1024-point dyadic circle the ray kernel scans the grid in blocks
    of 16 ray points, and interior queries are falsified just past lambda 1,
    in the second block of 16 (the last run: block 18 of 64). These reports
    must stay byte-identical however far the scan goes: default and strict
    trials in linf2 and l1(2), a falsified query, and a strict query on a
    longer grid."""
    monkeypatch.chdir(tmp_path)
    a = np.arange(1024) * (np.pi / 512)
    circle = np.round(np.column_stack([np.cos(a), np.sin(a)]) * 1024) / 1024
    Path("circle.json").write_text(json.dumps({"points": circle.tolist()}))
    linf2 = ["--space", "linf2", "--cloud", "circle.json"]
    l12 = ["--space", "l1(2)", "--cloud", "circle.json"]
    runs = [
        (linf2 + ["--trials", "60", "--seed", "5"],
         23727, "b0ebe54f6e242931f2e855e8c41acf1c5349c35167f3b2111395473148ec997a"),
        (linf2 + ["--trials", "60", "--seed", "5", "--strict"],
         17472, "02ebbe187d10e6aa8db224efdae4660c01a273aae885d1b44a3840e2a67e083d"),
        (l12 + ["--trials", "60", "--seed", "6"],
         19189, "19a095061d2c98e70d589f89f0f4b65cb09a81e3ecbd6f38df7caca2bed442b9"),
        (l12 + ["--trials", "60", "--seed", "6", "--strict"],
         14483, "6ffff646ce62ef4e1d01520ee2aaf443b06e6897b86bf6e9e96c11ebf1da27d1"),
        (linf2 + ["--query", "0.1,0.2"],
         702, "9fb26217e25511138eeeb93f4e32d4fba133c9ed230a94a92a267ba9e6b82e06"),
        (l12 + ["--query", "0.3,-0.25", "--strict", "--grid", "1024", "--lambda-max", "4"],
         876, "cc1fd857d45e44ec93e19e84cb755084384b7952a7111804c2294ae33fcc1cc4"),
    ]
    for argv, size, digest in runs:
        assert main(["sun", *argv, "--out", "report.json"]) == 2
        data = Path("report.json").read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_mconnect_reports_are_pinned(tmp_path, monkeypatch):
    """The pair scan must leave these reports byte-identical: a connected
    9 x 9 grid in linf(2), the same grid in l1(2) with a gap in row 0, two
    sheets in linf(3), a dyadic cloud at a given scale, a grid with holes
    shifted off the dyadic lattice, the grid with a far point whose first
    gap is in its last row, and the sampled ball hull on a 4 x 4 grid."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(11)
    ticks = np.arange(9) / 8.0
    grid = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    sheet = np.stack(np.meshgrid(ticks[:4], ticks[:4], indexing="ij"), axis=-1).reshape(-1, 2)
    sheets = np.vstack([np.hstack([np.full((16, 1), c), sheet]) for c in (0.0, 1.0)])
    dyadic = np.unique(rng.integers(-6, 7, size=(60, 2)), axis=0) / 8.0
    holes = grid[rng.uniform(size=len(grid)) > 0.2] + rng.uniform(-1, 1, 2) / 512
    clouds = {
        "grid": grid,
        "sheets": sheets,
        "dyadic": dyadic,
        "holes": holes,
        "tail": np.vstack([grid, [[3.0, 3.0]]]),
        "small": sheet[:, ::-1] * 1.5,
    }
    for name, pts in clouds.items():
        Path(f"{name}.json").write_text(json.dumps({"points": pts.tolist()}))
    runs = [
        (
            ["--space", "linf2", "--cloud", "grid.json"],
            0, 372, "48dfc13c2d73d1a0a074b3aa0640ec133009291e70aee9c0dbfff3b43ed541b7",
        ),
        (
            ["--space", "l1(2)", "--cloud", "grid.json"],
            2, 389, "698dfdc13f1e0cad7e5adc7a6f7fe510c245dd13ace3a2457f343dc49e70a8b0",
        ),
        (
            ["--space", "linf3", "--cloud", "sheets.json"],
            2, 392, "e0498b33d4483d8b9201564d265910fe57e28a2a2bfff906ec4c10f2137eab7e",
        ),
        (
            ["--space", "linf2", "--cloud", "dyadic.json", "--eps", "0.25"],
            2, 391, "898c1a04a45b505bc89836184a33ce00d64daabbc6529bf2d6bbf60a0e146e62",
        ),
        (
            ["--space", "l1(2)", "--cloud", "holes.json", "--eps", "0.3"],
            2, 388, "406bcfbfe4ffe39d02390efb0f0909f51bbcc200927d7968351db626a0fd254b",
        ),
        (
            ["--space", "linf2", "--cloud", "tail.json"],
            2, 395, "e875367b38643318889dcb79f8b9afa2f55a8017ed9096aabab352ca5e6457b9",
        ),
        (
            ["--space", "linf2", "--cloud", "small.json", "--hull", "oracle", "--balls", "200",
             "--seed", "5"],
            0, 366, "d65f2eaff2f5d9fc89f6d3224078f99cef148fc873bb5e9f8cb16aebaf321a47",
        ),
    ]
    for argv, code, size, digest in runs:
        assert main(["mconnect", *argv, "--out", "report.json"]) == code
        data = Path("report.json").read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_path_reports_are_pinned(tmp_path, monkeypatch):
    """These reports stay byte-identical unless a change means to alter
    them: a 21 x 21 linf2 box net corner to corner and an l1(2) staircase,
    each with hop 1.5 x its largest nearest-neighbour distance, hop 0 on a
    30-point dyadic cloud, and two linf3 sheets that no hop-bounded path
    joins."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(11)
    ticks = np.arange(21) / 32.0
    box = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    runs = [[1, 0]] * 5 + [[0, 1]] * 3 + [[1, 0]] * 4 + [[0, 1]] * 6 + [[1, 0]] * 2
    stair = np.vstack([[0, 0], np.cumsum(runs, axis=0)]) / 16.0 @ [[0.5, 0.5], [0.5, -0.5]]
    dyadic = np.unique(rng.integers(-8, 9, size=(34, 2)), axis=0)[:30] / 8.0
    sheet = box.reshape(21, 21, 2)[:5, :5].reshape(-1, 2)
    sheets = np.vstack([np.hstack([np.full((25, 1), c), sheet]) for c in (0.0, 0.5)])
    clouds = {"box": box, "stair": stair, "dyadic": dyadic, "sheets": sheets}
    for name, pts in clouds.items():
        Path(f"{name}.json").write_text(json.dumps({"points": pts.tolist()}))
    runs = [
        (
            ["--space", "linf2", "--cloud", "box.json", "--weights", "uniform", "--from", "0",
             "--to", "440", "--hop", "0.0234375"],
            0, 2342, "ae271315e7ba0a7bef7a931b33ad2373bdc82551f5e344fb4fbda7f1c9272dfc",
        ),
        (
            ["--space", "l1(2)", "--cloud", "stair.json", "--weights", "geometric", "--from",
             "0", "--to", "20", "--hop", "0.0625"],
            0, 1508, "7d53eb6e805898cf06fa21afab45bc13654ad663473e59c97bf449114a2bd0ff",
        ),
        (
            ["--space", "linf2", "--cloud", "dyadic.json", "--weights", "uniform", "--from", "0",
             "--to", "29", "--hop", "0"],
            0, 770, "fa4254547caa3cd25f6be47ecd0c2694e4e694ef2f6e82f665badacbd6127a34",
        ),
        (
            ["--space", "linf3", "--cloud", "sheets.json", "--from", "0", "--to", "49", "--hop",
             "0.013392857142857142"],
            2, 466, "df9c81e86d0c80f36fdf0280cc6e873e29d4a7e4b8a59a4c64710d09c0331f2f",
        ),
    ]
    for argv, code, size, digest in runs:
        assert main(["path", *argv, "--out", "report.json"]) == code
        data = Path("report.json").read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_path_reports_at_hop_0_are_pinned(tmp_path, monkeypatch):
    """At the default hop 0 the route is the step [x, y], which refinement
    splits at the lowest-index witnesses. These reports must stay
    byte-identical unless a change means to alter them: the 9 x 9 dyadic
    linf2 grid corner to corner (17 points), and two routes through 300
    uniform points in a random 3-d space (4 points each)."""
    monkeypatch.chdir(tmp_path)
    grid = [[i / 8, j / 8] for i in range(9) for j in range(9)]
    blob = np.random.default_rng(13).uniform(-1.0, 1.0, (300, 3))
    Path("grid.json").write_text(json.dumps({"points": grid}))
    Path("blob.json").write_text(json.dumps({"points": blob.tolist()}))
    Path("space.json").write_text(json.dumps(space_to_json(random_space(3, 7, seed=2))))
    runs = [
        (
            ["--space", "linf2", "--cloud", "grid.json", "--from", "0", "--to", "80"],
            1217, "1f7111f0664780e7a397be1f50056117a80ea665f43934dbe69c318a06b82ad1",
        ),
        (
            ["--space", "space.json", "--cloud", "blob.json", "--from", "0", "--to", "239"],
            1054, "9d0b50f9bbc3e4c9360d4e97687da9e293a4f8adf28fcef77fe2f911c1cd22cf",
        ),
        (
            ["--space", "space.json", "--cloud", "blob.json", "--weights", "uniform",
             "--from", "17", "--to", "250"],
            1035, "9769b418067ad8cb9f2dc40a5934d95811cff39b1e35f68dbbbf86cfef6243aa",
        ),
    ]
    for argv, size, digest in runs:
        assert main(["path", *argv, "--out", "report.json"]) == 0
        data = Path("report.json").read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def _generic_segments():
    """200 points t d of a line through 0 in random_space(3, 7, seed=2),
    t sorted uniform, the eps that exempts exactly the adjacent pairs, and
    the same cloud with point 150 moved off the line by 0.05 normal."""
    rng = np.random.default_rng(13)
    d = rng.normal(size=3)
    line = np.sort(rng.uniform(size=200))[:, None] * d
    s = random_space(3, 7, seed=2)
    eps = float(norms(s, np.diff(line, axis=0)).max())
    bent = line.copy()
    bent[150] += 0.05 * rng.normal(size=3)
    return s, line, bent, eps


def test_generic_space_reports_are_pinned(tmp_path, monkeypatch):
    """The functional values of a random space are inexact, so these
    reports change if a kernel sums its products in another order or with
    other fused multiply-adds; the +-1 functionals of the builtin pins
    cannot show that. The segment scan checks 18717 pairs and finds none
    without a witness; the bent segment's first gap is (139, 150), and 5 of
    its pairs reach _slab_witnesses. The oracle runs on points 120 to 179
    of each, path --hop on the 300-point blob of the hop 0 pins, and hull
    on the same space. Without --eps, mconnect prints the least pair
    distance of the bent segment, of the blob and of two 8 x 8 sheets
    shifted off the dyadic lattice, so an eps one ulp off shows."""
    monkeypatch.chdir(tmp_path)
    s, line, bent, eps = _generic_segments()
    blob = np.random.default_rng(13).uniform(-1.0, 1.0, (300, 3))
    grid = np.stack(np.meshgrid(np.arange(8), np.arange(8), indexing="ij"), -1).reshape(-1, 2)
    sheet = np.hstack([np.zeros((64, 1)), grid / 8])
    clouds = {
        "line": line,
        "bent": bent,
        "line60": line[120:180],
        "bent60": bent[120:180],
        "blob": blob,
        "sheets": np.vstack([sheet, sheet + [1, 0, 0]]) + [0.1, 0.2, 0.3],
    }
    for name, pts in clouds.items():
        Path(f"{name}.json").write_text(json.dumps({"points": pts.tolist()}))
    Path("space.json").write_text(json.dumps(space_to_json(s)))
    space, oracle = ["--space", "space.json"], ["--hull", "oracle", "--balls", "200"]
    runs = [
        (
            ["mconnect", *space, "--cloud", "line.json", "--eps", repr(eps)],
            0, 406, "888f842f35540c4d125961bda9cadec101742a5ffd026b0b82ccc9d122e9e2fc",
        ),
        (
            ["mconnect", *space, "--cloud", "bent.json", "--eps", repr(eps)],
            2, 430, "159cab4de463f584143a49dc6d60d4d70f8e2e958af1192a1a7b49295f6ca480",
        ),
        (
            ["mconnect", *space, "--cloud", "line60.json", "--eps", repr(eps), *oracle],
            0, 401, "0c918f257b452596cb0d41134139f136d094e5d9fc8ab94e3552a92252ab12af",
        ),
        (
            ["mconnect", *space, "--cloud", "bent60.json", "--eps", repr(eps), *oracle],
            2, 423, "626a83bd85b87227fc53d44ffe9af8b4906b819050eb81b3f913f1e2c336f505",
        ),
        (
            ["mconnect", *space, "--cloud", "bent.json"],
            2, 410, "38bb4b9583e5655a77cf7a6042d7f736193149dcdcdb9aa896975ced58c9c898",
        ),
        (
            ["mconnect", *space, "--cloud", "blob.json"],
            2, 407, "149e0619efad30bc195220279bb28c76c22df71de42b9ea8862347eabe2fbf1a",
        ),
        (
            ["mconnect", *space, "--cloud", "sheets.json"],
            2, 409, "f89e73f9c63d86e57418c6b3782497c9c2150ac9e14514f06b22c86f73762a65",
        ),
        (
            ["path", *space, "--cloud", "blob.json", "--from", "0", "--to", "239", "--hop",
             "0.6"],
            0, 1155, "5642c7fd5ca865e22aaf5c60387f7a3cf741c379be25c26de21d90ce7efb0ae7",
        ),
        (
            ["hull", *space, "--from", "0.2,-0.1,0.3", "--to=-0.5,0.7,0.1", "--balls", "6",
             "--seed", "2"],
            0, 681, "1243cd3ba772c114d7c1ce8925f6bf52ff356df494ce4741922facc05d22034b",
        ),
        (
            ["hull", *space, "--from", "0,0,0", "--to", "1,0.5,0.25"],
            0, 575, "544c29e1e75eb111ae6d71d68cd7546647863ea6ef2006a6cf63269ab7df24fa",
        ),
    ]
    boxes = []
    kernel = hull._slab_witnesses

    def counted(*args):
        boxes.append(len(args[3]))
        return kernel(*args)

    monkeypatch.setattr(hull, "_slab_witnesses", counted)
    for argv, code, size, digest in runs:
        boxes.clear()
        assert main([*argv, "--out", "report.json"]) == code
        data = Path("report.json").read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
        result = json.loads(data)["result"]
        if argv[4] == "line.json":
            assert (result["m_connected"], result["pairs_checked"]) == (True, 18717)
        if argv[4:6] == ["bent.json", "--eps"]:
            assert (result["witness"], sum(boxes)) == ([139, 150], 5)


def test_hull_reports_are_pinned(tmp_path, monkeypatch):
    """The slab tests on the gap grid must leave these reports
    byte-identical: few-ball hulls with a sliver in linf2, l1(2), linf3 and
    l1(3), a thin linf2 pair whose interval holds no grid point, a JSON
    random space, a full 2000-ball hull and the l1(2) figure."""
    monkeypatch.chdir(tmp_path)
    Path("space.json").write_text(json.dumps(space_to_json(random_space(2, 4, seed=3))))
    runs = [
        (
            ["--space", "linf2", "--from", "0,0", "--to", "1,0.5", "--balls", "4"],
            605, "40b31424b8a98aa0fd3ff18b5ab260ab14a553a827226746c8b87d455340f0a2",
        ),
        (
            ["--space", "l1(2)", "--from", "0.1,-0.2", "--to", "0.9,0.4", "--balls", "4"],
            611, "b5ce2b39f41a5dd33cb01a31ee11639ef9a29fa17940f8b2c780284e5e343e35",
        ),
        (
            ["--space", "linf3", "--from", "0,0,0", "--to", "1,0.5,0.25", "--balls", "6"],
            670, "a3855d3c6343ec5469638d6c1c3af6df68906aa3e098aee8c22023366f1856ba",
        ),
        (
            ["--space", "l1(3)", "--from=-0.3,0.2,0.1", "--to", "0.5,-0.4,0.6", "--balls",
             "6", "--seed", "5"],
            675, "62a14e7a76d74d70a3ae104b9b0e227038d1e592c672bf2ee6e8e9b076c15b1d",
        ),
        (
            ["--space", "linf2", "--from", "0,0", "--to", "1,0", "--balls", "4"],
            602, "ad72574e5d54cd92cc17a02427fedbb428a647ab40dc3a6c9e9f01dd682081bd",
        ),
        (
            ["--space", "space.json", "--from", "0.2,-0.1", "--to=-0.5,0.7", "--balls", "4",
             "--seed", "2"],
            622, "da21180bf8575df6c13d33344134e16e50171f9f60e550e933fe70f78cd39378",
        ),
        (
            ["--space", "linf2", "--from", "0,0", "--to", "2,1"],
            537, "90a8caa016b3a1d729f8d1a88092475d197a9879c839e9a8dea94853fa88077a",
        ),
        (
            ["--space", "l1(2)", "--from", "0,0", "--to", "1,0.5", "--balls", "4", "--svg",
             "figure.svg"],
            604, "37231146dc3aba5dc9aff1e10ccc094f0327ee58feb63e1e56095e3c492204d2",
        ),
    ]
    for argv, size, digest in runs:
        assert main(["hull", *argv, "--out", "report.json"]) == 0
        data = Path("report.json").read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
    data = Path("figure.svg").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        742, "a9156fcd0c636a118883cf401b8fe38ef2f010671eaa0c34b8cdae5270b66cae"
    )


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


def test_path_figure_marks_only_the_backward_edge():
    """Every edge of a non-monotone path was drawn bad; only the edge that
    moves against the path's net direction is."""
    s = builtin("linf", 2)
    pts = np.array([[0, 0], [1, 0], [0.5, 0], [2, 0]], dtype=float)
    colors = svg.edge_colors_for_path(s, pts, check_monotone(s, pts))
    assert colors == [svg._EDGE_OK, svg._EDGE_BAD, svg._EDGE_OK]


def test_path_figure_zero_net_change_marks_every_move():
    s = builtin("linf", 2)
    pts = np.array([[0, 0], [1, 0], [1, 0.5], [0, 0.5]], dtype=float)
    colors = svg.edge_colors_for_path(s, pts, check_monotone(s, pts))
    assert colors == [svg._EDGE_BAD, svg._EDGE_OK, svg._EDGE_BAD]


def test_cloud_figures_are_pinned(tmp_path, monkeypatch):
    """The figures of mconnect (a 3 x 3 grid without its centre, with the
    witness pair's interval), path (a 5 x 5 grid corner to corner) and
    project (a query with four tied nearest points) are pinned; writing one
    leaves the report's bytes alone, and a second run writes the same
    figure."""
    monkeypatch.chdir(tmp_path)
    ticks = [i / 4 for i in range(5)]
    grid = [[x, y] for x in ticks for y in ticks]
    Path("grid.json").write_text(json.dumps({"points": grid}))
    holed = [[x, y] for x in (0, 1, 2) for y in (0, 1, 2) if (x, y) != (1, 1)]
    Path("holed.json").write_text(json.dumps({"points": holed}))
    runs = [
        (
            ["mconnect", "--space", "linf2", "--cloud", "holed.json"],
            2, 905, "a55fcbf7a1b5dbd4f43680ee0f515b4e53689130db69680fba315ce5e13be451",
        ),
        (
            ["path", "--space", "l1(2)", "--cloud", "grid.json", "--from", "0", "--to", "24"],
            0, 1968, "4a69e9aa52236d6a32f299163ecfc8c1d968f13baae915ed3499e17ac2d6dcc5",
        ),
        (
            ["project", "--space", "linf2", "--cloud", "grid.json", "--query", "1.5,0.6"],
            0, 1974, "1f10dfd52bc514b6192983c94db5afc9ee4e64117571660fb5cd58003aad53d4",
        ),
    ]
    for argv, code, size, digest in runs:
        assert main([*argv, "--out", "plain.json"]) == code
        for name in ("a", "b"):
            assert main([*argv, "--out", f"{name}.json", "--svg", f"{name}.svg"]) == code
            assert Path(f"{name}.json").read_bytes() == Path("plain.json").read_bytes()
        data = Path("a.svg").read_bytes()
        assert data == Path("b.svg").read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


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
NULL_NAME_SPACE = {"functionals": [[1, 0], [-1, 0], [0, 1], [0, -1]], "name": None}
RAGGED_CLOUD = {"points": [[1, 0], [1]]}
INF_WEIGHTS = {"alphas": [float("inf"), 1]}
GAPPED_CLOUD = {"points": [[0, 0], [5, 0], [9, 3]]}
CLOUD_3D = {"points": [[0, 0, 0], [1, 1, 1]]}
TRIANGLE = {"points": [[0, 0], [1, 0], [0, 1]]}
PATH_0_2 = ["path", "--from", "0", "--to", "2"]
GAP_CSV = "0,,0\n1,,0\n2,,0\n"  # a str is written as a CSV cloud
TEXT_CLOUD = {"points": [["1", 0], [True, 0]]}
BOOL_CLOUD = {"points": [[0, 0], [True, 0]]}
BOOL_SPACE = {"functionals": [[True, 0], [-1, 0], [0, 1], [0, -1]]}
TEXT_SPACE = {"functionals": [["1", 0], [-1, 0], [0, 1], [0, -1]]}
TEXT_WEIGHTS = {"alphas": ["0.5", True]}
NULL_CLOUD = {"points": [[0, 0], [None, 1]]}
NULL_SPACE = {"functionals": [[None, 0], [-1, 0], [0, 1], [0, -1]]}
NULL_WEIGHTS = {"alphas": [None, 1]}
HULL_0_1 = ["hull", "--from", "0,0", "--to", "1,1"]


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
        pytest.param(
            TRIANGLE, ["mconnect", "--hull", "oracle", "--balls", "2"], id="mconnect-oracle-balls-2"
        ),
        pytest.param(HUGE_CLOUD, ["path", "--from", "0", "--to", "1"], id="path-overflow"),
        pytest.param(HUGE_CLOUD, ["hull", "--from", "0", "--to", "1"], id="hull-overflow"),
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
        pytest.param(
            TWO_POINTS,
            ["hull", "--from", "0,0", "--to", "1,1", "--grid", "2"],
            id="hull-grid-2",
        ),
        pytest.param(
            TWO_POINTS,
            ["hull", "--from", "0,0", "--to", "1,1", "--grid", "2", "--balls", "2", "--svg",
             "f.svg"],
            id="hull-grid-2-svg",
        ),
        pytest.param(
            TWO_POINTS, ["embed", "--space", NULL_NAME_SPACE], id="space-name-null"
        ),
        pytest.param(CLOUD_3D, ["project", "--query", "1,1"], id="project-cloud-dim"),
        pytest.param(GAP_CSV, ["project", "--query", "0.4,0.1"], id="project-csv-empty-cell"),
        pytest.param(CLOUD_3D, SUN_QUERY, id="sun-query-cloud-dim"),
        pytest.param(CLOUD_3D, [*SUN_QUERY, "--strict"], id="sun-strict-cloud-dim"),
        pytest.param(CLOUD_3D, ["sun", "--trials", "3"], id="sun-trials-cloud-dim"),
        pytest.param(
            COLLINEAR3, ["sun", "--query", "1,0", "--strict"], id="sun-strict-query-in-cloud"
        ),
        pytest.param(
            TWO_POINTS,
            ["hull", "--space", "linf3", "--from", "0,0,0", "--to", "1,1,1", "--grid", "100000"],
            id="hull-grid-huge",
        ),
        pytest.param(TEXT_CLOUD, ["project", "--query", "0.5,0.5"], id="cloud-numeric-string"),
        pytest.param(BOOL_CLOUD, ["path", "--from", "0", "--to", "1"], id="cloud-boolean"),
        pytest.param(TWO_POINTS, ["mconnect", "--space", BOOL_SPACE], id="space-boolean"),
        pytest.param(
            TWO_POINTS, ["project", "--query", "0,0", "--space", TEXT_SPACE],
            id="space-numeric-string",
        ),
        pytest.param(COLLINEAR3, [*PATH_0_2, "--weights", TEXT_WEIGHTS], id="weights-text"),
        pytest.param(NULL_CLOUD, ["mconnect"], id="cloud-null"),
        pytest.param(TWO_POINTS, ["mconnect", "--space", NULL_SPACE], id="space-null"),
        pytest.param(COLLINEAR3, [*PATH_0_2, "--weights", NULL_WEIGHTS], id="weights-null"),
        pytest.param(CLOUD_3D, HULL_0_1, id="hull-cloud-dim"),
        pytest.param(
            CLOUD_3D, ["interval", "--from", "0,0", "--to", "1,1"], id="interval-cloud-dim"
        ),
        pytest.param(
            CLOUD_3D, ["interval", "--from", "0", "--to", "1", "--svg", "f.svg"],
            id="interval-svg-cloud-dim",
        ),
        pytest.param(
            COLLINEAR3, ["interval", "--space", "linf1", "--from", "1", "--to", "2"],
            id="interval-linf1-cloud-dim",
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


def test_space_file_with_fractional_dim_exits_one(capsys, cloud_file):
    space = {"functionals": [[1, 0], [-1, 0], [0, 1], [0, -1]], "dim": 2.5}
    code, out, err = _run(
        capsys,
        ["project", "--space", cloud_file(space, name="bad.json"),
         "--cloud", cloud_file(COLLINEAR3), "--query", "1,1"],
    )
    assert (code, out) == (1, "")
    assert err == "sunlab: error: space JSON 'dim' must be an integer, got 2.5\n"


def test_hull_dimension_limit_exits_one(capsys):
    code, out, err = _run(
        capsys, ["hull", "--space", "linf4", "--from", "0,0,0,0", "--to", "1,1,1,1"]
    )
    assert (code, out) == (1, "")
    assert err == "sunlab: error: gap grids exist for dim <= 3 only, got dim 4\n"


@pytest.mark.parametrize("svg", [[], ["--svg", "f.svg"]], ids=["plain", "svg"])
def test_hull_grid_error_does_not_depend_on_svg(capsys, tmp_path, monkeypatch, svg):
    """With --svg the figure's hull was sampled before the grid was checked,
    so too few balls was reported in place of the grid error."""
    monkeypatch.chdir(tmp_path)
    argv = ["hull", "--space", "linf2", "--from", "0,0", "--to", "1,1", "--grid", "2"]
    code, out, err = _run(capsys, [*argv, "--balls", "2", *svg])
    assert (code, out) == (1, "")
    assert err == "sunlab: error: the gap grid needs at least 3 points per axis, got 2\n"
    assert not (tmp_path / "f.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["mconnect"],
        ["project", "--query", "1,1"],
        SUN_QUERY,
        [*SUN_QUERY, "--strict"],
        ["sun", "--trials", "3"],
        ["interval", "--from", "0,0", "--to", "1,1"],
        ["interval", "--from", "0", "--to", "1", "--svg", "f.svg"],
        HULL_0_1,
        ["embed"],
    ],
    ids=lambda argv: "-".join(argv[:1] + [a.lstrip("-") for a in argv[1::2]]),
)
def test_cloud_of_another_dimension_is_named(capsys, tmp_path, monkeypatch, cloud_file, argv):
    """interval and hull used the cloud unchecked: hull exited 0, interval
    --svg printed numpy's reshape error, and embed named the source
    dimension. main now checks the cloud once, as soon as it is loaded."""
    monkeypatch.chdir(tmp_path)
    command, *rest = argv
    code, out, err = _run(
        capsys, [command, "--space", "linf2", "--cloud", cloud_file(CLOUD_3D), *rest]
    )
    assert (code, out) == (1, "")
    assert err == "sunlab: error: cloud dimension 3 does not match space dimension 2\n"
    assert not (tmp_path / "f.svg").exists()


@pytest.mark.parametrize(
    "argv, cloud, message",
    [
        (["mconnect"], {"points": [[0, 0, 0]]},
         "cloud dimension 3 does not match space dimension 2"),
        (["path", "--from", "0", "--to", "0"], {"points": [[0, 0], [1, 0], [0, 0]]},
         "points 0 and 2 coincide"),
    ],
    ids=["mconnect-one-point", "path-to-itself"],
)
def test_early_returns_check_the_cloud(capsys, cloud_file, argv, cloud, message):
    """A one-point cloud and a path from a point to itself returned before
    the cloud was checked."""
    command, *rest = argv
    code, out, err = _run(
        capsys, [command, "--space", "linf2", "--cloud", cloud_file(cloud), *rest]
    )
    assert (code, out, err) == (1, "", f"sunlab: error: {message}\n")


@pytest.mark.parametrize("command", ["verify", "sun"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_is_named(capsys, cloud_file, command, trials):
    """verify --trials 0 ran no equivalence trial and passed; a negative
    count failed with numpy's message, which does not name the flag."""
    argv = [command, "--trials", trials]
    if command == "sun":
        argv += ["--space", "linf2", "--cloud", cloud_file(TWO_POINTS)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"sunlab: error: --trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mconnect", "--hull", "oracle", "--balls", "50", "--seed", "-5"],
        ["mconnect", "--hull", "oracle", "--balls", "50", "--seed", "-2"],
        ["verify", "--seed", "-1"],
        ["hull", "--from", "0,0", "--to", "1,0.5", "--seed", "-1"],
        ["sun", "--trials", "3", "--seed=-1"],
        ["project", "--query", "2,2", "--seed", "-1"],
    ],
    ids=lambda argv: "-".join([argv[0], argv[-1].rpartition("=")[2]]),
)
def test_negative_seed_is_named(capsys, cloud_file, argv):
    """--seed -5 failed with numpy's "expected non-negative integer", which
    does not name the flag, and mconnect --seed -2 gave a verdict; every
    subcommand now rejects a negative seed when it parses it."""
    command, *rest = argv
    if command != "verify":
        rest += ["--space", "linf2", "--cloud", cloud_file(FOUR_POINTS)]
    code, out, err = _run(capsys, [command, *rest])
    assert (code, out) == (1, "")
    seed = argv[-1].rpartition("=")[2]
    assert err == f"sunlab: error: --seed must be nonnegative, got {seed}\n"


MALFORMED_JSON = {
    "invalid": '{"points": [[0, 0],\n oops]}',
    "list": "[0.5, 0.5]",
    "string": '"uniform"',
    "not-utf8": b"\xff\xfe",
}


NOT_AN_OBJECT = {
    "space": "space JSON needs a 'functionals' array",
    "cloud": "point cloud JSON needs a 'points' array",
    "weights": "weights JSON needs an 'alphas' array or a 'scheme'",
}


@pytest.mark.parametrize("content", sorted(MALFORMED_JSON))
@pytest.mark.parametrize("kind", sorted(NOT_AN_OBJECT))
def test_malformed_input_file_is_named(capsys, cloud_file, tmp_path, kind, content):
    """Every input file goes through one reader: invalid JSON names the file,
    line and column, a file that is not UTF-8 names the file, and JSON that
    is not an object names the input kind. A weights file holding a list or
    string ended in a traceback."""
    bad = tmp_path / "bad.json"
    data = MALFORMED_JSON[content]
    bad.write_bytes(data) if isinstance(data, bytes) else bad.write_text(data)
    files = {"space": "linf2", "cloud": cloud_file(COLLINEAR3), "weights": "uniform"}
    files[kind] = str(bad)
    argv = [*PATH_0_2, *(a for k, v in files.items() for a in (f"--{k}", v))]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    message = NOT_AN_OBJECT[kind]
    if content == "invalid":
        message = f"{bad}: invalid JSON at line 2, column 2"
    if content == "not-utf8":
        message = f"{bad}: not UTF-8 (byte 0xff: invalid start byte)"
    assert err == f"sunlab: error: {message}\n"


@pytest.mark.parametrize(
    "indices, message",
    [
        ("1,x", "--indices takes integers, got '1,x'"),
        (",", "an embedding needs at least one functional index"),
        ("", "an embedding needs at least one functional index"),
    ],
)
def test_embed_indices_are_named(capsys, cloud_file, indices, message):
    """'1,x' failed with int()'s message, which does not name the flag, and
    ',' with "dimension must be positive" from the target space. An empty
    string embedded every functional, as if --indices were not given."""
    code, out, err = _run(
        capsys,
        ["embed", "--space", "l1(2)", "--cloud", cloud_file(COLLINEAR3), "--indices", indices],
    )
    assert (code, out) == (1, "")
    assert err == f"sunlab: error: {message}\n"


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
out["path_hop"] = run(
    "path", "--space", "linf2", "--cloud", cloud, "--from", "0", "--to", "2", "--hop", "1"
)
out["verify"] = run("verify", "--seed", "7", "--trials", "20")
import scipy.sparse  # the probe must see an import when one happens
out["probe"] = "scipy.sparse" in scipy_loaded()
print(json.dumps(out))
"""


def test_no_command_loads_scipy(cloud_file):
    """scipy.sparse is most of the package's import time, and no command
    needs it: path finds its route by a reachability sweep, and hull sizes
    its grid by the unit ball's extents, which need no solver."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, cloud_file(COLLINEAR3)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == {
        "import": [],
        "interval": [0, []],
        "project": [0, []],
        "sun": [0, []],
        "embed": [0, []],
        "mconnect": [0, []],
        "hull": [0, []],
        "path": [0, []],
        "path_hop": [0, []],
        "verify": [0, []],
        "probe": True,
    }
