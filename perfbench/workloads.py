"""The operations each workload runs, built from the seed.

An operation is one call (or a fixed batch of calls) into the program, the
end-to-end metric its time counts towards, how much work it does for rate
metrics, and a check of its output. Each operation kind comes in two sizes:
the workload that owns the kind runs it at full size, and every other
workload runs a small probe of it, so that every run reports every metric.

Operation kinds by owning workload:

    library  path, mconnect, witness (nets); project, sun, strict, embed
             (nearest points); hull_gap, oracle, verify (hulls)
    cli      cli_small, cli_large
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks
import inputs
from checks import require

OWNER = {
    "library": ("path", "mconnect", "witness", "project", "sun", "strict", "embed", "hull_gap", "oracle", "verify"),
    "cli": ("cli_small", "cli_large"),
}

# End-to-end metric each operation kind counts towards, and how.
METRIC = {
    "path": "path_s",
    "mconnect": "mconnect_s",
    "witness": "mconnect_witness_s",
    "project": "project_queries_per_s",
    "sun": "sun_queries_per_s",
    "strict": "sun_strict_queries_per_s",
    "embed": "embed_points_per_s",
    "hull_gap": "hull_gap_s",
    "oracle": "oracle_mconnect_s",
    "verify": "verify_s",
    "cli_small": "cli_call_s",
    "cli_large": "cli_large_cloud_s",
}

GAP_SEQUENCE = (16, 32, 64, 128, 256, 512, 1024, 2048)
BALL_SEED = 11


@dataclass(eq=False)
class Op:
    kind: str
    name: str
    run: Callable[[], object]
    # Returns True when the output is right and False when a known fault
    # (named by `fault`) shows; raises CheckError on any other wrong output.
    check: Callable[[object], bool]
    work: float = 1.0
    fault: str | None = None


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    report_bytes: int = 0


class Cli:
    """Runs `sunlab.cli` as a child interpreter, or in process through
    `main` for traced rounds."""

    def __init__(self, root: Path, in_process: bool):
        self.root = root
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def __call__(self, argv: list[str]) -> CliResult:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sys.modules["sunlab.cli"].main(argv)
            res = CliResult(code, out.getvalue().encode(), err.getvalue().encode())
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "sunlab.cli", *argv],
                cwd=self.root, env=self.env, capture_output=True, timeout=120,
            )
            res = CliResult(proc.returncode, proc.stdout, proc.stderr)
        written = argv[argv.index("--out") + 1] if "--out" in argv else None
        res.report_bytes = len(res.stdout) + (os.path.getsize(written) if written else 0)
        return res


class Context:
    """What the functions that make operations need: the package, the
    seed, a scratch directory inside the checkout and the CLI runner."""

    def __init__(self, sl, seed: int, tmp: Path, cli: Cli):
        self.sl = sl
        self.seed = seed
        self.tmp = tmp
        self.cli = cli
        self._spaces: dict[str, object] = {}

    def space(self, name: str):
        """A fresh Space per set-up, with its unit-ball extents cache filled."""
        if name not in self._spaces:
            s = self.sl.space_from_name(name)
            self.sl.unit_ball_extents(s)
            self._spaces[name] = s
        return self._spaces[name]

    def rng(self, tag: str) -> np.random.Generator:
        return inputs.rng_for(self.seed, tag)

    def weights(self, s, scheme: str):
        return self.sl.uniform_weights(s) if scheme == "uniform" else self.sl.geometric_weights(s)


def _reps(name: str) -> np.ndarray:
    return checks.representatives(checks.family(name))


# --- nets -------------------------------------------------------------------


def path_ops(ctx: Context, full: bool) -> list[Op]:
    nets = (
        [("linf2", "uniform", "box", 21), ("l1(2)", "uniform", "box", 20),
         ("linf2", "uniform", "stair", 600), ("l1(2)", "geometric", "stair", 300)]
        if full else [("linf2", "uniform", "box", 16)]
    )
    ops = []
    for space, scheme, shape, size in nets:
        tag = f"path-{space}-{shape}-{size}"
        rng = ctx.rng(tag)
        # Paths run corner to corner: endpoints drawn from the seed made the
        # cost of one path vary by a third between seeds.
        u = inputs.box_net(size) if shape == "box" else inputs.staircase(size, 8, rng)
        src, dst = 0, len(u) - 1
        pts = inputs.in_space(space, u + inputs.dyadic_shift(rng, 2))
        s = ctx.space(space)
        w = ctx.weights(s, scheme)
        cloud = ctx.sl.PointCloud(pts)
        reps, alphas = _reps(space), checks.alphas(scheme, 2)

        def run(s=s, w=w, cloud=cloud, src=src, dst=dst):
            hop = 1.5 * ctx.sl.verify.max_nn_distance(s, w, cloud)
            return hop, ctx.sl.monotone_path(s, w, cloud, cloud.points[src], cloud.points[dst], hop=hop)

        def check(out, pts=pts, reps=reps, alphas=alphas, src=src, dst=dst):
            checks.check_path(pts, reps, alphas, src, dst, *out)
            return True

        ops.append(Op("path", tag, run, check))
    return ops


def mconnect_ops(ctx: Context, full: bool) -> list[Op]:
    grids = [("linf2", 12), ("l1(2)", 12)] if full else [("linf2", 9)]
    ops = []
    for space, n in grids:
        tag = f"mconnect-{space}-{n}"
        pts = inputs.in_space(space, inputs.box_net(n) + inputs.dyadic_shift(ctx.rng(tag), 2))
        ops.append(_mconnect_op(ctx, tag, space, pts, fault=None))
    if full:
        # Known fault: the default adjacency_eps is the minimum pairwise
        # distance compared with no tolerance (hull.py:411, hull.py:419), so
        # this connected grid is reported with a witness.
        ops.append(_mconnect_op(ctx, "mconnect-arange-0.1", "linf2", inputs.arange_grid(),
                                fault="adjacency_eps has no tolerance"))
    return ops


def _mconnect_op(ctx, tag, space, pts, fault):
    s, cloud, reps = ctx.space(space), ctx.sl.PointCloud(pts), _reps(space)

    def check(rep):
        if checks.connected_grid_verdict(pts, reps, rep):
            return True
        require(fault is not None, f"connected grid reported a witness {rep.witness}")
        return False

    return Op("mconnect", tag, lambda: ctx.sl.m_connected(s, cloud), check, fault=fault)


def witness_ops(ctx: Context, full: bool) -> list[Op]:
    clouds = [("linf2", 98, 2), ("l1(2)", 98, 2), ("linf3", 10, 3)] if full else [("linf2", 98, 2)]
    repeats = 10 if full else 5
    ops = []
    for space, n, dim in clouds:
        tag = f"witness-{space}-{n}"
        u = inputs.two_sheets(n, dim) + inputs.dyadic_shift(ctx.rng(tag), dim)
        pts = inputs.in_space(space, u)
        s, cloud, reps = ctx.space(space), ctx.sl.PointCloud(pts), _reps(space)
        split = len(pts) // 2

        def check(reports, pts=pts, reps=reps, split=split):
            for rep in reports:
                checks.check_witness(pts, reps, rep, split)
            return True

        ops.append(Op("witness", tag, lambda s=s, c=cloud: [ctx.sl.m_connected(s, c) for _ in range(repeats)], check))
    return ops


# --- nearest points ------------------------------------------------------------


def _segment_cloud(ctx, tag, n, axis):
    h = 2.0 / (n - 1)
    return inputs.segment(n, axis, h, inputs.dyadic_shift(ctx.rng(tag), 2))


def project_ops(ctx: Context, full: bool) -> list[Op]:
    count = 300 if full else 150
    clouds = []
    if full:
        clouds.append(("linf2", "segment-4097", _segment_cloud(ctx, "project-seg", 4097, 0)))
        clouds.append(("linf2", "circle-4000", inputs.circle(4000, ctx.rng("project-circle"))[0]))
    clouds.append(("l1(3)", "cube", ctx.rng("project-cube").uniform(-1, 1, (5000, 3))))
    ops = []
    for space, label, pts in clouds:
        tag = f"project-{space}-{label}"
        queries = inputs.box_queries(ctx.rng(tag), pts, count, pad=0.5)
        s, cloud, reps = ctx.space(space), ctx.sl.PointCloud(pts), _reps(space)

        def check(results, pts=pts, reps=reps, queries=queries):
            for q, res in zip(queries, results):
                checks.check_projection(pts, reps, q, res.distance, res.indices)
            return True

        ops.append(Op("project", tag, lambda s=s, c=cloud, qs=queries: [ctx.sl.project(s, c, q) for q in qs],
                      check, work=count))
    return ops


def _sun_op(ctx, kind, tag, space, pts, queries, strict, passes):
    s, cloud, reps = ctx.space(space), ctx.sl.PointCloud(pts), _reps(space)

    def check(rep):
        if passes:
            checks.check_sun_pass(rep, len(queries))
        else:
            checks.check_sun_fail(pts, reps, rep, len(queries))
        return True

    return Op(kind, tag, lambda: ctx.sl.is_sun_sampled(s, cloud, queries, strict=strict), check,
              work=len(queries))


def sun_ops(ctx: Context, full: bool) -> list[Op]:
    n, count = (1025, 10) if full else (257, 8)
    ops = []
    for axis in ((0, 1) if full else (0,)):
        tag = f"sun-segment-{n}-{axis}"
        pts = _segment_cloud(ctx, tag, n, axis)
        queries = inputs.beside_queries(ctx.rng(tag), pts, axis, count, (0.05, 0.5), overhang=0.25)
        ops.append(_sun_op(ctx, "sun", tag, "linf2", pts, queries, strict=False, passes=True))
    if full:
        # A circle is not a sun: every interior query is falsified.
        rng = ctx.rng("sun-circle")
        pts, centre = inputs.circle(1000, rng)
        queries = inputs.interior_queries(rng, centre, 6)
        ops.append(_sun_op(ctx, "sun", "sun-circle-1000", "linf2", pts, queries, strict=False, passes=False))
    return ops


def strict_ops(ctx: Context, full: bool) -> list[Op]:
    # A fixed offset from the segment gives every query the same number of
    # tied minimisers (about 2 * offset / step of them).
    # At full size each query is its own operation, so that the metric's
    # samples fall at two places in the round.
    n, count, offset = (513, 2, 3 / 64) if full else (129, 2, 6 / 64)
    tag = f"strict-segment-{n}"
    pts = _segment_cloud(ctx, tag, n, 0)
    queries = inputs.beside_queries(ctx.rng(tag), pts, 0, count, (offset, offset), overhang=-0.1)
    batches = [queries[k : k + 1] for k in range(count)] if full else [queries]
    return [_sun_op(ctx, "strict", f"{tag}-{k}", "linf2", pts, batch, strict=True, passes=True)
            for k, batch in enumerate(batches)]


def embed_ops(ctx: Context, full: bool) -> list[Op]:
    cube = ctx.rng("embed-cube").uniform(-1, 1, (20000 if full else 15000, 3))
    cases = [("l1(3)", "cube-all", cube, None)]
    if full:
        cases.append(("l1(3)", "cube-2-0", cube, [2, 0]))
        cases.append(("linf2", "circle-all", inputs.circle(20000, ctx.rng("embed-circle"))[0], None))
    ops = []
    for space, label, pts, idx in cases:
        tag = f"embed-{space}-{label}"
        s, cloud, reps = ctx.space(space), ctx.sl.PointCloud(pts), _reps(space)
        e = ctx.sl.make_embedding(s, idx)
        indices = list(range(reps.shape[0])) if idx is None else idx

        def check(res, pts=pts, reps=reps, indices=indices, tag=tag):
            checks.check_embedding(pts, reps, indices, res, ctx.rng(tag + "-pairs"))
            return True

        ops.append(Op("embed", tag, lambda e=e, c=cloud: ctx.sl.embed_cloud(e, c), check, work=len(pts)))
    return ops


# --- hulls -------------------------------------------------------------------


def _gap_op(ctx, tag, s, pairs, sequence):
    """Sampled hulls at growing n_balls for each pair, one ball seed per
    pair, so each hull's balls extend the previous one's."""

    def run():
        out = []
        for x, y in pairs:
            steps = []
            for n in sequence:
                approx = ctx.sl.ball_hull_outer(s, x, y, n_balls=n, seed=BALL_SEED)
                steps.append((approx, ctx.sl.hull_interval_gap(s, x, y, hull=approx)))
            out.append(steps)
        return out

    def check(out):
        for (x, y), steps in zip(pairs, out):
            for approx, _ in steps:
                checks.check_hull(s.functionals, x, y, approx)
            gaps = [r.gap for _, r in steps]
            checks.check_gap_sequence(gaps, steps[-1][1].step, [r.contained for _, r in steps])
        return True

    return Op("hull_gap", tag, run, check)


def hull_gap_ops(ctx: Context, full: bool) -> list[Op]:
    ops = []
    if full:
        # Few balls leave large slivers whose cost differs fivefold between
        # random pairs; the long sequences therefore run on one fixed pair per
        # space, moved by a seeded translation.
        for name in ("linf1", "linf2", "l1(2)", "linf3", "l1(3)"):
            s = ctx.space(name)
            x, y = inputs.rng_for(0, f"template-{name}").uniform(-1, 1, (2, s.dim))
            shift = inputs.dyadic_shift(ctx.rng(f"template-{name}"), s.dim)
            ops.append(_gap_op(ctx, f"gap-decay-{name}", s, [(x + shift, y + shift)], GAP_SEQUENCE))
    spaces = ("linf1", "linf2", "l1(2)", "linf3", "l1(3)") if full else ("linf2",)
    for name in spaces:
        s = ctx.space(name)
        pairs = ctx.rng(f"gap-{name}").uniform(-1, 1, (8 if full else 6, 2, s.dim))
        ops.append(_gap_op(ctx, f"gap-random-{name}", s, pairs, (64, 256, 1024)))
    for name in (("linf1", "l1(2)", "linf3") if full else ("linf2",)):
        s = ctx.space(name)
        seed = int(ctx.rng(f"mei-{name}").integers(1 << 30))

        def check(rep):
            checks.check_mei(rep)
            return True

        ops.append(Op("hull_gap", f"mei-{name}", lambda s=s, seed=seed: ctx.sl.mei_check(s, 24, seed), check))
    return ops


def oracle_ops(ctx: Context, full: bool) -> list[Op]:
    grids = [("linf2", 5, 2), ("l1(2)", 5, 2), ("linf3", 3, 3)] if full else [("linf2", 4, 2)]
    ops = []
    for space, n, dim in grids:
        tag = f"oracle-{space}-{n}"
        pts = inputs.in_space(space, inputs.box_net(n, dim) + inputs.dyadic_shift(ctx.rng(tag), dim))
        s, cloud = ctx.space(space), ctx.sl.PointCloud(pts)

        def run(s=s, cloud=cloud):
            return ctx.sl.m_connected(s, cloud), ctx.sl.m_connected(s, cloud, hull="oracle")

        def check(out, m=len(pts)):
            checks.check_oracle(*out, m)
            return True

        ops.append(Op("oracle", tag, run, check))
    return ops


def verify_ops(ctx: Context, full: bool) -> list[Op]:
    seeds = ctx.rng("verify").integers(0, 1 << 20, size=3)
    trials = 300 if full else 50
    ops = []
    for k, seed in enumerate(seeds if full else seeds[:1]):
        again = full and k == 0

        def run(seed=int(seed), again=again):
            first = ctx.sl.run_verify(trials=trials, seed=seed)
            return first, ctx.sl.run_verify(trials=trials, seed=seed) if again else first

        def check(out):
            checks.check_verify(*out)
            return True

        ops.append(Op("verify", f"verify-{seed}", run, check))
    return ops


# --- command line ---------------------------------------------------------------


def _coords(p) -> str:
    return ",".join(repr(float(v)) for v in p)


def _cli_op(ctx, kind, name, argv, check, fault=None):
    return Op(kind, name, lambda: ctx.cli(argv), check, fault=fault)


def _report_check(command, want_code, inspect_result):
    def check(res: CliResult):
        report = checks.parse_report(res.stdout, command)
        checks.check_exit(res.code, want_code(report["result"]), command)
        inspect_result(report["result"])
        return True

    return check


def _embedded(result: dict) -> SimpleNamespace:
    """An embed report's result in the shape check_embedding reads."""
    return SimpleNamespace(cloud=SimpleNamespace(points=result["points"]), preimages=result["preimages"],
                           multiplicities=result["multiplicities"])


def _fault_check(what: str):
    """For an operation that must exit 1: exit 0 is the known fault."""

    def check(res: CliResult):
        if res.code == 0:
            return False
        checks.check_exit(res.code, 1, what)
        return True

    return check


def _projection_check(pts, reps, q):
    def inspect(result):
        checks.check_projection(pts, reps, q, result["distance"], result["indices"])

    return _report_check("project", lambda r: 0, inspect)


def cli_small_ops(ctx: Context, full: bool) -> list[Op]:
    rng = ctx.rng("cli-small")
    tmp = ctx.tmp
    linf2, l13 = _reps("linf2"), _reps("l1(3)")
    x, y = rng.uniform(-2, 2, (2, 2))
    ops = [_cli_op(ctx, "cli_small", "interval", ["interval", "--space", "linf2", f"--from={_coords(x)}",
                                                   f"--to={_coords(y)}"],
                   _report_check("interval", lambda r: 0, lambda r: checks.check_slabs(r, linf2, x, y)))]
    if not full:
        return ops

    def hull_result(r):
        require(r["contained"] and r["gap"] <= 2.0 * r["step"], "hull gap above twice the step")

    hx, hy = rng.uniform(-1, 1, (2, 2))
    ops.append(_cli_op(ctx, "cli_small", "hull", ["hull", "--space", "l1(2)", f"--from={_coords(hx)}",
                                                  f"--to={_coords(hy)}", "--balls", "500", "--grid", "48"],
                       _report_check("hull", lambda r: 0 if r["contained"] else 2, hull_result)))

    sheets = inputs.two_sheets(12, 2) + inputs.dyadic_shift(rng, 2)
    inputs.write_json_cloud(tmp / "sheets.json", sheets)

    def mconnect_result(r):
        rep = SimpleNamespace(connected=r["m_connected"], witness=r["witness"],
                              adjacency_eps=r["adjacency_eps"])
        checks.check_witness(sheets, linf2, rep, len(sheets) // 2)

    ops.append(_cli_op(ctx, "cli_small", "mconnect", ["mconnect", "--space", "linf2", "--cloud",
                                                      str(tmp / "sheets.json")],
                       _report_check("mconnect", lambda r: 0 if r["m_connected"] else 2, mconnect_result)))

    net = inputs.box_net(8) + inputs.dyadic_shift(rng, 2)
    inputs.write_json_cloud(tmp / "net.json", net)
    w = checks.alphas("uniform", 2)
    hop = 1.5 * checks.max_nn_distance(net, linf2, w)

    def path_result(r):
        path = SimpleNamespace(points=np.asarray(r["points"]), length=r["length"])
        checks.check_path(net, linf2, w, 0, len(net) - 1, hop, path)

    ops.append(_cli_op(ctx, "cli_small", "path", ["path", "--space", "linf2", "--cloud", str(tmp / "net.json"),
                                                  "--weights", "uniform", "--from", "0", "--to",
                                                  str(len(net) - 1), "--hop", repr(hop)],
                       _report_check("path", lambda r: 0 if r["found"] else 2, path_result)))

    small3 = rng.uniform(-1, 1, (200, 3))
    inputs.write_json_cloud(tmp / "small3.json", small3)
    q3 = rng.uniform(-1.2, 1.2, 3)
    ops.append(_cli_op(ctx, "cli_small", "project", ["project", "--space", "l1(3)", "--cloud",
                                                     str(tmp / "small3.json"), f"--query={_coords(q3)}"],
                       _projection_check(small3, l13, q3)))

    seg = inputs.segment(129, 0, 1 / 64, inputs.dyadic_shift(rng, 2))
    inputs.write_csv_cloud(tmp / "segment.csv", seg)
    sq = inputs.beside_queries(rng, seg, 0, 1, (0.1, 0.5), overhang=0.25)[0]

    def sun_holds(r):
        checks.check_sun_holds(seg, linf2, r)

    ops.append(_cli_op(ctx, "cli_small", "sun-segment", ["sun", "--space", "linf2", "--cloud",
                                                         str(tmp / "segment.csv"), f"--query={_coords(sq)}"],
                       _report_check("sun", lambda r: 0 if r.get("verdict") == "holds-on-grid" else 2,
                                     sun_holds)))

    def embed_result(r):
        checks.check_embedding(small3, l13, [1, 0], _embedded(r), None)

    argv = ["embed", "--space", "l1(3)", "--cloud", str(tmp / "small3.json"), "--indices", "1,0"]
    embed_check = _report_check("embed", lambda r: 0, embed_result)
    printed = {}

    def embed_printed(res: CliResult):
        printed["stdout"] = res.stdout
        return embed_check(res)

    written = tmp / "embed-report.json"

    def embed_written(res: CliResult):
        checks.check_exit(res.code, 0, "embed --out")
        require(res.stdout == b"", "--out also wrote to stdout")
        require(written.read_bytes() == printed.get("stdout"), "--out bytes differ from stdout bytes")
        return True

    ops.append(_cli_op(ctx, "cli_small", "embed", argv, embed_printed))
    ops.append(_cli_op(ctx, "cli_small", "embed-out", argv + ["--out", str(written)], embed_written))

    def verify_result(r):
        require(r["passed"], "verify failed a suite")

    ops.append(_cli_op(ctx, "cli_small", "verify", ["verify", "--trials", "100", "--seed", str(ctx.seed)],
                       _report_check("verify", lambda r: 0 if r["passed"] else 2, verify_result)))

    # Known fault: with --grid 0 the lambda grid is empty and the ray test
    # passes vacuously (approx.py:105, approx.py:121).
    ops.append(_cli_op(ctx, "cli_small", "sun-grid-0", ["sun", "--space", "linf2", "--cloud",
                                                        str(tmp / "segment.csv"), f"--query={_coords(sq)}",
                                                        "--grid", "0"],
                       _fault_check("sun --grid 0"), fault="sun --grid 0 passes vacuously"))

    # Known fault: non-finite coordinates are accepted (cloud.py:24-29) and
    # the report prints NaN, which is not JSON (cli.py:123).
    with open(tmp / "nan.csv", "w", encoding="utf-8") as fh:
        fh.write("0.0,0.0\n1.0,nan\n2.0,0.0\n")

    ops.append(_cli_op(ctx, "cli_small", "project-nan", ["project", "--space", "linf2", "--cloud",
                                                         str(tmp / "nan.csv"), "--query=0.5,0.5"],
                       _fault_check("project on a NaN cloud"), fault="NaN coordinates accepted"))
    return ops


def cli_large_ops(ctx: Context, full: bool) -> list[Op]:
    rng = ctx.rng("cli-large")
    tmp = ctx.tmp
    linf2, l13 = _reps("linf2"), _reps("l1(3)")
    flat = rng.uniform(-10, 10, (20000 if full else 2000, 2))
    inputs.write_csv_cloud(tmp / "large.csv", flat)
    q = rng.uniform(-10, 10, 2)
    ops = [_cli_op(ctx, "cli_large", "project-large-csv", ["project", "--space", "linf2", "--cloud",
                                                           str(tmp / "large.csv"), f"--query={_coords(q)}"],
                   _projection_check(flat, linf2, q))]
    if not full:
        return ops

    cube = rng.uniform(-1, 1, (20000, 3))
    inputs.write_json_cloud(tmp / "large.json", cube)

    def embed_rows(res: CliResult):
        checks.check_exit(res.code, 0, "embed")
        result = checks.parse_report(res.stdout, "embed")["result"]
        checks.check_embedding(cube, l13, range(4), _embedded(result), rng)
        return True

    ops.append(_cli_op(ctx, "cli_large", "embed-large-json", ["embed", "--space", "l1(3)", "--cloud",
                                                              str(tmp / "large.json")], embed_rows))
    return ops


KINDS = {
    "path": path_ops,
    "mconnect": mconnect_ops,
    "witness": witness_ops,
    "project": project_ops,
    "sun": sun_ops,
    "strict": strict_ops,
    "embed": embed_ops,
    "hull_gap": hull_gap_ops,
    "oracle": oracle_ops,
    "verify": verify_ops,
    "cli_small": cli_small_ops,
    "cli_large": cli_large_ops,
}


# How many times a round runs each probe, to give the probe's metrics about
# as many samples as the owner's. Library's probes are CLI calls of about
# 0.6 s each; cli's are in-process calls of about 0.05 s.
PROBE_PASSES = {"library": 2, "cli": 4}


def build(workload: str, ctx: Context) -> list[Op]:
    """The workload's round: its own kinds at full size and a probe of every
    other kind, each probe `PROBE_PASSES` times. Each kind's operations are
    spread evenly over the round, so that the samples of one metric fall at
    different times: a shared machine's speed can change every few seconds,
    and a metric whose operations ran back to back would see one speed per
    round.
    A repeated probe is the same Op, so its runs are samples of one
    operation."""
    placed = []
    for kind in KINDS:
        full = kind in OWNER[workload]
        ops = KINDS[kind](ctx, full)
        if not full:
            ops = ops * PROBE_PASSES[workload]
        placed += [((i + 0.5) / len(ops), len(placed) + i, op) for i, op in enumerate(ops)]
    placed.sort(key=lambda t: t[:2])
    return [op for _, _, op in placed]
