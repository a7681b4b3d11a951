"""Command-line surface.

`main` does all of the I/O: it loads the space and the cloud, calls one
command, writes the command's figure (when --svg asks for one and the
space is two-dimensional) and writes the JSON report, whose config echoes
the parsed options. Each `cmd_*` is a function of the parsed arguments and
the loaded inputs: it calls one library operation and returns its result,
its exit code and the builder of its figure (None for embed and verify).
Exit codes: 0 success or no falsification, 1 usage or input error, 2
falsification found.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable
from dataclasses import asdict

import numpy as np

from . import __version__, hull, svg
from .approx import TIE_TOL, SunReport, find_luminosity, is_sun_sampled, project
from .cloud import PointCloud, _read_json, load_cloud
from .embed import embed_cloud, make_embedding
from .errors import DimensionMismatch, ParseError, SunlabError
from .hull import ball_hull_outer, hull_interval_gap, interval, m_connected, slab_vertices_2d
from .metric import BETWEEN_TOL, PathNotFound, monotone_path, weights_from_json
from .space import Space, space_from_json, space_from_name
from .verify import run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2

# What a command returns: its result, its exit code and its figure builder.
_Outcome = tuple[dict, int, Callable[[], svg.Scene] | None]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the report contract reserves
    2 for falsifications, so route usage errors through exit 1 instead."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


class _Seed(argparse.Action):
    """numpy's generators take no negative seed; name the flag instead."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values < 0:
            raise ValueError(f"--seed must be nonnegative, got {values}")
        setattr(namespace, self.dest, values)


def _atomic_write(path: str, text: str) -> None:
    # Mode 0o666 lets the umask give the file the mode open(path, "w") would.
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".sunlab-tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_space(text: str) -> Space:
    if os.path.exists(text) or text.endswith(".json"):
        return space_from_json(_read_json(text))
    try:
        return space_from_name(text)
    except ValueError:
        raise ParseError(
            f"{text!r} is neither a builtin space name (linf2, l1(3), ...) nor a JSON file"
        )


def _load_weights(s: Space, text: str):
    if text in ("geometric", "uniform"):
        return weights_from_json(s, {"scheme": text})
    return weights_from_json(s, _read_json(text))


def _point(text: str, s: Space, cloud: PointCloud | None = None) -> np.ndarray:
    """A point given either as a cloud index or as coordinates '1,0.5'."""
    t = text.strip()
    if cloud is not None:
        try:
            idx = int(t)
        except ValueError:
            idx = None
        if idx is not None:
            if not 0 <= idx < len(cloud):
                raise ParseError(f"point index {idx} out of range for cloud of {len(cloud)}")
            return cloud.points[idx]
    parts = [p for p in re.split(r"[,\s]+", t) if p]
    try:
        vec = np.array([float(p) for p in parts], dtype=float)
    except ValueError:
        raise ParseError(f"cannot parse point {text!r}")
    if not np.isfinite(vec).all():
        raise ParseError(f"point {text!r} has non-finite coordinates")
    if vec.size != s.dim:
        raise DimensionMismatch(f"point {text!r} has {vec.size} coordinates, space has {s.dim}")
    return vec


def _emit(args, result: dict, code: int) -> int:
    """Write the report envelope; its config echoes every parsed option
    except the command itself and where the output goes."""
    config = {
        k: v for k, v in vars(args).items() if k not in ("command", "func", "out", "svg")
    }
    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": config,
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return code


def _maybe_svg(args, s: Space, build) -> None:
    """Render the figure when the command has one, it is requested and the
    space is planar; never let figure output change the exit code."""
    if build is None or not args.svg:
        return
    if s.dim != 2:
        print(f"sunlab: note: --svg skipped, space has dimension {s.dim}", file=sys.stderr)
        return
    _atomic_write(args.svg, build().render())


def _check_trials(trials: int) -> None:
    """A trial count below 1 runs no trial, so a suite would pass vacuously."""
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")


def _ends(args, s: Space, cloud: PointCloud | None) -> tuple[np.ndarray, np.ndarray]:
    """The --from and --to points; `from` is a keyword, hence the getattr."""
    return _point(getattr(args, "from"), s, cloud), _point(args.to, s, cloud)


def cmd_interval(args, s: Space, cloud: PointCloud | None) -> _Outcome:
    x, y = _ends(args, s, cloud)
    box = interval(s, x, y)
    result = {"interval": box.to_json()}
    if s.dim == 2:
        result["vertices"] = [list(v) for v in slab_vertices_2d(box)]

    def scene():
        sc = svg.Scene()
        sc.add_polygon(slab_vertices_2d(box), svg.INTERVAL)
        if cloud is not None:
            sc.add_points(cloud.points)
        sc.add_points(np.array([x, y]), color=svg.ENDPOINT, radius=4.0)
        sc.add_legend(["interval", f"space {s.name}"])
        return sc

    return result, EXIT_OK, scene


def cmd_hull(args, s: Space, cloud: PointCloud | None) -> _Outcome:
    x, y = _ends(args, s, cloud)
    # The figure draws the hull the gap is measured on, so sample it once,
    # after the grid check that hull_interval_gap makes before it samples:
    # --svg then changes no error.
    hull._grid_resolution(s, args.grid)
    approx = None
    if args.svg and s.dim == 2:
        approx = ball_hull_outer(s, x, y, n_balls=args.balls, seed=args.seed)
    rep = hull_interval_gap(
        s, x, y, n_balls=args.balls, seed=args.seed, resolution=args.grid, hull=approx
    )

    def scene():
        sc = svg.Scene()
        sc.add_polygon(slab_vertices_2d(approx), svg.HULL, dashed=True)
        sc.add_polygon(slab_vertices_2d(interval(s, x, y)), svg.INTERVAL)
        sc.add_points(np.array([x, y]), color=svg.ENDPOINT, radius=4.0)
        sc.add_legend([f"gap {rep.gap:.6g}", f"balls {args.balls}", f"space {s.name}"])
        return sc

    code = EXIT_OK if rep.contained else EXIT_FALSIFIED
    return {**asdict(rep), "n_balls": args.balls}, code, scene


def cmd_mconnect(args, s: Space, cloud: PointCloud) -> _Outcome:
    rep = m_connected(
        s,
        cloud,
        hull=args.hull,
        adjacency_eps=args.eps,
        n_balls=args.balls,
        seed=args.seed,
    )

    def scene():
        sc = svg.Scene()
        if rep.witness is not None:
            u, v = cloud.points[rep.witness[0]], cloud.points[rep.witness[1]]
            sc.add_polygon(slab_vertices_2d(interval(s, u, v)), svg.INTERVAL)
            sc.add_points(np.array([u, v]), color=svg.ENDPOINT, radius=4.0)
        sc.add_points(cloud.points)
        verdict = "m-connected" if rep.connected else "not m-connected"
        sc.add_legend([verdict, f"space {s.name}"])
        return sc

    return rep.to_json(), EXIT_OK if rep.connected else EXIT_FALSIFIED, scene


def cmd_path(args, s: Space, cloud: PointCloud) -> _Outcome:
    w = _load_weights(s, args.weights)
    x, y = _ends(args, s, cloud)
    out = monotone_path(s, w, cloud, x, y, eps=args.eps, hop=args.hop, tol=args.tol)

    def scene():
        sc = svg.Scene()
        sc.add_points(cloud.points)
        if not isinstance(out, PathNotFound):
            colors = svg.edge_colors_for_path(s, out.points, out.verdicts, tol=args.tol)
            sc.add_path(out.points, colors)
        sc.add_points(np.array([x, y]), color=svg.ENDPOINT, radius=4.0)
        label = "no admissible path" if isinstance(out, PathNotFound) else (
            f"length {out.length:.6g} target {out.target:.6g}"
        )
        sc.add_legend([label, f"space {s.name}"])
        return sc

    if isinstance(out, PathNotFound):
        return out.to_json(), EXIT_FALSIFIED, scene
    return {"found": True, "target": out.target, **out.to_json()}, EXIT_OK, scene


def cmd_project(args, s: Space, cloud: PointCloud) -> _Outcome:
    q = _point(args.query, s)
    pr = project(s, cloud, q, tie_tol=args.tol)

    def scene():
        sc = svg.Scene()
        sc.add_points(cloud.points)
        sc.add_points(np.asarray(pr.points), color=svg.HULL, radius=4.0)
        sc.add_points(q.reshape(1, 2), color=svg.ENDPOINT, radius=4.0)
        sc.add_legend([f"distance {pr.distance:.6g}", f"space {s.name}"])
        return sc

    return pr.to_json(), EXIT_OK, scene


def cmd_sun(args, s: Space, cloud: PointCloud) -> _Outcome:
    if args.query is not None and args.trials is not None:
        raise _UsageError("sunlab sun: error: give either --query or --trials, not both")

    if args.query is not None:
        queries = _point(args.query, s).reshape(1, -1)
    else:
        trials = args.trials if args.trials is not None else 100
        _check_trials(trials)
        rng = np.random.default_rng(args.seed)
        lo = cloud.points.min(axis=0) - 1.0
        hi = cloud.points.max(axis=0) + 1.0
        queries = rng.uniform(lo, hi, size=(trials, cloud.dim))
    ray = {"lambda_max": args.lambda_max, "grid": args.grid}
    if args.query is not None and not args.strict:
        rep = find_luminosity(s, cloud, queries[0], **ray)
        passed = rep.holds
    else:
        rep = is_sun_sampled(s, cloud, queries, strict=args.strict, **ray)
        passed = rep.passed

    def scene():
        sc = svg.Scene()
        sc.add_points(cloud.points)
        if isinstance(rep, SunReport):
            # A luminosity point was found: draw its ray out to lambda_max.
            y = np.asarray(rep.y)
            sc.add_path(np.array([y, y + args.lambda_max * (queries[0] - y)]), [svg.INTERVAL])
            sc.add_points(y.reshape(1, 2), color=svg.HULL, radius=4.0)
        if args.query is not None:
            sc.add_points(queries, color=svg.ENDPOINT, radius=4.0)
            sc.add_legend(["ray test " + ("holds" if passed else "falsified"), f"space {s.name}"])
        else:
            sc.add_points(queries, color=svg.ENDPOINT, radius=2.0)
            sc.add_legend([f"{len(queries)} queries, passed: {passed}", f"space {s.name}"])
        return sc

    return rep.to_json(), EXIT_OK if passed else EXIT_FALSIFIED, scene


def cmd_embed(args, s: Space, cloud: PointCloud) -> _Outcome:
    indices = None
    if args.indices is not None:
        try:
            indices = [int(p) for p in re.split(r"[,\s]+", args.indices.strip()) if p]
        except ValueError:
            raise ParseError(f"--indices takes integers, got {args.indices!r}") from None
    e = make_embedding(s, indices)
    res = embed_cloud(e, cloud)
    result = {"embedding": e.to_json(), "target_dim": int(e.indices.size), **res.to_json()}
    return result, EXIT_OK, None


def cmd_verify(args, s: None, cloud: None) -> _Outcome:
    _check_trials(args.trials)
    result = run_verify(trials=args.trials, seed=args.seed)
    return result, EXIT_OK if result["passed"] else EXIT_FALSIFIED, None


def _build_parser() -> _Parser:
    parser = _Parser(prog="sunlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sunlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def seed_and_out(p):
        p.add_argument("--seed", type=int, default=0, action=_Seed)
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    def common(p, cloud_required=True, figure=True):
        p.add_argument("--space", required=True, help="builtin name (linf2, l1(3)) or JSON path")
        p.add_argument(
            "--cloud",
            required=cloud_required,
            help="point cloud path (.json or .csv)",
        )
        seed_and_out(p)
        if figure:
            p.add_argument("--svg", help="write an SVG figure here (two-dimensional spaces only)")

    p = sub.add_parser("interval", help="slab representation of the interval of a pair")
    common(p, cloud_required=False)
    p.add_argument("--from", required=True, help="cloud index or coordinates")
    p.add_argument("--to", required=True, help="cloud index or coordinates")
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("hull", help="sampled ball hull of a pair and its gap to the interval")
    common(p, cloud_required=False)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--balls", type=int, default=2000, help="number of sampled balls")
    p.add_argument("--grid", type=int, default=None, help="grid resolution per axis")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("mconnect", help="test whether a cloud is m-connected")
    common(p)
    p.add_argument("--hull", choices=("interval", "oracle"), default="interval")
    p.add_argument("--eps", type=float, default=None, help="adjacency exemption distance")
    p.add_argument("--balls", type=int, default=2000)
    p.set_defaults(func=cmd_mconnect)

    p = sub.add_parser("path", help="monotone path between two cloud points")
    common(p)
    p.add_argument(
        "--weights", default="geometric", help="geometric, uniform, or a weights JSON path"
    )
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--eps", type=float, default=None, help="length slack (default relative)")
    p.add_argument("--hop", type=float, default=0.0, help="maximum step length, 0 = unbounded")
    p.add_argument("--tol", type=float, default=BETWEEN_TOL)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("project", help="nearest points of a cloud to a query")
    common(p)
    p.add_argument("--query", required=True, help="query coordinates")
    p.add_argument("--tol", type=float, default=TIE_TOL, help="tie tolerance")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("sun", help="outward-ray nearest-point test")
    common(p)
    p.add_argument("--query", help="query coordinates (omit to sample --trials queries)")
    p.add_argument("--trials", type=int, default=None, help="number of random queries")
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=16.0)
    p.add_argument("--grid", type=int, default=256, help="ray discretization steps")
    p.add_argument("--strict", action="store_true", help="every nearest point must pass")
    p.set_defaults(func=cmd_sun)

    p = sub.add_parser("embed", help="map a cloud into the max-coordinate space")
    common(p, figure=False)
    p.add_argument("--indices", help="comma-separated functional pair indices (default all)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="run the seeded invariant suites")
    p.add_argument("--trials", type=int, default=1000)
    seed_and_out(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # Coordinates near the float limit overflow to inf in differences;
        # such input is rejected rather than reported.
        with np.errstate(over="raise"):
            s = _load_space(args.space) if "space" in args else None
            cloud = load_cloud(args.cloud) if getattr(args, "cloud", None) is not None else None
            result, code, scene = args.func(args, s, cloud)
            _maybe_svg(args, s, scene)
            return _emit(args, result, code)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (SunlabError, OSError, ValueError, FloatingPointError, MemoryError) as exc:
        print(f"sunlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
