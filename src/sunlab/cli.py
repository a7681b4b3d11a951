"""Command-line surface.

Each subcommand is a thin driver: parse inputs, call one library
operation, return its result and exit code (and write an SVG when asked
and the space is two-dimensional). `main` wraps every result in the same
JSON report, whose config echoes the parsed options. Exit codes: 0
success or no falsification, 1 usage or input error, 2 falsification
found.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import __version__, svg
from .approx import NoCandidate, find_luminosity, is_sun_sampled, project
from .cloud import PointCloud, load_cloud
from .embed import embed_cloud, make_embedding
from .errors import DimensionMismatch, ParseError, SunlabError
from .hull import ball_hull_outer, hull_interval_gap, interval, m_connected, slab_vertices_2d
from .metric import (
    PathNotFound,
    geometric_weights,
    monotone_path,
    uniform_weights,
    weights_from_json,
)
from .space import Space, space_from_json, space_from_name
from .verify import run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the report contract reserves
    2 for falsifications, so route usage errors through exit 1 instead."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sunlab-tmp-")
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
        with open(text) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{text}: line {exc.lineno} column {exc.colno}: {exc.msg}")
        return space_from_json(data)
    try:
        return space_from_name(text)
    except ValueError:
        raise ParseError(
            f"{text!r} is neither a builtin space name (linf2, l1(3), ...) nor a JSON file"
        )


def _load_weights(s: Space, text: str):
    if text == "geometric":
        return geometric_weights(s)
    if text == "uniform":
        return uniform_weights(s)
    with open(text) as fh:
        return weights_from_json(s, json.load(fh))


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
    """Render the figure when requested and the space is planar; never let
    figure output change the exit code."""
    if not args.svg:
        return
    if s.dim != 2:
        print(f"sunlab: note: --svg skipped, space has dimension {s.dim}", file=sys.stderr)
        return
    _atomic_write(args.svg, build().render())


def _ends(args, s: Space, cloud: PointCloud | None) -> tuple[np.ndarray, np.ndarray]:
    """The --from and --to points; `from` is a keyword, hence the getattr."""
    return _point(getattr(args, "from"), s, cloud), _point(args.to, s, cloud)


def cmd_interval(args) -> tuple[dict, int]:
    s = _load_space(args.space)
    cloud = load_cloud(args.cloud) if args.cloud else None
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

    _maybe_svg(args, s, scene)
    return result, EXIT_OK


def cmd_hull(args) -> tuple[dict, int]:
    s = _load_space(args.space)
    cloud = load_cloud(args.cloud) if args.cloud else None
    x, y = _ends(args, s, cloud)
    # The figure draws the hull the gap is measured on, so sample it once.
    # Only planar spaces get a figure, and they pass the gap's dimension
    # check, so sampling first raises no error that the gap would not.
    approx = None
    if args.svg and s.dim == 2:
        approx = ball_hull_outer(s, x, y, n_balls=args.balls, seed=args.seed)
    rep = hull_interval_gap(
        s, x, y, n_balls=args.balls, seed=args.seed, resolution=args.grid, hull=approx
    )

    def scene():
        sc = svg.Scene()
        sc.add_polygon(slab_vertices_2d(approx.as_slabs()), svg.HULL, dashed=True)
        sc.add_polygon(slab_vertices_2d(interval(s, x, y)), svg.INTERVAL)
        sc.add_points(np.array([x, y]), color=svg.ENDPOINT, radius=4.0)
        sc.add_legend([f"gap {rep.gap:.6g}", f"balls {args.balls}", f"space {s.name}"])
        return sc

    _maybe_svg(args, s, scene)
    return {**asdict(rep), "n_balls": args.balls}, EXIT_OK if rep.contained else EXIT_FALSIFIED


def cmd_mconnect(args) -> tuple[dict, int]:
    s = _load_space(args.space)
    cloud = load_cloud(args.cloud)
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

    _maybe_svg(args, s, scene)
    return rep.to_json(), EXIT_OK if rep.connected else EXIT_FALSIFIED


def cmd_path(args) -> tuple[dict, int]:
    s = _load_space(args.space)
    cloud = load_cloud(args.cloud)
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

    _maybe_svg(args, s, scene)
    if isinstance(out, PathNotFound):
        return out.to_json(), EXIT_FALSIFIED
    return {"found": True, "target": out.target, **out.to_json()}, EXIT_OK


def cmd_project(args) -> tuple[dict, int]:
    s = _load_space(args.space)
    cloud = load_cloud(args.cloud)
    q = _point(args.query, s)
    pr = project(s, cloud, q, tie_tol=args.tol)

    def scene():
        sc = svg.Scene()
        sc.add_points(cloud.points)
        sc.add_points(np.asarray(pr.points), color=svg.HULL, radius=4.0)
        sc.add_points(q.reshape(1, 2), color=svg.ENDPOINT, radius=4.0)
        sc.add_legend([f"distance {pr.distance:.6g}", f"space {s.name}"])
        return sc

    _maybe_svg(args, s, scene)
    return pr.to_json(), EXIT_OK


def cmd_sun(args) -> tuple[dict, int]:
    s = _load_space(args.space)
    cloud = load_cloud(args.cloud)
    if args.query is not None and args.trials is not None:
        raise _UsageError("sunlab sun: error: give either --query or --trials, not both")

    if args.query is not None:
        q = _point(args.query, s)
        if args.strict:
            rep = is_sun_sampled(
                s, cloud, q.reshape(1, -1),
                lambda_max=args.lambda_max, grid=args.grid, strict=True,
            )
            passed = rep.passed
            ray_end = None
        else:
            rep = find_luminosity(s, cloud, q, lambda_max=args.lambda_max, grid=args.grid)
            passed = rep.holds
            ray_end = None
            if not isinstance(rep, NoCandidate):
                yv = np.asarray(rep.y)
                ray_end = yv + args.lambda_max * (q - yv)

        def scene():
            sc = svg.Scene()
            sc.add_points(cloud.points)
            if ray_end is not None:
                sc.add_path(np.array([rep.y, ray_end]), [svg.INTERVAL])
                sc.add_points(np.asarray(rep.y).reshape(1, 2), color=svg.HULL, radius=4.0)
            sc.add_points(q.reshape(1, 2), color=svg.ENDPOINT, radius=4.0)
            sc.add_legend(["ray test " + ("holds" if passed else "falsified"), f"space {s.name}"])
            return sc

        _maybe_svg(args, s, scene)
    else:
        trials = args.trials if args.trials is not None else 100
        rng = np.random.default_rng(args.seed)
        lo = cloud.points.min(axis=0) - 1.0
        hi = cloud.points.max(axis=0) + 1.0
        queries = rng.uniform(lo, hi, size=(trials, s.dim))
        rep = is_sun_sampled(
            s, cloud, queries,
            lambda_max=args.lambda_max, grid=args.grid, strict=args.strict,
        )
        passed = rep.passed

        def scene():
            sc = svg.Scene()
            sc.add_points(cloud.points)
            sc.add_points(queries, color=svg.ENDPOINT, radius=2.0)
            sc.add_legend([f"{trials} queries, passed: {passed}", f"space {s.name}"])
            return sc

        _maybe_svg(args, s, scene)

    return rep.to_json(), EXIT_OK if passed else EXIT_FALSIFIED


def cmd_embed(args) -> tuple[dict, int]:
    s = _load_space(args.space)
    cloud = load_cloud(args.cloud)
    indices = None
    if args.indices:
        indices = [int(p) for p in re.split(r"[,\s]+", args.indices.strip()) if p]
    e = make_embedding(s, indices)
    res = embed_cloud(e, cloud)
    result = {"embedding": e.to_json(), "target_dim": int(e.indices.size), **res.to_json()}
    return result, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    result = run_verify(trials=args.trials, seed=args.seed)
    return result, EXIT_OK if result["passed"] else EXIT_FALSIFIED


def _build_parser() -> _Parser:
    parser = _Parser(prog="sunlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sunlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cloud_required=True):
        p.add_argument("--space", required=True, help="builtin name (linf2, l1(3)) or JSON path")
        p.add_argument(
            "--cloud",
            required=cloud_required,
            help="point cloud path (.json or .csv)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
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

    p = sub.add_parser("path", help="shortest monotone path between two cloud points")
    common(p)
    p.add_argument(
        "--weights", default="geometric", help="geometric, uniform, or a weights JSON path"
    )
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--eps", type=float, default=None, help="length slack (default relative)")
    p.add_argument("--hop", type=float, default=0.0, help="maximum edge length, 0 = unbounded")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("project", help="nearest points of a cloud to a query")
    common(p)
    p.add_argument("--query", required=True, help="query coordinates")
    p.add_argument("--tol", type=float, default=1e-9, help="tie tolerance")
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
    common(p)
    p.add_argument("--indices", help="comma-separated functional pair indices (default all)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="run the seeded invariant suites")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # Coordinates near the float limit overflow to inf in differences;
        # such input is rejected rather than reported.
        with np.errstate(over="raise"):
            return _emit(args, *args.func(args))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"sunlab: error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SunlabError, OSError, ValueError, FloatingPointError) as exc:
        print(f"sunlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
