"""sunlab benchmark: one workload per run, one closed-loop caller.

    python3 perfbench/run.py --workload library --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from ./src. A run
sets its inputs up five times (set-up time is the median), then repeats
whole rounds of the workload's operations for about --seconds seconds,
checking every output. Each time is scaled to a fixed machine speed,
measured by a reference computation (yardstick.py) run between operations. The last line of stdout is one
JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child it starts: the
# benchmark is a single caller on a two-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 5
# Yardstick runs before and again after each set-up, to scale its time.
SETUP_YARDSTICKS = 5
MIN_ROUNDS = 3



END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "path_s": "s",
    "mconnect_s": "s",
    "mconnect_witness_s": "s",
    "project_queries_per_s": "1/s",
    "sun_queries_per_s": "1/s",
    "sun_strict_queries_per_s": "1/s",
    "embed_points_per_s": "1/s",
    "hull_gap_s": "s",
    "oracle_mconnect_s": "s",
    "verify_s": "s",
    "cli_call_s": "s",
    "cli_large_cloud_s": "s",
}
RATES = {"project_queries_per_s", "sun_queries_per_s", "sun_strict_queries_per_s", "embed_points_per_s"}

PER_LAYER = {
    "space.norms_s": "s",
    "space.unit_ball_extents_s": "s",
    "cloud.load_cloud_s": "s",
    "cloud.rows_loaded": "count",
    "cloud.require_unique_s": "s",
    "hull.m_connected_s": "s",
    "hull.pairs_checked": "count",
    "hull.pairs_exempt": "count",
    "hull.ball_hull_outer_s": "s",
    "hull.ball_hull_outer_calls": "count",
    "hull.balls_sampled": "count",
    "hull.hull_interval_gap_self_s": "s",
    "hull.grid_points": "count",
    "hull.sliver_points": "count",
    "metric.betweenness_graph_s": "s",
    "metric.graph_edges": "count",
    "metric.monotone_path_self_s": "s",
    "metric.dijkstra_s": "s",
    "metric.path_points": "count",
    "metric.between_equiv_check_s": "s",
    "metric.seq_convergence_check_s": "s",
    "approx.project_s": "s",
    "approx.project_calls": "count",
    "approx.tied_minimisers": "count",
    "approx.sun_check_self_s": "s",
    "approx.sun_check_calls": "count",
    "approx.ray_cloud_pairs": "count",
    "approx.sun_check_useful_ratio": "ratio",
    "embed.embed_cloud_s": "s",
    "embed.points_embedded": "count",
    "verify.max_nn_distance_s": "s",
    "verify.equivalence_suite_s": "s",
    "verify.hull_inclusion_suite_s": "s",
    "verify.convergence_suite_s": "s",
    "verify.path_suite_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_pct": "%",
    "trace.yardstick_s": "s",
}
# Work that happens in set-up, so its per-layer figure comes from the
# traced set-ups rather than from the rounds.
SETUP_LAYERS = {"space.unit_ball_extents_s"}


def child_seconds(code: str) -> float:
    """Run `code` in a fresh interpreter that prints a time it measured."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed_import(module: str) -> float:
    return child_seconds(
        f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    )


def interpreter_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, timeout=120, check=True)
    return time.perf_counter() - start


class Round:
    """Per-operation times and check outcomes of one round. `yardstick`
    holds one yardstick time before the first operation and one after
    each operation, so operation i lies between entries i and i + 1."""

    def __init__(self):
        self.elapsed: list[float] = []
        self.yardstick: list[float] = []
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.report_bytes = 0
        self.layers: dict[str, float] | None = None
        self.startup: tuple[float, float] | None = None


def run_round(ops, workloads, checks, tracer, yardstick) -> Round:
    rec = Round()
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    rec.yardstick.append(yardstick.seconds())
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # an operation that raises is a wrong output
            out, error = None, exc
        rec.elapsed.append(time.perf_counter() - t0)
        rec.yardstick.append(yardstick.seconds())
        rec.attempted += 1
        if isinstance(out, workloads.CliResult):
            rec.report_bytes += out.report_bytes
        try:
            if error is not None:
                raise checks.CheckError(f"raised {error!r}")
            if not op.check(out):
                if op.fault is None:
                    raise checks.CheckError("check reported a fault on an operation without one")
                rec.failed += 1
        except checks.CheckError as exc:
            rec.failed += 1
            rec.wrong.append(f"{op.name}: {exc}")
    if tracer is not None:
        rec.layers = tracer.uninstall()
        rec.startup = (interpreter_seconds(), timed_import("sunlab.cli"))
    rec.wall = time.perf_counter() - start
    return rec


def median(values) -> float:
    return float(statistics.median(list(values)))


def scaled(rec: Round, yardstick) -> list[float]:
    """The round's operation times at reference speed. Each is scaled by
    the mean of two yardstick times: that of the runs just before and just
    after it, which follows changes within seconds but is only two short
    samples, and that of the whole round, which is steadier but slow."""
    whole = statistics.fmean(rec.yardstick)
    return [seconds * yardstick.scale([statistics.fmean(rec.yardstick[i : i + 2]), whole])
            for i, seconds in enumerate(rec.elapsed)]


def end_to_end(ops, rounds, setups, workload, kinds, yardstick) -> dict[str, float]:
    """A metric's value in one round comes from that round's runs of its
    operations, each scaled to reference speed (see `scaled`), with a probe
    that runs more than once per round taking its mean: their summed time,
    their work divided by it, or for cli_call_s the median over the small
    calls. A run reports the median over its rounds."""
    values = {"setup_s": median(setups)}
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    per_round: dict[str, list[float]] = {name: [] for name in kinds.values()}
    for r in rounds:
        runs: dict[object, list[float]] = {}
        for op, seconds in zip(ops, scaled(r, yardstick)):
            runs.setdefault(op, []).append(seconds)
        for kind, name in kinds.items():
            mine = [op for op in runs if op.kind == kind]
            seconds = [statistics.fmean(runs[op]) for op in mine]
            if name in RATES:
                per_round[name].append(sum(op.work for op in mine) / sum(seconds))
            elif name == "cli_call_s":
                per_round[name].append(median(seconds))
            else:
                per_round[name].append(sum(seconds))
    values.update((name, median(v)) for name, v in per_round.items())
    return values


def per_layer(rounds, setup_layers, yardstick) -> dict[str, float]:
    plain = [r for r in rounds if r.layers is None]
    traced = [r for r in rounds if r.layers is not None]
    values = {}
    for name in PER_LAYER:
        if name in SETUP_LAYERS:
            values[name] = median(s.get(name, 0.0) for s in setup_layers)
        elif name == "approx.sun_check_useful_ratio":
            values[name] = median(
                r.layers.get("approx.sun_checks_default_passed", 0.0)
                / max(r.layers.get("approx.sun_checks_default", 0.0), 1.0)
                for r in traced
            )
        elif name == "cli.interpreter_s":
            values[name] = median(r.startup[0] for r in traced)
        elif name == "cli.import_s":
            values[name] = median(r.startup[1] for r in traced)
        elif name == "cli.report_bytes":
            values[name] = median(r.report_bytes for r in traced)
        elif name == "trace.overhead_pct":
            base = median(sum(scaled(r, yardstick)) for r in plain)
            traced_total = median(sum(scaled(r, yardstick)) for r in traced)
            values[name] = 100.0 * (traced_total - base) / base
        elif name == "trace.yardstick_s":
            values[name] = median(statistics.fmean(r.yardstick) for r in rounds)
        else:
            values[name] = median(r.layers.get(name, 0.0) for r in traced)
    return values


def run(args, tmp: Path) -> dict:
    import sunlab
    import sunlab.cli  # traced rounds call its main in process

    if Path(sunlab.__file__).resolve().parent != (SRC / "sunlab").resolve():
        raise SystemExit(f"perfbench: imported sunlab from {sunlab.__file__}, not from {SRC}")
    import checks
    import workloads
    from tracer import Tracer
    from yardstick import Yardstick

    trace = args.trace == 1
    cli = workloads.Cli(ROOT, in_process=trace)
    tracer = Tracer("sunlab") if trace else None
    yardstick = Yardstick()
    setups, setup_layers = [], []
    for _ in range(SETUPS):
        before = [yardstick.seconds() for _ in range(SETUP_YARDSTICKS)]
        import_seconds = timed_import("sunlab")
        ctx = workloads.Context(sunlab, args.seed, tmp, cli)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        ops = workloads.build(args.workload, ctx)
        seconds = import_seconds + time.perf_counter() - start
        if tracer is not None:
            setup_layers.append(tracer.uninstall())
        after = [yardstick.seconds() for _ in range(SETUP_YARDSTICKS)]
        setups.append(seconds * yardstick.scale(before + after))

    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced_round = trace and len(rounds) % 2 == 1
        rec = run_round(ops, workloads, checks, tracer if traced_round else None, yardstick)
        rounds.append(rec)
        for line in rec.wrong:
            print(f"perfbench: wrong output: {line}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + rec.wall > args.seconds:
            break

    if trace:
        values, units = per_layer(rounds, setup_layers, yardstick), PER_LAYER
    else:
        values = end_to_end(ops, rounds, setups, args.workload, workloads.METRIC, yardstick)
        units = END_TO_END
    return {
        "correct": not any(r.wrong for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("library", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sunlab" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'sunlab'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
