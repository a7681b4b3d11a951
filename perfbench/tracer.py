"""Per-layer tracing from outside the program.

The tracer replaces module attributes of the package (``sunlab.approx.project``,
``sunlab.metric.dijkstra``, ...) with timing wrappers for the length of one
traced round and puts the originals back afterwards. Every binding of a
traced function in every ``sunlab`` module is replaced, so calls from one
module into another are seen too. Spans nest: a span's self time is its
duration minus the time of the traced spans it encloses. Totals and counts
are kept in memory for the round and read out at its end.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("space", "cloud", "hull", "metric", "approx", "embed", "verify", "cli")

# Traced names that are not module-level public functions of their layer.
EXTRA = {"cloud": ("PointCloud.require_unique",), "metric": ("dijkstra",)}


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_sun_check(tracer, fn, args, kwargs, out):
    tracer.add("approx.ray_cloud_pairs", int(_arg(fn, args, kwargs, "grid")) * len(args[1]))
    if any(name == "approx.find_luminosity" for name, _ in tracer.stack):
        tracer.add("approx.sun_checks_default", 1)
        tracer.add("approx.sun_checks_default_passed", int(out.holds))


# Counts taken from the arguments and results of traced calls.
COUNTERS = {
    "cloud.load_cloud": lambda t, f, a, k, out: t.add("cloud.rows_loaded", len(out)),
    "hull.m_connected": lambda t, f, a, k, out: (
        t.add("hull.pairs_checked", out.pairs_checked),
        t.add("hull.pairs_exempt", out.pairs_exempt),
    ),
    "hull.ball_hull_outer": lambda t, f, a, k, out: t.add("hull.balls_sampled", out.n_balls),
    "hull.hull_interval_gap": lambda t, f, a, k, out: (
        t.add("hull.grid_points", out.n_grid),
        t.add("hull.sliver_points", max(out.n_hull - out.n_interval, 0)),
    ),
    "metric.betweenness_graph": lambda t, f, a, k, out: t.add(
        "metric.graph_edges", int(out.adjacency.sum()) // 2
    ),
    "metric.monotone_path": lambda t, f, a, k, out: t.add(
        "metric.path_points", len(getattr(out, "points", ()))
    ),
    "approx.project": lambda t, f, a, k, out: t.add("approx.tied_minimisers", len(out.indices)),
    "approx.sun_check": _count_sun_check,
    "embed.embed_cloud": lambda t, f, a, k, out: t.add("embed.points_embedded", len(a[1])),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.totals: dict[str, float] = defaultdict(float)
        self.stack: list[tuple[str, list[float]]] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            frame = (name, [0.0])
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.totals[name + "_s"] += elapsed
                self.totals[name + "_self_s"] += elapsed - frame[1][0]
                self.totals[name + "_calls"] += 1
                if self.stack:
                    self.stack[-1][1][0] += elapsed
            if counter is not None:
                counter(self, fn, args, kwargs, out)
            return out

        return traced

    def _targets(self):
        """(span name, owner, attribute, original) for every traced function."""
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            names = [
                n for n, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
            ]
            for dotted in (*names, *EXTRA.get(layer, ())):
                owner = mod
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                yield f"{layer}.{dotted.split('.')[-1]}", owner, attr, getattr(owner, attr)

    def install(self) -> None:
        """Start a traced round: fresh totals, every binding wrapped."""
        self.totals = defaultdict(float)
        modules = [m for n, m in sys.modules.items() if n == self.package or n.startswith(self.package + ".")]
        for name, owner, attr, orig in self._targets():
            wrapper = self._wrap(name, orig)
            self._patch(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig and (mod, key) != (owner, attr):
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> dict[str, float]:
        """End the round: originals restored, totals returned."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        totals, self.totals = dict(self.totals), defaultdict(float)
        return totals
