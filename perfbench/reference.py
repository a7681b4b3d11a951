"""One-off reference timings at sizes too slow for a benchmark round.

    python3 perfbench/reference.py

Times `monotone_path` (with refinement and without) and interval-mode
`m_connected` on a 41 x 41 linf(2) box net (m = 1681) and on a 21 x 21 one
(m = 441), the sizes quoted in ROADMAP.md. Prints one JSON object. Takes
about three minutes on a two-core machine; not part of any workload.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import inputs  # noqa: E402
import sunlab as sl  # noqa: E402


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def main() -> None:
    s = sl.builtin("linf", 2)
    w = sl.uniform_weights(s)
    figures = {}
    for n in (21, 41):
        cloud = sl.PointCloud(inputs.box_net(n))
        hop = 1.5 * sl.verify.max_nn_distance(s, w, cloud)
        ends = (cloud.points[0], cloud.points[-1])
        for refine in (True, False):
            seconds, path = timed(sl.monotone_path, s, w, cloud, *ends, hop=hop, refine=refine)
            figures[f"monotone_path_m{len(cloud)}_refine_{refine}_s"] = seconds
            figures[f"monotone_path_m{len(cloud)}_refine_{refine}_points"] = len(path.points)
        seconds, rep = timed(sl.m_connected, s, cloud)
        figures[f"m_connected_m{len(cloud)}_s"] = seconds
        figures[f"m_connected_m{len(cloud)}_connected"] = rep.connected
    print(json.dumps(figures, indent=2))


if __name__ == "__main__":
    main()
