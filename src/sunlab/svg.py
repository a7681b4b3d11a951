"""Static SVG scenes for two-dimensional reports. Text output only, fully
determined by the geometry passed in."""

from __future__ import annotations

import numpy as np

from .metric import MonotoneVerdict
from .space import Space

_W, _H, _PAD = 640.0, 480.0, 40.0

POINT = "#33658a"
ENDPOINT = "#c23b22"
INTERVAL = "#2a9d8f"
HULL = "#e76f51"
_EDGE_OK = "#2a9d2a"
_EDGE_BAD = "#c23b22"


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


class Scene:
    def __init__(self) -> None:
        self._pts: list[np.ndarray] = []
        self._body: list[tuple] = []

    def _note(self, pts: np.ndarray) -> None:
        if pts.size:
            self._pts.append(np.asarray(pts, dtype=float).reshape(-1, 2))

    def add_polygon(self, vertices: np.ndarray, color: str, dashed: bool = False) -> None:
        self._note(vertices)
        self._body.append(("poly", np.asarray(vertices, dtype=float), color, dashed))

    def add_points(self, pts: np.ndarray, color: str = POINT, radius: float = 3.0) -> None:
        self._note(pts)
        self._body.append(("pts", np.asarray(pts, dtype=float).reshape(-1, 2), color, radius))

    def add_path(self, pts: np.ndarray, edge_colors: list[str]) -> None:
        self._note(pts)
        self._body.append(("path", np.asarray(pts, dtype=float), edge_colors, None))

    def add_legend(self, lines: list[str]) -> None:
        self._body.append(("legend", lines, None, None))

    def _mapper(self):
        allpts = np.vstack(self._pts) if self._pts else np.zeros((1, 2))
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        scale = min((_W - 2 * _PAD) / span[0], (_H - 2 * _PAD) / span[1])

        def to_screen(p):
            x = _PAD + (p[0] - lo[0]) * scale
            y = _H - _PAD - (p[1] - lo[1]) * scale
            return x, y

        return to_screen

    def render(self) -> str:
        m = self._mapper()
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
            f'viewBox="0 0 {int(_W)} {int(_H)}">',
            f'<rect width="{int(_W)}" height="{int(_H)}" fill="#ffffff"/>',
        ]
        legend_y = 16.0
        for kind, a, b, c in self._body:
            if kind == "poly" and len(a):
                coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (m(p) for p in a))
                dash = ' stroke-dasharray="6 4"' if c else ""
                tag = "polygon" if len(a) > 2 else "polyline"
                out.append(
                    f'<{tag} points="{coords}" fill="{b}22" stroke="{b}" stroke-width="1.5"{dash}/>'
                )
            elif kind == "pts":
                for p in a:
                    x, y = m(p)
                    out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(c)}" fill="{b}"/>')
            elif kind == "path":
                for i in range(len(a) - 1):
                    (x1, y1), (x2, y2) = m(a[i]), m(a[i + 1])
                    color = b[i] if i < len(b) else _EDGE_OK
                    out.append(
                        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                        f'stroke="{color}" stroke-width="2"/>'
                    )
            elif kind == "legend":
                for line in a:
                    out.append(
                        f'<text x="8" y="{_fmt(legend_y)}" font-family="monospace" '
                        f'font-size="12" fill="#222222">{line}</text>'
                    )
                    legend_y += 14.0
        out.append("</svg>")
        return "\n".join(out) + "\n"


def edge_colors_for_path(s: Space, pts: np.ndarray, verdicts: list[MonotoneVerdict], tol: float = 1e-9) -> list[str]:
    """Color each edge by whether it moves against any functional's overall
    direction."""
    vals = np.asarray(pts, dtype=float) @ s.representatives.T
    diffs = np.diff(vals, axis=0)
    span = np.abs(vals[-1] - vals[0]) if len(vals) else np.zeros(s.n_pairs)
    colors = []
    for i in range(diffs.shape[0]):
        bad = False
        for v in verdicts:
            slack = tol * (1.0 + span[v.functional])
            d = diffs[i, v.functional]
            if v.nondecreasing and not v.nonincreasing and d < -slack:
                bad = True
            elif v.nonincreasing and not v.nondecreasing and d > slack:
                bad = True
            elif not v.monotone:
                bad = True
        colors.append(_EDGE_BAD if bad else _EDGE_OK)
    return colors
