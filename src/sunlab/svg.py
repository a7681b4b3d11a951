"""Static SVG scenes for two-dimensional reports. Text output only, fully
determined by the geometry passed in."""

from __future__ import annotations

import numpy as np

from .metric import MonotoneVerdict
from .space import Space, _values

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
    """Color an edge bad when it moves a non-monotone functional against
    that functional's net direction along the path (either way, if the net
    change is zero) by more than the verdicts' slack tol * (1 + |net|)."""
    vals = _values(s, np.asarray(pts, dtype=float))
    net = vals[:, -1:] - vals[:, :1]
    diffs = np.diff(vals, axis=1)
    against = np.where(net == 0.0, np.abs(diffs), -np.sign(net) * diffs)
    broken = [v.functional for v in verdicts if not v.monotone]
    bad = (against[broken] > tol * (1.0 + np.abs(net[broken]))).any(axis=0)
    return [_EDGE_BAD if b else _EDGE_OK for b in bad]
