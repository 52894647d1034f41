"""Deterministic SVG emission: fixed canvas, no timestamps, stable formatting.

Each table is rendered as one polyline through its points.  Identical input
tables produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError

CANVAS_W = 640.0
CANVAS_H = 480.0
MARGIN = 60.0


@dataclass(frozen=True, eq=False)
class PlotTable:
    """One curve; ``xs`` and ``ys`` are equal-length arrays or sequences of numbers."""

    name: str
    xs: np.ndarray
    ys: np.ndarray
    x_label: str = "x"
    y_label: str = "y"

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) == 0:
            raise SchemaError("plot table must have matching nonempty columns")


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _pixels(values, lo_pix: float, hi_pix: float):
    """Pixel coordinates of ``values`` on [lo_pix, hi_pix], with the axis range.

    ``argmin``/``argmax`` pick the first of tied extremes, as ``min``/``max``
    do, so the axis label of a -0.0/0.0 tie is the first of the two.
    """
    v = np.asarray(values)
    vmin, vmax = v[v.argmin()], v[v.argmax()]
    span = vmax - vmin
    if span == 0.0:
        span, vmin = 1.0, vmin - 0.5
    return lo_pix + (v - vmin) * (hi_pix - lo_pix) / span, vmin, vmax


def render_svg(table: PlotTable) -> str:
    px, xmin, xmax = _pixels(table.xs, MARGIN, CANVAS_W - MARGIN)
    py, ymin, ymax = _pixels(table.ys, CANVAS_H - MARGIN, MARGIN)
    points = tuple(np.column_stack((px, py)).ravel().tolist())
    polyline = " ".join(["%.6g,%.6g"] * len(px)) % points
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(CANVAS_W)}" '
        f'height="{int(CANVAS_H)}" viewBox="0 0 {int(CANVAS_W)} {int(CANVAS_H)}">',
        f'<rect x="0" y="0" width="{int(CANVAS_W)}" height="{int(CANVAS_H)}" fill="white"/>',
        f'<line x1="{_fmt(MARGIN)}" y1="{_fmt(CANVAS_H - MARGIN)}" '
        f'x2="{_fmt(CANVAS_W - MARGIN)}" y2="{_fmt(CANVAS_H - MARGIN)}" stroke="black"/>',
        f'<line x1="{_fmt(MARGIN)}" y1="{_fmt(CANVAS_H - MARGIN)}" '
        f'x2="{_fmt(MARGIN)}" y2="{_fmt(MARGIN)}" stroke="black"/>',
        f'<text x="{_fmt(CANVAS_W / 2)}" y="{_fmt(CANVAS_H - 20.0)}" '
        f'text-anchor="middle" font-size="14">{table.x_label} '
        f'[{_fmt(xmin)}, {_fmt(xmax)}]</text>',
        f'<text x="20" y="{_fmt(CANVAS_H / 2)}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {_fmt(CANVAS_H / 2)})">{table.y_label} '
        f'[{_fmt(ymin)}, {_fmt(ymax)}]</text>',
        f'<text x="{_fmt(CANVAS_W / 2)}" y="30" text-anchor="middle" '
        f'font-size="16">{table.name}</text>',
        f'<polyline fill="none" stroke="navy" stroke-width="1.5" points="{polyline}"/>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def emit_plots(tables: list[PlotTable], out_dir) -> list[Path]:
    """Write one SVG per table into out_dir; returns the paths."""
    if not tables:
        raise SchemaError("no tables to plot")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for table in tables:
        path = out / f"{table.name}.svg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_svg(table))
        paths.append(path)
    return paths
