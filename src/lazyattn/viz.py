"""Dependency-free SVG rendering of similarity heatmaps.

One <rect class="cell"> per matrix entry with a linear white-to-blue color
ramp, so a profile with n layers renders exactly n*n cells. CSV remains the
canonical data output; the SVG is a convenience view.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

_CELL = 22
_MARGIN = 46
_LOW = (255, 255, 255)
_HIGH = (18, 68, 155)


def _color(value: float, vmin: float, vmax: float) -> str:
    if vmax <= vmin:
        t = 0.0
    else:
        t = min(max((value - vmin) / (vmax - vmin), 0.0), 1.0)
    r = round(_LOW[0] + t * (_HIGH[0] - _LOW[0]))
    g = round(_LOW[1] + t * (_HIGH[1] - _LOW[1]))
    b = round(_LOW[2] + t * (_HIGH[2] - _LOW[2]))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap_svg(matrix: np.ndarray, title: str = "", vmin: float | None = None,
                       vmax: float | None = None) -> str:
    matrix = np.asarray(matrix, dtype=np.float64)
    n_rows, n_cols = matrix.shape
    lo = float(np.min(matrix)) if vmin is None else vmin
    hi = float(np.max(matrix)) if vmax is None else vmax
    width = _MARGIN * 2 + n_cols * _CELL
    height = _MARGIN * 2 + n_rows * _CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        'font-family="sans-serif" font-size="10">',
        f'  <rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'  <text x="{width / 2}" y="{_MARGIN / 2}" text-anchor="middle" '
            f'font-size="12">{escape(title)}</text>'
        )
    for i in range(n_rows):
        for j in range(n_cols):
            x = _MARGIN + j * _CELL
            y = _MARGIN + i * _CELL
            parts.append(
                f'  <rect class="cell" x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_color(float(matrix[i, j]), lo, hi)}">'
                f"<title>({i},{j}) {matrix[i, j]:.4f}</title></rect>"
            )
    for i in range(n_rows):
        parts.append(
            f'  <text x="{_MARGIN - 6}" y="{_MARGIN + i * _CELL + _CELL * 0.7}" '
            f'text-anchor="end">{i}</text>'
        )
    for j in range(n_cols):
        parts.append(
            f'  <text x="{_MARGIN + j * _CELL + _CELL / 2}" '
            f'y="{_MARGIN + n_rows * _CELL + 14}" text-anchor="middle">{j}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
