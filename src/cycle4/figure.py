"""Deterministic SVG rendering of the spectral region.

The closed nonreal region is bounded by the right segment from 1 to i, the
left curve from i to 0, and the conjugate images of both; the real
interval [-1, 1] is drawn as a segment.  Output bytes depend only on the
arguments: fixed viewport, fixed decimal formatting, no timestamps.
"""

from __future__ import annotations

from .region import TracePoint

_SIZE = 800
_WINDOW = 1.25  # plane window is [-w, w] x [-w, w]


def _px(re: float, im: float) -> tuple[float, float]:
    scale = _SIZE / (2.0 * _WINDOW)
    return (re + _WINDOW) * scale, (_WINDOW - im) * scale


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def render_region_svg(right: list[TracePoint], left: list[TracePoint]) -> str:
    """SVG document (as text) showing the region outlined by the traced
    right segment (from 1 to i) and left curve (from i to 0)."""
    upper = [p.point for p in right] + [p.point for p in left]
    lower = [p.conjugate() for p in reversed(upper)]
    outline = upper + lower

    path = []
    for k, point in enumerate(outline):
        x, y = _px(point.real, point.imag)
        path.append(f"{'M' if k == 0 else 'L'} {_fmt(x)} {_fmt(y)}")
    path.append("Z")

    ax_w = _px(-_WINDOW, 0.0)
    ax_e = _px(_WINDOW, 0.0)
    ax_s = _px(0.0, -_WINDOW)
    ax_n = _px(0.0, _WINDOW)
    seg_l = _px(-1.0, 0.0)
    seg_r = _px(1.0, 0.0)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<line x1="{_fmt(ax_w[0])}" y1="{_fmt(ax_w[1])}" x2="{_fmt(ax_e[0])}" '
        f'y2="{_fmt(ax_e[1])}" stroke="#cccccc" stroke-width="1"/>',
        f'<line x1="{_fmt(ax_s[0])}" y1="{_fmt(ax_s[1])}" x2="{_fmt(ax_n[0])}" '
        f'y2="{_fmt(ax_n[1])}" stroke="#cccccc" stroke-width="1"/>',
        f'<path d="{" ".join(path)}" fill="#9ecae1" fill-opacity="0.6" '
        f'stroke="#08519c" stroke-width="2"/>',
        f'<line x1="{_fmt(seg_l[0])}" y1="{_fmt(seg_l[1])}" x2="{_fmt(seg_r[0])}" '
        f'y2="{_fmt(seg_r[1])}" stroke="#08519c" stroke-width="3"/>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
