"""Plain-string SVG rendering of Stokes complexes and zero clouds.

Every picture has a JSON twin produced by the command layer; nothing here
carries information that is not already in the serialized data.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["render_stokes_svg", "render_zeros_svg"]

_SIZE = 720  # picture width and height, px
_MARGIN = 0.02  # visible overhang past the window, relative to its extent


def _mapper(window):
    x0, x1, y0, y1 = window
    sx = _SIZE / (x1 - x0)
    sy = _SIZE / (y1 - y0)

    def to_px(z):
        return (z.real - x0) * sx, (y1 - z.imag) * sy

    return to_px


def _header() -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]


def _clip(z, window):
    x0, x1, y0, y1 = window
    mx = _MARGIN * (x1 - x0)
    my = _MARGIN * (y1 - y0)
    return x0 - mx <= z.real <= x1 + mx and y0 - my <= z.imag <= y1 + my


def _polyline_chunks(samples, window):
    """Split a sample list into maximal visible runs."""
    runs = []
    cur = []
    for z in samples:
        if _clip(z, window):
            cur.append(z)
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    return runs


def render_stokes_svg(sc, window: Optional[tuple] = None) -> str:
    """SVG of the complex: exceptional lines bold, turning points as disks,
    boundary regions labeled with their signs."""
    if window is None:
        r = 1.45 * max(abs(v) for v in sc.turning_points) + 0.6
        window = (-r, r, -r, r)
    to_px = _mapper(window)
    parts = _header()
    for ln in sc.lines:
        for run in _polyline_chunks(ln.samples, window):
            if len(run) < 2:
                continue
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(z) for z in run))
            width = 3.6 if ln.is_exceptional else 1.2
            color = "#111111" if ln.is_exceptional else "#777777"
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="{width}"/>'
            )
    for v in sc.turning_points:
        if _clip(v, window):
            x, y = to_px(v)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="#111111"/>')
    for r in sc.regions:
        if r.label in ("omega+", "omega-") and _clip(r.anchor, window):
            x, y = to_px(r.anchor)
            sign = "+" if r.label == "omega+" else "−"
            parts.append(
                f'<text x="{x:.2f}" y="{y:.2f}" font-size="26" '
                f'text-anchor="middle" font-family="serif">{sign}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def render_zeros_svg(sc, zeros, window: tuple) -> str:
    """Zero cloud (dots) over the exceptional set (bold lines)."""
    to_px = _mapper(window)
    parts = _header()
    for idx in sc.exceptional_lines:
        for run in _polyline_chunks(sc.lines[idx].samples, window):
            if len(run) < 2:
                continue
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(z) for z in run))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="#bbbbbb" '
                f'stroke-width="2.5"/>'
            )
    for v in sc.turning_points:
        if _clip(v, window):
            x, y = to_px(v)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#999999"/>')
    for z, mult in zeros:
        if _clip(z, window):
            x, y = to_px(z)
            r = 2.6 + 1.2 * (mult - 1)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.1f}" fill="#c02020"/>')
    parts.append("</svg>")
    return "\n".join(parts)
