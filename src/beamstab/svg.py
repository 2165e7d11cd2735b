"""Tiny dependency-free SVG line charts for the batch CLI."""

import math

__all__ = ["line_chart"]

WIDTH, HEIGHT = 640, 420
COLOR = "#1f77b4"


def _transform(v, lo, hi, lo_px, hi_px, log):
    if log:
        v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5 * (lo_px + hi_px)
    return lo_px + (v - lo) * (hi_px - lo_px) / (hi - lo)


def line_chart(xs, ys, label, title, logx, logy):
    """Render one labelled (x, y) polyline; returns the SVG text."""
    pts = [(x, y) for x, y in zip(map(float, xs), map(float, ys))
           if (not logx or x > 0) and (not logy or y > 0)]
    if not pts:
        raise ValueError("nothing to plot")
    xlo, xhi = min(p[0] for p in pts), max(p[0] for p in pts)
    ylo, yhi = min(p[1] for p in pts), max(p[1] for p in pts)
    ml, mr, mt, mb = 60, 15, 30, 40
    path = " ".join(f"{_transform(x, xlo, xhi, ml, WIDTH - mr, logx):.2f},"
                    f"{_transform(y, ylo, yhi, HEIGHT - mb, mt, logy):.2f}" for x, y in pts)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{WIDTH - ml - mr}" '
        f'height="{HEIGHT - mt - mb}" fill="none" stroke="#888"/>',
        f'<polyline points="{path}" fill="none" stroke="{COLOR}" stroke-width="1.5"/>',
        f'<text x="{ml + 8}" y="{mt + 16}" fill="{COLOR}" '
        f'font-family="sans-serif" font-size="11">{label}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        px = ml + frac * (WIDTH - ml - mr)
        xv = xlo * (xhi / xlo) ** frac if logx and xlo > 0 else xlo + frac * (xhi - xlo)
        yv = ylo * (yhi / ylo) ** frac if logy and ylo > 0 else ylo + frac * (yhi - ylo)
        out.append(f'<text x="{px:.0f}" y="{HEIGHT - mb + 16}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="10">{xv:.4g}</text>')
        qy = _transform(yv, ylo, yhi, HEIGHT - mb, mt, logy)
        out.append(f'<text x="{ml - 6}" y="{qy:.0f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="10">{yv:.4g}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
