"""Minimal static SVG 1.1 plots (polyline charts) for offline inspection.

No plotting dependency: experiments only need log-log scaling lines, CDF
overlays and diagnostic traces, which a few hundred bytes of SVG cover.
"""

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _ticks(lo, hi, n=6):
    """About n round tick values in [lo, hi]; lo < hi, since line_plot
    widens an equal range first."""
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def line_plot(series, title="", xlabel="", ylabel="", logx=False, logy=False):
    """Render `series` = [(xs, ys, label), ...] to an SVG document string."""

    def tx(values, log):
        return [math.log10(v) for v in values] if log else list(values)

    pts = []
    for xs, ys, _label in series:
        pts.append((tx(xs, logx), tx(ys, logy)))
    xmin = min(min(x) for x, _ in pts)
    xmax = max(max(x) for x, _ in pts)
    ymin = min(min(y) for _, y in pts)
    ymax = max(max(y) for _, y in pts)
    if xmax == xmin:
        xmax += 1.0
    if ymax == ymin:
        ymax += 1.0
    ypad = 0.05 * (ymax - ymin)
    ymin -= ypad
    ymax += ypad

    px = lambda x: _ML + (x - xmin) / (xmax - xmin) * (_W - _ML - _MR)
    py = lambda y: _H - _MB - (y - ymin) / (ymax - ymin) * (_H - _MT - _MB)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes box
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for t in _ticks(xmin, xmax):
        x = px(t)
        label = _fmt(10.0 ** t) if logx else _fmt(t)
        out.append(f'<line x1="{x:.1f}" y1="{_H-_MB}" x2="{x:.1f}" '
                   f'y2="{_H-_MB+5}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{_H-_MB+18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    for t in _ticks(ymin, ymax):
        y = py(t)
        label = _fmt(10.0 ** t) if logy else _fmt(t)
        out.append(f'<line x1="{_ML-5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
                   'stroke="#333"/>')
        out.append(f'<text x="{_ML-8}" y="{y+4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    out.append(f'<text x="{_W/2:.0f}" y="{_H-12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    out.append(f'<text x="18" y="{_H/2:.0f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {_H/2:.0f})">{ylabel}</text>')

    for i, ((xs, ys), (_, _, label)) in enumerate(zip(pts, series)):
        color = _COLORS[i % len(_COLORS)]
        path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_W-_MR-150}" y1="{ly-4}" x2="{_W-_MR-125}" '
                   f'y2="{ly-4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W-_MR-120}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
