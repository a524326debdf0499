"""Minimal static SVG 1.1 plots (polyline charts) for offline inspection.

No plotting dependency: experiments only need log-log scaling lines, CDF
overlays and diagnostic traces, which a few hundred bytes of SVG cover.
"""

import math

from .errors import InvalidState, finite_sample

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _ticks(lo, hi, step):
    """k * step, rounded once, for each integer k with lo <= k * step <=
    hi + step / 10^9, compared in exact rational arithmetic so that ranges
    a few ulps wide far from zero get at most (hi - lo) / step + 1 ticks;
    k = 0 gives exactly 0.0."""
    # imported here: fractions loads decimal, about 2.5 ms of start-up that
    # no command without --plot needs
    from fractions import Fraction

    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    return [float(k * step) for k in range(
        math.ceil(lo / step), math.floor(hi / step + Fraction(1, 10 ** 9)) + 1)]


def _span(values, pad, what):
    """(lo, hi, ticks) of an axis drawn over `values`: [min, max], an equal
    range widened by 1, or above 2^40 by 2^-40 of its value (at 2^53,
    v + 1 == v), then padded by `pad` of its width on each side. The tick
    step is the least 1, 2, 2.5, 5 or 10 times a power of ten that is at
    least a sixth of the width. Raises InvalidState when the width
    overflows float64 or the step underflows to zero."""
    lo, hi = min(values), max(values)
    if lo == hi:
        hi += max(1.0, abs(hi) * 2.0 ** -40)
    lo, hi = lo - pad * (hi - lo), hi + pad * (hi - lo)
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw)) if 0 < raw < math.inf else 0.0
    step = next((m * mag for m in (1, 2, 2.5, 5, 10) if raw <= m * mag), 0.0)
    if step == 0.0:
        raise InvalidState(f"a plotted {what} range is too wide or too narrow "
                           "for float64")
    return lo, hi, _ticks(lo, hi, step)


def _text(s):
    """s as SVG text content, with & and < escaped."""
    return str(s).replace("&", "&amp;").replace("<", "&lt;")


def _fmt(t, log, what):
    """The text of the tick at t, or at 10^t on a log axis; raises
    InvalidState when 10^t overflows float64."""
    try:
        v = 10.0 ** t if log else t
    except OverflowError:
        raise InvalidState(f"a log {what} tick 10^{t} is beyond float64") from None
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def line_plot(series, title="", xlabel="", ylabel="", logx=False, logy=False):
    """Render `series` = [(xs, ys, label), ...] to an SVG document string.

    Text is escaped. An empty series raises SampleTooSmall; xs and ys of
    unequal length, a NaN or an infinity, a value <= 0 on a log axis, or a
    drawn range too wide or too narrow for float64 raises InvalidState."""

    def tx(values, log, what):
        finite_sample(values, 1, f"a plotted {what}")
        if log and min(values) <= 0:
            raise InvalidState(f"a log {what} axis needs values > 0")
        return [math.log10(v) for v in values] if log else list(values)

    pts = []
    for xs, ys, _label in series:
        if len(xs) != len(ys):
            raise InvalidState(f"a plotted series needs one y per x, got "
                               f"{len(xs)} xs and {len(ys)} ys")
        pts.append((tx(xs, logx, "x"), tx(ys, logy, "y")))
    xmin, xmax, xticks = _span([x for xs, _ in pts for x in xs], 0.0, "x")
    ymin, ymax, yticks = _span([y for _, ys in pts for y in ys], 0.05, "y")

    px = lambda x: _ML + (x - xmin) / (xmax - xmin) * (_W - _ML - _MR)
    py = lambda y: _H - _MB - (y - ymin) / (ymax - ymin) * (_H - _MT - _MB)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_text(title)}</text>',
    ]
    # axes box
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for t in xticks:
        x = px(t)
        label = _fmt(t, logx, "x")
        out.append(f'<line x1="{x:.1f}" y1="{_H-_MB}" x2="{x:.1f}" '
                   f'y2="{_H-_MB+5}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{_H-_MB+18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    for t in yticks:
        y = py(t)
        label = _fmt(t, logy, "y")
        out.append(f'<line x1="{_ML-5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
                   'stroke="#333"/>')
        out.append(f'<text x="{_ML-8}" y="{y+4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    out.append(f'<text x="{_W/2:.0f}" y="{_H-12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{_text(xlabel)}</text>')
    out.append(f'<text x="18" y="{_H/2:.0f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {_H/2:.0f})">{_text(ylabel)}</text>')

    for i, ((xs, ys), (_, _, label)) in enumerate(zip(pts, series)):
        color = _COLORS[i % len(_COLORS)]
        path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_W-_MR-150}" y1="{ly-4}" x2="{_W-_MR-125}" '
                   f'y2="{ly-4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W-_MR-120}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{_text(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
