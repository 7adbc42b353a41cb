"""Minimal deterministic SVG line charts (no plotting framework).

Emits axes, tick labels, one polyline, optional peak markers, and a
metadata line carrying the scenario hash, with fixed float formatting so
identical inputs give byte-identical files.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 900, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50


def _unit(lo: float, hi: float) -> float:
    """The unit an axis is charted in: 1, or 4 where its data reach past a
    quarter of the float maximum, so that its span and padding stay
    finite. Dividing by 4 is exact, so the picture is the same."""
    return 4.0 if max(-lo, hi) > sys.float_info.max / 4 else 1.0


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, target: int = 8) -> list:
    span = hi - lo
    raw = span / target
    if raw <= 0:  # no span, or one too narrow to divide
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw),
               default=10.0) * mag
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        if v + step == v:  # the step is below the float spacing at v
            break
        v += step
    return ticks


def line_chart(path, x, y, peaks=None, title: str = "",
               xlabel: str = "", ylabel: str = "", meta: str = "") -> None:
    """Chart y over x; x must be strictly increasing, as a trace's times
    are. Peak markers sit on the polyline, interpolated between samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    x_unit, y_unit = _unit(x_lo, x_hi), _unit(y_lo, y_hi)
    x, x_lo, x_hi = x / x_unit, x_lo / x_unit, x_hi / x_unit
    y, y_lo, y_hi = y / y_unit, y_lo / y_unit, y_hi / y_unit
    peaks = [p / x_unit for p in peaks or ()]
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    # the padded range ends where a tick label, in the data's unit, is finite
    y_lo = max(y_lo - pad, -sys.float_info.max / y_unit)
    y_hi = min(y_hi + pad, sys.float_info.max / y_unit)

    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(v):
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    if meta:
        out.append(f"  <desc>{meta}</desc>")
    out.append(f'  <rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" '
               'fill="white"/>')
    if title:
        out.append(f'  <text x="{WIDTH // 2}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="16">{title}</text>')
    # axes
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    out.append(f'  <line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" '
               'stroke="black"/>')
    out.append(f'  <line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" '
               f'y2="{y0}" stroke="black"/>')
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        out.append(f'  <line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" '
                   f'y2="{y0 + 5}" stroke="black"/>')
        out.append(f'  <text x="{px:.2f}" y="{y0 + 20}" text-anchor="middle" '
                   'font-family="sans-serif" font-size="11">'
                   f'{_fmt(tv * x_unit)}</text>')
    for tv in _ticks(y_lo, y_hi, target=6):
        py = sy(tv)
        out.append(f'  <line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" '
                   f'y2="{py:.2f}" stroke="black"/>')
        out.append(f'  <text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
                   'font-family="sans-serif" font-size="11">'
                   f'{_fmt(tv * y_unit)}</text>')
    if xlabel:
        out.append(f'  <text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" '
                   f'y="{HEIGHT - 12}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    if ylabel:
        out.append(f'  <text x="18" y="{(MARGIN_T + y0) // 2}" '
                   'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="13" transform="rotate(-90 18 '
                   f'{(MARGIN_T + y0) // 2})">{ylabel}</text>')
    # sx and sy on whole arrays do the per-point arithmetic in the same
    # order, so the doubles and the file stay the same
    pts = " ".join(map("{:.2f},{:.2f}".format, sx(x).tolist(),
                       sy(y).tolist()))
    out.append(f'  <polyline points="{pts}" fill="none" stroke="#1f4e9c" '
               'stroke-width="1.2"/>')
    if peaks:
        for pt, yy in zip(peaks, _heights_at(x, y, peaks)):
            out.append(f'  <circle cx="{sx(pt):.2f}" cy="{sy(yy):.2f}" r="3.5" '
                       'fill="none" stroke="#c23b22" stroke-width="1.5"/>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


def _heights_at(x: np.ndarray, y: np.ndarray, points) -> list:
    """y at each point: a sample's own value on a sample and the end value
    outside [x[0], x[-1]], else linear between the two samples around it
    (a peak time may be refined between samples)."""
    n = len(x)
    heights = []
    for v, i in zip(points, np.searchsorted(x, points).tolist()):
        if i in (0, n) or x[i] == v:
            heights.append(float(y[min(i, n - 1)]))
        else:
            f = (v - x[i - 1]) / (x[i] - x[i - 1])
            heights.append(float(y[i - 1] + f * (y[i] - y[i - 1])))
    return heights
