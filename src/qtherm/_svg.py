"""Minimal self-contained SVG line charts (no external processes, no deps)."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f"]

W, H = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 20, 40, 56
POINT_BLOCK = 2 ** 14            # points a polyline formats at a time, bounding the text held


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _write_points(fh, px: np.ndarray, py: np.ndarray) -> None:
    """Write 'x,y x,y ...' at two decimals, formatting POINT_BLOCK points at a time."""
    xy = np.column_stack((px, py))
    for i in range(0, len(xy), POINT_BLOCK):
        block = xy[i:i + POINT_BLOCK]
        text = " ".join(["%.2f,%.2f"] * len(block)) % tuple(block.ravel().tolist())
        fh.write(" " + text if i else text)


def line_chart(path: str, title: str, xlabel: str, ylabel: str,
               series: Sequence[tuple[str, Sequence[float], Sequence[float]]]) -> None:
    """Write a line chart with one polyline per named series, of its finite points."""
    curves = []
    for label, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        curves.append((label, xs, ys) if keep.all() else (label, xs[keep], ys[keep]))
    finite = [(xs, ys) for _, xs, ys in curves if xs.size] or [(np.array([0.0, 1.0]),) * 2]
    x0, x1 = min(float(xs.min()) for xs, _ in finite), max(float(xs.max()) for xs, _ in finite)
    y0, y1 = min(float(ys.min()) for _, ys in finite), max(float(ys.max()) for _, ys in finite)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.04 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * (W - MARGIN_L - MARGIN_R)

    def sy(y):
        return H - MARGIN_B - (y - y0) / (y1 - y0) * (H - MARGIN_T - MARGIN_B)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    for t in _ticks(x0, x1):
        px = sx(t)
        lines.append(f'<line x1="{px:.2f}" y1="{MARGIN_T}" x2="{px:.2f}" '
                     f'y2="{H - MARGIN_B}" stroke="#dddddd" stroke-width="1"/>')
        lines.append(f'<text x="{px:.2f}" y="{H - MARGIN_B + 18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y0, y1):
        py = sy(t)
        lines.append(f'<line x1="{MARGIN_L}" y1="{py:.2f}" x2="{W - MARGIN_R}" '
                     f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>')
        lines.append(f'<text x="{MARGIN_L - 6}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>')
    lines.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{W - MARGIN_L - MARGIN_R}" '
                 f'height="{H - MARGIN_T - MARGIN_B}" fill="none" stroke="#333333"/>')
    lines.append(f'<text x="{W/2:.0f}" y="{H - 14}" text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif">{xlabel}</text>')
    lines.append(f'<text x="18" y="{H/2:.0f}" text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif" transform="rotate(-90 18 {H/2:.0f})">{ylabel}</text>')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for i, (label, xs, ys) in enumerate(curves):
            color = PALETTE[i % len(PALETTE)]
            if xs.size:
                fh.write('<polyline points="')
                _write_points(fh, sx(xs), sy(ys))
                fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
            ly = MARGIN_T + 16 + 16 * i
            fh.write(f'<line x1="{W - MARGIN_R - 150}" y1="{ly - 4}" '
                     f'x2="{W - MARGIN_R - 126}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>\n')
            fh.write(f'<text x="{W - MARGIN_R - 120}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{label}</text>\n')
        fh.write("</svg>\n")
