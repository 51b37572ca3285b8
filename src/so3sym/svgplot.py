"""Minimal static SVG renderer for learning-curve percentile bands.

No plotting dependency: plots are hand-assembled SVG/XML with the plotted
numbers embedded as comments so the artifacts stay diffable.
"""

import numpy as np

from .bingham import _quantile

WIDTH, HEIGHT = 720, 440
MARGIN = {"left": 64, "right": 160, "top": 40, "bottom": 48}
HEAD_COLORS = {"quat": "#d62728", "6d": "#1f77b4", "A": "#2ca02c"}


def _escape(text):
    """Escape &, < and > for SVG text content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scale(lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0

    def f(x):
        return out_lo + (np.asarray(x, dtype=float) - lo) * (out_hi - out_lo) / span

    return f


def _points(xs, ys):
    return [f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys)]


def render_learning_curves(rows, path):
    """Write test-split percentile-band curves (p10..p90 fill, median line) per head.

    rows are EpochRow-like objects; curves aggregate the per-epoch
    percentile fields across trials by their median.
    """
    split = "test"
    groups = {}  # (head, epoch) -> that epoch's (median, p10, p90) per trial, in input order
    for r in rows:
        if r.split == split:
            groups.setdefault((r.head, r.epoch), []).append((r.median_deg, r.p10_deg, r.p90_deg))
    if not groups:
        raise ValueError(f"no rows with split {split!r}")
    epochs = sorted({e for _, e in groups})
    series = {}  # head -> (its epochs, med, p10, p90), heads in sorted order
    for head, e in sorted(groups):
        es, *cols = series.setdefault(head, ([], [], [], []))
        es.append(e)
        for out, col in zip(cols, np.array(groups[head, e]).T):
            out.append(float(_quantile(col, 0.5)))

    y_max = max(max(p90) for *_, p90 in series.values()) * 1.05 + 1e-9
    sx = _scale(min(epochs), max(epochs) if len(epochs) > 1 else min(epochs) + 1,
                MARGIN["left"], WIDTH - MARGIN["right"])
    sy = _scale(0.0, y_max, HEIGHT - MARGIN["bottom"], MARGIN["top"])

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<!-- split={split} epochs={epochs[0]}..{epochs[-1]} heads={','.join(series)} -->",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">Test angular error ({split})</text>',
    ]

    # Axes with a handful of ticks.
    x0, y0 = MARGIN["left"], HEIGHT - MARGIN["bottom"]
    x1, y1 = WIDTH - MARGIN["right"], MARGIN["top"]
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for t in np.linspace(min(epochs), max(epochs), min(6, len(epochs))):
        px = float(sx(t))
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{y0 + 20}" text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif">{t:.0f}</text>')
    for t in np.linspace(0, y_max, 6):
        py = float(sy(t))
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 9}" y="{py + 4:.2f}" text-anchor="end" font-size="11" '
                     f'font-family="sans-serif">{t:.1f}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 10}" text-anchor="middle" '
                 f'font-size="12" font-family="sans-serif">epoch</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" font-size="12" '
                 f'font-family="sans-serif" transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">'
                 f'angular error (deg)</text>')

    for i, (head, (es, med, p10, p90)) in enumerate(series.items()):
        xs = sx(es)
        color = HEAD_COLORS.get(head, "#555555")
        band = _points(xs, sy(p90)) + _points(xs[::-1], sy(p10)[::-1])
        parts.append(f"<!-- head={head} median={[round(m, 4) for m in med]} "
                     f"p10={[round(m, 4) for m in p10]} p90={[round(m, 4) for m in p90]} -->")
        parts.append(f'<path id="band-{head}" d="M {" L ".join(band)} Z" '
                     f'fill="{color}" fill-opacity="0.18" stroke="none"/>')
        parts.append(f'<polyline id="median-{head}" points="{" ".join(_points(xs, sy(med)))}" '
                     f'fill="none" stroke="{color}" stroke-width="2"/>')
        ly = MARGIN["top"] + 18 * i + 10
        lx = WIDTH - MARGIN["right"] + 16
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly + 4}" font-size="12" '
                     f'font-family="sans-serif">{_escape(head)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
