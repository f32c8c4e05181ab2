"""Minimal hand-rolled SVG line plots (no plotting dependency).

Diagnostic quality only: a fixed 800x500 canvas, one polyline of Rayleigh
quotients by step per series, a dashed horizontal line at lambda_max, and
plain text labels.  The output is a deterministic function of the inputs,
so plots can be golden-tested byte for byte on one platform.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

WIDTH = 800
HEIGHT = 500

# plot frame inside the canvas
_LEFT = 70.0
_RIGHT = 770.0
_TOP = 50.0
_BOTTOM = 440.0

_PALETTE = ("#1f6fb4", "#c0392b", "#2c8a4b", "#8e44ad", "#b8860b")

_XLABEL = "step"
_YLABEL = "rayleigh quotient"
_REFERENCE_LABEL = "lambda_max"


class Series(NamedTuple):
    """One named curve of at least two finite values; x runs over
    0..len(values)-1 (step index)."""

    label: str
    values: np.ndarray


def _fmt(x: float) -> str:
    # short fixed-point keeps files small; plots are diagnostic, not data
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


def _x_to_px(x: float, xmax: float) -> float:
    return _LEFT + (x / xmax) * (_RIGHT - _LEFT)


def _y_to_px(y: float, ymin: float, ymax: float) -> float:
    return _BOTTOM - (y - ymin) / (ymax - ymin) * (_BOTTOM - _TOP)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(series: Sequence[Series], *, title: str, reference: float) -> str:
    """Render step-indexed curves, with a reference line at ``reference``
    (lambda_max), as a complete SVG document string."""
    xmax = float(max(s.values.size - 1 for s in series))
    lo = min(min(float(s.values.min()) for s in series), float(reference))
    hi = max(max(float(s.values.max()) for s in series), float(reference))
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.06 * (hi - lo)
    ymin, ymax = lo - pad, hi + pad

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    # frame and ticks
    out.append(
        f'<rect x="{_fmt(_LEFT)}" y="{_fmt(_TOP)}" '
        f'width="{_fmt(_RIGHT - _LEFT)}" height="{_fmt(_BOTTOM - _TOP)}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    for i in range(5):
        frac = i / 4.0
        xv = frac * xmax
        xp = _x_to_px(xv, xmax)
        out.append(
            f'<line x1="{_fmt(xp)}" y1="{_fmt(_BOTTOM)}" x2="{_fmt(xp)}" '
            f'y2="{_fmt(_BOTTOM + 5)}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(xp)}" y="{_fmt(_BOTTOM + 20)}" font-size="12" '
            f'font-family="monospace" text-anchor="middle">{_tick_label(xv)}</text>'
        )
        yv = ymin + frac * (ymax - ymin)
        yp = _y_to_px(yv, ymin, ymax)
        out.append(
            f'<line x1="{_fmt(_LEFT - 5)}" y1="{_fmt(yp)}" x2="{_fmt(_LEFT)}" '
            f'y2="{_fmt(yp)}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(_LEFT - 9)}" y="{_fmt(yp + 4)}" font-size="12" '
            f'font-family="monospace" text-anchor="end">{_tick_label(yv)}</text>'
        )

    yp = _y_to_px(float(reference), ymin, ymax)
    out.append(
        f'<line x1="{_fmt(_LEFT)}" y1="{_fmt(yp)}" x2="{_fmt(_RIGHT)}" '
        f'y2="{_fmt(yp)}" stroke="#888888" stroke-width="1" '
        'stroke-dasharray="6,4"/>'
    )
    out.append(
        f'<text x="{_fmt(_RIGHT - 4)}" y="{_fmt(yp - 6)}" font-size="12" '
        f'font-family="monospace" text-anchor="end" fill="#666666">'
        f"{_REFERENCE_LABEL}</text>"
    )

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(_x_to_px(k, xmax))},{_fmt(_y_to_px(float(v), ymin, ymax))}"
            for k, v in enumerate(s.values)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        # legend entry, top-left corner of the frame
        ly = _TOP + 18 + 18 * idx
        out.append(
            f'<line x1="{_fmt(_LEFT + 10)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(_LEFT + 34)}" y2="{_fmt(ly - 4)}" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_fmt(_LEFT + 40)}" y="{_fmt(ly)}" font-size="12" '
            f'font-family="monospace">{_escape(s.label)}</text>'
        )

    yc = (_TOP + _BOTTOM) / 2
    out += [
        f'<text x="{_fmt((_LEFT + _RIGHT) / 2)}" y="28" font-size="15" '
        f'font-family="monospace" text-anchor="middle">{_escape(title)}</text>',
        f'<text x="{_fmt((_LEFT + _RIGHT) / 2)}" y="{_fmt(HEIGHT - 14)}" '
        f'font-size="13" font-family="monospace" text-anchor="middle">{_XLABEL}</text>',
        f'<text x="18" y="{_fmt(yc)}" font-size="13" font-family="monospace" '
        f'text-anchor="middle" transform="rotate(-90 18 {_fmt(yc)})">{_YLABEL}</text>',
    ]

    out.append("</svg>")
    return "\n".join(out) + "\n"
