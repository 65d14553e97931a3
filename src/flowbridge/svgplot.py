"""Self-contained SVG charts (lines and bands) with axes and legend.

No plotting dependency: figures accumulate series, autoscale, and render a
standalone SVG document string.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from html import escape
from pathlib import Path

import numpy as np

from .exceptions import ValidationError

__all__ = ["SvgFigure", "PALETTE"]

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_SIZE = (640.0, 420.0)  # width, height
_MARGINS = (56.0, 16.0, 42.0, 46.0)  # left, right, top, bottom


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About five round-valued ticks covering [lo, hi]."""
    span = hi - lo
    raw = span / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    # snap near-zero ticks to exactly zero for clean labels
    ticks[np.abs(ticks) < 1e-12 * step] = 0.0
    return [float(t) for t in ticks]


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """An axis whose ticks read apart in six-digit labels.

    A constant axis widens by 0.5 each way; then an axis narrower than 1e-4 of its
    largest |value| widens about its centre to that width. A tick step is then at
    least 2e-5 of that value, twice what a six-digit label resolves.
    """
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    width = 1e-4 * max(abs(lo), abs(hi))
    if hi - lo < width:
        mid = lo + 0.5 * (hi - lo)
        lo, hi = mid - 0.5 * width, mid + 0.5 * width
    return lo, hi


@dataclass
class _Series:
    kind: str
    xs: np.ndarray
    ys: np.ndarray
    y2: np.ndarray | None
    color: str
    label: str | None


@dataclass
class SvgFigure:
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    _series: list[_Series] = field(default_factory=list)

    def _next_color(self) -> str:
        return PALETTE[len([s for s in self._series if s.kind != "band"]) % len(PALETTE)]

    def _add(self, kind, xs, ys, y2=None, label=None):
        arrays = [np.asarray(a, dtype=np.float64).ravel() for a in (xs, ys, y2) if a is not None]
        shapes = [a.shape for a in arrays]
        if arrays[0].size == 0 or len(set(shapes)) != 1:
            raise ValidationError(f"series needs matching non-empty arrays, got shapes {shapes}")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValidationError("series contains non-finite values")
        xs, ys = arrays[:2]
        y2 = None if y2 is None else arrays[2]
        self._series.append(_Series(kind, xs, ys, y2, self._next_color(), label))

    def line(self, xs, ys, label=None):
        self._add("line", xs, ys, label=label)

    def band(self, xs, lo, hi):
        """A translucent fill between lo and hi in the colour of the next line."""
        self._add("band", xs, lo, y2=hi)

    def _limits(self):
        xs = np.concatenate([s.xs for s in self._series])
        ys = np.concatenate(
            [s.ys for s in self._series]
            + [s.y2 for s in self._series if s.y2 is not None]
        )
        x0, x1 = _widen(float(xs.min()), float(xs.max()))
        y0, y1 = _widen(float(ys.min()), float(ys.max()))
        pad = 0.04 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad
        # _nice_ticks steps through an axis in about five steps and runs a step
        # past it: refuse an axis whose step is not a normal float64 or which,
        # widened by its span, overflows.
        for lo, hi in ((x0, x1), (y0, y1)):
            span = hi - lo
            if not (span / 5 >= sys.float_info.min
                    and math.isfinite(lo - span) and math.isfinite(hi + span)):
                raise ValidationError(f"cannot draw an axis from {lo:g} to {hi:g} in float64")
        return x0, x1, y0, y1

    def render(self) -> str:
        if not self._series:
            raise ValidationError("figure has no series")
        ml, mr, mt, mb = _MARGINS
        w, h = _SIZE
        x0, x1, y0, y1 = self._limits()

        def px(x):
            return ml + (x - x0) / (x1 - x0) * (w - ml - mr)

        def py(y):
            return h - mb - (y - y0) / (y1 - y0) * (h - mt - mb)

        def fmt(v):
            return f"{v:.6g}"

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:g}" height="{h:g}" '
            f'viewBox="0 0 {w:g} {h:g}">',
            f'<rect width="{w:g}" height="{h:g}" fill="white"/>',
        ]
        # axes frame
        parts.append(
            f'<rect x="{ml:g}" y="{mt:g}" width="{w - ml - mr:g}" height="{h - mt - mb:g}" '
            'fill="none" stroke="#333" stroke-width="1"/>'
        )
        for t in _nice_ticks(x0, x1):
            if not x0 <= t <= x1:
                continue
            parts.append(
                f'<line x1="{px(t):.2f}" y1="{h - mb:.2f}" x2="{px(t):.2f}" '
                f'y2="{h - mb + 5:.2f}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{px(t):.2f}" y="{h - mb + 18:.2f}" font-size="11" '
                f'text-anchor="middle" fill="#333">{fmt(t)}</text>'
            )
        for t in _nice_ticks(y0, y1):
            if not y0 <= t <= y1:
                continue
            parts.append(
                f'<line x1="{ml - 5:.2f}" y1="{py(t):.2f}" x2="{ml:.2f}" '
                f'y2="{py(t):.2f}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{ml - 8:.2f}" y="{py(t) + 4:.2f}" font-size="11" '
                f'text-anchor="end" fill="#333">{fmt(t)}</text>'
            )
        if self.title:
            parts.append(
                f'<text x="{w / 2:.2f}" y="{mt - 14:.2f}" font-size="14" '
                f'text-anchor="middle" fill="#111">{escape(self.title, quote=False)}</text>'
            )
        if self.xlabel:
            parts.append(
                f'<text x="{(ml + w - mr) / 2:.2f}" y="{h - 8:.2f}" font-size="12" '
                f'text-anchor="middle" fill="#111">{escape(self.xlabel, quote=False)}</text>'
            )
        if self.ylabel:
            cy = (mt + h - mb) / 2
            parts.append(
                f'<text x="14" y="{cy:.2f}" font-size="12" text-anchor="middle" '
                f'transform="rotate(-90 14 {cy:.2f})" fill="#111">'
                f"{escape(self.ylabel, quote=False)}</text>"
            )

        for s in self._series:
            if s.kind == "band":
                fwd = [f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys)]
                rev = [f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs[::-1], s.y2[::-1])]
                parts.append(
                    f'<polygon points="{" ".join(fwd + rev)}" fill="{s.color}" '
                    'opacity="0.25" stroke="none"/>'
                )
            else:
                pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys))
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                    'stroke-width="1.8" opacity="1"/>'
                )

        labeled = [s for s in self._series if s.label]
        if labeled:
            lx, ly = w - mr - 150, mt + 10
            parts.append(
                f'<rect x="{lx - 8:.2f}" y="{ly - 12:.2f}" width="150" '
                f'height="{18 * len(labeled) + 8:.2f}" fill="white" opacity="0.85" '
                'stroke="#999"/>'
            )
            for i, s in enumerate(labeled):
                yy = ly + 18 * i
                parts.append(
                    f'<line x1="{lx:.2f}" y1="{yy:.2f}" x2="{lx + 22:.2f}" y2="{yy:.2f}" '
                    f'stroke="{s.color}" stroke-width="3"/>'
                )
                parts.append(
                    f'<text x="{lx + 28:.2f}" y="{yy + 4:.2f}" font-size="11" '
                    f'fill="#111">{escape(s.label, quote=False)}</text>'
                )
        parts.append("</svg>")
        return "\n".join(parts)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.render())
