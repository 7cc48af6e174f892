"""RD plot construction: binned local means plus side-wise global fits.

The plot layer is presentational: evenly spaced or quantile bins
summarize the outcome within each side, and an unweighted global
polynomial (order 4 by default) per side traces the shape of the
regression function.  Bin means are computed in a sort-stable order so
that permuting input rows reproduces the identical plot data bit for
bit.  A minimal static SVG rendering is provided for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewObservations
from .sample import RdSample


@dataclass(frozen=True)
class PlotBin:
    """One bin: interval, midpoint, outcome mean (None when empty)."""

    lower: float
    upper: float
    midpoint: float
    mean_outcome: float | None
    count: int


@dataclass(frozen=True)
class RdPlotData:
    """Everything needed to draw an RD plot."""

    bins_below: tuple[PlotBin, ...]
    bins_above: tuple[PlotBin, ...]
    curve_below: tuple[tuple[float, float], ...]
    curve_above: tuple[tuple[float, float], ...]
    cutoff: float
    poly_order: int
    binning: str
    j_below: int
    j_above: int


def _default_bins(n_side: int) -> int:
    return max(10, round(np.sqrt(n_side) / 2.0))


def _sorted_side(x, y):
    """Stable ordering by (score, outcome) so downstream sums do not
    depend on input row order."""
    order = np.lexsort((y, x))
    return x[order], y[order]


def _bin_bounds(idx, j):
    """Bin b holds sorted rows bounds[b]:bounds[b + 1]; ``idx`` (the bin
    of each sorted row) is non-decreasing, so every bin is one slice."""
    return np.searchsorted(idx, np.arange(j + 1))


def _evenly_spaced_bins(x, y, j):
    """Equal-width bins over [x[0], x[-1]]; one bin when all x are equal."""
    lo, hi = float(x[0]), float(x[-1])
    if hi == lo:
        # All scores identical: one interval holds everything.
        edges = np.array([lo, hi])
        j = 1
    else:
        edges = np.linspace(lo, hi, j + 1)
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, j - 1)
    bounds = _bin_bounds(idx, j)
    bins = []
    for b in range(j):
        s, e = bounds[b], bounds[b + 1]
        mean = float(y[s:e].mean()) if e > s else None
        bins.append(PlotBin(lower=float(edges[b]), upper=float(edges[b + 1]),
                            midpoint=float(0.5 * (edges[b] + edges[b + 1])),
                            mean_outcome=mean, count=int(e - s)))
    return bins


def _quantile_bins(x, y, j):
    """Rank-based quantile bins; tied scores share the lower bin."""
    n = x.shape[0]
    # x is sorted; the first index of each distinct value is that
    # value's minimum rank, shared by all its ties.
    first_idx = np.zeros(n, dtype=np.intp)
    new_val = np.flatnonzero(np.diff(x) != 0) + 1
    first_idx[new_val] = new_val
    np.maximum.accumulate(first_idx, out=first_idx)
    idx = np.minimum(j - 1, first_idx * j // n)
    bounds = _bin_bounds(idx, j)
    bins = []
    for b in range(j):
        s, e = bounds[b], bounds[b + 1]
        if e > s:
            bins.append(PlotBin(lower=float(x[s]), upper=float(x[e - 1]),
                                midpoint=float(0.5 * (x[s] + x[e - 1])),
                                mean_outcome=float(y[s:e].mean()),
                                count=int(e - s)))
        else:
            # Heavy ties can starve a rank bin; emit it empty to keep
            # the bin count honest.
            bins.append(PlotBin(lower=float("nan"), upper=float("nan"),
                                midpoint=float("nan"), mean_outcome=None,
                                count=0))
    return bins


def _global_curve(x, y, cutoff, order, grid):
    xc = x - cutoff
    design = np.vander(xc, N=order + 1, increasing=True)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    gc = grid - cutoff
    fitted = np.vander(gc, N=order + 1, increasing=True) @ coef
    return tuple((float(g), float(v)) for g, v in zip(grid, fitted))


def build_rdplot(sample: RdSample, binning: str = "evenly_spaced",
                 bins_per_side: int | None = None, poly_order: int = 4,
                 grid_points: int = 200) -> RdPlotData:
    """Binned means and global polynomial curves for each side.

    The below curve is evaluated strictly left of the cutoff, the above
    curve from the cutoff rightward; neither fit ever sees the other
    side's observations.
    """
    if binning not in ("evenly_spaced", "quantile"):
        raise ValueError(f"unknown binning {binning!r}")
    c = sample.cutoff
    below = sample.score < c
    sides = {}
    for label, mask in (("below", below), ("above", ~below)):
        n_side = int(mask.sum())
        if n_side < poly_order + 1:
            raise TooFewObservations(
                f"{label} side has {n_side} observations; a global "
                f"order-{poly_order} fit needs {poly_order + 1}")
        x, y = _sorted_side(sample.score[mask], sample.outcome[mask])
        j = bins_per_side if bins_per_side is not None else _default_bins(n_side)
        if binning == "evenly_spaced":
            bins = _evenly_spaced_bins(x, y, j)
        else:
            bins = _quantile_bins(x, y, j)
        sides[label] = (x, y, bins)

    xb, yb, bins_b = sides["below"]
    xa, ya, bins_a = sides["above"]
    grid_b = np.linspace(xb[0], c, grid_points, endpoint=False)
    grid_a = np.linspace(c, xa[-1], grid_points)
    return RdPlotData(
        bins_below=tuple(bins_b), bins_above=tuple(bins_a),
        curve_below=_global_curve(xb, yb, c, poly_order, grid_b),
        curve_above=_global_curve(xa, ya, c, poly_order, grid_a),
        cutoff=float(c), poly_order=poly_order, binning=binning,
        j_below=len(bins_b), j_above=len(bins_a))


# --------------------------------------------------------------------
# SVG rendering
# --------------------------------------------------------------------

_WIDTH, _HEIGHT = 960, 600
_MARGIN = 60


def render_svg(plot: RdPlotData) -> str:
    """Static SVG: bins as points, curves as polylines, cutoff rule."""
    xs, ys = [], []
    for b in (*plot.bins_below, *plot.bins_above):
        if b.mean_outcome is not None:
            xs.append(b.midpoint)
            ys.append(b.mean_outcome)
    for x, y in (*plot.curve_below, *plot.curve_above):
        xs.append(x)
        ys.append(y)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y

    def sx(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def sy(y):
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
    ]
    cx = sx(plot.cutoff)
    parts.append(f'<line x1="{cx:.2f}" y1="{_MARGIN}" x2="{cx:.2f}" '
                 f'y2="{_HEIGHT - _MARGIN}" stroke="gray" '
                 'stroke-dasharray="6,4"/>')
    for curve, color in ((plot.curve_below, "#1f77b4"),
                         (plot.curve_above, "#d62728")):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in curve)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
    for bins, color in ((plot.bins_below, "#1f77b4"),
                        (plot.bins_above, "#d62728")):
        for b in bins:
            if b.mean_outcome is None:
                continue
            parts.append(f'<circle cx="{sx(b.midpoint):.2f}" '
                         f'cy="{sy(b.mean_outcome):.2f}" r="4" '
                         f'fill="{color}" fill-opacity="0.7"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
