"""RD plot construction: binned local means plus side-wise global fits.

The plot layer is presentational: evenly spaced or quantile bins
summarize the outcome within each side, and an unweighted global
polynomial (order 4 by default) per side traces the shape of the
regression function.  Each side's rows are first ordered by score, then
outcome: one argsort of the score, then one argsort of only the rows
in runs of tied scores, so that permuting input rows reproduces the
identical plot data bit for bit.  A minimal static SVG rendering is provided for
convenience.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewObservations
from .lpoly import polyfit_lstsq, vander
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


# XOR-ed into the int64 view of a negative float, it reverses the order
# of the negative ints, so the ints order as the floats do, with -0.0
# just below 0.0.
_MAGNITUDE_BITS = np.int64(0x7FFFFFFFFFFFFFFF)


def _sorted_side(x, y):
    """The rows ordered by score, then outcome, as ``np.lexsort((y, x))``
    orders them, so that nothing downstream depends on input row order.
    Rows that differ only in the sign of a zero compare equal there, so
    those holding -0.0 go first, score before outcome.  Every value is
    moved, none computed.

    One argsort orders the scores.  Only the rows in runs of tied scores
    are ordered again: by run, then by the rank of the outcome's bits,
    in one argsort of ``run * m + rank``.  The bits order -0.0 before
    0.0, which puts the outcome's sign in its place everywhere but in
    the one run where scores of both signs tie, the run at zero; that
    run is lexsorted on its own."""
    order = np.argsort(x)
    x, y = x.take(order), y.take(order)
    tied = x[1:] == x[:-1]
    in_run = np.zeros(x.shape[0], dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    rows = np.flatnonzero(in_run)
    xr, yr = x.take(rows), y.take(rows)
    m = rows.shape[0]
    bits = yr.view(np.int64)
    key = np.empty(m, dtype=np.int64)
    key[np.argsort(bits ^ ((bits >> 63) & _MAGNITUDE_BITS))] = np.arange(m)
    run = np.zeros(m, dtype=np.int64)
    np.not_equal(xr[1:], xr[:-1], out=run[1:], casting="unsafe")
    key += np.cumsum(run, out=run) * m
    within = np.argsort(key)
    lo, hi = xr.searchsorted(0.0, "left"), xr.searchsorted(0.0, "right")
    xz, yz = xr[lo:hi], yr[lo:hi]
    within[lo:hi] = lo + np.lexsort((~np.signbit(yz), ~np.signbit(xz), yz))
    x[rows] = xr.take(within)
    y[rows] = yr.take(within)
    return x, y


def _bin_bounds(idx, j):
    """Bin b holds sorted rows bounds[b]:bounds[b + 1]; ``idx`` (the bin
    of each sorted row) is non-decreasing, so every bin is one slice."""
    return np.searchsorted(idx, np.arange(j + 1))


def _bins(y, bounds, lower, upper):
    """The records of bins b holding sorted rows bounds[b]:bounds[b + 1]
    on [lower[b], upper[b]]; an empty bin has no mean."""
    return [PlotBin(lower=float(lo), upper=float(hi),
                    midpoint=float(0.5 * (lo + hi)),
                    mean_outcome=float(y[s:e].mean()) if e > s else None,
                    count=int(e - s))
            for s, e, lo, hi in zip(bounds[:-1], bounds[1:], lower, upper)]


def _evenly_spaced_bins(x, j):
    """Row bounds and bin edges of equal-width bins over [x[0], x[-1]];
    one bin when all x are equal.  A row belongs to the last bin whose
    lower edge it reaches, so on the sorted side bin b starts at the
    first row at or above edges[b]."""
    lo, hi = float(x[0]), float(x[-1])
    # All scores identical: one interval holds everything.
    edges = np.array([lo, hi]) if hi == lo else np.linspace(lo, hi, j + 1)
    bounds = np.concatenate(([0], np.searchsorted(x, edges[1:-1]),
                             [x.shape[0]]))
    return bounds, edges[:-1], edges[1:]


def _quantile_bins(x, j):
    """Row bounds and score range of rank-based quantile bins; tied
    scores share the lower bin."""
    n = x.shape[0]
    # x is sorted; the first index of each distinct value is that
    # value's minimum rank, shared by all its ties.
    first_idx = np.zeros(n, dtype=np.intp)
    new_val = np.flatnonzero(np.diff(x) != 0) + 1
    first_idx[new_val] = new_val
    np.maximum.accumulate(first_idx, out=first_idx)
    bounds = _bin_bounds(np.minimum(j - 1, first_idx * j // n), j)
    s, e = bounds[:-1], bounds[1:]
    # Heavy ties can starve a rank bin; it is kept, empty, with NaN
    # bounds, to keep the bin count honest.
    return (bounds, np.where(e > s, x.take(s, mode="clip"), np.nan),
            np.where(e > s, x.take(e - 1, mode="clip"), np.nan))


def _global_curve(x, y, cutoff, order, grid):
    _, coef = polyfit_lstsq(x - cutoff, y, order, "global polynomial")
    fitted = vander(grid - cutoff, order + 1) @ coef
    return tuple((float(g), float(v)) for g, v in zip(grid, fitted))


def build_rdplot(sample: RdSample, binning: str = "evenly_spaced",
                 bins_per_side: int | None = None, poly_order: int = 4,
                 grid_points: int = 200) -> RdPlotData:
    """Binned means and global polynomial curves for each side.

    The below curve is evaluated strictly left of the cutoff, the above
    curve from the cutoff rightward; neither fit ever sees the other
    side's observations.  A side whose global design has rank below
    ``poly_order + 1`` raises ``RankDeficient``.
    """
    if binning not in ("evenly_spaced", "quantile"):
        raise ValueError(f"unknown binning {binning!r}")
    if bins_per_side is not None and bins_per_side < 1:
        raise ValueError("bins_per_side must be at least 1")
    if poly_order < 0:
        raise ValueError("poly_order must be at least 0")
    if grid_points < 1:
        raise ValueError("grid_points must be at least 1")
    c = sample.cutoff
    labels = ("below", "above")
    for label, rows in zip(labels, sample.side_rows):
        if rows.shape[0] < poly_order + 1:
            raise TooFewObservations(
                f"{label} side has {rows.shape[0]} observations; a global "
                f"order-{poly_order} fit needs {poly_order + 1}")
    binned = (_evenly_spaced_bins if binning == "evenly_spaced"
              else _quantile_bins)
    sides = []
    # One side at a time, so that only its own sorted rows are held
    # while its global curve is fitted.
    for label, rows in zip(labels, sample.side_rows):
        x, y = _sorted_side(sample.score.take(rows), sample.outcome.take(rows))
        j = (bins_per_side if bins_per_side is not None
             else _default_bins(rows.shape[0]))
        grid = (np.linspace(x[0], c, grid_points, endpoint=False)
                if label == "below" else np.linspace(c, x[-1], grid_points))
        sides.append((tuple(_bins(y, *binned(x, j))),
                      _global_curve(x, y, c, poly_order, grid)))
        del x, y

    (bins_b, curve_b), (bins_a, curve_a) = sides
    return RdPlotData(
        bins_below=bins_b, bins_above=bins_a,
        curve_below=curve_b, curve_above=curve_a,
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
