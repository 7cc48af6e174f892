import dataclasses
import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtoolkit.errors import RankDeficient, TooFewObservations
from rdtoolkit.reports import canonical_json
from rdtoolkit.plotting import (
    PlotBin,
    _bin_bounds,
    _bins,
    _evenly_spaced_bins,
    _quantile_bins,
    _sorted_side,
    build_rdplot,
    render_svg,
)

from conftest import make_sample


class TestBins:
    def test_counts_sum_to_side_sizes(self, noisy_sample):
        plot = build_rdplot(noisy_sample, bins_per_side=12)
        n_below = int((noisy_sample.score < 0).sum())
        n_above = int((noisy_sample.score >= 0).sum())
        assert sum(b.count for b in plot.bins_below) == n_below
        assert sum(b.count for b in plot.bins_above) == n_above
        assert plot.j_below == plot.j_above == 12

    def test_even_bins_have_equal_width(self, noisy_sample):
        plot = build_rdplot(noisy_sample, binning="evenly_spaced",
                            bins_per_side=10)
        for side in (plot.bins_below, plot.bins_above):
            widths = [b.upper - b.lower for b in side]
            assert max(widths) - min(widths) < 1e-12
            # contiguous cover of the side's observed range
            for left, right in zip(side, side[1:]):
                assert right.lower == pytest.approx(left.upper, abs=1e-12)

    def test_quantile_bins_roughly_equal_counts(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1000)  # heavily non-uniform scores
        s = make_sample(x, rng.normal(0, 1, 1000))
        plot = build_rdplot(s, binning="quantile", bins_per_side=10)
        for side in (plot.bins_below, plot.bins_above):
            counts = [b.count for b in side]
            assert max(counts) - min(counts) <= 2

    def test_quantile_ties_share_lower_bin(self):
        # 6 below-side points, two bins. x = -3 appears 4 times; all of
        # its ties must land in the first bin even though ranks 3,4
        # nominally belong to the second.
        x = np.array([-3.0, -3.0, -3.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0,
                      4.0, 5.0, 6.0])
        y = np.arange(12.0)
        plot = build_rdplot(make_sample(x, y), binning="quantile",
                            bins_per_side=2, poly_order=1)
        first, second = plot.bins_below
        assert first.count == 4
        assert second.count == 2
        assert first.mean_outcome == pytest.approx(np.mean(y[:4]))
        assert second.mean_outcome == pytest.approx(np.mean(y[4:6]))

    def test_quantile_total_ties_leave_empty_bins(self):
        # every below-side score identical: one rank bin gets all mass
        x = np.r_[np.full(8, -1.0), np.linspace(0.5, 2.0, 8)]
        y = np.arange(16.0)
        plot = build_rdplot(make_sample(x, y), binning="quantile",
                            bins_per_side=4, poly_order=0)
        counts = [b.count for b in plot.bins_below]
        assert counts == [8, 0, 0, 0]
        assert all(b.mean_outcome is None for b in plot.bins_below[1:])
        assert all(math.isnan(b.midpoint) for b in plot.bins_below[1:])

    def test_identical_scores_report_bins_used(self):
        # all below-side scores equal: one evenly spaced bin, and j says so
        rng = np.random.default_rng(3)
        x = np.r_[np.full(50, -0.5), rng.uniform(0, 1, 50)]
        plot = build_rdplot(make_sample(x, rng.normal(size=100)),
                            poly_order=0)
        assert len(plot.bins_below) == plot.j_below == 1
        assert plot.bins_below[0].count == 50
        assert len(plot.bins_above) == plot.j_above == 10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
           st.integers(1, 300), st.sampled_from([0, 3, 1000]))
    def test_bins_match_mask_construction(self, seed, j, n, distinct):
        # distinct = 0 draws continuous scores; otherwise scores take at
        # most `distinct` values, which ties them and starves bins
        rng = np.random.default_rng(seed)
        x = (rng.uniform(-1, 1, n) if distinct == 0
             else rng.integers(0, distinct, n) / distinct)
        x, y = _sorted_side(x, rng.normal(size=n))
        # repr is exact for floats and, unlike ==, equates NaN with NaN
        for built, mask_built in ((_evenly_spaced_bins, _mask_even_bins),
                                  (_quantile_bins, _mask_quantile_bins)):
            assert (list(map(repr, _bins(y, *built(x, j))))
                    == list(map(repr, mask_built(x, y, j))))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
           st.integers(1, 3000), st.sampled_from([None, 0, 1, 2]),
           st.sampled_from([1e-3, 1.0, 1e5]))
    def test_even_bin_bounds_match_row_rule(self, seed, j, n, decimals,
                                            scale):
        # reference: each sorted row goes to the last edge at or below
        # it, clipped to the bins, and each bin is one slice.  Rounded
        # scores put edges on data values; narrow rounded sides are
        # constant.
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, n) * scale
        if decimals is not None:
            x = np.round(x, decimals)
        x, y = _sorted_side(x, rng.normal(size=n))
        bins = _bins(y, *_evenly_spaced_bins(x, j))
        lo, hi = float(x[0]), float(x[-1])
        if hi == lo:
            edges, j = np.array([lo, hi]), 1
        else:
            edges = np.linspace(lo, hi, j + 1)
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, j - 1)
        assert [b.count for b in bins] == np.diff(_bin_bounds(idx, j)).tolist()

    def test_default_bin_count_scales_with_sqrt_n(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, 3200)
        s = make_sample(x, rng.normal(size=3200))
        plot = build_rdplot(s)
        n_below = int((x < 0).sum())
        assert plot.j_below == max(10, round(math.sqrt(n_below) / 2))


def _mask_even_bins(x, y, j):
    """Reference: evenly spaced bins built with one mask per bin."""
    lo, hi = float(x[0]), float(x[-1])
    if hi == lo:
        edges, j = np.array([lo, hi]), 1
    else:
        edges = np.linspace(lo, hi, j + 1)
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, j - 1)
    bins = []
    for b in range(j):
        members = idx == b
        count = int(members.sum())
        bins.append(PlotBin(
            lower=float(edges[b]), upper=float(edges[b + 1]),
            midpoint=float(0.5 * (edges[b] + edges[b + 1])),
            mean_outcome=float(y[members].mean()) if count else None,
            count=count))
    return bins


def _mask_quantile_bins(x, y, j):
    """Reference: rank quantile bins built with one mask per bin."""
    n = x.shape[0]
    first_idx = np.zeros(n, dtype=np.intp)
    new_val = np.flatnonzero(np.diff(x) != 0) + 1
    first_idx[new_val] = new_val
    np.maximum.accumulate(first_idx, out=first_idx)
    idx = np.minimum(j - 1, first_idx * j // n)
    bins = []
    for b in range(j):
        members = idx == b
        count = int(members.sum())
        if count:
            xs = x[members]
            bins.append(PlotBin(lower=float(xs[0]), upper=float(xs[-1]),
                                midpoint=float(0.5 * (xs[0] + xs[-1])),
                                mean_outcome=float(y[members].mean()),
                                count=count))
        else:
            bins.append(PlotBin(lower=math.nan, upper=math.nan,
                                midpoint=math.nan, mean_outcome=None,
                                count=0))
    return bins


class TestCurves:
    def test_exact_polynomial_reproduced(self):
        x = np.linspace(-1, 1, 201)
        y = 1.0 + 0.5 * x - 2.0 * x ** 2 + 0.25 * x ** 3
        plot = build_rdplot(make_sample(x, y), poly_order=4, grid_points=50)
        for gx, gy in (*plot.curve_below, *plot.curve_above):
            truth = 1.0 + 0.5 * gx - 2.0 * gx ** 2 + 0.25 * gx ** 3
            assert gy == pytest.approx(truth, abs=1e-8)

    def test_grid_sides(self, noisy_sample):
        plot = build_rdplot(noisy_sample, grid_points=80)
        assert all(gx < 0 for gx, _ in plot.curve_below)
        assert all(gx >= 0 for gx, _ in plot.curve_above)
        assert len(plot.curve_below) == 80
        assert len(plot.curve_above) == 80
        assert plot.curve_above[0][0] == pytest.approx(0.0)

    def test_cutoff_offset_respected(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(2, 6, 400)
        y = x * 0.3 + (x >= 4) * 2.0 + rng.normal(0, 0.1, 400)
        plot = build_rdplot(make_sample(x, y, cutoff=4.0))
        assert plot.cutoff == 4.0
        assert all(gx < 4 for gx, _ in plot.curve_below)
        assert all(gx >= 4 for gx, _ in plot.curve_above)

    def test_row_permutation_invariance(self, noisy_sample):
        plot_a = build_rdplot(noisy_sample, binning="quantile",
                              bins_per_side=9)
        rng = np.random.default_rng(99)
        perm = rng.permutation(noisy_sample.score.shape[0])
        shuffled = make_sample(
            noisy_sample.score[perm], noisy_sample.outcome[perm],
            received=noisy_sample.received[perm],
            covariates={k: v[perm]
                        for k, v in noisy_sample.covariates.items()})
        plot_b = build_rdplot(shuffled, binning="quantile", bins_per_side=9)
        assert plot_a == plot_b

    def test_too_few_observations(self):
        x = np.r_[-np.linspace(0.1, 1, 3), np.linspace(0.1, 1, 30)]
        with pytest.raises(TooFewObservations):
            build_rdplot(make_sample(x, np.zeros_like(x)), poly_order=4)

    @pytest.mark.parametrize("x_below, order", [
        (np.repeat([-0.9, -0.5, -0.1], 4), 4),    # 3 distinct scores
        (np.random.default_rng(3).uniform(-1, 0, 200), 30),  # rank 22
    ], ids=["few-distinct", "high-order"])
    def test_rank_deficient_fit_raises(self, x_below, order):
        # lstsq falls back to the rank it finds; order 30 on 200 rows a
        # side finds rank 22, and such a curve must not be drawn
        x = np.r_[x_below, np.linspace(0.0, 1.0, 200)]
        with pytest.raises(RankDeficient, match=f"order {order}"):
            build_rdplot(make_sample(x, np.sin(3 * x)), poly_order=order)

    def test_unknown_binning(self, noisy_sample):
        with pytest.raises(ValueError):
            build_rdplot(noisy_sample, binning="hexagonal")

    @pytest.mark.parametrize("kwargs", [
        {"bins_per_side": 0}, {"bins_per_side": -3}, {"poly_order": -1},
        {"grid_points": 0}, {"grid_points": -5}],
        ids=["bins-0", "bins-neg", "order-neg", "grid-0", "grid-neg"])
    def test_out_of_range_arguments(self, noisy_sample, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            build_rdplot(noisy_sample, **kwargs)


# A small grid ties scores and outcomes heavily, signed zeros included.
_TIED = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


@st.composite
def _tied_rows(draw):
    """Scores and outcomes on a small grid, with at least three rows on
    each side of the cutoff 0."""
    below = draw(st.lists(st.sampled_from([-1.0, -0.5]), min_size=3,
                          max_size=15))
    above = draw(st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0]),
                          min_size=3, max_size=15))
    x = np.array(below + above)
    y = np.array(draw(st.lists(_TIED, min_size=x.size, max_size=x.size)))
    return x, y


@st.composite
def _grid_rows(draw):
    """Up to ~2,000 rows on a coarse grid of each column, so that runs of
    three or more tied scores occur, with both signs of zero in both
    columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 2_000))
    grid = np.array([-0.0, 0.0, *np.linspace(-1, 1, draw(st.integers(1, 40)))])
    return rng.choice(grid, n), rng.choice(grid, n)


class TestRowOrder:
    @settings(max_examples=200, deadline=None)
    @given(_tied_rows(), st.sampled_from(["evenly_spaced", "quantile"]),
           st.integers(1, 5), st.data())
    def test_permuted_rows_give_identical_bytes(self, rows, binning, j,
                                                data):
        x, y = rows
        perm = np.array(data.draw(st.permutations(range(x.size))))
        outputs = []
        for p in (np.arange(x.size), perm):
            # a side whose scores are all tied cannot fit a line; then
            # every row order must fail alike
            try:
                outputs.append(canonical_json(build_rdplot(
                    make_sample(x[p], y[p]), binning=binning,
                    bins_per_side=j, poly_order=1, grid_points=5)))
            except RankDeficient as exc:
                outputs.append(str(exc))
        assert outputs[0] == outputs[1]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_tied_rows(), _grid_rows()))
    def test_sorted_side_matches_lexsort(self, rows):
        # lexsort orders by score, then outcome; rows equal in value but
        # for the sign of a zero go -0.0 first, score before outcome
        x, y = rows
        order = np.lexsort((~np.signbit(y), ~np.signbit(x), y, x))
        xs, ys = _sorted_side(x, y)
        assert xs.tobytes() == x[order].tobytes()
        assert ys.tobytes() == y[order].tobytes()
        # without -0.0 it is lexsort's order
        x, y = x + 0.0, y + 0.0
        order = np.lexsort((y, x))
        xs, ys = _sorted_side(x, y)
        assert xs.tobytes() == x[order].tobytes()
        assert ys.tobytes() == y[order].tobytes()


def _hex_digest(value):
    """SHA-256 of every float's ``float.hex`` (and every other leaf's
    repr) in a nested tuple, in order."""
    def leaves(v):
        if isinstance(v, tuple):
            for item in v:
                yield from leaves(item)
        else:
            yield v.hex() if isinstance(v, float) else repr(v)
    return hashlib.sha256(" ".join(leaves(value)).encode()).hexdigest()


class TestPinnedPlot:
    # 1e5 rows with six-decimal scores, as in the CLI's CSVs: 22% of the
    # rows share a score with another, 910 scores tie three or more
    # rows, and 60 rows hold a zero score of either sign.  Recorded
    # with the stable complex sort that _sorted_side replaced.
    PINNED = {
        "evenly_spaced":
            "6a246db4388306d1c582e14bad340268a62c6608b28a680e0dba3af8a7fe70de",
        "quantile":
            "7567d37faffd417a219fcd0ef8c7a4ba573355a27d8405dad7054812090c74d5",
    }

    @pytest.mark.parametrize("binning", sorted(PINNED))
    def test_tie_heavy_plot_bits(self, binning):
        rng = np.random.default_rng(17)
        n = 100_000
        x = np.round(rng.uniform(-0.2, 0.2, n), 6)
        y = np.round(0.5 * x + 0.3 * (x >= 0) + rng.normal(0, 0.1, n), 6)
        x[:60] = np.where(np.arange(60) % 2, 0.0, -0.0)
        y[:60:3] = 0.0
        y[1:60:3] = -0.0
        plot = build_rdplot(make_sample(x, y), binning=binning)
        assert _hex_digest(dataclasses.astuple(plot)) == self.PINNED[binning]


class TestSvg:
    def test_well_formed_xml_with_expected_elements(self, noisy_sample):
        plot = build_rdplot(noisy_sample, bins_per_side=8)
        svg = render_svg(plot)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        polylines = root.findall("s:polyline", ns)
        circles = root.findall("s:circle", ns)
        assert len(polylines) == 2
        drawn = sum(1 for b in (*plot.bins_below, *plot.bins_above)
                    if b.mean_outcome is not None)
        assert len(circles) == drawn

    def test_deterministic_and_newline_terminated(self, noisy_sample):
        plot = build_rdplot(noisy_sample)
        a, b = render_svg(plot), render_svg(plot)
        assert a == b
        assert a.endswith("\n")
        assert not a.endswith("\n\n")

    def test_empty_bins_skipped(self):
        x = np.r_[np.full(8, -1.0), np.linspace(0.5, 2.0, 8)]
        plot = build_rdplot(make_sample(x, np.arange(16.0)),
                            binning="quantile", bins_per_side=4,
                            poly_order=0)
        svg = render_svg(plot)
        ET.fromstring(svg)  # still parses despite NaN-midpoint bins
        assert "nan" not in svg

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6))
    def test_svg_never_malformed(self, seed, j):
        rng = np.random.default_rng(seed)
        x = np.r_[-rng.uniform(0.01, 1, 25), rng.uniform(0.01, 1, 25)]
        y = rng.normal(size=50)
        plot = build_rdplot(make_sample(x, y), bins_per_side=j,
                            poly_order=2, grid_points=20)
        ET.fromstring(render_svg(plot))
