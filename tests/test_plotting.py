import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtoolkit.errors import TooFewObservations
from rdtoolkit.plotting import (
    PlotBin,
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
            assert (list(map(repr, built(x, y, j)))
                    == list(map(repr, mask_built(x, y, j))))

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

    def test_unknown_binning(self, noisy_sample):
        with pytest.raises(ValueError):
            build_rdplot(noisy_sample, binning="hexagonal")


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
