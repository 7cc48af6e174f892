"""Falsification battery for RD designs.

Six checks that probe the design rather than the effect: covariate
balance (continuity and local-randomization versions), an exact
binomial count test near the cutoff, a density-continuity test,
placebo cutoffs on side-restricted subsamples, donut-hole exclusion,
and bandwidth sensitivity.  Every check returns a small record; the
battery aggregates them into one report for serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, sqrt

import numpy as np

from .bandwidth import _quantiles, select_mse_bandwidth
from .continuity import RbcResult, rbc_inference
from .defaults import (
    BINS_PER_SIDE,
    DONUT_RADII,
    DRAWS,
    MAX_EXHAUSTIVE,
    SENSITIVITY_FACTORS,
)
from .errors import (
    EmptySide,
    GridContainsTrueCutoff,
    InsufficientData,
    InsufficientSideData,
    MissingCovariate,
    NoVariation,
    RankDeficient,
    TooFewObservations,
)
from .locrand import (
    FixedMargins,
    Window,
    _fisher_tests,
    _inside,
    make_window,
)
from .lpoly import polyfit_lstsq
from .sample import RdSample


def _rbc_pvalue(res: RbcResult) -> float:
    """Two-sided normal p-value of the bias-corrected estimate."""
    if res.se_robust <= 0:
        return 0.0 if res.tau_bc != 0 else 1.0
    return erfc(abs(res.tau_bc) / res.se_robust / sqrt(2.0))


# --------------------------------------------------------------------
# Covariate balance
# --------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceRecord:
    covariate: str
    method: str
    p_value: float
    tau_hat: float | None
    n_used: int


def covariate_balance(sample: RdSample, covariate: str,
                      method: str = "continuity", h: float | None = None,
                      window: Window | None = None, p: int = 1,
                      kernel: str = "triangular", draws: int = DRAWS,
                      seed: int = 0) -> BalanceRecord:
    """Test that a pre-intervention covariate does not jump at the cutoff.

    continuity: robust bias-corrected estimation with the covariate in
    place of the outcome (bandwidth reselected on the covariate when not
    supplied).  locrand: Fisher permutation p-value of the covariate's
    difference in means inside the window.  Missing covariate entries
    are dropped listwise for this test only.  ``n_used`` counts the
    units the test analyses.
    """
    if covariate not in sample.covariates:
        raise MissingCovariate(f"covariate {covariate!r} not in sample")
    z = sample.covariates[covariate]
    ok = np.isfinite(z)
    if not ok.any() or np.ptp(z[ok]) == 0:
        raise NoVariation(f"covariate {covariate!r} has no variation")

    if method == "continuity":
        reduced = sample.subset(ok).replace_outcome(z[ok])
        h_use = h if h is not None else select_mse_bandwidth(
            reduced, p=p, kernel=kernel).h_mse
        res = rbc_inference(reduced, p=p, kernel=kernel, h_below=h_use,
                            h_above=h_use)
        return BalanceRecord(covariate=covariate, method=method,
                             p_value=_rbc_pvalue(res),
                             tau_hat=res.base.tau_hat, n_used=reduced.n)
    if method == "locrand":
        if window is None:
            raise ValueError("locrand balance testing requires a window")
        return next(_locrand_balance(sample, [covariate], window, draws,
                                     seed))
    raise ValueError(f"unknown balance method {method!r}")


def _locrand_balance(sample, names, window, draws, seed):
    """The locrand balance record of each covariate in ``names``, in
    order: a fixed-margins Fisher test of the covariate's difference in
    means over the window's units with a value of it.  Covariates with
    the same units share one ensemble (same draws and seed), built when
    the first of them is reached, so an error surfaces there."""
    inside = _inside(sample, window.lower, window.upper)
    masks = {name: inside & np.isfinite(sample.covariates[name])
             for name in names}
    records = {}
    for name in names:
        if name not in records:
            mask = masks[name]
            group = [other for other in names
                     if np.array_equal(masks[other], mask)]
            tests = _fisher_tests(
                [sample.covariates[other][mask] for other in group],
                sample.treated[mask], FixedMargins(), "diff_means",
                MAX_EXHAUSTIVE, draws, seed)
            for other, (res,) in zip(group, tests):
                records[other] = BalanceRecord(
                    covariate=other, method="locrand", p_value=res.p_value,
                    tau_hat=res.statistic_observed,
                    n_used=int(np.count_nonzero(mask)))
        yield records[name]


# --------------------------------------------------------------------
# Exact binomial count test
# --------------------------------------------------------------------


@dataclass(frozen=True)
class BinomialRecord:
    k: int
    n: int
    prob: float
    p_value: float


def binomial_test(sample: RdSample, window: Window,
                  prob: float = 0.5) -> BinomialRecord:
    """Exact two-sided test that the treated count near the cutoff is
    Binomial(n_w, prob): p = min(1, 2*min(P[<=k], P[>=k])), tails by
    direct pmf summation.  The pmf is built outward from the mode by
    cumulative products of the ratios of adjacent terms, then divided by
    its sum, so it stays finite at any n (binomial coefficients overflow
    a double past n = 1029) and no large logarithms cancel."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError("prob must be in [0, 1]")
    k = window.n_plus
    n = window.n_w
    if n < 1:
        raise TooFewObservations("window contains no observations")
    j = np.arange(n + 1)
    if prob in (0.0, 1.0):
        pmf = (j == n * prob).astype(float)
    else:
        mode = min(n, int((n + 1) * prob))
        odds = prob / (1.0 - prob)
        # pmf[i + 1] / pmf[i] = (n - i) / (i + 1) * odds
        above = (n - j[mode:n]) / (j[mode:n] + 1.0) * odds
        below = (j[:mode] + 1.0) / (n - j[:mode]) / odds
        pmf = np.empty(n + 1)
        pmf[mode] = 1.0
        pmf[mode + 1:] = np.cumprod(above)
        pmf[:mode] = np.cumprod(below[::-1])[::-1]
        pmf /= pmf.sum()
    lower = float(pmf[:k + 1].sum())
    upper = float(pmf[k:].sum())
    p = min(1.0, 2.0 * min(lower, upper))
    return BinomialRecord(k=int(k), n=int(n), prob=float(prob),
                          p_value=float(p))


# --------------------------------------------------------------------
# Density continuity test
# --------------------------------------------------------------------


@dataclass(frozen=True)
class DensityRecord:
    f_below: float
    f_above: float
    statistic: float
    p_value: float
    h: float
    bins_per_side: int


def _side_density_fit(edges_lo, edges_hi, counts, n_total, cutoff):
    """Local linear fit of histogram heights on bin midpoints; returns
    boundary density and its sampling variance at the cutoff."""
    width = edges_hi - edges_lo
    heights = counts / (n_total * width)
    mids = 0.5 * (edges_lo + edges_hi) - cutoff
    design, coef = polyfit_lstsq(mids, heights, 1, "density fit")
    resid = heights - design @ coef
    dof = mids.size - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov00 = sigma2 * np.linalg.inv(design.T @ design)[0, 0]
    return float(coef[0]), float(cov00)


def density_test(sample: RdSample, h: float,
                 bins_per_side: int = BINS_PER_SIDE) -> DensityRecord:
    """Test continuity of the score density at the cutoff.

    Equal-width histogram bins are built separately on [c-h, c) and
    [c, c+h]; a linear fit of bin height on midpoint per side
    extrapolates the density to the boundary, and the difference is
    compared to its normal reference.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if bins_per_side < 2:
        raise ValueError("need at least 2 bins per side")
    c = sample.cutoff
    below, above = (sample.score.take(rows) for rows in sample.side_rows)
    below = below[below >= c - h]
    above = above[above <= c + h]
    if below.size == 0 or above.size == 0:
        raise EmptySide("no observations within the window on one side")
    if below.size + above.size < 2 * bins_per_side:
        raise TooFewObservations(
            f"need at least {2 * bins_per_side} observations within the "
            f"window, got {below.size + above.size}")
    n = sample.n
    edges_b = np.linspace(c - h, c, bins_per_side + 1)
    edges_a = np.linspace(c, c + h, bins_per_side + 1)
    counts_b, _ = np.histogram(below, bins=edges_b)
    counts_a, _ = np.histogram(above, bins=edges_a)
    f_b, var_b = _side_density_fit(edges_b[:-1], edges_b[1:],
                                   counts_b.astype(float), n, c)
    f_a, var_a = _side_density_fit(edges_a[:-1], edges_a[1:],
                                   counts_a.astype(float), n, c)
    se = float(np.sqrt(var_b + var_a))
    stat = (f_a - f_b) / se if se > 0 else 0.0
    p = erfc(abs(stat) / sqrt(2.0))
    return DensityRecord(f_below=f_b, f_above=f_a, statistic=float(stat),
                         p_value=p, h=float(h), bins_per_side=bins_per_side)


# --------------------------------------------------------------------
# Placebo cutoffs
# --------------------------------------------------------------------


@dataclass(frozen=True)
class PlaceboRecord:
    cutoff: float
    side_used: str
    tau_hat: float
    p_value: float
    n_used: int
    score_min: float
    score_max: float


def default_placebo_grid(sample: RdSample, h: float) -> list[float]:
    """Four artificial cutoffs per side at the side-specific score
    quantiles {0.25, 0.45, 0.55, 0.75}, dropping values within one
    bandwidth of the true cutoff."""
    c = sample.cutoff
    grid = []
    levels = (0.25, 0.45, 0.55, 0.75)
    for rows in sample.side_rows:
        if rows.size:
            grid.extend(_quantiles(sample.score.take(rows), levels))
    return [float(g) for g in grid if abs(g - c) > h]


def placebo_cutoffs(sample: RdSample, grid, p: int = 1,
                    kernel: str = "triangular",
                    h: float | None = None) -> list[PlaceboRecord]:
    """Re-estimate at artificial cutoffs on side-restricted subsamples.

    Cutoffs above the true cutoff use only the treated side (score at
    or above the true cutoff); those below use only the control side,
    so no placebo estimate ever mixes observations across the real
    discontinuity.
    """
    grid = [float(g) for g in grid]
    c = sample.cutoff
    if any(g == c for g in grid):
        raise GridContainsTrueCutoff(
            f"placebo grid must not contain the true cutoff {c:g}")
    records = []
    for g in grid:
        side = "above" if g > c else "below"
        rows = sample.side_rows[g > c]
        sub = RdSample(score=sample.score.take(rows),
                       outcome=sample.outcome.take(rows), cutoff=g)
        if not all(r.size for r in sub.side_rows):
            raise InsufficientSideData(
                f"placebo cutoff {g:g} leaves an empty side within the "
                f"{side} subsample")
        h_use = h if h is not None else select_mse_bandwidth(
            sub, p=p, kernel=kernel).h_mse
        try:
            res = rbc_inference(sub, p=p, kernel=kernel, h_below=h_use,
                                h_above=h_use)
        except (EmptySide, RankDeficient) as err:
            raise InsufficientSideData(
                f"placebo cutoff {g:g}: {err}") from None
        records.append(PlaceboRecord(
            cutoff=g, side_used=side, tau_hat=res.base.tau_hat,
            p_value=_rbc_pvalue(res), n_used=sub.n,
            score_min=float(sub.score.min()),
            score_max=float(sub.score.max())))
    return records


# --------------------------------------------------------------------
# Donut hole
# --------------------------------------------------------------------


@dataclass(frozen=True)
class DonutRecord:
    radius: float
    tau_hat: float
    ci: tuple[float, float]
    n_dropped: int


def donut_hole(sample: RdSample, radii, p: int = 1,
               kernel: str = "triangular", h: float | None = None,
               level: float = 0.95) -> list[DonutRecord]:
    """Drop observations with |score - cutoff| < r and re-estimate.

    Radius 0 drops nothing, so it estimates on the sample itself and
    reproduces the baseline exactly.
    The baseline bandwidth is reused at every radius so the records
    isolate the effect of the exclusion, not of reselection.
    """
    radii = [float(r) for r in radii]
    if any(r < 0 for r in radii):
        raise ValueError("radii must be non-negative")
    if h is None:
        h = select_mse_bandwidth(sample, p=p, kernel=kernel).h_mse
    dist = np.abs(sample.centered_score())
    records = []
    for r in radii:
        sub = sample.subset(dist >= r)
        try:
            res = rbc_inference(sub, p=p, kernel=kernel, h_below=h,
                                h_above=h, level=level)
        except (EmptySide, RankDeficient) as err:
            raise InsufficientData(f"donut radius {r:g}: {err}") from None
        records.append(DonutRecord(radius=r, tau_hat=res.base.tau_hat,
                                   ci=res.ci_rbc, n_dropped=sample.n - sub.n))
    return records


# --------------------------------------------------------------------
# Bandwidth sensitivity
# --------------------------------------------------------------------


@dataclass(frozen=True)
class SensitivityRecord:
    h: float
    tau_hat: float
    ci: tuple[float, float]
    n_eff: int
    baseline: bool


def bandwidth_sensitivity(sample: RdSample, h_list, baseline_h: float,
                          p: int = 1, kernel: str = "triangular",
                          level: float = 0.95) -> list[SensitivityRecord]:
    """One robust bias-corrected record per bandwidth, baseline flagged."""
    h_list = [float(h) for h in h_list]
    if not h_list:
        raise ValueError("bandwidth list must be non-empty")
    if any(h <= 0 for h in h_list):
        raise ValueError("bandwidths must be positive")
    records = []
    for h in h_list:
        res = rbc_inference(sample, p=p, kernel=kernel, h_below=h,
                            h_above=h, level=level)
        records.append(SensitivityRecord(
            h=h, tau_hat=res.base.tau_hat, ci=res.ci_rbc,
            n_eff=res.base.n_eff_below + res.base.n_eff_above,
            baseline=(h == baseline_h)))
    return records


# --------------------------------------------------------------------
# Full battery
# --------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """All falsification evidence for one sample and configuration."""

    balance: tuple[BalanceRecord, ...]
    binomial: BinomialRecord
    density: DensityRecord | None
    placebo_cutoffs: tuple[PlaceboRecord, ...]
    donut: tuple[DonutRecord, ...]
    sensitivity: tuple[SensitivityRecord, ...]
    h_baseline: float
    count_window: tuple[float, float]


def run_battery(sample: RdSample, p: int = 1, kernel: str = "triangular",
                h: float | None = None, level: float = 0.95,
                count_halfwidth: float | None = None,
                placebo_grid=None, donut_radii=DONUT_RADII,
                sensitivity_factors=SENSITIVITY_FACTORS,
                bins_per_side: int = BINS_PER_SIDE, draws: int = DRAWS,
                seed: int = 0) -> ValidationReport:
    """Run every falsification check with shared defaults.

    The count (binomial) window defaults to half the estimation
    bandwidth.  The density test is skipped (None) when the window
    holds too few observations to bin.
    """
    if h is None:
        h = select_mse_bandwidth(sample, p=p, kernel=kernel).h_mse
    if count_halfwidth is None:
        count_halfwidth = h / 2.0
    count_window = make_window(sample, count_halfwidth)

    names = sorted(sample.covariates)
    locrand = _locrand_balance(sample, names, count_window, draws, seed)
    balance = []
    for name in names:
        balance.append(covariate_balance(sample, name, method="continuity",
                                         p=p, kernel=kernel))
        balance.append(next(locrand))

    binomial_rec = binomial_test(sample, count_window)

    try:
        density_rec = density_test(sample, h=h, bins_per_side=bins_per_side)
    except TooFewObservations:
        density_rec = None

    grid = placebo_grid if placebo_grid is not None \
        else default_placebo_grid(sample, h)
    placebo = placebo_cutoffs(sample, grid, p=p, kernel=kernel, h=h) \
        if grid else []

    donut = donut_hole(sample, donut_radii, p=p, kernel=kernel, h=h,
                       level=level)
    sens = bandwidth_sensitivity(sample, [f * h for f in sensitivity_factors],
                                 baseline_h=h, p=p, kernel=kernel,
                                 level=level)
    return ValidationReport(
        balance=tuple(balance), binomial=binomial_rec, density=density_rec,
        placebo_cutoffs=tuple(placebo), donut=tuple(donut),
        sensitivity=tuple(sens), h_baseline=float(h),
        count_window=(count_window.lower, count_window.upper))
