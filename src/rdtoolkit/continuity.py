"""Continuity-based RD estimation.

Sharp, fuzzy, and kink point estimators from side-wise local polynomial
fits, conventional and robust bias-corrected confidence intervals, and
per-cutoff estimates for multi-cutoff samples, whose pooled estimate is
the sharp estimate on the centred score.

Every estimator here reaches the one side-fit kernel,
:func:`rdtoolkit.lpoly.fit_window`, through ``_side_fit``: one SVD per
(side window, polynomial order).  ``_sides`` builds both side windows
once per call, eagerly, before any fit runs, so robust bias correction
fits orders p and p+1 on the same windows and an invalid bandwidth is
reported before a fit can fail.  The fuzzy design fits outcome and
treatment as a two-column response on each side and reads the
outcome-treatment intercept covariance from the cross-response block of
that fit's covariance.

Conventions: the side split is :attr:`rdtoolkit.sample.RdSample.side_rows`
(below = score < cutoff, above = score >= cutoff, so ties at the cutoff
are treated), computed once per sample.  Confidence intervals use normal
quantiles at the requested level.  Robust bias correction follows the
order-increase recipe: the order-(p+1) intercept difference at the same
bandwidth is both the bias-corrected point and the inference target, so
se_robust is the conventional robust standard error of that higher-order
fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .defaults import SMALLEST_ALPHA, WEAK_FIRST_STAGE_THRESHOLD
from .errors import (
    EmptySide,
    MissingTreatmentColumn,
    RankDeficient,
    WeakFirstStage,
)
from .lpoly import fit_window, side_window
from .sample import RdSample


@dataclass(frozen=True)
class RdEstimate:
    """Point estimate with conventional (non-bias-corrected) inference."""

    kind: str
    tau_hat: float
    se_conventional: float
    ci_conventional: tuple[float, float]
    h_below: float
    h_above: float
    n_eff_below: int
    n_eff_above: int
    p: int
    kernel: str
    level: float
    first_stage: float | None = None


@dataclass(frozen=True)
class RbcResult:
    """Robust bias-corrected inference wrapped around a base estimate."""

    base: RdEstimate
    bias_estimate: float
    se_robust: float
    ci_rbc: tuple[float, float]
    inference_order: int

    @property
    def tau_bc(self) -> float:
        return self.base.tau_hat - self.bias_estimate


@dataclass(frozen=True)
class CutoffEstimate:
    """Per-cutoff result inside a multi-cutoff analysis."""

    cutoff: float
    n: int
    estimate: RdEstimate | None
    message: str | None = None


def _zvalue(level: float) -> float:
    if not 0 < level < 1 - SMALLEST_ALPHA:
        raise ValueError(
            f"confidence level must be in (0, 1 - 2**-53), got {level}")
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def _side_fit(window, p, side):
    """Fit one side, labeling errors with the side they came from."""
    try:
        return fit_window(window, p)
    except (EmptySide, RankDeficient) as err:
        raise type(err)(f"{side} side: {err}") from None


def _sides(kind: str, sample: RdSample, p, kernel, h_below, h_above):
    """Check a design's inputs and build its (below, above) side windows."""
    if kind not in _DESIGNS:
        raise ValueError(f"unknown design {kind!r}")
    if kind == "kink" and p < 1:
        raise ValueError("kink estimation requires polynomial order p >= 1")
    if kind == "fuzzy" and sample.received is None:
        raise MissingTreatmentColumn(
            "fuzzy estimation requires a received-treatment column")
    h_below, h_above = _resolve_bandwidths(h_below, h_above)

    def window(rows, h):
        y = sample.outcome.take(rows)
        if kind == "fuzzy":
            y = np.column_stack([y, sample.received.take(rows)])
        return side_window(sample.score.take(rows) - sample.cutoff, y,
                           kernel, h)

    rows_b, rows_a = sample.side_rows
    return window(rows_b, h_below), window(rows_a, h_above)


def _estimate(kind: str, windows, p: int, level: float) -> RdEstimate:
    """The order-p estimate of a design from its (below, above) windows.

    The jump is read from coefficient nu of each side fit, nu = 1 for a
    kink and 0 otherwise; nu! = 1 for both, so beta[nu] is the derivative.
    """
    fit_b = _side_fit(windows[0], p, "below")
    fit_a = _side_fit(windows[1], p, "above")
    first_stage = None
    if kind == "fuzzy":
        reduced, first_stage = fit_a.beta[0] - fit_b.beta[0]
        if abs(first_stage) < WEAK_FIRST_STAGE_THRESHOLD:
            raise WeakFirstStage(
                f"first-stage jump {first_stage:.4g} is below the "
                f"{WEAK_FIRST_STAGE_THRESHOLD} threshold")
        tau = reduced / first_stage
        icov = fit_a.cov[0, :, 0, :] + fit_b.cov[0, :, 0, :]
        var_y, var_d, cov_yd = icov[0, 0], icov[1, 1], icov[0, 1]
        var = (var_y + tau * tau * var_d - 2.0 * tau * cov_yd) \
            / (first_stage ** 2)
        se = float(np.sqrt(max(var, 0.0)))
        first_stage = float(first_stage)
    else:
        nu = 1 if kind == "kink" else 0
        tau = float(fit_a.beta[nu] - fit_b.beta[nu])
        se = float(np.sqrt(fit_a.cov[nu, nu] + fit_b.cov[nu, nu]))
    z = _zvalue(level)
    return RdEstimate(
        kind=kind, tau_hat=float(tau), se_conventional=se,
        ci_conventional=(tau - z * se, tau + z * se),
        h_below=windows[0].h, h_above=windows[1].h,
        n_eff_below=fit_b.n_eff, n_eff_above=fit_a.n_eff,
        p=p, kernel=windows[0].kernel, level=level, first_stage=first_stage)


def sharp_estimate(sample: RdSample, p: int = 1, kernel: str = "triangular",
                   h_below: float = None, h_above: float = None,
                   level: float = 0.95) -> RdEstimate:
    """Sharp RD effect: difference of side-wise boundary intercepts.

    Parameters
    ----------
    h_below, h_above : float
        Side bandwidths; passing only one uses it on both sides.
    """
    windows = _sides("sharp", sample, p, kernel, h_below, h_above)
    return _estimate("sharp", windows, p, level)


def kink_estimate(sample: RdSample, p: int = 1, kernel: str = "triangular",
                  h_below: float = None, h_above: float = None,
                  level: float = 0.95) -> RdEstimate:
    """Kink effect: difference of side-wise boundary slopes (requires p >= 1)."""
    windows = _sides("kink", sample, p, kernel, h_below, h_above)
    return _estimate("kink", windows, p, level)


def _resolve_bandwidths(h_below, h_above):
    if h_below is None and h_above is None:
        raise ValueError("at least one bandwidth must be given")
    if h_below is None:
        h_below = h_above
    if h_above is None:
        h_above = h_below
    return float(h_below), float(h_above)


def fuzzy_estimate(sample: RdSample, p: int = 1, kernel: str = "triangular",
                   h_below: float = None, h_above: float = None,
                   level: float = 0.95) -> RdEstimate:
    """Fuzzy RD effect: reduced-form jump over first-stage jump.

    Outcome and treatment are fitted together on each side, so the
    standard error treats the two intercepts as jointly estimated (the
    cross-response block of the stacked sandwich) and applies the delta
    method to the ratio; the two sides are independent.
    """
    windows = _sides("fuzzy", sample, p, kernel, h_below, h_above)
    return _estimate("fuzzy", windows, p, level)


_DESIGNS = ("sharp", "kink", "fuzzy")


def rbc_inference(sample: RdSample, p: int = 1, kernel: str = "triangular",
                  h_below: float = None, h_above: float = None,
                  level: float = 0.95, kind: str = "sharp") -> RbcResult:
    """Robust bias-corrected inference by the order-increase recipe.

    The point estimator uses order p; inference uses the order-(p+1)
    estimate at the same bandwidth.  The bias estimate is the difference
    between the two, the bias-corrected point is the order-(p+1) value,
    and the interval is that point plus/minus z times its robust se.
    Both orders fit the same side windows, each built once.
    """
    windows = _sides(kind, sample, p, kernel, h_below, h_above)
    base = _estimate(kind, windows, p, level)
    higher = _estimate(kind, windows, p + 1, level)
    bias = base.tau_hat - higher.tau_hat
    se_robust = higher.se_conventional
    z = _zvalue(level)
    center = higher.tau_hat
    return RbcResult(base=base, bias_estimate=float(bias),
                     se_robust=se_robust,
                     ci_rbc=(center - z * se_robust, center + z * se_robust),
                     inference_order=p + 1)


def per_cutoff_estimates(sample: RdSample, pooled: RdEstimate,
                         ) -> tuple[CutoffEstimate, ...]:
    """Sharp estimates per cutoff group, with the pooled estimate's order,
    kernel, bandwidths and level.

    ``pooled`` is the sharp estimate on the sample, whose score a cutoff
    column has centred (X - C, cutoff 0).  A group holding every unit is
    the pooled sample and reuses ``pooled``.  A group that cannot support
    a fit is flagged (estimate = None with a message).
    """
    labels = (sample.unit_cutoffs if sample.unit_cutoffs is not None
              else np.full(sample.n, sample.cutoff))
    per_cutoff = []
    for c in np.unique(labels):
        mask = labels == c
        n = int(mask.sum())
        try:
            est = pooled if n == sample.n else sharp_estimate(
                sample.subset(mask), p=pooled.p, kernel=pooled.kernel,
                h_below=pooled.h_below, h_above=pooled.h_above,
                level=pooled.level)
            per_cutoff.append(CutoffEstimate(cutoff=float(c), n=n,
                                             estimate=est))
        except (EmptySide, RankDeficient) as err:
            per_cutoff.append(CutoffEstimate(
                cutoff=float(c), n=n, estimate=None,
                message=f"insufficient support: {err}"))
    return tuple(per_cutoff)
