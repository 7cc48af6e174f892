"""Data-driven bandwidth selection for local polynomial RD estimation.

The plug-in MSE-optimal bandwidth minimizes the first-order approximate
MSE of the boundary jump estimator,

    h_mse = C_K * [ sigma2 / (f_c * B_curv^2) * (1/n) ]^(1/(2p+3)),

where the pilot quantities are a two-stage construction: side-wise
global polynomial fits of order p+2 give the curvature B_curv and the
residual variance sigma2 near the cutoff, and a histogram count gives
the score density f_c at the cutoff.  The kernel constant C_K comes
from the boundary bias/variance constants of the local polynomial,
computed by numerical integration of one-sided kernel moment matrices
rather than hard-coded tables.  All pilot values are reported so a run
can be audited.

The CE-optimal bandwidth shrinks h_mse by the standard rule-of-thumb
factor n^(-p/((3+p)(3+2p))).  The Monte Carlo oracle that audits the
selector is :func:`rdtoolkit.dgps.oracle_mse_bandwidth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import EmptySide, TooFewObservations
from .lpoly import kernel_weight, polyfit_lstsq, vander
from .sample import RdSample

# --------------------------------------------------------------------
# Kernel constants for the boundary local polynomial estimator
# --------------------------------------------------------------------


@lru_cache(maxsize=None)
def kernel_constants(p: int, kernel: str) -> tuple[float, float]:
    """Boundary bias and variance constants (b_K, v_K) for order p.

    With one-sided moment matrices on [0, 1],
      Gamma[j,k] = int K(u) u^(j+k),  theta[j] = int K(u) u^(p+1+j),
      Psi[j,k]   = int K(u)^2 u^(j+k),
    the constants are b_K = e0' Gamma^-1 theta and
    v_K = e0' Gamma^-1 Psi Gamma^-1 e0.  Integrals are evaluated by
    Gauss-Legendre quadrature (exact here: the integrands are
    polynomials of low degree).
    """
    roots, weights = leggauss(64)
    u, w = (roots + 1.0) / 2.0, weights / 2.0  # from [-1, 1] to [0, 1]
    k = kernel_weight(u, kernel)
    powers = vander(u, 2 * p + 3)  # u^0 .. u^(2p+2)
    mom_k = powers.T @ (w * k)          # int K u^j
    mom_k2 = powers.T @ (w * k * k)     # int K^2 u^j
    idx = np.add.outer(np.arange(p + 1), np.arange(p + 1))
    gamma = mom_k[idx]
    psi = mom_k2[idx]
    theta = mom_k[p + 1:2 * p + 2]
    ginv_row0 = np.linalg.solve(gamma, np.eye(p + 1)[0])
    b_k = float(ginv_row0 @ theta)
    v_k = float(ginv_row0 @ psi @ ginv_row0)
    return b_k, v_k


@lru_cache(maxsize=None)
def mse_constant(p: int, kernel: str) -> float:
    """C_K in the plug-in formula for the jump estimator; its variance
    term is doubled because the jump sums two independent side
    variances."""
    b_k, v_k = kernel_constants(p, kernel)
    num = 2.0 * v_k * factorial(p + 1) ** 2
    den = 2.0 * (p + 1) * b_k * b_k
    return float((num / den) ** (1.0 / (2 * p + 3)))


def ce_factor(n: int, p: int) -> float:
    """Coverage-error rescaling factor n^(-p/((3+p)(3+2p)))."""
    if n < 1:
        raise ValueError("n must be positive")
    return float(n ** (-p / ((3.0 + p) * (3.0 + 2.0 * p))))


# --------------------------------------------------------------------
# Plug-in selector
# --------------------------------------------------------------------


@dataclass(frozen=True)
class BandwidthSelection:
    """Plug-in bandwidths plus every pilot quantity used to build them."""

    h_mse: float
    h_ce: float
    pilot_curvature_below: float
    pilot_curvature_above: float
    curvature_difference: float
    pilot_variance: float
    density_at_cutoff: float
    silverman_b: float
    pilot_window: float
    kernel_constant: float
    n_used: int
    p: int
    kernel: str
    degenerate: bool


def _silverman(x: np.ndarray) -> float:
    sd = float(np.std(x))
    # a quartile's zero sign, the only bit that can differ from
    # np.percentile's, is seen by neither iqr > 0 nor iqr / 1.349
    q25, q75 = _quantiles(x, (0.25, 0.75))
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.349) if iqr > 0 else sd
    return 1.06 * spread * x.shape[0] ** (-0.2)


def _quantiles(x, levels):
    """numpy's linear-interpolation quantiles of x at each level, read
    from one sort.  Each equals np.quantile's by ==; only the sign of a
    zero can differ, since np.quantile leaves which of -0.0 and 0.0 it
    reads to its partition.  Unlike np.quantile, no masked-array module
    is imported."""
    n = x.shape[0]
    ordered = np.sort(x)
    out = []
    for q in levels:
        v = (n - 1) * q
        a, b = ordered[int(v)], ordered[min(int(v) + 1, n - 1)]
        # numpy's interpolation between neighbours a <= b
        d, g = b - a, v - int(v)
        out.append(b - d * (1 - g) if g >= 0.5 else a + d * g)
    return out


def _pilot_fit(xc: np.ndarray, y: np.ndarray, order: int):
    """Unweighted global polynomial fit; returns (coefs, residuals)."""
    design, coefs = polyfit_lstsq(xc, y, order, "pilot design")
    return coefs, y - design @ coefs


def select_mse_bandwidth(sample: RdSample, p: int = 1,
                         kernel: str = "triangular") -> BandwidthSelection:
    """Plug-in MSE-optimal bandwidth for the order-p jump estimator
    (difference of the two sides' boundary intercepts).

    Notes
    -----
    Degenerate pilots (vanishing curvature or vanishing residual
    variance) fall back to h = range(score)/4 with ``degenerate=True``;
    the MSE criterion has no interior minimum in that case.
    """
    n = sample.n
    if n < 10 * (p + 2):
        raise TooFewObservations(
            f"need at least {10 * (p + 2)} observations for the order-{p} "
            f"plug-in, got {n}")
    rows_b, rows_a = sample.side_rows
    if rows_b.size == 0 or rows_a.size == 0:
        raise EmptySide("both sides of the cutoff must be populated")
    pilot_order = p + 2
    if rows_b.size < pilot_order + 1 or rows_a.size < pilot_order + 1:
        raise TooFewObservations(
            f"each side needs at least {pilot_order + 1} observations for "
            f"the order-{pilot_order} pilot fit")

    x_b = sample.score.take(rows_b) - sample.cutoff
    x_a = sample.score.take(rows_a) - sample.cutoff
    coef_b, resid_b = _pilot_fit(x_b, sample.outcome.take(rows_b),
                                 pilot_order)
    coef_a, resid_a = _pilot_fit(x_a, sample.outcome.take(rows_a),
                                 pilot_order)
    deriv_b = factorial(p + 1) * coef_b[p + 1]
    deriv_a = factorial(p + 1) * coef_a[p + 1]

    # Bias-relevant curvature of the jump estimator: the below side's
    # one-sided kernel moments pick up a (-1)^(p+1) sign.
    sign = (-1.0) ** (p + 1)
    curvature = float(deriv_a - sign * deriv_b)

    b = _silverman(sample.score)
    score_range = float(sample.score.max() - sample.score.min())
    if b <= 0:
        b = score_range / 4.0
    dist_b, dist_a = np.abs(x_b), np.abs(x_a)
    near = int(np.count_nonzero(dist_b <= b) + np.count_nonzero(dist_a <= b))
    density = float(near) / (2.0 * b * n)

    # Residual variance inside a pilot window wide enough to hold at
    # least 3*(p+2) points per side.
    k_near = 3 * pilot_order
    # The k-th nearest distance per side, as a full sort would place it.
    kth_b, kth_a = (np.partition(d, k)[k] for d, k in (
        (dist_b, min(k_near, dist_b.size) - 1),
        (dist_a, min(k_near, dist_a.size) - 1)))
    w_var = max(b, kth_b, kth_a)
    resid = np.concatenate([resid_b[dist_b <= w_var],
                            resid_a[dist_a <= w_var]])
    sigma2 = float(np.mean(resid ** 2))

    c_k = mse_constant(p, kernel)

    # Degenerate when the pilot curvature or the residual noise is
    # numerically zero relative to the outcome scale; the MSE trade-off
    # has no interior optimum then and the formula would divide noise
    # by noise.
    y_scale = max(float(np.std(sample.outcome)), 1e-300)
    bias_scale = abs(curvature) * score_range ** (p + 1)
    degenerate = (density <= 0.0
                  or sigma2 <= (1e-12 * y_scale) ** 2
                  or bias_scale <= 1e-8 * y_scale)
    if degenerate:
        h_mse = score_range / 4.0
    else:
        h_raw = c_k * (sigma2 / (density * curvature * curvature) / n) \
            ** (1.0 / (2 * p + 3))
        # Keep enough points per side for the order-(p+1) RBC fit.
        h_min = max(kth_b, kth_a)
        h_mse = float(np.clip(h_raw, min(h_min, score_range), score_range))

    return BandwidthSelection(
        h_mse=float(h_mse), h_ce=float(h_mse * ce_factor(n, p)),
        pilot_curvature_below=float(deriv_b),
        pilot_curvature_above=float(deriv_a),
        curvature_difference=curvature,
        pilot_variance=sigma2, density_at_cutoff=density,
        silverman_b=float(b), pilot_window=float(w_var),
        kernel_constant=float(c_k), n_used=n, p=p, kernel=kernel,
        degenerate=bool(degenerate))

