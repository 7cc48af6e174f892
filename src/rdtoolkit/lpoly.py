"""Kernel-weighted local polynomial fits on one side of a cutoff.

The design is centered at the cutoff: regressors are powers of (x - c),
so the intercept estimates the boundary level mu(c) and nu! * beta[nu]
estimates the nu-th derivative.  :func:`fit_window` is the one side-fit
kernel behind every continuity-based method; :func:`side_window` selects
the observations it fits, once per (side, bandwidth), from scores the
caller has already centred.  The kernel factorises each (window,
order) once, with a single SVD of the sqrt-weighted design; that SVD
yields the coefficients, the rank test, the condition number and the
bread V diag(1/s^2) V' of the heteroskedasticity-robust (HC1) sandwich,
which uses the kernel weights as regression weights.  The response may
hold several columns fitted on the same weights; the covariance then
includes the cross-response blocks, which the fuzzy design needs for
the outcome-treatment intercept covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import KERNELS
from .errors import EmptySide, RankDeficient

# Singular-value ratio below which the weighted design is declared
# rank deficient.
_RCOND = 1e-12


def kernel_weight(u, kind: str = "triangular") -> np.ndarray:
    """Kernel evaluated at scaled distances u = (x - c) / h.

    All kernels are symmetric, non-negative, supported on [-1, 1], and
    return 0 outside that interval.
    """
    u = np.asarray(u, dtype=float)
    absu = np.abs(u)
    inside = absu <= 1.0
    if kind == "triangular":
        return np.where(inside, 1.0 - absu, 0.0)
    if kind == "uniform":
        return np.where(inside, 0.5, 0.0)
    if kind == "epanechnikov":
        return np.where(inside, 0.75 * (1.0 - u * u), 0.0)
    raise ValueError(f"unknown kernel {kind!r}; expected one of {KERNELS}")


@dataclass(frozen=True)
class LocalFit:
    """Result of a one-sided weighted polynomial fit.

    ``beta`` has length p+1 for regressors 1, (x-c), ..., (x-c)^p, so
    nu! * beta[nu] estimates the nu-th derivative at the cutoff.
    ``cov`` is the HC1 sandwich covariance of beta.  For k responses
    fitted together ``beta`` is (p+1, k) and ``cov`` is (p+1, k, p+1, k):
    ``cov[a, i, b, j]`` pairs coefficient a of response i with coefficient
    b of response j.  ``n_eff`` counts observations with positive kernel
    weight; ``condition`` is the singular-value ratio of the weighted
    design.
    """

    beta: np.ndarray
    cov: np.ndarray
    n_eff: int
    condition: float


def vander(x, n: int) -> np.ndarray:
    """Increasing Vandermonde matrix with columns x^0, x^1, ..., x^(n-1).

    Equal, bit for bit, to ``np.vander(x, n, increasing=True)`` for float
    input: column k is column k-1 times x, the same products in the same
    order as numpy's ``multiply.accumulate``, without its overhead.
    """
    x = np.asarray(x, dtype=float)
    v = np.empty((x.shape[0], n))
    if n > 0:
        v[:, 0] = 1.0
    for k in range(1, n):
        np.multiply(v[:, k - 1], x, out=v[:, k])
    return v


def polyfit_lstsq(x, y, order: int, what: str):
    """Unweighted least-squares fit of y on 1, x, ..., x^order.

    Returns ``(design, coefs)`` from ``np.linalg.lstsq`` with its default
    cut-off.  A design that overflows the float range, or whose rank is
    below ``order + 1``, raises ``RankDeficient``, whose message names
    the fit as ``what``.
    """
    with np.errstate(over="ignore"):
        design = vander(x, order + 1)
    # for finite x a row's powers grow in magnitude once |x| > 1, so the
    # highest power overflows whenever any power in its row does
    if not np.isfinite(design[:, -1]).all():
        raise RankDeficient(
            f"{what} of order {order} overflows the float range")
    coefs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < order + 1:
        raise RankDeficient(f"{what} of order {order} is rank deficient")
    return design, coefs


@dataclass(frozen=True)
class SideWindow:
    """The observations of one side that carry positive kernel weight.

    ``xc`` holds their scores minus the cutoff, ``y`` their responses
    (a vector, or an (n_eff, k) matrix) and ``w`` their kernel weights,
    in the original row order.  One window serves fits of every order.
    """

    xc: np.ndarray
    y: np.ndarray
    w: np.ndarray
    kernel: str
    h: float


def side_window(xc: np.ndarray, y: np.ndarray, kernel: str,
                h: float) -> SideWindow:
    """Kernel window of one side at bandwidth h, from scores ``xc``
    already centred at the cutoff; membership is w > 0 for
    w = kernel_weight(xc / h)."""
    xc = np.asarray(xc, dtype=float)
    y = np.asarray(y, dtype=float)
    h = float(h)
    if not np.isfinite(h) or h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    w = kernel_weight(xc / h, kernel)
    keep = np.flatnonzero(w > 0)
    return SideWindow(xc=xc.take(keep), y=y.take(keep, axis=0),
                      w=w.take(keep), kernel=kernel, h=h)


def fit_window(window: SideWindow, p: int = 1) -> LocalFit:
    """Order-p weighted fit on a window from :func:`side_window`.

    Raises
    ------
    EmptySide
        Fewer than p+1 observations carry positive weight.
    RankDeficient
        The weighted design's smallest singular value is at most
        eps * n_eff of the largest, or below 1e-12 of it (e.g. all
        within-window scores identical).
    """
    wk = window.w
    n_eff = wk.shape[0]
    if n_eff < p + 1:
        raise EmptySide(
            f"{n_eff} observation(s) with positive weight inside bandwidth "
            f"{window.h:g}; need at least {p + 1} for order {p}")
    yk = window.y.reshape(n_eff, -1)
    design = vander(window.xc, p + 1)
    sw = np.sqrt(wk)
    u, svals, vt = np.linalg.svd(design * sw[:, None], full_matrices=False)
    condition = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    # The rank cut is lstsq's default: eps * max(rows, cols) of the largest.
    rank = int(np.count_nonzero(
        svals > np.finfo(float).eps * n_eff * svals[0]))
    if rank < p + 1 or svals[-1] < _RCOND * svals[0]:
        raise RankDeficient(
            f"weighted design is rank deficient (rank {rank}, "
            f"condition {condition:.3e})")

    beta = vt.T @ ((u.T @ (yk * sw[:, None])) / svals[:, None])
    residuals = yk - design @ beta

    # HC1 sandwich with kernel weights, for every pair of responses i, j:
    #   B [sum w^2 e_i e_j z z'] B * n_eff/(n_eff-p-1),  B = (Z'WZ)^-1,
    # summed as products of the per-observation influence rows w e_i z'B.
    bread = (vt.T / (svals * svals)) @ vt
    lever = (design * wk[:, None]) @ bread
    influence = (lever[:, :, None] * residuals[:, None, :]).reshape(n_eff, -1)
    dof = n_eff - (p + 1)
    scale = n_eff / dof if dof > 0 else 1.0
    k = yk.shape[1]
    cov = (influence.T @ influence * scale).reshape(p + 1, k, p + 1, k)
    if window.y.ndim == 1:
        beta, cov = beta[:, 0], cov[:, 0, :, 0]
    return LocalFit(beta=beta, cov=cov, n_eff=n_eff, condition=condition)
