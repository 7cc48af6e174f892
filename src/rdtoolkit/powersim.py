"""Ex-ante design tools (power, MDE, sample size), in the standard
library alone; the Monte Carlo studies live in :mod:`rdtoolkit.dgps`.

Power uses the two-sided normal test approximation: for effect tau and
standard error se,

    power(tau) = 1 - Phi(z_{1-a/2} - tau/se) + Phi(-z_{1-a/2} - tau/se).

The MDE inverts this expression exactly (Newton, seeded by the
one-tailed approximation (z_{1-a/2} + z_power) * se), so
power(mde) == target_power to machine precision rather than only up to
the negligible far-tail term.  Sample-size scaling assumes a fixed
bandwidth, so se shrinks like n^(-1/2); MSE-bandwidth scaling
(se ~ n^(-(p+1)/(2p+3))) is offered as an alternative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf
from statistics import NormalDist

from .defaults import SMALLEST_ALPHA
from .errors import UnreachableTarget


@dataclass(frozen=True)
class PowerResult:
    """Power analysis summary for a two-sided level-alpha test."""

    se_used: float
    alpha: float
    power_curve: tuple[tuple[float, float], ...]
    mde: float
    n_required: int | None = None


def _check_alpha(alpha: float) -> None:
    """Alpha in (2**-53, 1), where 1 - alpha/2 rounds below 1 for inv_cdf."""
    if not SMALLEST_ALPHA < alpha < 1:
        raise ValueError(f"alpha must be in (2**-53, 1), got {alpha}")


def power_at(tau: float, se: float, alpha: float = 0.05) -> float:
    """Rejection probability of the two-sided normal test at effect tau."""
    if se <= 0:
        raise ValueError("se must be positive")
    _check_alpha(alpha)
    std = NormalDist()
    z = std.inv_cdf(1.0 - alpha / 2.0)
    t = tau / se
    return 1.0 - std.cdf(z - t) + std.cdf(-z - t)


def mde(se: float, alpha: float = 0.05, target_power: float = 0.80) -> float:
    """Minimum detectable effect: the tau with power exactly target_power.

    Starts from the familiar (z_{1-a/2} + z_power) * se approximation
    (which ignores the far rejection tail and so overshoots the power by
    about Phi(-2z - z_power)) and Newton-refines until power(mde) equals
    the target to full float precision.  The refinement moves the value
    by under 1e-4 standard errors but keeps mde and power_at mutually
    consistent.
    """
    if se <= 0:
        raise ValueError("se must be positive")
    _check_alpha(alpha)
    if not 0 < target_power < 1:
        raise ValueError("target power must be in (0, 1)")
    std = NormalDist()
    z = std.inv_cdf(1.0 - alpha / 2.0)
    # Work in tau/se units; power depends on tau only through that ratio,
    # so mde is exactly linear in se.
    t = z + std.inv_cdf(target_power)
    if target_power <= alpha:
        # Two-sided power is minimized (= alpha) at tau = 0.
        return 0.0
    for _ in range(60):
        f = (1.0 - std.cdf(z - t) + std.cdf(-z - t)) - target_power
        slope = std.pdf(z - t) - std.pdf(z + t)
        step = f / slope
        t -= step
        if abs(step) < 1e-14:
            break
    return float(t * se)


def power_curve(se: float, alpha: float = 0.05, tau_grid=None,
                target_power: float = 0.80) -> PowerResult:
    """Power across a grid of hypothetical effects plus the MDE.

    The default grid spans 0 to 1.5x the MDE in 25 steps.
    """
    effect = mde(se, alpha, target_power)
    if tau_grid is None:
        tau_grid = _linspace(0.0, 1.5 * effect, 25)
    curve = tuple((float(t), power_at(float(t), se, alpha)) for t in tau_grid)
    return PowerResult(se_used=float(se), alpha=float(alpha),
                       power_curve=curve, mde=effect)


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """``np.linspace(start, stop, n).tolist()`` for n >= 2, by numpy's
    own float arithmetic, so the grid keeps its bits without numpy."""
    div = n - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        # numpy's rule for a step that underflows (subnormal stops)
        points = [(i / div) * delta + start for i in range(n)]
    else:
        points = [i * step + start for i in range(n)]
    points[-1] = stop
    return points


def required_n(pilot_se: float, n_pilot: int, target_mde: float,
               alpha: float = 0.05, target_power: float = 0.80,
               scaling: str = "fixed_h", p: int = 1) -> int:
    """Smallest n whose implied MDE is at or below the target.

    fixed_h scaling: se(n) = pilot_se * sqrt(n_pilot / n).
    mse_h scaling:   se(n) = pilot_se * (n_pilot / n)^((p+1)/(2p+3)),
    the rate when the bandwidth is re-selected at each n.  A target
    whose n is 2**53 or more, past what a float counts exactly, raises
    UnreachableTarget.
    """
    if target_mde <= 0:
        raise ValueError("target mde must be positive")
    if n_pilot < 1:
        raise ValueError("pilot sample size must be positive")
    mde0 = mde(pilot_se, alpha, target_power)
    if scaling == "fixed_h":
        rate = 0.5
    elif scaling == "mse_h":
        rate = (p + 1.0) / (2.0 * p + 3.0)
    else:
        raise ValueError(f"unknown scaling {scaling!r}")
    if mde0 <= target_mde:
        return n_pilot
    # mde(n) = mde0 * (n_pilot/n)^rate <= target  =>  n >= n_pilot*(mde0/target)^(1/rate)
    try:
        bound = n_pilot * (mde0 / target_mde) ** (1.0 / rate)
    except OverflowError:
        bound = inf
    # from 2**53 on, a float cannot count n exactly
    if not bound < 2.0 ** 53:
        raise UnreachableTarget(
            f"target mde {target_mde} unreachable under {scaling} scaling")
    n = ceil(bound)
    # the analytic bound is rounded, so its ceil can land on either side
    # of the smallest n that meets the target: step up, then walk back.
    while _implied_mde(pilot_se, n_pilot, n, rate, alpha,
                       target_power) > target_mde:
        n += 1
    while n > n_pilot and _implied_mde(pilot_se, n_pilot, n - 1, rate,
                                       alpha, target_power) <= target_mde:
        n -= 1
    return int(n)


def _implied_mde(pilot_se, n_pilot, n, rate, alpha, target_power):
    return mde(pilot_se * (n_pilot / n) ** rate, alpha, target_power)
