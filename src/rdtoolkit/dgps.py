"""Data-generating processes, and the Monte Carlo studies drawn from them.

A :class:`DgpSpec` packages potential-outcome mean functions, a noise
level, a score distribution, a compliance model, and the cutoff.  The
true sharp effect at the cutoff is computable exactly from the mean
functions, which is what makes Monte Carlo oracles possible: the
coverage engine :func:`simulate_coverage` and the bandwidth oracle
:func:`oracle_mse_bandwidth` draw replication r's sample through one
rule, :func:`replication_sample`.

Outcomes are generated from the received treatment: Y = mu_D(X) + noise.
Under perfect compliance D = T, so this reduces to assigning mu_T; with
imperfect compliance it makes the fuzzy ratio recover the effect on
compliers, which is the estimand the fuzzy methods target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum, isnan, nan
from typing import Callable

import numpy as np

from .bandwidth import select_mse_bandwidth
from .continuity import rbc_inference, sharp_estimate
from .defaults import MIN_REPLICATIONS, SIMULATE_N, SIMULATE_REPLICATIONS
from .errors import (
    BadSpec,
    EmptySide,
    RankDeficient,
    TooFewObservations,
    TooManyFailures,
)
from .parallel import run_indexed
from .rng import substream
from .sample import RdSample

# --------------------------------------------------------------------
# Score distributions
# --------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    a: float
    b: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=n)


# --------------------------------------------------------------------
# Compliance models: map the assignment mask T to the receipt mask D
# --------------------------------------------------------------------


@dataclass(frozen=True)
class Perfect:
    def draw(self, rng, assigned):
        return assigned.copy()


@dataclass(frozen=True)
class OneSided:
    """Assigned-to-treatment units refuse with probability q; nobody
    below the cutoff can obtain treatment."""

    q: float

    def __post_init__(self):
        if not 0 <= self.q < 1:
            raise BadSpec("refusal probability q must be in [0, 1)")

    def draw(self, rng, assigned):
        return assigned & (rng.random(assigned.shape[0]) >= self.q)


@dataclass(frozen=True)
class TwoSided:
    """Below-cutoff units obtain treatment with probability q_below;
    above-cutoff units refuse with probability q_above."""

    q_below: float
    q_above: float

    def __post_init__(self):
        if not (0 <= self.q_below < 1 and 0 <= self.q_above < 1):
            raise BadSpec("crossover probabilities must be in [0, 1)")
        if self.q_below + (1 - self.q_above) <= 1e-12:
            raise BadSpec("compliance model implies a zero first stage")

    def draw(self, rng, assigned):
        u = rng.random(assigned.shape[0])
        return np.where(assigned, u >= self.q_above, u < self.q_below)


# --------------------------------------------------------------------
# DGP specification, sampling and the Monte Carlo studies
# --------------------------------------------------------------------


@dataclass(frozen=True)
class DgpSpec:
    """Simulation design with exactly computable true effect.

    Attributes
    ----------
    mu0, mu1 : callable
        Potential-outcome conditional means E[Y(0)|X=x], E[Y(1)|X=x];
        must accept numpy arrays and act elementwise, returning one value
        per score: :func:`simulate_sample` evaluates ``mu1`` only on the
        treated units and ``mu0`` only on the rest.
    noise_sd : float
        Homoskedastic sd.
    score_dist : Uniform
    compliance : Perfect, OneSided, or TwoSided
    cutoff : float
    covariates : dict of str -> callable(x, rng)
        Optional pre-intervention covariate generators (used by window
        selection and balance testing studies).
    """

    mu0: Callable[[np.ndarray], np.ndarray]
    mu1: Callable[[np.ndarray], np.ndarray]
    noise_sd: float
    score_dist: Uniform
    compliance: Perfect | OneSided | TwoSided = Perfect()
    cutoff: float = 0.0
    covariates: dict[str, Callable] = field(default_factory=dict)

    def true_tau(self) -> float:
        """Sharp effect at the cutoff: mu1(c) - mu0(c), exact."""
        c = np.asarray([self.cutoff], dtype=float)
        return float(self.mu1(c)[0] - self.mu0(c)[0])


def simulate_sample(dgp: DgpSpec, n: int, seed: int) -> RdSample:
    """Draw one sample from the DGP, deterministic given the seed.

    Draw order is fixed (score, compliance, noise, covariates) so that a
    given (dgp, n, seed) always produces the identical sample.
    """
    if n < 1:
        raise BadSpec("sample size must be at least 1")
    rng = substream(seed)
    x = dgp.score_dist.sample(rng, n)
    d = dgp.compliance.draw(rng, x >= dgp.cutoff)
    # Each mean function runs only on the units whose outcome it sets.
    mu = np.empty(n)
    mu[d] = dgp.mu1(x[d])
    mu[~d] = dgp.mu0(x[~d])
    y = mu + dgp.noise_sd * rng.standard_normal(n)
    covariates = {name: gen(x, rng) for name, gen in dgp.covariates.items()}
    return RdSample(score=x, outcome=y, cutoff=dgp.cutoff, received=d,
                    covariates=covariates)


def replication_sample(dgp: DgpSpec, n: int, seed: int,
                       replication: int) -> RdSample:
    """The sample a Monte Carlo run with this seed draws in the given
    replication: a stable per-replication seed from its own substream,
    so the sample does not depend on how replications are scheduled."""
    rep_seed = int(substream(seed, replication).integers(0, 2 ** 63 - 1))
    return simulate_sample(dgp, n, seed=rep_seed)


@dataclass(frozen=True)
class CoverageResult:
    """Monte Carlo summary of one estimator configuration."""

    coverage: float
    avg_ci_length: float
    rejection_rate_at_zero: float
    mean_bias: float
    n_replications: int
    n_failed: int
    estimator: str


def simulate_coverage(dgp: DgpSpec, estimator: str = "conventional",
                      n: int = SIMULATE_N,
                      replications: int = SIMULATE_REPLICATIONS,
                      seed: int = 0, p: int = 1,
                      kernel: str = "triangular", level: float = 0.95,
                      h: float | None = None,
                      threads: int = 1) -> CoverageResult:
    """Empirical CI coverage of the true effect under repeated sampling.

    Each replication draws its :func:`replication_sample`, selects the
    MSE-optimal bandwidth (unless ``h`` fixes it), estimates, and checks
    whether the chosen interval covers the DGP's true effect.  Failed
    replications (degenerate fits) are excluded and counted; more than
    5% failures aborts.  Replications run independently (optionally on
    a thread pool) and are aggregated in index order with exact
    summation, so the result does not depend on the worker count.
    """
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications")
    if estimator not in ("conventional", "rbc"):
        raise ValueError(f"unknown estimator {estimator!r}")
    tau_true = dgp.true_tau()

    def one(r: int):
        sample = replication_sample(dgp, n, seed, r)
        try:
            h_r = h if h is not None else select_mse_bandwidth(
                sample, p=p, kernel=kernel).h_mse
            if estimator == "conventional":
                est = sharp_estimate(sample, p=p, kernel=kernel, h_below=h_r,
                                     h_above=h_r, level=level)
                lo, hi = est.ci_conventional
                point = est.tau_hat
            else:
                res = rbc_inference(sample, p=p, kernel=kernel, h_below=h_r,
                                    h_above=h_r, level=level)
                lo, hi = res.ci_rbc
                point = res.base.tau_hat
        except (EmptySide, RankDeficient, TooFewObservations):
            return None
        return (1.0 if lo <= tau_true <= hi else 0.0, hi - lo,
                0.0 if lo <= 0.0 <= hi else 1.0, point - tau_true)

    rows = run_indexed(one, replications, threads)
    ok = [r for r in rows if r is not None]
    failed = replications - len(ok)
    if failed > 0.05 * replications:
        raise TooManyFailures(
            f"{failed} of {replications} replications failed")
    done = len(ok)
    return CoverageResult(
        coverage=fsum(r[0] for r in ok) / done,
        avg_ci_length=fsum(r[1] for r in ok) / done,
        rejection_rate_at_zero=fsum(r[2] for r in ok) / done,
        mean_bias=fsum(r[3] for r in ok) / done,
        n_replications=done, n_failed=failed, estimator=estimator)


@dataclass(frozen=True)
class OracleBandwidth:
    """Grid-search bandwidth oracle output."""

    best_h: float
    grid: np.ndarray
    mse: np.ndarray
    n_failed: np.ndarray
    replications: int


def oracle_mse_bandwidth(dgp: DgpSpec, p: int, kernel: str,
                         grid, n: int, replications: int,
                         seed: int, threads: int = 1) -> OracleBandwidth:
    """Monte Carlo MSE of the jump estimator over a bandwidth grid.

    Each replication draws its :func:`replication_sample` and evaluates
    every grid bandwidth on it (common random numbers), so the MSE
    curve is smooth in h and deterministic given the seed no matter how
    replications are scheduled.  Replications where a fit fails at some
    h are skipped for that h and counted.  Per-h squared errors are
    reduced in replication order with exact summation, so the curve is
    invariant to the thread count.
    """
    grid = np.asarray(sorted(float(h) for h in grid))
    if grid.size == 0:
        raise ValueError("bandwidth grid must be non-empty")
    if np.any(grid <= 0):
        raise ValueError("bandwidths must be positive")
    if replications < 100:
        raise ValueError("need at least 100 replications for a usable oracle")
    tau_true = dgp.true_tau()

    def one(r: int) -> list[float]:
        sample = replication_sample(dgp, n, seed, r)
        row = []
        for h in grid:
            try:
                est = sharp_estimate(sample, p=p, kernel=kernel, h_below=h,
                                     h_above=h)
            except (EmptySide, RankDeficient):
                row.append(nan)
                continue
            row.append((est.tau_hat - tau_true) ** 2)
        return row

    rows = run_indexed(one, replications, threads)
    n_failed = np.zeros(grid.size, dtype=int)
    mse = np.zeros(grid.size)
    for g in range(grid.size):
        col = [row[g] for row in rows]
        good = [v for v in col if not isnan(v)]
        n_failed[g] = len(col) - len(good)
        if not good:
            raise TooFewObservations(
                f"every replication failed at bandwidth {grid[g]}")
        mse[g] = fsum(good) / len(good)
    best = float(grid[int(np.argmin(mse))])
    return OracleBandwidth(best_h=best, grid=grid, mse=mse,
                           n_failed=n_failed, replications=replications)


# --------------------------------------------------------------------
# Named benchmark designs used across the test and experiment suites
# --------------------------------------------------------------------

# Side-wise quintic means in the Lee-election style: pronounced curvature
# near the cutoff on both sides, jump 0.04 at x = 0.
_BELOW = (0.48, 1.27, 7.18, 20.21, 21.54, 7.33)
_ABOVE = (0.52, 0.84, -3.00, 7.99, -18.0, 8.5)


def _poly(coefs):
    def f(x):
        x = np.asarray(x, dtype=float)
        return sum(c * x ** k for k, c in enumerate(coefs))
    return f


def curved_benchmark(noise_sd: float = 0.1295) -> DgpSpec:
    """Curved benchmark: uniform scores on [-1, 1], quintic side means.

    The mean functions bend sharply near the cutoff, so local linear
    fits at an MSE-optimal bandwidth carry first-order smoothing bias;
    conventional intervals under-cover while bias-corrected intervals
    do not.  True effect: 0.04.
    """
    return DgpSpec(mu0=_poly(_BELOW), mu1=_poly(_ABOVE), noise_sd=noise_sd,
                   score_dist=Uniform(-1.0, 1.0), cutoff=0.0)


def linear_dgp(slope: float = 0.5, tau: float = 0.0,
               noise_sd: float = 0.5) -> DgpSpec:
    """Zero-curvature design: straight lines with an optional jump."""
    return DgpSpec(mu0=lambda x: slope * np.asarray(x, dtype=float),
                   mu1=lambda x: slope * np.asarray(x, dtype=float) + tau,
                   noise_sd=noise_sd, score_dist=Uniform(-1.0, 1.0),
                   cutoff=0.0)


def step_dgp(tau: float = 1.0, noise_sd: float = 0.0) -> DgpSpec:
    """Flat sides with a jump of tau at the cutoff."""
    return DgpSpec(mu0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   mu1=lambda x: np.full_like(np.asarray(x, dtype=float), tau),
                   noise_sd=noise_sd, score_dist=Uniform(-1.0, 1.0),
                   cutoff=0.0)


def piecewise_balance_dgp(window_halfwidth: float = 0.5,
                          gradient: float = 4.0,
                          covariate_noise: float = 0.25) -> DgpSpec:
    """Design for window-selection studies.

    The covariate is pure noise for |x| < window_halfwidth and strongly
    score-related outside, so covariate balance holds inside the window
    and fails beyond it.  Scores are uniform on [-2, 2].
    """
    w0 = float(window_halfwidth)

    def cov(x, rng):
        x = np.asarray(x, dtype=float)
        drift = np.where(np.abs(x) < w0, 0.0, gradient * (x - np.sign(x) * w0))
        return drift + covariate_noise * rng.standard_normal(x.shape[0])

    return DgpSpec(mu0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   mu1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   noise_sd=1.0, score_dist=Uniform(-2.0, 2.0), cutoff=0.0,
                   covariates={"z": cov})

