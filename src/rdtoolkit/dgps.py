"""Data-generating processes for simulation and testing.

A :class:`DgpSpec` packages potential-outcome mean functions, a noise
level, a score distribution, a compliance model, and the cutoff.  The
true sharp effect at the cutoff is computable exactly from the mean
functions, which is what makes Monte Carlo oracles possible.

Outcomes are generated from the received treatment: Y = mu_D(X) + noise.
Under perfect compliance D = T, so this reduces to assigning mu_T; with
imperfect compliance it makes the fuzzy ratio recover the effect on
compliers, which is the estimand the fuzzy methods target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadSpec
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
# Compliance models: map assigned T to received D
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
        refuse = rng.random(assigned.shape[0]) < self.q
        return np.where(assigned == 1, (~refuse).astype(np.int8), 0).astype(np.int8)


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
        above = assigned == 1
        d = np.where(above, u >= self.q_above, u < self.q_below)
        return d.astype(np.int8)


# --------------------------------------------------------------------
# DGP specification
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
    noise_sd : float or callable
        Homoskedastic sd, or a function of the score.
    score_dist : Uniform
    compliance : Perfect, OneSided, or TwoSided
    cutoff : float
    covariates : dict of str -> callable(x, rng)
        Optional pre-intervention covariate generators (used by window
        selection and balance testing studies).
    """

    mu0: Callable[[np.ndarray], np.ndarray]
    mu1: Callable[[np.ndarray], np.ndarray]
    noise_sd: float | Callable[[np.ndarray], np.ndarray]
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
    assigned = (x >= dgp.cutoff).astype(np.int8)
    d = dgp.compliance.draw(rng, assigned)
    # Each mean function runs only on the units whose outcome it sets.
    treated = d == 1
    mu = np.empty(n)
    mu[treated] = dgp.mu1(x[treated])
    mu[~treated] = dgp.mu0(x[~treated])
    sd = dgp.noise_sd(x) if callable(dgp.noise_sd) else float(dgp.noise_sd)
    y = mu + sd * rng.standard_normal(n)
    covariates = {name: gen(x, rng) for name, gen in dgp.covariates.items()}
    return RdSample(score=x, outcome=y, cutoff=dgp.cutoff, received=d,
                    covariates=covariates)


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
