"""Compliance models and the sample draw of the simulation designs."""

import numpy as np
import pytest

from rdtoolkit.dgps import (
    DgpSpec,
    OneSided,
    TwoSided,
    Uniform,
    linear_dgp,
    simulate_sample,
)
from rdtoolkit.errors import BadSpec


def _one_sided(q):
    return DgpSpec(mu0=lambda x: np.zeros_like(x), mu1=lambda x: x + 1.0,
                   noise_sd=0.5, score_dist=Uniform(-1.0, 1.0),
                   compliance=OneSided(q))


class TestOneSided:
    def test_no_treatment_below_the_cutoff(self):
        s = simulate_sample(_one_sided(0.3), 10_000, seed=1)
        below = s.score < s.cutoff
        assert below.any() and not s.received[below].any()

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7])
    def test_refusal_share_above_the_cutoff(self, q):
        s = simulate_sample(_one_sided(q), 100_000, seed=2)
        above = s.score >= s.cutoff
        refused = 1.0 - s.received[above].mean()
        assert abs(refused - q) < 0.01

    def test_fixed_seed_gives_identical_draws(self):
        first = simulate_sample(_one_sided(0.4), 500, seed=3)
        again = simulate_sample(_one_sided(0.4), 500, seed=3)
        for name in ("score", "outcome", "received"):
            assert getattr(first, name).tobytes() \
                == getattr(again, name).tobytes()

    @pytest.mark.parametrize("q", [-0.1, 1.0, 1.5])
    def test_refusal_probability_guard(self, q):
        with pytest.raises(BadSpec, match="refusal probability"):
            OneSided(q)


class TestGuards:
    @pytest.mark.parametrize("q_below, q_above", [
        (-0.1, 0.2), (1.0, 0.2), (0.2, -0.1), (0.2, 1.0)])
    def test_two_sided_probabilities(self, q_below, q_above):
        with pytest.raises(BadSpec, match="crossover probabilities"):
            TwoSided(q_below, q_above)

    def test_two_sided_zero_first_stage(self):
        # nobody below takes treatment and (almost) everybody above
        # refuses: the assignment moves no one
        with pytest.raises(BadSpec, match="zero first stage"):
            TwoSided(0.0, 1.0 - 1e-13)

    @pytest.mark.parametrize("n", [0, -5])
    def test_sample_size_at_least_one(self, n):
        with pytest.raises(BadSpec, match="sample size"):
            simulate_sample(linear_dgp(), n, seed=0)
