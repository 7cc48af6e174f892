import hashlib
from math import fsum
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdtoolkit.dgps import (
    _ABOVE,
    _BELOW,
    DgpSpec,
    TwoSided,
    Uniform,
    _poly,
    curved_benchmark,
    linear_dgp,
    oracle_mse_bandwidth,
    replication_sample,
    simulate_coverage,
    simulate_sample,
    step_dgp,
)
from rdtoolkit.continuity import sharp_estimate
from rdtoolkit.errors import TooManyFailures, UnreachableTarget
from rdtoolkit.powersim import (
    _implied_mde,
    _linspace,
    mde,
    power_at,
    power_curve,
    required_n,
)
from rdtoolkit.rng import substream


def oracle_power(tau, se, alpha):
    """Two-sided normal power via the stdlib normal distribution."""
    nd = NormalDist()
    z = nd.inv_cdf(1.0 - alpha / 2.0)
    t = tau / se
    return 1.0 - nd.cdf(z - t) + nd.cdf(-z - t)


class TestPowerAt:
    @pytest.mark.parametrize("tau,se,alpha", [
        (0.0, 1.0, 0.05), (1.0, 1.0, 0.05), (2.8, 1.0, 0.05),
        (0.5, 0.2, 0.01), (-1.5, 0.7, 0.10), (4.0, 0.5, 0.05),
    ])
    def test_matches_stdlib_oracle(self, tau, se, alpha):
        assert power_at(tau, se, alpha) == pytest.approx(
            oracle_power(tau, se, alpha), abs=1e-12)

    def test_null_power_is_alpha(self):
        assert power_at(0.0, 1.0, 0.05) == pytest.approx(0.05, abs=1e-12)

    def test_symmetric_in_sign(self):
        assert power_at(1.3, 0.8) == pytest.approx(power_at(-1.3, 0.8),
                                                   abs=1e-14)

    def test_bad_se(self):
        with pytest.raises(ValueError):
            power_at(1.0, 0.0)

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, 2.0 ** -53, 1e-17])
    def test_bad_alpha(self, alpha):
        # alpha 1.5 used to return 1.325 as a power
        with pytest.raises(ValueError, match="alpha"):
            power_at(1.0, 1.0, alpha=alpha)


class TestMde:
    def test_reference_value(self):
        # one-tailed approximation gives 2.801585; exact inversion sits
        # a hair below because the far tail adds a little power
        value = mde(1.0, alpha=0.05, target_power=0.80)
        assert value == pytest.approx(2.8016, abs=5e-4)
        assert value < 2.8015852444

    def test_power_at_mde_is_target_exactly(self):
        for se, alpha, power in [(1.0, 0.05, 0.8), (0.3, 0.01, 0.9),
                                 (2.5, 0.10, 0.5), (1.0, 0.05, 0.999)]:
            m = mde(se, alpha, power)
            assert power_at(m, se, alpha) == pytest.approx(power, abs=1e-12)

    def test_linear_in_se(self):
        assert mde(2.0) == pytest.approx(2.0 * mde(1.0), rel=1e-12)
        assert mde(0.25) == pytest.approx(0.25 * mde(1.0), rel=1e-12)

    def test_target_at_or_below_alpha_gives_zero(self):
        assert mde(1.0, alpha=0.05, target_power=0.05) == 0.0
        assert mde(1.0, alpha=0.05, target_power=0.01) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(se=st.floats(0.01, 100), alpha=st.floats(0.001, 0.3),
           power=st.floats(0.31, 0.999))
    def test_inversion_property(self, se, alpha, power):
        m = mde(se, alpha, power)
        assert power_at(m, se, alpha) == pytest.approx(power, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            mde(-1.0)
        with pytest.raises(ValueError):
            mde(1.0, alpha=0.0)
        # 1 - alpha/2 rounds to 1.0, whose quantile is infinite
        with pytest.raises(ValueError, match="alpha"):
            mde(1.0, alpha=1e-17)
        assert np.isfinite(mde(1.0, alpha=np.nextafter(2.0 ** -53, 1)))
        with pytest.raises(ValueError):
            mde(1.0, target_power=1.0)


class TestPowerCurve:
    def test_curve_spans_zero_to_past_mde(self):
        res = power_curve(1.0)
        taus = [t for t, _ in res.power_curve]
        assert taus[0] == 0.0
        assert taus[-1] == pytest.approx(1.5 * res.mde)
        assert len(res.power_curve) == 25
        powers = [p for _, p in res.power_curve]
        assert powers == sorted(powers)  # monotone on tau >= 0

    def test_explicit_grid(self):
        res = power_curve(0.5, tau_grid=[0.0, 1.0, 2.0])
        assert [t for t, _ in res.power_curve] == [0.0, 1.0, 2.0]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False),
           st.integers(2, 60))
    @example(0.0, 0.0, 25)
    @example(0.0, 5e-324, 25)
    @example(0.0, 1e-310, 25)
    @example(0.0, 1.7976931348623157e308, 25)
    @example(0.0, -2.5, 25)
    @example(-1e308, 1e308, 25)
    def test_default_grid_is_numpys_linspace(self, start, stop, n):
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, n).tolist()
        assert list(map(float.hex, _linspace(start, stop, n))) \
            == list(map(float.hex, expected))


class TestRequiredN:
    def test_pilot_already_sufficient(self):
        base = mde(1.0)
        assert required_n(1.0, 200, target_mde=base + 0.01) == 200
        assert required_n(1.0, 200, target_mde=base) == 200

    def test_fixed_h_halving_mde_quadruples_n(self):
        base = mde(1.0)
        n = required_n(1.0, 200, target_mde=base / 2, scaling="fixed_h")
        assert n == 800

    def test_mse_h_rate(self):
        # se ~ n^(-2/5) at p=1, so halving the MDE needs 2^(5/2) x n
        base = mde(1.0)
        n = required_n(1.0, 200, target_mde=base / 2, scaling="mse_h", p=1)
        assert n == pytest.approx(200 * 2 ** 2.5, abs=1)

    def test_result_is_minimal(self):
        base = mde(1.0)
        for target in (base / 1.7, base / 3.3):
            n = required_n(1.0, 100, target_mde=target)
            assert mde(1.0 * (100 / n) ** 0.5) <= target
            assert mde(1.0 * (100 / (n - 1)) ** 0.5) > target

    @pytest.mark.parametrize("scaling, p", [("fixed_h", 1), ("mse_h", 1),
                                            ("mse_h", 3)])
    def test_rounded_bound_steps_to_the_minimal_n(self, scaling, p):
        # a target of mde(se) * (n_pilot / k)^rate puts the analytic bound
        # on the integer k, where rounding sets its ceil on either side of
        # the smallest n that meets the target: both the step up and the
        # walk-back run on these inputs
        rate = 0.5 if scaling == "fixed_h" else (p + 1.0) / (2.0 * p + 3.0)
        rng = np.random.default_rng(11)
        for _ in range(300):
            se = float(rng.uniform(0.01, 10.0))
            n_pilot = int(rng.integers(1, 500))
            k = int(rng.integers(n_pilot + 1, 100 * n_pilot + 2))
            target = mde(se) * (n_pilot / k) ** rate
            n = required_n(se, n_pilot, target, scaling=scaling, p=p)
            assert _implied_mde(se, n_pilot, n, rate, 0.05, 0.80) <= target
            if n > n_pilot:
                assert _implied_mde(se, n_pilot, n - 1, rate, 0.05,
                                    0.80) > target

    def test_known_pilot_case(self):
        assert required_n(1.0, 200, target_mde=0.5) == 6280

    def test_n_a_float_cannot_count_is_unreachable(self):
        # n_pilot * (mde0 / target)^2 is 2**52 and 2**53 exactly
        target = mde(1.0) / 2.0 ** 26
        assert required_n(1.0, 1, target_mde=target) <= 2 ** 52
        with pytest.raises(UnreachableTarget):
            required_n(1.0, 2, target_mde=target)
        with pytest.raises(UnreachableTarget):
            required_n(1.0, 1, target_mde=1e-100)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_n(1.0, 200, target_mde=0.0)
        with pytest.raises(ValueError):
            required_n(1.0, 0, target_mde=0.5)
        with pytest.raises(ValueError):
            required_n(1.0, 200, target_mde=0.5, scaling="cube")


class TestSimulateCoverage:
    def test_linear_dgp_near_nominal(self):
        dgp = linear_dgp(tau=1.0, noise_sd=0.5)
        res = simulate_coverage(dgp, n=200, replications=500, seed=7, h=0.4)
        assert res.estimator == "conventional"
        assert res.n_replications == 500
        assert res.n_failed == 0
        assert 0.90 <= res.coverage <= 0.99
        assert abs(res.mean_bias) < 0.05
        assert res.rejection_rate_at_zero > 0.9  # tau=1 is easy to detect
        assert res.avg_ci_length > 0

    def test_thread_count_does_not_change_result(self):
        dgp = step_dgp(tau=0.5, noise_sd=0.3)
        serial = simulate_coverage(dgp, n=150, replications=500, seed=3,
                                   h=0.5, threads=1)
        pooled = simulate_coverage(dgp, n=150, replications=500, seed=3,
                                   h=0.5, threads=4)
        assert serial == pooled

    def test_rbc_estimator_accepted(self):
        dgp = linear_dgp(tau=0.0, noise_sd=0.4)
        res = simulate_coverage(dgp, estimator="rbc", n=200,
                                replications=500, seed=11, h=0.5)
        assert res.estimator == "rbc"
        assert 0.90 <= res.coverage <= 0.99
        # with tau = 0, rejection at zero is the type I error
        assert res.rejection_rate_at_zero == pytest.approx(
            1.0 - res.coverage, abs=1e-12)

    def test_too_few_replications(self):
        with pytest.raises(ValueError):
            simulate_coverage(linear_dgp(), replications=499)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            simulate_coverage(linear_dgp(), estimator="oracle",
                              replications=500)

    def test_pervasive_failures_abort(self):
        # bandwidth far below the score spacing starves every fit
        dgp = linear_dgp(tau=0.0, noise_sd=0.2)
        with pytest.raises(TooManyFailures):
            simulate_coverage(dgp, n=30, replications=500, seed=5, h=1e-6)


# float.hex of the coverage, CI length, rejection rate and mean bias of
# the curved benchmark at n = 1,000, 500 replications, seed 11, recorded
# before the replication loop was made cheaper; every field must keep
# its exact bits.
PINNED_COVERAGE = {
    ("conventional", 1, "triangular"): (
        "0x1.c083126e978d5p-1", "0x1.1d6cd6abe1daap-3",
        "0x1.072b020c49ba6p-1", "0x1.f6117b87e85a5p-6"),
    ("conventional", 2, "uniform"): (
        "0x1.ced916872b021p-1", "0x1.40d50ce968fe7p-3",
        "0x1.353f7ced91687p-2", "0x1.cd51b0fb3149ep-7"),
    ("rbc", 1, "triangular"): (
        "0x1.e872b020c49bap-1", "0x1.9db6e6537b8d3p-3",
        "0x1.4395810624dd3p-3", "0x1.f6117b87e85a5p-6"),
    ("rbc", 2, "uniform"): (
        "0x1.e45a1cac08312p-1", "0x1.a7f0ce2d6c1fcp-3",
        "0x1.374bc6a7ef9dbp-3", "0x1.cd51b0fb3149ep-7"),
}


class TestPinnedBits:
    @pytest.mark.parametrize("estimator, p, kernel", sorted(PINNED_COVERAGE))
    def test_curved_benchmark_coverage(self, estimator, p, kernel):
        res = simulate_coverage(curved_benchmark(), estimator=estimator,
                                n=1000, replications=500, seed=11, p=p,
                                kernel=kernel)
        got = tuple(v.hex() for v in (res.coverage, res.avg_ci_length,
                                      res.rejection_rate_at_zero,
                                      res.mean_bias))
        assert got == PINNED_COVERAGE[estimator, p, kernel]
        assert (res.n_replications, res.n_failed, res.estimator) == \
            (500, 0, estimator)

    def test_two_sided_compliance_sample(self):
        dgp = DgpSpec(mu0=_poly(_BELOW), mu1=_poly(_ABOVE), noise_sd=0.1295,
                      score_dist=Uniform(-1.0, 1.0),
                      compliance=TwoSided(0.15, 0.25))
        s = simulate_sample(dgp, 1000, seed=5)
        digest = hashlib.sha256()
        for column in (s.score, s.outcome, s.received.astype(np.int8)):
            digest.update(np.ascontiguousarray(column).tobytes())
        assert s.received.dtype == np.float64
        assert digest.hexdigest() == (
            "64ea9901965aa0bd5596a04a60c9c8577ddf654c41f8194abbca181f6700a36d")


class TestReplicationSample:
    """The oracle and the coverage engine draw replication r's sample
    through one rule, :func:`replication_sample`."""

    @pytest.mark.parametrize("threads", [1, 3])
    def test_oracle_mse_from_replication_samples(self, threads):
        dgp = linear_dgp(slope=0.3, tau=0.5, noise_sd=0.4)
        n, seed, h = 300, 9, 0.4
        tau = dgp.true_tau()
        o = oracle_mse_bandwidth(dgp, 1, "triangular", [h], n, 100, seed,
                                 threads=threads)
        errors = [(sharp_estimate(replication_sample(dgp, n, seed, r), p=1,
                                  kernel="triangular", h_below=h,
                                  h_above=h).tau_hat - tau) ** 2
                  for r in range(100)]
        assert o.mse[0] == fsum(errors) / 100

    def test_coverage_bias_from_replication_samples(self):
        dgp = step_dgp(tau=0.5, noise_sd=0.3)
        n, seed, h = 150, 3, 0.5
        res = simulate_coverage(dgp, n=n, replications=500, seed=seed, h=h)
        bias = [sharp_estimate(replication_sample(dgp, n, seed, r), p=1,
                               kernel="triangular", h_below=h,
                               h_above=h).tau_hat - 0.5
                for r in range(500)]
        assert res.mean_bias == fsum(bias) / 500

    @pytest.mark.parametrize("seed, replication", [(0, 0), (11, 7),
                                                   (20260814, 499)])
    def test_seed_rule_bits(self, seed, replication):
        # the rule replayed inline by scripts and the benchmark harness
        dgp = curved_benchmark()
        inline = simulate_sample(dgp, 200, seed=int(
            substream(seed, replication).integers(0, 2 ** 63 - 1)))
        s = replication_sample(dgp, 200, seed, replication)
        assert s.score.tobytes() == inline.score.tobytes()
        assert s.outcome.tobytes() == inline.outcome.tobytes()
