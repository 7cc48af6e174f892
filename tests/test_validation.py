import mpmath as mp
import numpy as np
import pytest

from rdtoolkit.bandwidth import select_mse_bandwidth
from rdtoolkit.continuity import rbc_inference, sharp_estimate
from rdtoolkit.dgps import simulate_sample, step_dgp
from rdtoolkit.errors import (
    EmptyGroup,
    GridContainsTrueCutoff,
    InsufficientData,
    InsufficientSideData,
    NoVariation,
)
from rdtoolkit.locrand import fisher_pvalue, make_window
from rdtoolkit import validation
from rdtoolkit.sample import RdSample
from rdtoolkit.validation import (
    bandwidth_sensitivity,
    binomial_test,
    covariate_balance,
    default_placebo_grid,
    density_test,
    donut_hole,
    placebo_cutoffs,
    run_battery,
)

from conftest import make_sample


def mp_binomial_two_sided(k, n, prob):
    """Independent oracle: exact pmf summation at 50 decimal digits."""
    with mp.workdps(50):
        p = mp.mpf(prob)

        def pmf(j):
            return mp.binomial(n, j) * p ** j * (1 - p) ** (n - j)

        lower = mp.fsum(pmf(j) for j in range(0, k + 1))
        upper = mp.fsum(pmf(j) for j in range(k, n + 1))
        return float(min(1, 2 * min(lower, upper)))


def count_sample(n_minus, n_plus):
    x = np.r_[-np.linspace(0.01, 0.4, n_minus),
              np.linspace(0.01, 0.4, n_plus)]
    return make_sample(x, np.zeros_like(x))


class TestBinomial:
    def test_hand_value_k0_n10(self):
        s = count_sample(10, 0)
        rec = binomial_test(s, make_window(s, 0.5))
        assert rec.k == 0 and rec.n == 10
        assert rec.p_value == pytest.approx(0.0019531, abs=1e-7)
        assert rec.p_value == pytest.approx(2 ** -9, abs=1e-15)  # 2*(1/2)^10

    @pytest.mark.parametrize("n,k", [(5, 2), (12, 3), (30, 22), (41, 20)])
    def test_matches_mpmath_oracle(self, n, k):
        s = count_sample(n - k, k)
        rec = binomial_test(s, make_window(s, 0.5))
        assert rec.p_value == pytest.approx(mp_binomial_two_sided(k, n, 0.5),
                                            abs=1e-12)

    def test_non_half_prob(self):
        s = count_sample(6, 14)
        rec = binomial_test(s, make_window(s, 0.5), prob=0.7)
        assert rec.p_value == pytest.approx(
            mp_binomial_two_sided(14, 20, 0.7), abs=1e-12)

    def test_balanced_counts_p_one(self):
        s = count_sample(8, 8)
        rec = binomial_test(s, make_window(s, 0.5))
        assert rec.p_value == 1.0

    @pytest.mark.parametrize("prob", [0.0, 1.0])
    @pytest.mark.parametrize("k", [0, 5, 12])
    def test_degenerate_prob_matches_mpmath_oracle(self, prob, k):
        # all mass sits on k = 0 (prob 0) or k = n (prob 1)
        s = count_sample(12 - k, k)
        rec = binomial_test(s, make_window(s, 0.5), prob=prob)
        assert rec.p_value == mp_binomial_two_sided(k, 12, prob)

    def test_large_window_finite(self):
        # C(n, k) overflows a double past n = 1029
        s = count_sample(49_800, 50_200)
        rec = binomial_test(s, make_window(s, 0.5))
        assert rec.n == 100_000 and 0.0 <= rec.p_value <= 1.0
        # normal approximation with continuity correction: z = 1.26
        assert rec.p_value == pytest.approx(
            float(mp.erfc(199.5 / mp.sqrt(25_000) / mp.sqrt(2))), abs=1e-3)

    def test_large_window_matches_exact_sum(self):
        # 2 * sum_{j >= k} C(n, j) / 2^n, summed in Python integers; a
        # log-gamma pmf loses about eps * lgamma(n + 1) to cancellation
        s = count_sample(49_800, 50_200)
        rec = binomial_test(s, make_window(s, 0.5))
        assert rec.p_value == pytest.approx(0.20703897176422484, rel=1e-12)


class TestCovariateBalance:
    def test_continuity_method_is_sharp_on_covariate(self, noisy_sample):
        rec = covariate_balance(noisy_sample, "age", method="continuity",
                                h=0.4)
        direct = sharp_estimate(noisy_sample.replace_outcome(
            noisy_sample.covariates["age"]), h_below=0.4)
        assert rec.tau_hat == pytest.approx(direct.tau_hat, abs=1e-12)
        assert 0 <= rec.p_value <= 1

    def test_locrand_method_matches_fisher(self, noisy_sample):
        w = make_window(noisy_sample, 0.3)
        rec = covariate_balance(noisy_sample, "age", method="locrand",
                                window=w, draws=499, seed=9)
        direct = fisher_pvalue(noisy_sample.replace_outcome(
            noisy_sample.covariates["age"]), w, draws=499, seed=9)
        assert rec.p_value == direct.p_value

    def test_locrand_n_used_counts_units_analysed(self):
        # n_used counted every unit with a value of the covariate, also
        # those outside the window that the permutation test never sees
        rng = np.random.default_rng(16)
        x = rng.uniform(-1, 1, 400)
        z = rng.normal(0, 1, 400)
        z[::7] = np.nan
        s = make_sample(x, rng.normal(0, 1, 400), covariates={"z": z})
        w = make_window(s, 0.2)
        analysed = (x >= w.lower) & (x <= w.upper) & np.isfinite(z)
        rec = covariate_balance(s, "z", method="locrand", window=w,
                                draws=99, seed=1)
        assert rec.n_used == np.count_nonzero(analysed) < w.n_w
        report = run_battery(s, h=0.5, count_halfwidth=0.2, draws=99,
                             seed=1)
        assert [r.n_used for r in report.balance if r.method == "locrand"] \
            == [rec.n_used]

    def test_unknown_covariate(self, noisy_sample):
        from rdtoolkit.errors import MissingCovariate
        with pytest.raises(MissingCovariate):
            covariate_balance(noisy_sample, "height", method="continuity")

    def test_jumping_covariate_small_p(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, 800)
        z = (x >= 0) * 3.0 + rng.normal(0, 0.2, 800)
        s = make_sample(x, rng.normal(0, 1, 800), covariates={"z": z})
        rec = covariate_balance(s, "z", method="continuity", h=0.5)
        assert rec.p_value < 1e-6


class TestDensity:
    def test_balanced_density_large_p(self):
        x = np.linspace(-1, 1, 2001)
        rec = density_test(make_sample(x, np.zeros_like(x)), h=0.8)
        assert rec.p_value > 0.4
        assert rec.f_below == pytest.approx(rec.f_above, rel=0.05)

    def test_two_to_one_imbalance_detected(self):
        rng = np.random.default_rng(12)
        x = np.r_[-rng.uniform(0, 1, 1000), rng.uniform(0, 1, 2000)]
        rec = density_test(make_sample(x, np.zeros_like(x)), h=0.6)
        assert rec.f_above > rec.f_below
        assert rec.p_value < 0.01
        assert rec.statistic > 0

    def test_density_units(self):
        # uniform on [-1,1] with n total: boundary density ~ n/(2n) = 0.5
        x = np.linspace(-1, 1, 4001)
        rec = density_test(make_sample(x, np.zeros_like(x)), h=0.5)
        assert rec.f_below == pytest.approx(0.5, rel=0.05)
        assert rec.f_above == pytest.approx(0.5, rel=0.05)


def noise_free_step():
    """A unit step at 0 with no noise: every side fits exactly."""
    return simulate_sample(step_dgp(tau=1.0, noise_sd=0.0), 400, seed=3)


def placebo_subsample(s, g):
    """The side-restricted subsample a placebo at cutoff g fits."""
    rows = s.side_rows[g > s.cutoff]
    return RdSample(score=s.score.take(rows), outcome=s.outcome.take(rows),
                    cutoff=g)


class TestPlacebo:
    def test_zero_se_placebo_reads_p_one(self):
        # the below side is all zeros: the fit is exact, its robust se
        # exactly 0, and a zero estimate over a zero se is no evidence
        s = noise_free_step()
        res = rbc_inference(placebo_subsample(s, -0.5), h_below=0.3,
                            h_above=0.3)
        assert res.se_robust == 0.0 and res.tau_bc == 0.0
        rec, = placebo_cutoffs(s, [-0.5], h=0.3)
        assert rec.p_value == 1.0

    def test_default_bandwidth_is_each_subsample_h_mse(self):
        s = noise_free_step()
        grid = [-0.5, 0.5]
        for g, rec in zip(grid, placebo_cutoffs(s, grid)):
            sub = placebo_subsample(s, g)
            h = select_mse_bandwidth(sub).h_mse
            res = rbc_inference(sub, h_below=h, h_above=h)
            assert rec.tau_hat == res.base.tau_hat and rec.n_used == sub.n
            assert rec == placebo_cutoffs(s, [g], h=h)[0]

    def test_grid_containing_cutoff_rejected(self, noisy_sample):
        with pytest.raises(GridContainsTrueCutoff):
            placebo_cutoffs(noisy_sample, [0.5, 0.0], h=0.3)

    def test_side_restriction(self):
        # a sharp jump below the cutoff is detected by the below-side
        # placebo but must not contaminate the above-side one
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, 3000)
        y = (x >= -1.0) * 5.0 + (x >= 0) * 0.0 + rng.normal(0, 0.3, 3000)
        s = make_sample(x, y)
        recs = placebo_cutoffs(s, [-1.0, 1.0], h=0.4)
        below = next(r for r in recs if r.cutoff == -1.0)
        above = next(r for r in recs if r.cutoff == 1.0)
        assert below.side_used == "below" and above.side_used == "above"
        assert below.p_value < 1e-8          # real jump at -1
        assert abs(above.tau_hat) < 0.3      # nothing at +1
        assert below.score_max <= 0.0        # only below-side data used
        assert above.score_min >= 0.0

    def test_insufficient_side_data(self):
        s = make_sample(np.linspace(-1, 1, 40), np.zeros(40))
        with pytest.raises(InsufficientSideData):
            placebo_cutoffs(s, [0.999], h=0.05)

    def test_default_grid_quantiles_exclude_bandwidth(self, noisy_sample):
        grid = default_placebo_grid(noisy_sample, h=0.3)
        assert all(abs(c) >= 0.3 for c in grid)
        assert all(-1 < c < 1 for c in grid)
        assert grid == sorted(grid)


class TestDonut:
    def test_default_bandwidth_is_the_sample_h_mse(self):
        s = noise_free_step()
        radii = [0.0, 0.05, 0.1]
        assert donut_hole(s, radii) == donut_hole(
            s, radii, h=select_mse_bandwidth(s).h_mse)

    def test_zero_radius_equals_baseline(self, noisy_sample):
        recs = donut_hole(noisy_sample, [0.0, 0.1], h=0.4)
        baseline = sharp_estimate(noisy_sample, h_below=0.4)
        assert recs[0].radius == 0.0
        assert recs[0].tau_hat == pytest.approx(baseline.tau_hat, abs=1e-12)
        assert recs[0].n_dropped == 0

    def test_zero_radius_is_the_baseline_bit_for_bit(self, noisy_sample):
        # radius 0 estimates on the sample itself, with its side split
        rec, = donut_hole(noisy_sample, [0.0], h=0.4)
        assert "side_rows" in vars(noisy_sample)
        res = rbc_inference(noisy_sample, h_below=0.4, h_above=0.4)
        assert (rec.tau_hat.hex(), *(v.hex() for v in rec.ci)) == \
            (res.base.tau_hat.hex(), *(v.hex() for v in res.ci_rbc))
        assert rec.n_dropped == 0

    def test_dropped_counts(self, noisy_sample):
        recs = donut_hole(noisy_sample, [0.2], h=0.5)
        expected = int((np.abs(noisy_sample.score) < 0.2).sum())
        assert recs[0].n_dropped == expected

    def test_radius_that_empties_the_fit_window_names_the_radius(self):
        # radius 0.5 drops every unit within h = 0.3 of the cutoff
        x = np.linspace(-1, 1, 41)
        s = make_sample(x, x + (x >= 0))
        with pytest.raises(InsufficientData,
                           match=r"^donut radius 0\.5: below side: 0 "):
            donut_hole(s, [0.0, 0.5], h=0.3)

    def test_stable_design_is_robust(self, noisy_sample):
        recs = donut_hole(noisy_sample, [0.0, 0.05, 0.1], h=0.5)
        taus = [r.tau_hat for r in recs]
        assert max(taus) - min(taus) < 0.5


class TestSensitivity:
    def test_h_echoed_and_baseline_flagged(self, noisy_sample):
        recs = bandwidth_sensitivity(noisy_sample, [0.2, 0.4, 0.6],
                                     baseline_h=0.4)
        assert [r.h for r in recs] == [0.2, 0.4, 0.6]
        assert [r.baseline for r in recs] == [False, True, False]
        for r in recs:
            assert r.ci[0] <= r.tau_hat <= r.ci[1]


class TestBattery:
    def test_all_sections_present(self, noisy_sample):
        report = run_battery(noisy_sample, draws=299, seed=1)
        assert len(report.balance) == 4  # 2 covariates x 2 methods
        assert report.binomial is not None
        assert report.density is not None
        assert len(report.placebo_cutoffs) >= 1
        assert len(report.donut) == 3
        assert len(report.sensitivity) == 5
        assert report.h_baseline > 0
        lo, hi = report.count_window
        assert lo < 0 < hi

    def test_refits_hold_only_what_they_read(self, noisy_sample,
                                             monkeypatch):
        # every refit of the battery, in order: continuity balance per
        # covariate, placebo cutoffs, donut radii, sensitivity bandwidths
        fitted = []

        def recording(sample, *args, **kwargs):
            fitted.append(sample)
            return rbc_inference(sample, *args, **kwargs)

        monkeypatch.setattr(validation, "rbc_inference", recording)
        report = run_battery(noisy_sample, draws=99, seed=1)
        n_placebo = len(report.placebo_cutoffs)
        assert len(fitted) == 2 + n_placebo + 3 + 5
        balance, placebo = fitted[:2], fitted[2:2 + n_placebo]
        donut, sensitivity = fitted[2 + n_placebo:-5], fitted[-5:]
        # a sample that keeps every row is the battery's own: it reads
        # its score and holds no covariate but the battery's own arrays
        for sub in (*balance, donut[0], *sensitivity):
            assert sub.score is noisy_sample.score
            assert all(values is noisy_sample.covariates[name]
                       for name, values in sub.covariates.items())
        for sub, name in zip(balance, ("age", "income")):
            np.testing.assert_array_equal(sub.outcome,
                                          noisy_sample.covariates[name])
        # a cut holds no covariates
        for sub in (*placebo, *donut[1:]):
            assert sub.n < noisy_sample.n
            assert sub.covariates == {} and sub.unit_cutoffs is None

    def test_explicit_h_respected(self, noisy_sample):
        report = run_battery(noisy_sample, h=0.35, draws=299, seed=1)
        assert report.h_baseline == 0.35
        assert report.count_window == (-0.175, 0.175)

    def test_density_skipped_when_sparse(self):
        rng = np.random.default_rng(6)
        x = np.r_[-rng.uniform(0.01, 1, 30), rng.uniform(0.01, 1, 30)]
        y = 0.2 * x + rng.normal(0, 0.5, 60)
        s = make_sample(x, y)
        report = run_battery(s, h=0.6, bins_per_side=40, draws=99, seed=2)
        assert report.density is None

    @pytest.mark.parametrize("kinds, draws, error", [
        (("treated_gap", "constant"), 99, EmptyGroup),
        (("constant", "treated_gap"), 99, NoVariation),
        (("full", "constant"), 99, NoVariation),
        (("full", "full"), 0, ValueError),
        (("constant", "full"), 0, NoVariation),
    ])
    def test_first_failing_check_surfaces(self, kinds, draws, error):
        # checks run covariate by covariate, continuity then locrand, so
        # the first to fail names the error even where covariates share
        # one permutation ensemble ("full" and "constant" have the same
        # units); "treated_gap" has no value on the treated side of the
        # count window, so its permutation test has no treated unit
        rng = np.random.default_rng(15)
        x = rng.uniform(-1, 1, 600)
        covariates = {}
        for name, kind in zip("ab", kinds):
            z = rng.normal(0, 1, 600) if kind != "constant" \
                else np.full(600, 2.0)
            if kind == "treated_gap":
                z[(x >= 0) & (x <= 0.05)] = np.nan
            covariates[name] = z
        s = make_sample(x, rng.normal(0, 1, 600), covariates=covariates)
        with pytest.raises(error):
            run_battery(s, h=0.5, count_halfwidth=0.05, draws=draws,
                        seed=1)
