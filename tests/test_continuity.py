import pathlib
import re
import tempfile
from math import comb

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtoolkit.continuity import (
    PooledEstimate,
    _zvalue,
    fuzzy_estimate,
    kink_estimate,
    normalize_and_pool,
    rbc_inference,
    sharp_estimate,
)
from rdtoolkit.errors import MissingTreatmentColumn, RdError, WeakFirstStage
from rdtoolkit import locrand
from rdtoolkit.locrand import diff_in_means, fisher_pvalue, make_window
from rdtoolkit.lpoly import fit_values
from rdtoolkit.plotting import build_rdplot
from rdtoolkit.sample import RdSample, ingest_csv

from conftest import make_sample, write_csv
from test_lpoly import oracle_wls

KERNELS = ["triangular", "uniform", "epanechnikov"]


def grid_sample(f, n=81, lo=-1.0, hi=1.0, received=None):
    x = np.linspace(lo, hi, n)
    y = f(x)
    return make_sample(x, y, received=received(x) if received else None)


class TestExactness:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("p", [1, 2])
    def test_step_jump_is_one(self, p, kernel):
        s = grid_sample(lambda x: (x >= 0).astype(float))
        est = sharp_estimate(s, p=p, kernel=kernel, h_below=0.5, h_above=0.5)
        assert est.tau_hat == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("p", [1, 2])
    def test_pure_linear_has_no_jump(self, p, kernel):
        s = grid_sample(lambda x: 0.7 * x + 0.2)
        est = sharp_estimate(s, p=p, kernel=kernel, h_below=0.5, h_above=0.5)
        assert est.tau_hat == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("p", [1, 2])
    def test_piecewise_linear_kink_is_two(self, p, kernel):
        # slope 1 below, slope 3 above, continuous at 0
        s = grid_sample(lambda x: np.where(x >= 0, 3 * x, x))
        est = kink_estimate(s, p=p, kernel=kernel, h_below=0.5, h_above=0.5)
        assert est.tau_hat == pytest.approx(2.0, abs=1e-9)
        jump = sharp_estimate(s, p=p, kernel=kernel, h_below=0.5,
                              h_above=0.5)
        assert jump.tau_hat == pytest.approx(0.0, abs=1e-9)


class TestSharp:
    def test_tau_is_intercept_difference(self, noisy_sample):
        est = sharp_estimate(noisy_sample, h_below=0.4, h_above=0.4)
        xc = noisy_sample.centered_score()
        below = fit_values(xc[xc < 0], noisy_sample.outcome[xc < 0], 0.0,
                           p=1, kernel="triangular", h=0.4)
        above = fit_values(xc[xc >= 0], noisy_sample.outcome[xc >= 0], 0.0,
                           p=1, kernel="triangular", h=0.4)
        assert est.tau_hat == pytest.approx(above.beta[0] - below.beta[0],
                                            abs=1e-12)
        expected_se = np.sqrt(above.cov[0, 0] + below.cov[0, 0])
        assert est.se_conventional == pytest.approx(expected_se, abs=1e-12)

    def test_single_bandwidth_fills_both_sides(self, noisy_sample):
        one = sharp_estimate(noisy_sample, h_below=0.4)
        two = sharp_estimate(noisy_sample, h_below=0.4, h_above=0.4)
        assert one.tau_hat == two.tau_hat
        assert one.h_above == 0.4

    def test_ci_widens_with_level(self, noisy_sample):
        lo = sharp_estimate(noisy_sample, h_below=0.4, level=0.90)
        hi = sharp_estimate(noisy_sample, h_below=0.4, level=0.99)
        assert (hi.ci_conventional[1] - hi.ci_conventional[0]
                > lo.ci_conventional[1] - lo.ci_conventional[0])
        assert lo.ci_conventional[0] < lo.tau_hat < lo.ci_conventional[1]

    def test_outcome_sign_flip_negates_tau(self, noisy_sample):
        est = sharp_estimate(noisy_sample, h_below=0.4)
        flipped = sharp_estimate(noisy_sample.replace_outcome(
            -noisy_sample.outcome), h_below=0.4)
        assert flipped.tau_hat == pytest.approx(-est.tau_hat, abs=1e-12)
        assert flipped.se_conventional == pytest.approx(est.se_conventional,
                                                        abs=1e-12)

    def test_score_translation_invariance(self, noisy_sample):
        est = sharp_estimate(noisy_sample, h_below=0.4)
        moved = RdSample(score=noisy_sample.score + 5.0,
                         outcome=noisy_sample.outcome.copy(), cutoff=5.0)
        est2 = sharp_estimate(moved, h_below=0.4)
        assert est2.tau_hat == pytest.approx(est.tau_hat, abs=1e-12)

    def test_counts_reported_per_side(self, noisy_sample):
        # one unit exactly at the cutoff: ties are treated (counted above)
        x = noisy_sample.score.copy()
        x[0] = 0.0
        s = make_sample(x, noisy_sample.outcome)
        est = sharp_estimate(s, h_below=0.4)
        xc = s.centered_score()
        assert est.n_eff_below == int(((xc < 0) & (xc > -0.4)).sum())
        assert est.n_eff_above == int(((xc >= 0) & (xc < 0.4)).sum())

    def test_invalid_bandwidth_reported_before_any_fit(self):
        # the below side has one point within 0.5, too few for a linear
        # fit; the invalid above-side bandwidth is still the error
        x = np.r_[-0.9, -0.8, -0.2, np.linspace(0.0, 1.0, 20)]
        s = make_sample(x, np.zeros(x.size))
        with pytest.raises(ValueError) as err:
            sharp_estimate(s, h_below=0.5, h_above=-1.0)
        assert err.type is ValueError
        assert str(err.value) == "bandwidth must be positive, got -1.0"


class TestFuzzy:
    def test_perfect_compliance_equals_sharp(self, noisy_sample):
        sharp = sharp_estimate(noisy_sample, h_below=0.4)
        fuzzy = fuzzy_estimate(noisy_sample, h_below=0.4)
        assert fuzzy.tau_hat == pytest.approx(sharp.tau_hat, abs=1e-12)
        assert fuzzy.se_conventional == pytest.approx(sharp.se_conventional,
                                                      abs=1e-12)
        assert fuzzy.first_stage == pytest.approx(1.0, abs=1e-12)

    def test_ratio_identity(self):
        # halve compliance jump deterministically: D = 1[x>=0] only for
        # even-index units; first stage 0.5, so tau doubles
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, 600)
        d = ((x >= 0) & (np.arange(600) % 2 == 0)).astype(int)
        y = 1.0 * d + 0.3 * x + rng.normal(0, 0.1, 600)
        s = make_sample(x, y, received=d)
        fuzzy = fuzzy_estimate(s, h_below=0.6)
        reduced = sharp_estimate(s, h_below=0.6)
        first = sharp_estimate(s.replace_outcome(d.astype(float)),
                               h_below=0.6)
        assert fuzzy.tau_hat == pytest.approx(
            reduced.tau_hat / first.tau_hat, abs=1e-12)
        assert fuzzy.first_stage == pytest.approx(first.tau_hat, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_se_matches_stacked_sandwich_oracle(self, p):
        # imperfect compliance: the Y-D intercept covariance is not zero
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, 600)
        d = (rng.uniform(size=600) < np.where(x >= 0, 0.8, 0.2)).astype(int)
        y = 0.5 * x + 1.5 * d + rng.normal(0, 0.5, 600)
        est = fuzzy_estimate(make_sample(x, y, received=d), p=p, h_below=0.5)
        jumps, icov = 0.0, np.zeros((2, 2))
        for side, sign in ((x < 0, -1.0), (x >= 0, 1.0)):
            beta, cov, _ = oracle_wls(x[side], np.column_stack([y, d])[side],
                                      0.0, p, "triangular", 0.5)
            jumps = jumps + sign * beta[0]
            icov += cov[::p + 1, ::p + 1]
        reduced, first = jumps
        tau = reduced / first
        var = (icov[0, 0] + tau * tau * icov[1, 1]
               - 2.0 * tau * icov[0, 1]) / first ** 2
        assert abs(icov[0, 1]) > 0.1 * np.sqrt(icov[0, 0] * icov[1, 1])
        assert est.first_stage == pytest.approx(first, rel=1e-9)
        assert est.tau_hat == pytest.approx(tau, rel=1e-9)
        assert est.se_conventional == pytest.approx(np.sqrt(var), rel=1e-8)

    def test_missing_treatment_column(self, step_sample):
        with pytest.raises(MissingTreatmentColumn):
            fuzzy_estimate(step_sample, h_below=0.5)

    def test_weak_first_stage_raises(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 400)
        d = rng.integers(0, 2, 400)  # assignment-independent compliance
        y = rng.normal(0, 1, 400)
        s = make_sample(x, y, received=d)
        with pytest.raises(WeakFirstStage):
            fuzzy_estimate(s, h_below=0.8)


class TestRbc:
    def test_quadratic_bias_removed_exactly(self):
        # noiseless quadratic + jump: p=1 is biased at any finite h,
        # p=2 inference recovers tau exactly
        x = np.linspace(-1, 1, 161)
        y = 2.0 * x ** 2 + (x >= 0) * 0.5
        s = make_sample(x, y)
        res = rbc_inference(s, p=1, kernel="triangular", h_below=0.6)
        assert abs(res.base.tau_hat - 0.5) > 1e-6  # conventional is biased
        assert res.tau_bc == pytest.approx(0.5, abs=1e-9)
        assert res.bias_estimate == pytest.approx(res.base.tau_hat - 0.5,
                                                  abs=1e-9)
        assert res.inference_order == 2

    def test_ci_centered_on_corrected_point(self, noisy_sample):
        res = rbc_inference(noisy_sample, h_below=0.4)
        lo, hi = res.ci_rbc
        assert (lo + hi) / 2 == pytest.approx(res.tau_bc, abs=1e-12)
        z_width = (hi - lo) / 2
        assert z_width == pytest.approx(1.959963984540054 * res.se_robust,
                                        abs=1e-9)

    def test_unbiased_case_small_correction(self, step_sample):
        res = rbc_inference(step_sample, h_below=0.5)
        assert res.bias_estimate == pytest.approx(0.0, abs=1e-9)
        assert res.tau_bc == pytest.approx(1.0, abs=1e-9)

    def test_kink_design_supported(self):
        s = grid_sample(lambda x: np.where(x >= 0, 3 * x, x) + 0.1 * x ** 2)
        res = rbc_inference(s, kind="kink", p=1, h_below=0.5)
        assert res.tau_bc == pytest.approx(2.0, abs=1e-7)

    def test_unknown_kind_rejected(self, step_sample):
        with pytest.raises(ValueError):
            rbc_inference(step_sample, kind="sorta_sharp", h_below=0.5)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(40, 300),
           c=st.sampled_from([0.0, 0.3, -7.1]),
           kernel=st.sampled_from(KERNELS), p=st.integers(0, 2),
           kind=st.sampled_from(["sharp", "kink", "fuzzy"]),
           ulps=st.integers(-2, 2), data=st.data())
    def test_bits_match_separate_fits(self, seed, n, c, kernel, p, kind,
                                      ulps, data):
        # h is an observed |x - c|, give or take a few ulps: units at the
        # window edge must be in or out exactly as kernel_weight decides
        rng = np.random.default_rng(seed)
        x = c + rng.uniform(-1, 1, n)
        d = ((x >= c) ^ (rng.random(n) < 0.1)).astype(np.int8)
        y = np.sin(3 * (x - c)) + 0.5 * d + rng.normal(0, 0.2, n)
        s = make_sample(x, y, cutoff=c, received=d)
        i = data.draw(st.integers(0, n - 1))
        h = abs(s.centered_score()[i])
        for _ in range(abs(ulps)):
            h = float(np.nextafter(h, np.inf if ulps > 0 else 0.0))
        p = max(p, 1) if kind == "kink" else p
        estimator = {"sharp": sharp_estimate, "kink": kink_estimate,
                     "fuzzy": fuzzy_estimate}[kind]
        kw = dict(kernel=kernel, h_below=h, h_above=h)
        try:
            base = estimator(s, p=p, **kw)
            higher = estimator(s, p=p + 1, **kw)
        except RdError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                rbc_inference(s, p=p, kind=kind, **kw)
            return
        z = _zvalue(0.95)
        se = higher.se_conventional
        expected = (base, base.tau_hat - higher.tau_hat, se,
                    (higher.tau_hat - z * se, higher.tau_hat + z * se))
        res = rbc_inference(s, p=p, kind=kind, **kw)
        assert repr((res.base, res.bias_estimate, res.se_robust,
                     res.ci_rbc)) == repr(expected)

    @pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99])
    def test_normal_quantile_matches_mpmath(self, level):
        with mp.workdps(50):
            z = mp.sqrt(2) * mp.erfinv(level)
            assert abs(_zvalue(level) - z) <= 1e-15 * z


class TestPooled:
    def test_single_cutoff_equals_sharp(self, noisy_sample):
        pooled = normalize_and_pool(noisy_sample, h_below=0.4)
        sharp = sharp_estimate(noisy_sample, h_below=0.4)
        assert pooled.pooled.tau_hat == sharp.tau_hat
        assert pooled.pooled.se_conventional == sharp.se_conventional
        assert len(pooled.per_cutoff) == 1
        assert pooled.per_cutoff[0].estimate.tau_hat == sharp.tau_hat

    def test_two_cutoffs_pool_and_detail(self):
        rng = np.random.default_rng(4)
        c = np.repeat([0.0, 1.0], 300)
        x = c + rng.uniform(-1, 1, 600)
        y = (x >= c) * 0.8 + 0.3 * (x - c) + rng.normal(0, 0.1, 600)
        # a multi-cutoff sample holds the centred score
        s = RdSample(score=x - c, outcome=y, cutoff=0.0, unit_cutoffs=c)
        pooled = normalize_and_pool(s, h_below=0.5)
        assert len(pooled.per_cutoff) == 2
        assert {pc.cutoff for pc in pooled.per_cutoff} == {0.0, 1.0}
        for pc in pooled.per_cutoff:
            assert pc.estimate is not None
            assert pc.estimate.tau_hat == pytest.approx(0.8, abs=0.1)
            # each cutoff's estimate is the sharp fit of its own units
            # around their own cutoff
            mine = c == pc.cutoff
            own = sharp_estimate(RdSample(score=x[mine], outcome=y[mine],
                                          cutoff=pc.cutoff), h_below=0.5)
            assert pc.estimate == own
        assert pooled.pooled.tau_hat == pytest.approx(0.8, abs=0.05)
        assert pooled.pooled == sharp_estimate(s, h_below=0.5)

    def test_unsupported_cutoff_flagged_not_fatal(self):
        # second cutoff has a single unit: per-cutoff fit impossible
        c = np.array([0.0] * 80 + [5.0])
        x = np.concatenate([np.linspace(-1, 1, 80), [5.2]])
        y = (x >= c) * 1.0
        s = RdSample(score=x - c, outcome=y, cutoff=0.0, unit_cutoffs=c)
        pooled = normalize_and_pool(s, h_below=0.5)
        flagged = [pc for pc in pooled.per_cutoff if pc.estimate is None]
        assert len(flagged) == 1
        assert flagged[0].cutoff == 5.0
        assert "insufficient support" in flagged[0].message


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message it raises."""
    try:
        return fn(*args, **kwargs)
    except RdError as exc:
        return type(exc), str(exc)


class TestCutoffConvention:
    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(-300, 300), ties=st.integers(1, 3),
           below=st.lists(st.integers(-90, -1), min_size=2, max_size=6),
           above=st.lists(st.integers(1, 90), min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 16))
    def test_ties_at_cutoff_are_treated_in_every_layer(self, c, ties, below,
                                                       above, seed):
        # cutoff and scores on a 0.01 grid, with units exactly at the
        # cutoff: the fits' side split, the local-randomization counts
        # and the plot's above-side bins all count them as treated
        offsets = np.array([*below, *[0] * ties, *above])
        s = make_sample((c + offsets) / 100,
                        np.random.default_rng(seed).normal(0, 1, offsets.size),
                        cutoff=c / 100)
        treated = offsets >= 0
        n, n_plus = offsets.size, int(treated.sum())
        assert np.count_nonzero(s.score == s.cutoff) == ties
        # a uniform kernel past every score gives each unit weight
        est = sharp_estimate(s, p=0, kernel="uniform", h_below=2.0)
        assert (est.n_eff_below, est.n_eff_above) == (n - n_plus, n_plus)
        win = make_window(s, 1.0)
        assert (win.n_w, win.n_plus, win.n_minus) == (n, n_plus, n - n_plus)
        assert locrand._window_arrays(s, win)[1].sum() == n_plus
        assert diff_in_means(s, win).ybar_plus == s.outcome[treated].mean()
        assert fisher_pvalue(s, win).total == comb(n, n_plus)
        # the bins do not depend on the curve's order; order 0 also fits
        # a side whose scores are all tied
        plot = build_rdplot(s, bins_per_side=2, poly_order=0)
        assert sum(b.count for b in plot.bins_above) == n_plus
        assert min(b.lower for b in plot.bins_above if b.count) == s.cutoff

    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(-50, 50, allow_nan=False, width=64),
           seed=st.integers(0, 2 ** 32 - 1), n=st.integers(30, 200),
           h=st.floats(0.2, 1.5))
    def test_constant_cutoff_column_is_scalar_cutoff(self, c, seed, n, h):
        rng = np.random.default_rng(seed)
        x = c + rng.uniform(-1, 1, n)
        y = 0.5 * (x - c) + (x >= c) * 0.7 + rng.normal(0, 0.2, n)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(pathlib.Path(tmp) / "d.csv", ["x", "y", "c"],
                             zip(x, y, np.full(n, c)))
            labelled = ingest_csv(path, {"score": "x", "outcome": "y",
                                         "cutoff": "c"})
            scalar = ingest_csv(path, {"score": "x", "outcome": "y"},
                                cutoff=c)
        for fn in (sharp_estimate, normalize_and_pool):
            assert _outcome(fn, labelled, h_below=h) == \
                _outcome(fn, scalar, h_below=h)
        pooled = _outcome(normalize_and_pool, scalar, h_below=h)
        if isinstance(pooled, PooledEstimate):
            # one cutoff: its per-cutoff estimate is the pooled one
            (only,) = pooled.per_cutoff
            assert only.cutoff == c and only.n == n
            assert only.estimate == pooled.pooled
