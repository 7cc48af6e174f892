"""Release gate: the toolkit's headline guarantees, checked end to end.

Each test prints exactly one PASS/FAIL line on the real terminal
(bypassing pytest capture), so a full run produces a ten-line
scoreboard.  Thresholds are deliberately loose enough to be stable
across platforms at the fixed seed but tight enough that a regression
in any estimator, selector, or randomization engine trips them.

Lines 1, 5 and 6 run the published studies under ``scripts/`` (the
coverage experiment, the bandwidth-oracle study and the window-selector
study) through their own ``run``, at the configuration each line pins,
so the scoreboard gates the numbers those studies report.
"""

from fractions import Fraction
from math import fsum

import mpmath as mp
import numpy as np
import pytest

from rdtoolkit.bandwidth import ce_factor, select_mse_bandwidth
from rdtoolkit.cli import main
from rdtoolkit.continuity import (
    fuzzy_estimate,
    kink_estimate,
    per_cutoff_estimates,
    sharp_estimate,
)
from rdtoolkit.dgps import curved_benchmark, replication_sample
from rdtoolkit.locrand import fisher_pvalue, make_window
from rdtoolkit.parallel import run_indexed
from rdtoolkit.powersim import mde, power_at
from rdtoolkit.rng import substream
from rdtoolkit.sample import RdSample
from rdtoolkit.validation import (
    binomial_test,
    covariate_balance,
    density_test,
    placebo_cutoffs,
)

import bandwidth_oracle_study
import coverage_experiment
import window_selector_study
from conftest import make_sample, write_csv

SEED = 20260814
KERNELS = ("triangular", "uniform", "epanechnikov")


def scoreboard(capsys, index, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[{index:2d}/10] {status} {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def test_01_coverage_repair(capsys):
    # Conventional intervals on the curved benchmark under-cover at the
    # MSE bandwidth; the bias-corrected ones restore near-nominal
    # coverage on the same data.
    results = coverage_experiment.run(coverage_experiment.Config(
        n=1000, replications=2000, seed=SEED, threads=4))
    conv, rbc = results["conventional"], results["rbc"]
    ok = 0.70 <= conv.coverage <= 0.90 and rbc.coverage >= 0.92
    scoreboard(capsys, 1, "coverage repair", ok,
               f"conventional={conv.coverage:.4f} (want [0.70, 0.90]), "
               f"bias-corrected={rbc.coverage:.4f} (want >= 0.92)")


def test_02_noiseless_exactness(capsys):
    x = np.linspace(-1.0, 1.0, 161)
    step = make_sample(x, (x >= 0) * 1.0)
    line = make_sample(x, 0.3 - 0.7 * x)
    kinked = make_sample(x, 0.5 + 0.2 * x + 2.0 * np.maximum(x, 0.0))
    worst = 0.0
    cases = 0
    for kernel in KERNELS:
        for p in (1, 2):
            kw = dict(p=p, kernel=kernel, h_below=0.5)
            errors = (
                sharp_estimate(step, **kw).tau_hat - 1.0,
                sharp_estimate(line, **kw).tau_hat - 0.0,
                kink_estimate(kinked, **kw).tau_hat - 2.0,
            )
            worst = max(worst, max(abs(e) for e in errors))
            cases += 3
    scoreboard(capsys, 2, "noiseless exactness", worst <= 1e-9,
               f"max |tau error| = {worst:.2e} over {cases} fits "
               "(want <= 1e-9)")


def test_03_randomization_pvalue_oracle(capsys):
    # Monte Carlo p-values track exhaustive enumeration on every window
    # small enough to enumerate, and enumeration matches hand counting.
    rng = np.random.default_rng(2)
    worst = 0.0
    for n_minus, n_plus in [(3, 3), (5, 5), (6, 6), (8, 4), (8, 8), (9, 9)]:
        n = n_minus + n_plus
        x = np.r_[-np.linspace(0.05, 0.4, n_minus),
                  np.linspace(0.05, 0.4, n_plus)]
        y = rng.normal(0, 1, n) + 0.8 * (x >= 0)
        s = make_sample(x, y)
        w = make_window(s, 0.5)
        exact = fisher_pvalue(s, w, max_exhaustive=100000)
        assert exact.exact
        mc = fisher_pvalue(s, w, max_exhaustive=1, draws=9999, seed=SEED)
        assert not mc.exact
        worst = max(worst, abs(mc.p_value - exact.p_value))

    hand = make_sample(np.array([-0.1, 0.1, 0.2]),
                       np.array([1.0, 2.0, 4.0]))
    res = fisher_pvalue(hand, make_window(hand, 0.25), max_exhaustive=100)
    hand_ok = (res.exact and res.total == 3
               and Fraction(int(res.extreme_count), res.total)
               == Fraction(2, 3)
               and res.p_value == float(Fraction(2, 3)))
    scoreboard(capsys, 3, "randomization p-value oracle",
               worst <= 0.02 and hand_ok,
               f"max |MC - exhaustive| = {worst:.4f} (want <= 0.02); "
               f"3-unit enumeration p = {res.p_value:.6f} (want 2/3)")


def test_04_binomial_count_oracle(capsys):
    def oracle(k, n, prob):
        with mp.workdps(50):
            q = mp.mpf(prob)
            pmf = [mp.binomial(n, j) * q ** j * (1 - q) ** (n - j)
                   for j in range(n + 1)]
            lower = mp.fsum(pmf[: k + 1])
            upper = mp.fsum(pmf[k:])
            return float(min(1, 2 * min(lower, upper)))

    worst = 0.0
    checked = 0
    for n in range(1, 61):
        below = -np.linspace(0.01, 0.4, n)
        for k in range(n + 1):
            x = np.r_[below[: n - k], np.linspace(0.01, 0.4, k)]
            s = make_sample(x, np.zeros(n))
            rec = binomial_test(s, make_window(s, 0.5))
            worst = max(worst, abs(rec.p_value - oracle(k, n, 0.5)))
            checked += 1
    x10 = -np.linspace(0.01, 0.4, 10)
    tiny = binomial_test(make_sample(x10, np.zeros(10)),
                         make_window(make_sample(x10, np.zeros(10)), 0.5))
    hand_ok = abs(tiny.p_value - 0.0019531) <= 1e-7
    scoreboard(capsys, 4, "binomial count oracle",
               worst <= 1e-12 and hand_ok,
               f"max |toolkit - oracle| = {worst:.1e} over {checked} "
               f"(k, n<=60) pairs (want <= 1e-12); "
               f"p(k=0, n=10) = {tiny.p_value:.7f}")


def test_05_bandwidth_selector_vs_oracle(capsys):
    # The plug-in bandwidth must land close enough to the grid-search
    # optimum that its Monte Carlo MSE is within 25% of the oracle
    # minimum, on the same 500 common-random-number replications.
    oracle, mse_plugin, _ = bandwidth_oracle_study.run(
        bandwidth_oracle_study.Config(
            n=1000, replications=500, seed=SEED, grid_lo=0.08, grid_hi=1.0,
            grid_points=50, p=1, kernel="triangular", threads=4))
    ratio = mse_plugin / float(oracle.mse.min())
    interior = oracle.grid[1] < oracle.best_h < oracle.grid[-2]

    sel = select_mse_bandwidth(
        replication_sample(curved_benchmark(), 1000, SEED, 0), p=1,
        kernel="triangular")
    ce_exact = sel.h_ce == sel.h_mse * ce_factor(sel.n_used, 1)

    scoreboard(capsys, 5, "bandwidth selector vs oracle",
               ratio <= 1.25 and interior and ce_exact,
               f"MSE(plug-in)/MSE(oracle) = {ratio:.3f} (want <= 1.25, "
               f"oracle h* = {oracle.best_h:.3f} interior); "
               f"h_ce/h_mse factor exact: {ce_exact}")


def test_06_window_selector_recovery(capsys):
    # Covariates are balanced inside half-width 0.5 and drift strongly
    # outside it; the selector should usually stop in [0.25, 1.0].
    widths, _ = window_selector_study.run(window_selector_study.Config(
        n=500, replications=500, seed=SEED,
        candidates=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0), threads=4))
    rate = sum(c for w, c in widths.items() if 0.25 <= w <= 1.0) / 500
    scoreboard(capsys, 6, "window selector recovery", rate >= 0.80,
               f"selected half-width in [0.25, 1.0] in {rate:.1%} of 500 "
               "replications (want >= 80%)")


def test_07_identity_suite(capsys):
    rng = np.random.default_rng(31)
    x = rng.uniform(-1, 1, 600)
    y = 0.4 * x + 1.2 * (x >= 0) + rng.normal(0, 0.3, 600)
    s = make_sample(x, y, received=(x >= 0).astype(np.int8))
    kw = dict(p=1, kernel="triangular", h_below=0.4)

    sharp = sharp_estimate(s, **kw)
    fuzzy = fuzzy_estimate(s, **kw)
    fuzzy_ok = abs(fuzzy.tau_hat - sharp.tau_hat) <= 1e-12

    shifted = make_sample(x + 10.0, y, cutoff=10.0)
    shift_ok = abs(sharp_estimate(shifted, **kw).tau_hat
                   - sharp.tau_hat) <= 1e-9

    scaled = make_sample(x, 2.5 * y - 1.0)
    affine_ok = (sharp_estimate(scaled, **kw).tau_hat
                 == pytest.approx(2.5 * sharp.tau_hat, rel=1e-9))

    # the pooled design's one cutoff group is the sharp estimate
    (pooled,) = per_cutoff_estimates(s, sharp)
    pool_ok = pooled.estimate == sharp

    ok = fuzzy_ok and shift_ok and affine_ok and pool_ok
    scoreboard(capsys, 7, "identity suite", ok,
               f"fuzzy(perfect)=sharp: {fuzzy_ok}; score translation: "
               f"{shift_ok}; outcome affine: {affine_ok}; "
               f"single-cutoff pooling=sharp: {pool_ok}")


def test_08_validation_battery_size(capsys):
    # Under a smooth-null design every falsification test is a size
    # check: rejection near (never far above) its nominal 5% level.
    def one(r):
        rng = substream(SEED, 800, r)
        x = rng.uniform(-1, 1, 500)
        z = 0.5 * x + rng.standard_normal(500)
        y = 0.4 * x + rng.standard_normal(500)
        s = RdSample(score=x, outcome=y, cutoff=0.0, covariates={"z": z})
        balance = covariate_balance(s, "z", method="continuity", h=0.5)
        density = density_test(s, h=0.5)
        placebo = placebo_cutoffs(s, [-0.5, 0.5], h=0.25)
        binom = binomial_test(s, make_window(s, 0.25))
        return (1.0 if balance.p_value < 0.05 else 0.0,
                1.0 if density.p_value < 0.05 else 0.0,
                sum(1.0 for rec in placebo if rec.p_value < 0.05) / 2.0,
                1.0 if binom.p_value < 0.05 else 0.0)

    rows = run_indexed(one, 1000, threads=4)
    size_bal = fsum(r[0] for r in rows) / 1000
    size_den = fsum(r[1] for r in rows) / 1000
    size_pla = fsum(r[2] for r in rows) / 1000
    size_bin = fsum(r[3] for r in rows) / 1000
    ok = (0.02 <= size_bal <= 0.09 and 0.02 <= size_den <= 0.09
          and 0.02 <= size_pla <= 0.09 and size_bin <= 0.05)
    scoreboard(capsys, 8, "validation battery size", ok,
               f"balance={size_bal:.3f}, density={size_den:.3f}, "
               f"placebo={size_pla:.3f} (want [0.02, 0.09]); "
               f"binomial={size_bin:.3f} (want <= 0.05)")


def test_09_report_determinism(capsys, tmp_path):
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 400)
    y = 0.5 * x + 0.8 * (x >= 0) + rng.normal(0, 0.4, 400)
    data = tmp_path / "data.csv"
    write_csv(data, ["x", "y"], zip(x, y))

    def bytes_of(argv, out_name):
        out = tmp_path / out_name
        code = main(argv + ["--output", str(out)])
        assert code == 0
        return out.read_bytes()

    est = ["estimate", "--input", str(data), "--score-col", "x",
           "--outcome-col", "y"]
    loc = ["locrand", "--input", str(data), "--score-col", "x",
           "--outcome-col", "y", "--window", "0.6", "--draws", "2999",
           "--seed", "11"]
    sim = ["simulate", "--dgp", "step", "--n", "150", "--replications",
           "500", "--h", "0.5", "--seed", "3"]
    est_ok = bytes_of(est, "e1.json") == bytes_of(est, "e2.json")
    loc_ok = bytes_of(loc, "l1.json") == bytes_of(loc, "l2.json")
    sim_ok = (bytes_of(sim + ["--threads", "1"], "s1.json")
              == bytes_of(sim + ["--threads", "4"], "s2.json"))
    capsys.readouterr()
    scoreboard(capsys, 9, "report determinism",
               est_ok and loc_ok and sim_ok,
               f"repeated runs byte-identical: estimate={est_ok}, "
               f"locrand={loc_ok}; 1 vs 4 workers: simulate={sim_ok}")


def test_10_power_arithmetic(capsys):
    m = mde(1.0, alpha=0.05, target_power=0.80)
    err_m = abs(m - 2.801585)
    err_p = abs(power_at(m, 1.0, 0.05) - 0.80)
    scoreboard(capsys, 10, "power arithmetic",
               err_m <= 1e-5 and err_p <= 1e-9,
               f"mde(1, 0.05, 0.80) = {m:.9f} (|delta| = {err_m:.1e}, "
               f"want <= 1e-5); |power(mde) - 0.80| = {err_p:.1e} "
               "(want <= 1e-9)")
