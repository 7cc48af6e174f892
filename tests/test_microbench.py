"""Microbenchmarks: CSV ingest (a parse and a parse-cache hit), RD-plot
construction, a tie-heavy plot side's row order, the side-fit kernel,
robust bias-corrected inference, the `estimate` path (bandwidth, then
inference, on a fresh sample) and the binomial count test at 1e5 rows;
permutation ensembles (fixed-margins Monte Carlo, alone and in the
covariate session's heaviest shape, exhaustive enumeration and Bernoulli
draws), window selection by covariate balance, Fisher test
inversion alone and with its p-value, and the battery's permutation
balance checks; one coverage replication and its draw and bandwidth
stages at n = 1,000; and a fresh interpreter that imports the parser
shell, the start of every CLI call.

Tier-1 runs each body once: ``--benchmark-disable`` is set in
``pyproject.toml``.  For timings, run

    PYTHONPATH=src python -m pytest tests/test_microbench.py --benchmark-enable
"""

import itertools

import numpy as np
import pytest

from rdtoolkit.bandwidth import select_mse_bandwidth
from rdtoolkit.continuity import rbc_inference
from rdtoolkit.dgps import curved_benchmark, simulate_sample
from rdtoolkit.locrand import (
    MAX_EXHAUSTIVE,
    Bernoulli,
    FixedMargins,
    _build_ensemble,
    _fisher_pvalue_and_ci,
    fisher_ci,
    fisher_pvalue,
    make_window,
    select_window,
)
from rdtoolkit.lpoly import fit_window, side_window
from rdtoolkit.plotting import _sorted_side, build_rdplot
from rdtoolkit.sample import RdSample, ingest_csv
from rdtoolkit.validation import _locrand_balance, binomial_test

from conftest import run_child

ROWS = 100_000
COLUMN_MAP = {"score": "score", "outcome": "outcome",
              "treatment": "received", "covariates": ["age"]}


def _draw(rows):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, rows)
    y = 0.5 * x + 0.3 * (x >= 0) + rng.normal(0, 0.1, rows)
    return x, y, (x >= 0).astype(int), rng.normal(40, 3, rows)


@pytest.fixture(scope="module")
def csv_paths(tmp_path_factory):
    """An all-numeric file, read by numpy, and the same file with one
    missing covariate cell, which sends it to the row parser."""
    base = tmp_path_factory.mktemp("microbench")
    numeric = base / "numeric.csv"
    np.savetxt(numeric, np.column_stack(_draw(ROWS)),
               fmt=["%.6f", "%.6f", "%d", "%.4f"], delimiter=",",
               header="score,outcome,received,age", comments="")
    fallback = base / "fallback.csv"
    fallback.write_text(numeric.read_text() + "0.5,1.0,1,NA\n")
    return {"numeric": str(numeric), "fallback": str(fallback)}


@pytest.mark.parametrize("kind", ["numeric", "fallback"])
def test_ingest_csv(benchmark, csv_paths, kind, tmp_path, monkeypatch):
    # a parse: each round starts from an empty cache
    rounds = itertools.count()

    def empty_cache():
        monkeypatch.setenv("XDG_CACHE_HOME",
                           str(tmp_path / f"round{next(rounds)}"))
        return (csv_paths[kind], COLUMN_MAP), {}

    sample = benchmark.pedantic(ingest_csv, setup=empty_cache, rounds=5)
    assert sample.n == ROWS + (kind == "fallback")
    assert np.isnan(sample.covariates["age"][-1]) == (kind == "fallback")


@pytest.mark.parametrize("kind", ["numeric", "fallback"])
def test_ingest_csv_cached(benchmark, csv_paths, kind):
    # a hit: the digest pass and a load of the stored columns
    parsed = ingest_csv(csv_paths[kind], COLUMN_MAP)
    sample = benchmark(ingest_csv, csv_paths[kind], COLUMN_MAP)
    assert sample.score.tobytes() == parsed.score.tobytes()
    assert sample.covariates["age"].tobytes() == \
        parsed.covariates["age"].tobytes()


def test_build_rdplot(benchmark):
    # six decimals, as in the CLI's CSVs, so scores and outcomes tie
    x, y, _, _ = _draw(ROWS)
    sample = RdSample(score=np.round(x, 6), outcome=np.round(y, 6),
                      cutoff=0.0)
    plot = benchmark(build_rdplot, sample)
    assert sum(b.count for b in (*plot.bins_below, *plot.bins_above)) == ROWS


def test_sorted_side_ties(benchmark):
    # one plot side on a grid of 10,001 scores: every row is in a run of
    # tied scores, about ten rows long, and the outcomes tie too, some
    # at -0.0
    rng = np.random.default_rng(0)
    x = np.round(rng.uniform(0, 1, ROWS), 4)
    y = np.round(rng.normal(0, 1, ROWS), 2)
    xs, ys = benchmark(_sorted_side, x, y)
    assert xs.tobytes() == np.sort(x).tobytes()
    assert ys.tobytes() == y[np.lexsort((~np.signbit(y), y, x))].tobytes()


def _side_fit(xc, y, h):
    """The side window of scores already centred at the cutoff, then
    its local linear fit."""
    return fit_window(side_window(xc, y, "triangular", h), 1)


@pytest.mark.parametrize("h, n_eff", [(0.01, 1_000), (2.0, ROWS)])
def test_side_fit(benchmark, h, n_eff):
    # one side of ROWS scores on [0, 1); h sets how many carry weight
    x, y, _, _ = _draw(ROWS)
    fit = benchmark(_side_fit, np.abs(x), y, h)
    assert fit.n_eff == pytest.approx(n_eff, rel=0.1)


def test_rbc_inference(benchmark):
    x, y, _, _ = _draw(ROWS)
    sample = RdSample(score=x, outcome=y, cutoff=0.0)
    rbc = benchmark(rbc_inference, sample, h_below=0.5)
    assert rbc.ci_rbc[0] < 0.3 < rbc.ci_rbc[1]


def test_estimate_path(benchmark):
    # what `estimate` runs on its sample: the plug-in bandwidth, then
    # inference at it; each round's sample is fresh, so it splits once
    x, y, _, _ = _draw(ROWS)

    def fresh_sample():
        return (RdSample(score=x, outcome=y, cutoff=0.0),), {}

    def estimate(sample):
        h = select_mse_bandwidth(sample).h_mse
        return rbc_inference(sample, h_below=h)

    rbc = benchmark.pedantic(estimate, setup=fresh_sample, rounds=20)
    assert rbc.ci_rbc[0] < 0.3 < rbc.ci_rbc[1]


def test_fisher_pvalue_monte_carlo(benchmark):
    # every one of 2,000 units is in the window: far past enumeration
    x, y, _, _ = _draw(2_000)
    sample = RdSample(score=x, outcome=y, cutoff=0.0)
    window = make_window(sample, 1.0)
    res = benchmark(fisher_pvalue, sample, window, draws=999, seed=1)
    assert window.n_w == 2_000 and not res.exact and res.draws == 999
    assert res.p_value == 1 / 1000  # the 0.3 jump is never matched


def test_fixed_margins_ensemble(benchmark):
    # the heaviest ensemble of the covariate session: two responses of
    # 796 units share one stream of 9,999 fixed-margins draws
    rng = np.random.default_rng(0)
    t = (rng.uniform(size=796) < 0.5).astype(np.int8)
    ys = [rng.normal(40, 3, 796), rng.normal(0, 1, 796)]
    agg, _, exact, total = benchmark(_build_ensemble, ys, t, FixedMargins(),
                                     MAX_EXHAUSTIVE, 9_999, 1)
    assert not exact and total == 9_999 and agg.shape == (4, 10_000)


def test_fisher_pvalue_exhaustive(benchmark):
    # 9 treated of 18 units: all C(18, 9) = 48,620 assignments enumerated
    x, y, _, _ = _draw(18)
    x = np.r_[-np.abs(x[:9]), np.abs(x[9:])]
    sample = RdSample(score=x, outcome=y, cutoff=0.0)
    res = benchmark(fisher_pvalue, sample, make_window(sample, 1.0))
    assert res.exact and res.total == 48_620


def test_fisher_pvalue_bernoulli(benchmark):
    # coin-flip assignments of 1,000 units: far past enumeration
    x, y, _, _ = _draw(1_000)
    sample = RdSample(score=x, outcome=y, cutoff=0.0)
    res = benchmark(fisher_pvalue, sample, make_window(sample, 1.0),
                    model=Bernoulli(0.5), draws=999, seed=1)
    assert not res.exact and res.draws == 999 and 0 < res.p_value <= 1


def test_select_window(benchmark):
    # five candidates on 5,000 units, one balance test of 999 draws each
    x, y, _, age = _draw(5_000)
    sample = RdSample(score=x, outcome=y, cutoff=0.0,
                      covariates={"age": age})
    sel = benchmark(select_window, sample,
                    candidates=[0.01, 0.02, 0.03, 0.05, 0.08], seed=1)
    assert len(sel.trace) == 5 and sel.window.n_w > 0


def test_fisher_ci(benchmark):
    # 201 sharp nulls over one ensemble of 999 draws of 2,000 units
    x, y, _, _ = _draw(2_000)
    sample = RdSample(score=x, outcome=y, cutoff=0.0)
    ci = benchmark(fisher_ci, sample, make_window(sample, 1.0), draws=999,
                   seed=1)
    assert ci.grid.size == 201 and not ci.empty


def test_run_battery_locrand_balance(benchmark):
    # the battery's permutation balance checks: two covariates with the
    # same units in a count window of ~800 units share one ensemble
    x, y, _, age = _draw(20_000)
    sample = RdSample(score=x, outcome=y, cutoff=0.0,
                      covariates={"age": age, "income": np.exp(age / 10)})
    window = make_window(sample, 0.04)
    records = benchmark(lambda: list(_locrand_balance(
        sample, ["age", "income"], window, 999, 1)))
    assert 700 < window.n_w < 900
    assert [r.n_used for r in records] == [window.n_w] * 2


def test_fisher_pvalue_and_ci(benchmark):
    # the p-value and 201 sharp nulls from one ensemble of 999 draws
    x, y, _, _ = _draw(2_000)
    sample = RdSample(score=x, outcome=y, cutoff=0.0)
    fisher, ci = benchmark(_fisher_pvalue_and_ci, sample,
                           make_window(sample, 1.0), FixedMargins(),
                           "diff_means", None, 0.05, MAX_EXHAUSTIVE, 999, 1)
    assert fisher.p_value == 1 / 1000 and ci.grid.size == 201


def test_binomial_test(benchmark):
    # the count test on a window of ROWS units, 200 treated past half
    x = np.r_[-np.linspace(0.01, 0.4, ROWS // 2 - 200),
              np.linspace(0.01, 0.4, ROWS // 2 + 200)]
    sample = RdSample(score=x, outcome=np.zeros_like(x), cutoff=0.0)
    rec = benchmark(binomial_test, sample, make_window(sample, 0.5))
    assert rec.n == ROWS and 0.2 < rec.p_value < 0.21


def test_simulate_sample(benchmark):
    sample = benchmark(simulate_sample, curved_benchmark(), 1_000, seed=7)
    assert sample.n == 1_000


def test_select_mse_bandwidth(benchmark):
    sample = simulate_sample(curved_benchmark(), 1_000, seed=7)
    sel = benchmark(select_mse_bandwidth, sample)
    assert 0 < sel.h_mse < 2 and not sel.degenerate


def test_coverage_replication(benchmark):
    # the body of one simulate_coverage replication with rbc inference
    dgp = curved_benchmark()

    def replication():
        sample = simulate_sample(dgp, 1_000, seed=7)
        h = select_mse_bandwidth(sample).h_mse
        return rbc_inference(sample, h_below=h)

    rbc = benchmark(replication)
    assert rbc.base.n_eff_below > 0 and rbc.ci_rbc[0] < rbc.ci_rbc[1]


def test_parser_shell_import(benchmark):
    # all that --help, --version, a usage error and `power` load before
    # they run; the interpreter's own start is timed with it
    proc = benchmark(run_child, ["-c", "import rdtoolkit.cli"])
    assert proc.returncode == 0, proc.stderr
