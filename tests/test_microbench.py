"""Microbenchmarks of CSV ingest and RD-plot construction at 1e5 rows.

Tier-1 runs each body once: ``--benchmark-disable`` is set in
``pyproject.toml``.  For timings, run

    PYTHONPATH=src python -m pytest tests/test_microbench.py --benchmark-enable
"""

import numpy as np
import pytest

from rdtoolkit.plotting import build_rdplot
from rdtoolkit.sample import RdSample, ingest_csv

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
def test_ingest_csv(benchmark, csv_paths, kind):
    sample = benchmark(ingest_csv, csv_paths[kind], COLUMN_MAP)
    assert sample.n == ROWS + (kind == "fallback")
    assert np.isnan(sample.covariates["age"][-1]) == (kind == "fallback")


def test_build_rdplot(benchmark):
    x, y, _, _ = _draw(ROWS)
    plot = benchmark(build_rdplot, RdSample(score=x, outcome=y, cutoff=0.0))
    assert sum(b.count for b in (*plot.bins_below, *plot.bins_above)) == ROWS
