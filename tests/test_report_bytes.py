"""The bytes of the benchmark's own reports are pinned.

Each call runs in-process on the benchmark's seed-1 2e4-row CSV, in a
working directory with fixed relative file names, so the echoed
``config.input`` and ``config.svg`` read the same on every run.  A
change that moves one of these digests changes what the toolkit
reports.
"""

import hashlib

import pytest

from inputs import write_csv
from rdtoolkit.cli import main

DATA = ["--input", "session.csv", "--score-col", "score",
        "--outcome-col", "outcome"]
COVARIATES = ["--covariate", "age", "--covariate", "income"]


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("session")
    digest = write_csv(work / "session.csv", 20_000, 1)
    assert digest.startswith("29c739b53b6eb2b0")
    return work


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# sha256 of each report, and of the SVG `plot` draws, recorded before the
# global fit refused an overflowing design
@pytest.mark.parametrize("argv, report, svg", [
    (["locrand", *DATA, *COVARIATES, "--candidates", "0.01", "0.02", "0.03",
      "0.05", "0.08", "--fisher-ci", "--seed", "1"],
     "da492cb66ae4cf04aba658b1c067345c25f92352004ecb8dd1e61e11d0be2cb6",
     None),
    (["validate", *DATA, *COVARIATES, "--donut", "0", "0.02", "0.04",
      "--count-halfwidth", "0.04", "--seed", "1"],
     "f7ceb4ed29eb0db5d64bd5b79bd04fabb7916dee838e5f66fade94694a4913e7",
     None),
    (["estimate", *DATA, "--treatment-col", "received", "--design", "fuzzy"],
     "1418eaa3e53461431f0e212ceecdcbd4ae8d885b776a0198289220138179d70b",
     None),
    (["estimate", *DATA],
     "ab5215284c861f0ea47b445ecd58857edd443e8e33506f39ea97516f05cab9bc",
     None),
    (["plot", *DATA, "--svg", "plot.svg"],
     "2d5d24c0a968c16832f1c129de8d4cb263eafae0df2d4d63ee8ecdcf4f2a04ad",
     "35dab17d1c34782b3ece3532b6e41decfe9fcd75cd69ddd8bac6d33f5b638257"),
], ids=["locrand", "validate", "estimate-fuzzy", "estimate", "plot"])
def test_benchmark_report_bytes_pinned(argv, report, svg, session_dir,
                                       monkeypatch, capsys):
    monkeypatch.chdir(session_dir)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha256(out.encode()) == report
    if svg is not None:
        assert _sha256((session_dir / "plot.svg").read_bytes()) == svg
