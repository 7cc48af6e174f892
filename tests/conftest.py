import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from rdtoolkit.sample import RdSample

ROOT = pathlib.Path(__file__).resolve().parents[1]
# seconds a child interpreter may run; the slowest tier-1 child takes
# about 1 s, so one that reaches this has hung
CHILD_TIMEOUT = 60


def run_child(args, cwd=None):
    """Run ``python *args`` in a fresh interpreter with the package source
    first on its path, and return the finished process, its output as
    text.  A child still running after ``CHILD_TIMEOUT`` seconds is
    killed and raises ``subprocess.TimeoutExpired`` in its own test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)


def error_of(code, out, err, kind):
    """Check the failure contract on a call that exited ``code`` with
    streams ``out`` and ``err``: the exit code of ``kind``; nothing on
    stdout; no traceback; and exactly one canonical JSON error of
    ``kind`` on stderr.  Return that error object."""
    assert (code, out) == ({"usage": 1, "data": 2, "estimation": 3}[kind], "")
    assert "Traceback" not in err
    doc = json.loads(err)
    assert err == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert list(doc) == ["error"]
    assert sorted(doc["error"]) == ["kind", "message", "type"]
    assert doc["error"]["kind"] == kind
    return doc["error"]


@pytest.fixture(autouse=True)
def parse_cache(tmp_path, monkeypatch):
    """Each test's own, initially empty, CSV parse cache directory, so that
    no test reads an entry stored by another test or an earlier run."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "rd-toolkit"


def write_csv(path, header, rows, delimiter=","):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def multi_cutoff_rows(n=4000, seed=5):
    """Columns (x, y, c) of multi-cutoff data: cutoffs 10, 20 and 30,
    raw scores with X - C ~ U(-1, 1), and a jump of 0.4."""
    rng = np.random.default_rng(seed)
    c = rng.choice([10.0, 20.0, 30.0], n)
    xc = rng.uniform(-1, 1, n)
    y = 0.5 * xc + 0.4 * (xc >= 0) + rng.normal(0, 0.3, n)
    return c + xc, y, c


def make_sample(x, y, cutoff=0.0, received=None, covariates=None):
    return RdSample(score=np.asarray(x, dtype=float),
                    outcome=np.asarray(y, dtype=float),
                    cutoff=cutoff,
                    received=None if received is None
                    else np.asarray(received),
                    covariates=covariates or {})


@pytest.fixture
def step_sample():
    # Noiseless unit step at 0: y = 1[x >= 0], dense symmetric grid.
    x = np.linspace(-1, 1, 81)
    y = (x >= 0).astype(float)
    return make_sample(x, y)


@pytest.fixture
def noisy_sample():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 500)
    y = 0.5 * x + (x >= 0) * 1.0 + rng.normal(0, 0.3, 500)
    cov = {"age": rng.normal(0, 1, 500), "income": rng.normal(0, 1, 500)}
    return make_sample(x, y, received=(x >= 0).astype(int), covariates=cov)
