"""Each script under ``scripts/`` runs end to end at a small size.

A script runs in a fresh interpreter with the package source on the
path, as a user runs it from a checkout, so a broken import or a
renamed library call fails here rather than in a study.
"""

import csv
import json

import pytest

from rdtoolkit.sample import ingest_csv

from conftest import ROOT, run_child


def _run(script, *args, cwd):
    proc = run_child([str(ROOT / "scripts" / script), *map(str, args)],
                     cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _report(path):
    doc = json.loads(path.read_text())
    assert doc["result"]
    return doc


@pytest.mark.parametrize("script, args", [
    ("coverage_experiment.py", ["--replications", 500, "--n", 300]),
    ("window_selector_study.py", ["--replications", 20, "--n", 200]),
])
def test_study_writes_its_report(tmp_path, script, args):
    out = tmp_path / "report.json"
    _run(script, *args, "--out", out, cwd=tmp_path)
    assert _report(out)["config"]["replications"] == args[1]


def test_bandwidth_oracle_study_writes_report_and_curve(tmp_path):
    out, curve = tmp_path / "report.json", tmp_path / "curve.csv"
    _run("bandwidth_oracle_study.py", "--replications", 100, "--n", 300,
         "--grid-points", 5, "--out", out, "--curve", curve, cwd=tmp_path)
    assert _report(out)["config"]["grid_points"] == 5
    with open(curve, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(float(row["h"]) > 0 for row in rows)


def test_make_demo_data_writes_a_csv_ingest_reads(tmp_path):
    path = tmp_path / "demo.csv"
    _run("make_demo_data.py", path, "--n", 200, cwd=tmp_path)
    s = ingest_csv(path, {"score": "score", "outcome": "outcome",
                          "treatment": "received",
                          "covariates": ["age", "income"]})
    assert s.n == 200 and 0 < s.received.sum() < 200
