import csv
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rdtoolkit.cli import main
from rdtoolkit.powersim import mde
from rdtoolkit.reports import SCHEMA, sha256_file

from conftest import write_csv


@pytest.fixture()
def step_csv(tmp_path):
    x = np.linspace(-1, 1, 81)
    y = 2.0 + 0.5 * x + (x >= 0) * 1.0
    path = tmp_path / "step.csv"
    write_csv(path, ["x", "y"], zip(x, y))
    return path


@pytest.fixture()
def locrand_csv(tmp_path):
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.5, 1.5, 300)
    z = np.where(np.abs(x) < 0.5, 0.0, 4.0 * (x - np.sign(x) * 0.5))
    z = z + 0.25 * rng.standard_normal(300)
    y = 0.4 * (x >= 0) + rng.standard_normal(300)
    path = tmp_path / "loc.csv"
    write_csv(path, ["x", "y", "z"], zip(x, y, z))
    return path


def _data_error_in_subprocess(tmp_path, text):
    """Run `estimate` on a CSV in a fresh interpreter; check the data-error
    contract and return the error message."""
    path = tmp_path / "in.csv"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "rdtoolkit", "estimate", "--input",
         str(path), "--score-col", "score", "--outcome-col", "outcome",
         "--h", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stderr)  # exactly one JSON document
    assert doc["error"]["kind"] == "data"
    return doc["error"]["message"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_sharp_step_recovered(self, step_csv, capsys):
        code, out, err = run_cli(
            ["estimate", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", "--h", "0.5"], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["schema"] == SCHEMA
        assert report["kind"] == "estimate"
        assert report["input_digest"] == sha256_file(step_csv)
        est = report["result"]["estimate"]
        assert est["tau_hat"] == pytest.approx(1.0, abs=1e-9)
        rbc = report["result"]["rbc"]
        assert rbc["tau_bc"] == pytest.approx(1.0, abs=1e-9)
        assert rbc["ci_rbc"][0] <= 1.0 + 1e-9
        assert rbc["ci_rbc"][1] >= 1.0 - 1e-9
        assert report["config"]["h_requested"] == 0.5
        assert "bandwidth_selection" not in report["result"]

    def test_auto_bandwidth_echoed(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 600)
        y = 0.3 * x + (x >= 0) * 0.8 + rng.normal(0, 0.4, 600)
        path = tmp_path / "auto.csv"
        write_csv(path, ["x", "y"], zip(x, y))
        code, out, err = run_cli(
            ["estimate", "--input", str(path), "--score-col", "x",
             "--outcome-col", "y"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["h_requested"] == "auto"
        sel = report["result"]["bandwidth_selection"]
        assert report["config"]["h_below"] == sel["h_mse"]
        assert sel["h_mse"] > 0

    def test_output_file_and_byte_determinism(self, step_csv, tmp_path,
                                              capsys):
        argv = ["estimate", "--input", str(step_csv), "--score-col", "x",
                "--outcome-col", "y", "--h", "0.4"]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(argv + ["--output", str(out_a)]) == 0
        assert main(argv + ["--output", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes().endswith(b"\n")

    def test_missing_column_exits_2(self, step_csv, capsys):
        code, out, err = run_cli(
            ["estimate", "--input", str(step_csv), "--score-col", "runvar",
             "--outcome-col", "y", "--h", "0.5"], capsys)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"]["kind"] == "data"
        assert "runvar" in doc["error"]["message"]

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(
            ["estimate", "--input", "/nonexistent.csv", "--score-col", "x",
             "--outcome-col", "y"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "data"

    def test_short_row_exits_2(self, tmp_path):
        message = _data_error_in_subprocess(
            tmp_path, "score,outcome\n0.1,1\n-0.2\n")
        assert "row 1" in message

    def test_header_only_exits_2(self, tmp_path):
        # no warning text may precede the one JSON error on stderr
        message = _data_error_in_subprocess(tmp_path, "score,outcome\n")
        assert "at least one unit" in message

    def test_bad_flag_exits_1(self, step_csv, capsys):
        code, out, err = run_cli(
            ["estimate", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", "--kernel", "gaussian"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["kind"] == "usage"

    def test_starved_fit_exits_3(self, step_csv, capsys):
        code, _, err = run_cli(
            ["estimate", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", "--h", "1e-9"], capsys)
        assert code == 3
        assert json.loads(err)["error"]["kind"] == "estimation"

    def test_pooled_design(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 3, 800)
        c = np.where(rng.random(800) < 0.5, 0.0, 2.0)
        y = 0.2 * (x - c) + (x >= c) * 1.5 + rng.normal(0, 0.3, 800)
        path = tmp_path / "multi.csv"
        write_csv(path, ["x", "y", "c"], zip(x, y, c))
        code, out, _ = run_cli(
            ["estimate", "--input", str(path), "--score-col", "x",
             "--outcome-col", "y", "--cutoff-col", "c", "--design",
             "pooled", "--h", "0.6"], capsys)
        assert code == 0
        report = json.loads(out)
        per = report["result"]["per_cutoff"]
        assert len(per) == 2
        assert report["result"]["estimate"]["tau_hat"] == pytest.approx(
            1.5, abs=0.2)


class TestLocrand:
    def test_fixed_window_exact_enumeration(self, tmp_path, capsys):
        x = np.array([-0.3, -0.2, -0.1, 0.1, 0.2, 0.3, -0.8, 0.9])
        y = np.array([1.0, 2.0, 1.5, 3.0, 2.5, 3.5, 0.0, 9.0])
        path = tmp_path / "small.csv"
        write_csv(path, ["x", "y"], zip(x, y))
        code, out, _ = run_cli(
            ["locrand", "--input", str(path), "--score-col", "x",
             "--outcome-col", "y", "--window", "0.5", "--fisher-ci"],
            capsys)
        assert code == 0
        report = json.loads(out)
        res = report["result"]
        assert res["window"]["lower"] == -0.5
        assert res["window"]["upper"] == 0.5
        assert res["window"]["n_plus"] == 3
        assert res["window"]["n_minus"] == 3
        assert res["fisher"]["exact"] is True
        assert res["fisher"]["total"] == 20  # C(6,3)
        assert 0 < res["fisher"]["p_value"] <= 1
        assert res["fisher_ci"] is not None
        assert res["neyman"]["ci"][0] < res["estimate"]["tau_hat"] \
            < res["neyman"]["ci"][1]
        assert report["seed"] == 0

    def test_auto_window_selection_and_trace(self, locrand_csv, tmp_path,
                                             capsys):
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            ["locrand", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--covariate", "z", "--candidates",
             "0.25", "0.5", "0.75", "1.0", "--draws", "499", "--seed", "3",
             "--table", str(trace)], capsys)
        assert code == 0
        report = json.loads(out)
        sel = report["result"]["window_selection"]
        assert sel is not None
        assert report["config"]["window_requested"] == "auto"
        assert report["config"]["w_left"] == sel["w_left"]
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["w_left"]) for r in rows] == [0.25, 0.5, 0.75, 1.0]
        assert "p_z" in rows[0]

    def test_auto_without_covariates_exits_2(self, step_csv, capsys):
        code, _, err = run_cli(
            ["locrand", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "NoCovariates"

    def test_seeded_runs_byte_identical(self, locrand_csv, tmp_path, capsys):
        argv = ["locrand", "--input", str(locrand_csv), "--score-col", "x",
                "--outcome-col", "y", "--window", "0.6", "--draws", "999",
                "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestValidate:
    def test_battery_report_sections(self, locrand_csv, capsys):
        code, out, _ = run_cli(
            ["validate", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--covariate", "z", "--h", "0.5",
             "--draws", "299"], capsys)
        assert code == 0
        report = json.loads(out)
        res = report["result"]
        assert report["kind"] == "validate"
        assert res["h_baseline"] == 0.5
        assert {"balance", "binomial", "density", "placebo_cutoffs",
                "donut", "sensitivity"} <= set(res)
        assert len(res["donut"]) == 3
        assert len(res["sensitivity"]) == 5

    def test_wide_table(self, locrand_csv, tmp_path, capsys):
        table = tmp_path / "battery.csv"
        code, out, _ = run_cli(
            ["validate", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--covariate", "z", "--h", "0.5",
             "--draws", "299", "--table", str(table)], capsys)
        assert code == 0
        report = json.loads(out)
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        tests = [r["test"] for r in rows]
        assert tests.count("balance") == 2
        assert tests.count("binomial") == 1
        assert tests.count("donut") == 3
        assert tests.count("sensitivity") == 5
        assert tests.count("placebo") == len(
            report["result"]["placebo_cutoffs"])
        by_test = {r["test"]: r for r in rows}
        assert float(by_test["binomial"]["p_value"]) == \
            report["result"]["binomial"]["p_value"]

    def test_placebo_grid_containing_cutoff_exits_2(self, locrand_csv,
                                                    capsys):
        code, _, err = run_cli(
            ["validate", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--h", "0.5", "--placebo", "0.5", "0.0"],
            capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "GridContainsTrueCutoff"


class TestPlot:
    def test_svg_and_table(self, step_csv, tmp_path, capsys):
        svg_path = tmp_path / "plot.svg"
        table_path = tmp_path / "bins.csv"
        code, out, _ = run_cli(
            ["plot", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", "--binning", "quantile",
             "--bins-per-side", "8", "--svg", str(svg_path),
             "--table", str(table_path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["binning"] == "quantile"
        assert report["result"]["j_below"] == 8
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        with open(table_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert sum(int(r["count"]) for r in rows) == 81

    def test_plot_rejects_treatment_flag(self, step_csv, capsys):
        code, _, err = run_cli(
            ["plot", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", "--treatment-col", "t"], capsys)
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "usage"


class TestPower:
    def test_mde_reproduced(self, capsys):
        code, out, _ = run_cli(["power", "--se", "1.0"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["mde"] == mde(1.0)
        assert report["result"]["n_required"] is None
        assert report["input_digest"] is None

    def test_required_n(self, capsys):
        code, out, _ = run_cli(
            ["power", "--se", "1.0", "--target-mde", "0.5", "--n-pilot",
             "200"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["n_required"] == 6280

    def test_target_mde_without_pilot_exits_2(self, capsys):
        code, _, err = run_cli(
            ["power", "--se", "1.0", "--target-mde", "0.5"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "data"


class TestSimulate:
    def test_linear_fixed_h(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--dgp", "linear", "--n", "200", "--replications",
             "500", "--h", "0.4", "--seed", "7"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["true_tau"] == 0.0
        assert report["result"]["n_replications"] == 500
        assert 0.90 <= report["result"]["coverage"] <= 0.99

    def test_thread_flag_does_not_change_bytes(self, tmp_path, capsys):
        base = ["simulate", "--dgp", "step", "--n", "150", "--replications",
                "500", "--h", "0.5", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--threads", "4", "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self, step_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "rdtoolkit", "estimate", "--input",
             str(step_csv), "--score-col", "x", "--outcome-col", "y",
             "--h", "0.5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["estimate"]["tau_hat"] == pytest.approx(
            1.0, abs=1e-9)

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdtoolkit", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("rd-toolkit ")
