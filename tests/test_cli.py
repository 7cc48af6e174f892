import argparse
import csv
import hashlib
import inspect
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from rdtoolkit import continuity, dgps, lpoly
from rdtoolkit import sample as sample_module
from rdtoolkit.cli import _DGPS, build_parser, main
from rdtoolkit.defaults import MIN_REPLICATIONS
from rdtoolkit.dgps import simulate_coverage
from rdtoolkit.locrand import (
    Bernoulli,
    diff_in_means,
    fisher_pvalue,
    fuzzy_locrand,
    make_window,
    select_window,
)
from rdtoolkit.powersim import mde
from rdtoolkit.reports import SCHEMA, jsonable
from rdtoolkit.sample import ingest_csv, sha256_file
from rdtoolkit.validation import run_battery

from conftest import multi_cutoff_rows, write_csv


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


@pytest.fixture()
def fuzzy_csv(tmp_path):
    # one unit in five takes up the other arm, so the first stage is 0.6
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 400)
    d = (x >= 0) ^ (rng.uniform(size=400) < 0.2)
    y = 1.0 + 0.5 * x + 0.8 * d + 0.3 * rng.standard_normal(400)
    path = tmp_path / "fuzzy.csv"
    write_csv(path, ["x", "y", "d"], zip(x, y, d.astype(int)))
    return path


@pytest.fixture()
def multi_cutoff_csv(tmp_path):
    path = tmp_path / "multi.csv"
    write_csv(path, ["x", "y", "c"], zip(*multi_cutoff_rows()))
    return path


def _error_in_subprocess(argv, code, kind, timeout=None):
    """Run the CLI in a fresh interpreter; check the error contract (exit
    ``code``, exactly one JSON error of ``kind`` on stderr, no traceback,
    nothing on stdout) and return the error message."""
    proc = subprocess.run([sys.executable, "-m", "rdtoolkit", *argv],
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == code and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stderr)["error"]  # exactly one JSON document
    assert doc["kind"] == kind
    return doc["message"]


def _estimate_argv(tmp_path, text):
    """`estimate` on a new CSV holding ``text``."""
    path = tmp_path / "in.csv"
    path.write_text(text)
    return ["estimate", "--input", str(path), "--score-col", "score",
            "--outcome-col", "outcome", "--h", "0.5"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _hex(value):
    """A JSON value with every float as its ``float.hex``, so that ==
    compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hex(item) for item in value]
    return value


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
        for spelled in ("auto", " AUTO "):
            assert run_cli(["estimate", "--input", str(path), "--score-col",
                            "x", "--outcome-col", "y", "--h", spelled],
                           capsys) == (0, out, err)

    def test_bandwidth_neither_auto_nor_a_number_exits_1(self, step_csv,
                                                         capsys):
        code, out, err = run_cli(
            ["estimate", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", "--h", "abc"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["message"] == (
            "argument --h: expected 'auto' or a number, got 'abc'")

    def test_ce_shrinks_the_auto_bandwidth(self, locrand_csv, capsys):
        code, out, err = run_cli(
            ["estimate", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--ce"], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        sel = report["result"]["bandwidth_selection"]
        assert report["config"]["ce"] is True
        assert report["config"]["h_below"] == report["config"]["h_above"] \
            == sel["h_ce"] < sel["h_mse"]

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

    def test_compressed_suffix_plain_text_exits_0(self, step_csv, tmp_path,
                                                   capsys, monkeypatch):
        # a plain-text CSV named like an xz archive is read as text
        named = tmp_path / "step.csv.xz"
        named.write_bytes(step_csv.read_bytes())
        argv = ["estimate", "--score-col", "x", "--outcome-col", "y",
                "--h", "0.5", "--input"]
        proc = subprocess.run(
            [sys.executable, "-m", "rdtoolkit", *argv, str(named)],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == ""
        # the same bytes, parsed by numpy rather than loaded from the cache
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "plain"))
        code, out, _ = run_cli(argv + [str(step_csv)], capsys)
        assert code == 0
        assert json.loads(proc.stdout)["result"] == json.loads(out)["result"]

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
        message = _error_in_subprocess(_estimate_argv(
            tmp_path, "score,outcome\n0.1,1\n-0.2\n"), 2, "data")
        assert "row 1" in message

    def test_oversized_cell_in_row_parser_exits_2(self, tmp_path):
        # the NA outcome sends the file to the row parser, whose csv
        # module refuses a cell over csv.field_size_limit()
        big = "a" * 200_000
        message = _error_in_subprocess(_estimate_argv(
            tmp_path, f"score,outcome,note\n0.1,1,x\n-0.2,2,{big}\n"
                      "0.3,NA,x\n"), 2, "data")
        assert "row 1" in message and "field limit" in message

    def test_header_only_exits_2(self, tmp_path):
        # no warning text may precede the one JSON error on stderr
        message = _error_in_subprocess(
            _estimate_argv(tmp_path, "score,outcome\n"), 2, "data")
        assert "at least one unit" in message

    @pytest.mark.parametrize("argv", [
        ["estimate", "--h", "0.5", "--input", "{dir}"],
        ["estimate", "--h", "0.5", "--output", "{dir}"],
        ["locrand", "--covariate", "z", "--candidates", "0.25", "0.5",
         "--draws", "99", "--table", "{dir}"],
        ["plot", "--svg", "{dir}"]],
        ids=["input", "output", "locrand-table", "plot-svg"])
    def test_directory_path_exits_2(self, locrand_csv, tmp_path, argv):
        # each used to print an IsADirectoryError traceback and exit 1
        data = ["--input", str(locrand_csv), "--score-col", "x",
                "--outcome-col", "y"]
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
        message = _error_in_subprocess([argv[0], *data, *argv[1:]], 2,
                                       "data")
        assert "directory" in message

    @pytest.mark.parametrize("name", ["twice.csv", "twice.csv.gz"],
                             ids=["numpy-tier", "row-parser"])
    def test_bound_column_named_twice_exits_2(self, tmp_path, name,
                                              capsys):
        # the first `score` used to be bound without a word; a name with
        # an archive suffix sends the file to the row parser
        rows = "".join(f"{x},{x + 1},{x}\n" for x in (-0.3, -0.2, 0.2, 0.3))
        path = tmp_path / name
        path.write_text(f"score,outcome,score\n0.1,1,2\n{rows}")
        code, out, err = run_cli(
            ["estimate", "--input", str(path), "--score-col", "score",
             "--outcome-col", "outcome", "--h", "0.5"], capsys)
        assert code == 2 and out == ""
        doc = json.loads(err)["error"]
        assert doc["type"] == "BadSpec" and "'score'" in doc["message"]

    def test_unbound_column_named_twice_is_read(self, step_csv, tmp_path,
                                                capsys):
        with open(step_csv) as fh:
            lines = fh.read().splitlines()
        twice = tmp_path / "twice.csv"
        twice.write_text("".join(f"{line},{i},{i}\n"
                                 for i, line in enumerate(lines)))
        argv = ["estimate", "--score-col", "x", "--outcome-col", "y",
                "--h", "0.5"]
        code, out, _ = run_cli([*argv, "--input", str(twice)], capsys)
        assert code == 0
        _, plain, _ = run_cli([*argv, "--input", str(step_csv)], capsys)
        assert json.loads(out)["result"] == json.loads(plain)["result"]

    def test_bad_flag_exits_1(self, step_csv, capsys):
        code, out, err = run_cli(
            ["estimate", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", "--kernel", "gaussian"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["kind"] == "usage"

    @pytest.mark.parametrize("flags", [
        ["estimate", "--h", "nan"], ["estimate", "--h", "inf"],
        ["estimate", "--h", "0.5", "--h-above", "nan"],
        ["estimate", "--h", "0.5", "--h-above", "inf"],
        ["locrand", "--window", "nan"], ["locrand", "--window", "inf"]],
        ids=["h-nan", "h-inf", "h_above-nan", "h_above-inf", "window-nan",
             "window-inf"])
    def test_non_finite_bandwidth_or_window_exits_1(self, step_csv, flags):
        # nan used to exit 2 or 3 from deep in the fit; inf exited 0
        message = _error_in_subprocess(
            [flags[0], "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", *flags[1:]], 1, "usage")
        assert "finite" in message

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

    @pytest.mark.parametrize("multi, order_p_fits", [(False, 2), (True, 8)])
    def test_pooled_design_fits_each_group_once(
            self, multi, order_p_fits, step_csv, multi_cutoff_csv,
            monkeypatch, capsys):
        # one order-p and one order-(p+1) pair for the pooled sample, plus
        # one order-p pair per cutoff group when there are several groups
        orders = Counter()
        fit_window = continuity.fit_window

        def counting_fit(window, p):
            orders[p] += 1
            return fit_window(window, p)

        monkeypatch.setattr(continuity, "fit_window", counting_fit)
        path, extra = ((multi_cutoff_csv, ["--cutoff-col", "c"]) if multi
                       else (step_csv, []))
        code, out, _ = run_cli(
            ["estimate", "--input", str(path), "--score-col", "x",
             "--outcome-col", "y", "--design", "pooled", "--h", "0.3",
             *extra], capsys)
        assert code == 0
        assert orders == {1: order_p_fits, 2: 2}
        per_cutoff = json.loads(out)["result"]["per_cutoff"]
        assert len(per_cutoff) == (3 if multi else 1)


class TestDesigns:
    """Reports of the designs that read a treatment column, or a kink,
    equal the library's numbers on the ingested sample, bit for bit."""

    COLUMNS = {"score": "x", "outcome": "y", "treatment": "d"}

    @pytest.mark.parametrize("design, p", [("fuzzy", 1), ("kink", 2)])
    def test_estimate_equals_rbc_inference(self, fuzzy_csv, design, p,
                                           capsys):
        code, out, _ = run_cli(
            ["estimate", "--input", str(fuzzy_csv), "--score-col", "x",
             "--outcome-col", "y", "--treatment-col", "d", "--design",
             design, "--p", str(p), "--h", "0.6"], capsys)
        assert code == 0
        rbc = continuity.rbc_inference(
            ingest_csv(fuzzy_csv, self.COLUMNS), kind=design, p=p,
            kernel="triangular", h_below=0.6, h_above=0.6, level=0.95)
        result = json.loads(out)["result"]
        assert _hex(result["estimate"]) == _hex(jsonable(rbc.base))
        assert _hex(result["rbc"]) == _hex(jsonable(
            {name: getattr(rbc, name) for name in result["rbc"]}))

    def test_locrand_with_treatment_column(self, fuzzy_csv, capsys):
        code, out, _ = run_cli(
            ["locrand", "--input", str(fuzzy_csv), "--score-col", "x",
             "--outcome-col", "y", "--treatment-col", "d", "--window",
             "0.3", "--draws", "199", "--seed", "5"], capsys)
        assert code == 0
        sample = ingest_csv(fuzzy_csv, self.COLUMNS)
        window = make_window(sample, 0.3, 0.3)
        result = json.loads(out)["result"]
        assert _hex(result["fuzzy_estimate"]) \
            == _hex(jsonable(fuzzy_locrand(sample, window)))
        # without --fisher-ci only the sharp null is tested
        assert _hex(result["fisher"]) == _hex(jsonable(
            fisher_pvalue(sample, window, draws=199, seed=5)))
        assert result["fisher_ci"] is None


class TestMultiCutoff:
    """Every file subcommand reads a cutoff column the same way: the
    score centred on it, with cutoff 0."""

    @pytest.mark.parametrize("argv", [
        ["validate"], ["plot"], ["locrand", "--window", "0.5"],
        ["estimate"], ["estimate", "--design", "pooled"]])
    def test_subcommand_exits_0(self, multi_cutoff_csv, argv, capsys):
        code, out, err = run_cli(
            argv + ["--input", str(multi_cutoff_csv), "--score-col", "x",
                    "--outcome-col", "y", "--cutoff-col", "c"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["kind"] == argv[0]

    @pytest.mark.parametrize("command", [
        ["estimate"], ["locrand", "--window", "0.1"], ["validate"], ["plot"]])
    def test_cutoff_with_cutoff_column_exits_1(self, multi_cutoff_csv,
                                               command):
        # the cutoff column decides every unit's cutoff, so a scalar
        # --cutoff would only be echoed, never used
        proc = subprocess.run(
            [sys.executable, "-m", "rdtoolkit", *command, "--input",
             str(multi_cutoff_csv), "--score-col", "x", "--outcome-col",
             "y", "--cutoff-col", "c", "--cutoff", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stderr)["error"]  # exactly one JSON document
        assert doc["kind"] == "usage" and "--cutoff-col" in doc["message"]

    @pytest.mark.parametrize("score, cutoff, words", [
        (1.7e308, -1.7e308, "centred score X - C overflows at row 7"),
        ("inf", "inf", "non-finite or missing score at row 7")],
        ids=["overflow", "infinite"])
    def test_centring_error_exits_2_quietly(self, tmp_path, score, cutoff,
                                            words):
        # X - C of two finite cells can pass the float range, and inf - inf
        # is NaN; numpy used to print its warning ahead of the JSON error,
        # and an overflow read as a "non-finite or missing score"
        rows = [[0.05 * i - 1, i % 3, 0.0] for i in range(40)]
        rows[7] = [score, 1.0, cutoff]
        path = write_csv(tmp_path / "far.csv", ["x", "y", "c"], rows)
        message = _error_in_subprocess(
            ["estimate", "--input", path, "--score-col", "x",
             "--outcome-col", "y", "--cutoff-col", "c"], 2, "data")
        assert words in message


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

    @pytest.mark.parametrize("alpha", ["1.5", "1", "0", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_exits_1(self, step_csv, alpha):
        # 1.5 used to exit 0 with an inverted Neyman interval
        message = _error_in_subprocess(
            ["locrand", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", "--window", "0.5", "--fisher-ci",
             "--alpha", alpha], 1, "usage")
        assert "--alpha" in message

    @pytest.mark.parametrize("flag, argv", [
        ("--candidates", ["locrand", "--candidates", "inf"]),
        ("--candidates", ["locrand", "--candidates", "nan", "0.02"]),
        ("--candidates", ["locrand", "--candidates", "-0.01"]),
        ("--draws", ["locrand", "--window", "0.5", "--draws", "0"]),
        ("--draws", ["locrand", "--window", "0.5", "--draws", "-5"]),
        ("--prob", ["locrand", "--window", "0.5", "--model", "bernoulli",
                    "--prob", "1.5"]),
        ("--draws", ["validate", "--h", "0.5", "--draws", "0"]),
        ("--count-halfwidth", ["validate", "--h", "0.5",
                               "--count-halfwidth", "inf"]),
        ("--count-halfwidth", ["validate", "--h", "0.5",
                               "--count-halfwidth", "0"]),
        ("--delimiter", ["estimate", "--h", "0.5", "--delimiter", ";;"]),
        ("--delimiter", ["estimate", "--h", "0.5", "--delimiter="]),
        ("--level", ["estimate", "--h", "0.5", "--level", "1.5"]),
        ("--level", ["validate", "--h", "0.5", "--level", "nan"]),
        ("--level", ["simulate", "--level", "0"]),
        ("--seed", ["locrand", "--window", "0.5", "--seed", "-1"]),
        ("--seed", ["validate", "--h", "0.5", "--seed", "-1"]),
        ("--seed", ["simulate", "--seed", "-1"]),
        ("--cutoff", ["estimate", "--h", "0.5", "--cutoff", "nan"]),
        ("--cutoff", ["plot", "--cutoff", "inf"]),
        ("--placebo", ["validate", "--h", "0.5", "--placebo", "0.5", "inf"]),
        ("--bins-per-side", ["validate", "--h", "0.5",
                             "--bins-per-side", "1"]),
        ("--donut", ["validate", "--h", "0.5", "--donut", "0", "-0.1"]),
        ("--sensitivity", ["validate", "--h", "0.5", "--sensitivity", "0"]),
        ("--se", ["power", "--se", "0"]),
        ("--se", ["power", "--se", "inf"]),
        ("--tau", ["power", "--se", "0.1", "--tau", "nan", "0.2"]),
        ("--tau", ["power", "--se", "0.1", "--tau", "0.2", "inf"]),
        ("--max-exhaustive", ["locrand", "--window", "0.5",
                              "--max-exhaustive", "-5"]),
        ("--target-mde", ["power", "--se", "0.1", "--target-mde", "-1",
                          "--n-pilot", "100"]),
        ("--alpha", ["power", "--se", "0.1", "--alpha", "1.5"]),
        ("--target-power", ["power", "--se", "0.1", "--target-power", "1"]),
        ("--n-pilot", ["power", "--se", "0.1", "--target-mde", "0.2",
                       "--n-pilot", "0"]),
        ("--n", ["simulate", "--n", "0"]),
        ("--replications", ["simulate", "--replications", "499"]),
        ("--p", ["estimate", "--h", "0.5", "--design", "kink", "--p", "0"]),
        # the normal quantile of 0.5 + level/2 or 1 - alpha/2 rounds to
        # 1.0; these used to exit 2 with the standard library's
        # StatisticsError, naming no flag
        ("--level", ["estimate", "--h", "0.5", "--level",
                     "0.9999999999999999"]),
        ("--level", ["validate", "--h", "0.5", "--level",
                     "0.9999999999999999"]),
        ("--level", ["simulate", "--level", "0.9999999999999999"]),
        ("--alpha", ["locrand", "--window", "0.3", "--alpha", "1e-300"]),
        ("--alpha", ["power", "--se", "1", "--alpha", "1e-17"])],
        ids=["candidates-inf", "candidates-nan", "candidates-negative",
             "draws-0", "draws-negative", "prob-1.5", "validate-draws-0",
             "count_halfwidth-inf", "count_halfwidth-0", "delimiter-two",
             "delimiter-empty", "level-1.5", "validate-level-nan",
             "simulate-level-0", "seed-negative", "validate-seed-negative",
             "simulate-seed-negative", "cutoff-nan", "plot-cutoff-inf",
             "placebo-inf", "validate-bins_per_side-1", "donut-negative",
             "sensitivity-0", "se-0", "se-inf", "tau-nan", "tau-inf",
             "max_exhaustive-negative", "target_mde-negative",
             "power-alpha-1.5", "target_power-1", "n_pilot-0", "n-0",
             "replications-499", "kink-p-0", "level-rounds-to-1",
             "validate-level-rounds-to-1", "simulate-level-rounds-to-1",
             "alpha-1e-300", "power-alpha-1e-17"])
    def test_out_of_range_flag_exits_1(self, locrand_csv, flag, argv):
        # these used to exit 0 (a window over every row, a null
        # candidate or count window, p = 1 from zero draws, a negative
        # seed the run never read, a negative enumeration limit, a
        # non-finite power effect), 2 as a data error raised deep in the
        # library, or 1 with a traceback (a delimiter csv refuses)
        data = [] if argv[0] in ("power", "simulate") else [
            "--input", str(locrand_csv), "--score-col", "x",
            "--outcome-col", "y", "--covariate", "z"]
        message = _error_in_subprocess([argv[0], *data, *argv[1:]], 1,
                                       "usage")
        assert flag in message

    def test_bernoulli_prob_that_empties_a_group_exits_3(self, locrand_csv):
        # nearly every draw leaves a group empty and is redrawn; this ran
        # without end
        message = _error_in_subprocess(
            ["locrand", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--window", "0.05", "--model",
             "bernoulli", "--prob", "1e-9", "--max-exhaustive", "0",
             "--draws", "99"], 3, "estimation", timeout=60)
        assert "prob 1e-09" in message and "share" in message

    def test_superpop_framework_estimate(self, locrand_csv, capsys):
        argv = ["locrand", "--input", str(locrand_csv), "--score-col", "x",
                "--outcome-col", "y", "--window", "0.5", "--draws", "99",
                "--model", "bernoulli", "--prob", "0.4"]
        code, out, _ = run_cli([*argv, "--framework", "superpop"], capsys)
        code_n, out_n, _ = run_cli(argv, capsys)
        assert code == code_n == 0
        sample = ingest_csv(locrand_csv, {"score": "x", "outcome": "y"})
        window = make_window(sample, 0.5)
        estimate = json.loads(out)["result"]["estimate"]
        assert _hex(estimate) == _hex(jsonable(diff_in_means(
            sample, window, Bernoulli(0.4), "superpop")))
        assert estimate["tau_hat"] \
            != json.loads(out_n)["result"]["estimate"]["tau_hat"]

    def test_nonzero_cutoff_window_holds_the_units_analysed(self, tmp_path):
        # 3.57 - 0.04 and 3.57 + 0.04 are the doubles 3.53 and 3.61, so
        # the units there are inside [lower, upper]; the counts used to
        # miss them while the estimate and the test used them
        x = [3.53, 3.54, 3.55, 3.56, 3.57, 3.58, 3.59, 3.60, 3.61, 3.40,
             3.70]
        path = tmp_path / "edges.csv"
        write_csv(path, ["x", "y"], ((f"{v:.2f}", i) for i, v in enumerate(x)))
        proc = subprocess.run(
            [sys.executable, "-m", "rdtoolkit", "locrand", "--input",
             str(path), "--score-col", "x", "--outcome-col", "y",
             "--cutoff", "3.57", "--window", "0.04"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)["result"]
        window = res["window"]
        assert (window["lower"], window["upper"]) == (3.53, 3.61)
        assert (window["n_w"], window["n_minus"], window["n_plus"]) \
            == (9, 4, 5)
        assert res["estimate"]["ybar_minus"] == 1.5  # mean of 0, 1, 2, 3
        assert res["fisher"]["total"] == 126  # C(9, 5)

    @pytest.mark.parametrize("alpha", ["1.5", "1", "0", "nan"])
    def test_balance_alpha_outside_unit_interval_exits_1(self, locrand_csv,
                                                         alpha):
        # 1.5 used to exit 0, flagged no_balanced_window
        message = _error_in_subprocess(
            ["locrand", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--covariate", "z", "--candidates",
             "0.25", "0.5", "--draws", "99", "--balance-alpha", alpha],
            1, "usage")
        assert "--balance-alpha" in message

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

    def test_trace_table_keeps_columns_after_infeasible_candidate(
            self, locrand_csv, tmp_path, capsys):
        # the smallest candidate holds no 2 units per side; its trace row
        # tests no covariate, and the table used to drop every p column
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            ["locrand", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--covariate", "z", "--candidates",
             "0.001", "0.25", "0.5", "--draws", "99", "--seed", "7",
             "--table", str(trace)], capsys)
        assert code == 0
        report = json.loads(out)["result"]["window_selection"]["trace"]
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert report[0]["feasible"] is False
        assert [row["p_z"] for row in rows] == [
            "", *(repr(row["p_values"][0][1]) for row in report[1:])]

    def test_seeded_runs_byte_identical(self, locrand_csv, tmp_path, capsys):
        argv = ["locrand", "--input", str(locrand_csv), "--score-col", "x",
                "--outcome-col", "y", "--window", "0.6", "--draws", "999",
                "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_window_leaves_candidates_unused(self, locrand_csv,
                                                   capsys):
        # candidates only order an auto selection, so a fixed window
        # accepts them in any order and reports what it reports without
        argv = ["locrand", "--input", str(locrand_csv), "--score-col", "x",
                "--outcome-col", "y", "--window", "0.6", "--draws", "99"]
        code, out, _ = run_cli(argv, capsys)
        code_c, out_c, _ = run_cli([*argv, "--candidates", "0.5", "0.2"],
                                   capsys)
        assert code == code_c == 0
        assert json.loads(out)["result"] == json.loads(out_c)["result"]


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

    def test_placebo_grid_containing_cutoff_exits_1(self, locrand_csv,
                                                    capsys):
        # the true cutoff is a flag, so this is a usage rule
        code, _, err = run_cli(
            ["validate", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--h", "0.5", "--placebo", "0.5", "0.0"],
            capsys)
        assert code == 1
        doc = json.loads(err)["error"]
        assert doc["kind"] == "usage" and "--placebo" in doc["message"]


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

    @pytest.mark.parametrize("flag, value", [
        ("--bins-per-side", "0"), ("--bins-per-side", "-3"),
        ("--poly-order", "-1"), ("--grid-points", "0"),
        ("--grid-points", "-5")])
    def test_out_of_range_flag_exits_1(self, step_csv, flag, value):
        # 0 used to exit 0 with no bins or empty curves, poly order -1
        # with all-zero curves; negative counts exited 2 from numpy
        message = _error_in_subprocess(
            ["plot", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", flag, value], 1, "usage")
        assert flag in message

    def test_rank_deficient_curve_exits_3(self, step_csv, capsys):
        # order 30 on 40 rows a side is a rank-22 fit
        code, out, err = run_cli(
            ["plot", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", "--poly-order", "30"], capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "RankDeficient"


class TestOutputPaths:
    """An output path that cannot exist fails before the input is read,
    with the error ``open`` raises on it."""

    def test_missing_report_directory_fails_before_the_work(
            self, locrand_csv, tmp_path, monkeypatch, capsys):
        # the window selection used to run and write t.csv first
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            ["locrand", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--covariate", "z", "--candidates",
             "0.25", "0.5", "--draws", "99", "--table", "t.csv",
             "--output", "missing_dir/r.json"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            '{\n  "error": {\n    "kind": "data",\n    "message": '
            '"[Errno 2] No such file or directory: \'missing_dir/r.json\'",'
            '\n    "type": "FileNotFoundError"\n  }\n}\n')
        assert not (tmp_path / "t.csv").exists()

    def test_missing_svg_directory_writes_no_report(self, step_csv, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            ["plot", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", "--svg", "missing_dir/p.svg",
             "--output", "r.json"], capsys)
        assert code == 2
        assert "'missing_dir/p.svg'" in json.loads(err)["error"]["message"]
        assert not (tmp_path / "r.json").exists()

    def test_fixed_window_table_is_a_usage_error(self, locrand_csv,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        # locrand has a trace table only when it selects the window; a
        # fixed window's --table used to exit 0 and write nothing.  The
        # usage error comes before the output paths are checked.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            ["locrand", "--input", str(locrand_csv), "--score-col", "x",
             "--outcome-col", "y", "--window", "0.5", "--draws", "99",
             "--table", "missing/t.csv", "--output", "missing/r.json"],
            capsys)
        assert (code, out) == (1, "")
        doc = json.loads(err)["error"]
        assert doc["kind"] == "usage" and "--window auto" in doc["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["loc.csv"]

    @pytest.mark.parametrize("flag", ["--output", "--table", "--svg"])
    @pytest.mark.parametrize("path", [
        ".", "missing/p.out", "missing/", "absent/missing/p.out",
        "file.txt/p.out"])
    def test_error_is_the_one_open_raises(self, step_csv, tmp_path,
                                          monkeypatch, capsys, flag, path):
        # a path under a regular file is left to the write; it fails the
        # same way, only after the plot is built
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        (work / "file.txt").write_text("not a directory\n")
        with pytest.raises(OSError) as opened:
            open(path, "w")
        code, out, err = run_cli(
            ["plot", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", flag, path], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": type(opened.value).__name__, "kind": "data",
            "message": str(opened.value)}
        assert [p.name for p in work.iterdir()] == ["file.txt"]


class TestUsageRules:
    """Each rule that ties one flag to another is checked right after the
    arguments are parsed: before numpy loads, before the output paths are
    checked and before the input is read."""

    @pytest.mark.parametrize("flag, argv", [
        ("--p", ["estimate", "--design", "kink", "--p", "0"]),
        ("--cutoff-col", ["estimate", "--cutoff", "5"]),
        ("--cutoff-col", ["locrand", "--window", "0.1", "--cutoff", "5"]),
        ("--cutoff-col", ["validate", "--cutoff", "5"]),
        ("--cutoff-col", ["plot", "--cutoff", "5"]),
        ("--covariate", ["locrand"]),
        ("--table", ["locrand", "--window", "0.5", "--table", "t.csv"]),
        ("--n-pilot", ["power", "--se", "1.0", "--target-mde", "0.5"]),
        ("--treatment-col", ["estimate", "--design", "fuzzy"]),
        ("--ce", ["estimate", "--h", "0.5", "--ce"]),
        ("--candidates", ["locrand", "--covariate", "y", "--candidates",
                          "0.5", "0.2"]),
        ("--placebo", ["validate", "--placebo", "0"]),
        ("--placebo", ["validate", "--cutoff-col", "c", "--placebo", "0.5",
                       "-0"]),
        ("--placebo", ["validate", "--cutoff=5", "--placebo", "0.5", "5"]),
        *(("--covariate", [command, "--covariate", "c", "--covariate", "c"])
          for command in ("estimate", "locrand", "validate", "plot"))],
        ids=["kink-p-0", "estimate-cutoff", "locrand-cutoff",
             "validate-cutoff", "plot-cutoff", "auto-window-no-covariate",
             "fixed-window-table", "target-mde-no-pilot",
             "fuzzy-no-treatment-column", "fixed-bandwidth-ce",
             "descending-candidates", "placebo-at-default-cutoff",
             "placebo-at-cutoff-col-zero", "placebo-at-cutoff",
             "estimate-covariate-twice", "locrand-covariate-twice",
             "validate-covariate-twice", "plot-covariate-twice"])
    def test_rule_exits_1_before_any_work(self, multi_cutoff_csv, tmp_path,
                                          flag, argv):
        # all but the fixed-window table rule used to be checked in
        # `_ingest` or a subcommand body, after numpy loaded and after the
        # output paths; the auto window without a covariate, descending
        # candidates, a placebo at the true cutoff and a covariate given
        # twice exited 2
        if argv[0] != "power":  # power reads no file
            argv = [argv[0], "--input", str(multi_cutoff_csv),
                    "--score-col", "x", "--outcome-col", "y",
                    *(["--cutoff-col", "c"] if "--cutoff" in argv else []),
                    *argv[1:]]
        calls = [argv, [*argv, "--output", "missing/r.json"]]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import io, json, os, sys\n"
             "from rdtoolkit.cli import main\n"
             f"os.chdir({str(tmp_path)!r})\n"
             "runs = []\n"
             f"for argv in {calls!r}:\n"
             "    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()\n"
             "    code = main(argv)\n"
             "    runs.append([code, sys.stdout.getvalue(),\n"
             "                 sys.stderr.getvalue()])\n"
             "print(json.dumps([runs, 'numpy' in sys.modules]),\n"
             "      file=sys.__stdout__)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs, numpy_loaded = json.loads(proc.stdout)
        assert not numpy_loaded
        for code, out, err in runs:
            assert (code, out) == (1, "")
            doc = json.loads(err)["error"]  # exactly one JSON document
            assert doc["kind"] == "usage" and flag in doc["message"]
        assert runs[0] == runs[1]


class TestParseCache:
    """A call whose input was parsed before loads the stored columns and
    writes the bytes a parse writes."""

    @pytest.fixture()
    def session(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 2000)
        path = tmp_path / "d.csv"
        write_csv(path, ["x", "y"],
                  zip(x, 0.5 * x + (x >= 0) + rng.normal(0, 0.2, 2000)))
        data = ["--input", str(path), "--score-col", "x", "--outcome-col",
                "y"]

        def run():
            """Report, plot report and SVG bytes of estimate and plot; the
            report echoes the SVG path, so every run writes the same
            paths."""
            files = [tmp_path / name
                     for name in ("estimate.json", "plot.json", "plot.svg")]
            assert main(["estimate", *data, "--output", str(files[0])]) == 0
            assert main(["plot", *data, "--svg", str(files[2]),
                         "--output", str(files[1])]) == 0
            assert capsys.readouterr() == ("", "")
            return [f.read_bytes() for f in files]

        return path, run

    def test_warm_calls_write_the_same_bytes(self, session, parse_cache,
                                             monkeypatch):
        path, run = session
        cold = run()
        # plot binds the columns estimate bound: one entry serves both
        assert len(list(parse_cache.iterdir())) == 1
        for report in cold[:2]:
            assert json.loads(report)["input_digest"] == sha256_file(path)

        def unparsed(*args):
            raise AssertionError("a cached input was parsed again")

        monkeypatch.setattr(sample_module, "_ingest_numeric", unparsed)
        monkeypatch.setattr(sample_module, "_ingest_rows", unparsed)
        assert run() == cold

    def test_unusable_cache_location_changes_nothing(self, session, tmp_path,
                                                     monkeypatch):
        _, run = session
        cold = run()
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert run() == cold


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

    def test_target_mde_without_pilot_exits_1(self, capsys):
        # a missing companion flag is a usage error, not a data error
        code, _, err = run_cli(
            ["power", "--se", "1.0", "--target-mde", "0.5"], capsys)
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "usage"

    # sha256 of each report, recorded while the default grid was still
    # np.linspace and required_n still walked back from its bound
    @pytest.mark.parametrize("argv, digest", [
        ([], "731aeadc08f4dced0d12090faa3f7eeb"
             "9017134a7850900aa2d396ff2674ce8a"),
        (["--tau", "0", "0.05", "0.1", "-0.2", "0.3"],
         "b89730102b19abfc9aaf0d12d8e15e5a"
         "be45d3c27cf200854b69abd4bf32095f"),
        (["--target-mde", "0.05", "--n-pilot", "500"],
         "54acba9ba7b395cdb5dbbc911a6be0d9"
         "5dce7e7630f5cb545988f7710fdf1c32"),
        (["--target-mde", "0.05", "--n-pilot", "500", "--p", "4"],
         "354d9bb364542d29f3aad1d5fb78c07b"
         "3f62703cb65cf3a984dd2587d4fb49ff"),
        (["--target-mde", "0.05", "--n-pilot", "500", "--scaling", "mse_h"],
         "ab73245861e9d89e0ae170257711644d"
         "c4c214f98033e557125025e1d27f2658"),
        (["--target-mde", "0.05", "--n-pilot", "500", "--scaling", "mse_h",
          "--p", "4"],
         "28f7163b99694960e0e778e4e2fd0f8b"
         "0945b89801288b38aa6582c37dad59be"),
        (["--target-power", "0.04"],
         "e8ae1b04690a06c5be595df4ee25117e"
         "9ba12d9b7c50eccdefe2e19344a532b8"),
    ], ids=["default-grid", "tau", "fixed-p1", "fixed-p4", "mse-p1",
            "mse-p4", "zero-effect-grid"])
    def test_report_bytes_pinned(self, argv, digest, capsys):
        code, out, _ = run_cli(["power", "--se", "0.1", *argv], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("se, digest", [
        ("5e-324", "cd213494b4770748954d5e2c6d5b1a44"
                   "3c4eed9aed969077053eb481f0be27aa"),
        ("1e308", "e423498eb9a48c22e123205782cbe1ee"
                  "8ebef851ba877725f76261a21425769f"),
    ], ids=["subnormal", "huge"])
    def test_extreme_se_exits_0_quietly(self, se, digest):
        # the MDE of 1e308 overflows: numpy's grid warned "invalid value
        # encountered in multiply" on stderr
        proc = subprocess.run(
            [sys.executable, "-m", "rdtoolkit", "power", "--se", se],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["--se", "1e150", "--target-mde", "1e-150", "--n-pilot", "10"],
        ["--se", "1e62", "--target-mde", "1e-62", "--n-pilot", "10",
         "--scaling", "mse_h"],
        ["--se", "1", "--target-mde", "1e-150", "--n-pilot", "1000000000"],
        ["--se", "1e20", "--target-mde", "1e-20", "--n-pilot", "10",
         "--scaling", "mse_h"],
    ], ids=["power-overflows", "mse-power-overflows", "ceil-of-inf",
            "n-past-2-53"])
    def test_unrepresentable_n_exits_3(self, argv):
        # the first three used to print an OverflowError traceback and
        # exit 1; the last never ended, stepping down from an n of ~1e102
        message = _error_in_subprocess(["power", *argv], 3, "estimation")
        assert "unreachable" in message


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

    def test_rbc_estimator(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--dgp", "step", "--n", "150", "--replications",
             "500", "--h", "0.5", "--seed", "3", "--estimator", "rbc"],
            capsys)
        assert code == 0
        expected = simulate_coverage(dgps.step_dgp(), estimator="rbc", n=150,
                                     replications=500, seed=3, h=0.5)
        assert _hex(json.loads(out)["result"]) == _hex(jsonable(expected))

    def test_thread_flag_does_not_change_bytes(self, tmp_path, capsys):
        base = ["simulate", "--dgp", "step", "--n", "150", "--replications",
                "500", "--h", "0.5", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--threads", "4", "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--input", "d.csv", "--score-col", "x",
         "--outcome-col", "y"],
        ["locrand", "--input", "d.csv", "--score-col", "x",
         "--outcome-col", "y"],
        ["validate", "--input", "d.csv", "--score-col", "x",
         "--outcome-col", "y"],
        ["plot", "--input", "d.csv", "--score-col", "x",
         "--outcome-col", "y"],
        ["power", "--se", "0.1"]])
    def test_thread_flag_only_on_simulate(self, argv, capsys):
        # only simulate has workers; elsewhere the flag is a usage error
        code, out, err = run_cli(argv + ["--threads", "2"], capsys)
        assert code == 1 and out == ""
        doc = json.loads(err)["error"]
        assert doc["kind"] == "usage" and "--threads" in doc["message"]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_below_one_exits_1(self, threads, capsys):
        code, out, err = run_cli(
            ["simulate", "--dgp", "step", "--n", "150", "--threads", threads],
            capsys)
        assert code == 1 and out == ""
        doc = json.loads(err)["error"]
        assert doc["kind"] == "usage" and "--threads" in doc["message"]


_ANALYSIS_MODULES = ("bandwidth", "continuity", "locrand", "validation",
                     "plotting", "powersim", "parallel", "dgps", "sample",
                     "lpoly")
# standard-library and package modules the parse itself never runs
_REPORT_WRITER = {"json", "rdtoolkit.reports"}
_NOT_IN_SHELL = {"dataclasses", "inspect", "csv"}


def _loaded_in_fresh_interpreter(statements):
    """Names of the modules a new interpreter holds after `statements`;
    what they print to stdout is discarded."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import io, sys\nsys.stdout = io.StringIO()\n{statements}\n"
         "print(*sorted(sys.modules), file=sys.__stdout__)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


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

    def test_import_loads_no_scipy(self):
        loaded = _loaded_in_fresh_interpreter("import rdtoolkit.cli")
        assert not any(m.startswith("scipy") for m in loaded)
        # the parser shell only: each subcommand imports its own modules
        assert not loaded & {f"rdtoolkit.{m}" for m in _ANALYSIS_MODULES}
        assert not loaded & {"numpy", *_REPORT_WRITER, *_NOT_IN_SHELL}

    @pytest.mark.parametrize("argv, code, absent", [
        (["--version"], 0, {*_REPORT_WRITER, *_NOT_IN_SHELL}),
        (["estimate", "--help"], 0, {*_REPORT_WRITER, *_NOT_IN_SHELL}),
        (["estimate", "--input", "in.csv", "--score-col", "x",
          "--outcome-col", "y", "--level", "2"], 1, _NOT_IN_SHELL),
        (["power", "--se", "0.1"], 0, {"csv"}),
        (["locrand", "--input", "in.csv", "--score-col", "x",
          "--outcome-col", "y", "--window", "0.5", "--table", "t.csv"], 1,
         _NOT_IN_SHELL),
    ], ids=["version", "help", "usage-error", "power", "fixed-window-table"])
    def test_shell_calls_load_no_numpy(self, argv, code, absent):
        # none of these touches an array, so none pays numpy's import;
        # the parse runs on argparse alone, the report writer loads with
        # a report or an error, csv with a --table that is written
        loaded = _loaded_in_fresh_interpreter(
            "from rdtoolkit.cli import main\n"
            "try:\n"
            f"    code = main({argv!r})\n"
            "except SystemExit as stop:\n"
            "    code = stop.code\n"
            f"assert code == {code}, code")
        assert "rdtoolkit.cli" in loaded
        assert not loaded & {"numpy", *absent}

    def test_serial_simulate_loads_no_thread_pool(self, tmp_path):
        # the pool is imported only by a run that uses one, and the
        # worker count changes no report byte
        argv = ["simulate", "--n", "200", "--replications", "500"]
        reports = {}
        for threads in ([], ["--threads", "2"]):
            out = tmp_path / f"threads{len(threads)}.json"
            loaded = _loaded_in_fresh_interpreter(
                "from rdtoolkit.cli import main\n"
                f"assert main({[*argv, *threads, '--output', str(out)]!r})"
                " == 0")
            assert ("concurrent.futures" in loaded) == bool(threads)
            reports[len(threads)] = out.read_bytes()
        assert reports[0] == reports[2]

    @pytest.mark.parametrize("argv, runs, absent", [
        (["locrand", "--window", "0.5", "--draws", "99"], "locrand",
         {"continuity", "bandwidth", "validation", "plotting", "powersim",
          "parallel", "dgps"}),
        (["estimate", "--h", "0.5"], "continuity",
         {"locrand", "validation", "plotting", "powersim", "parallel",
          "dgps"}),
        (["plot"], "plotting",
         {"bandwidth", "continuity", "locrand", "validation", "powersim"}),
        (["power", "--se", "0.1"], "powersim",
         {"bandwidth", "continuity", "dgps", "parallel", "rng", "sample",
          "lpoly", "locrand", "validation", "plotting", "numpy"}),
    ], ids=["locrand", "estimate", "plot", "power"])
    def test_subcommand_loads_only_its_modules(self, locrand_csv, tmp_path,
                                               argv, runs, absent):
        if argv[0] != "power":  # power reads no file
            argv = [*argv, "--input", str(locrand_csv), "--score-col", "x",
                    "--outcome-col", "y"]
        argv = [*argv, "--output", str(tmp_path / "r.json")]
        loaded = _loaded_in_fresh_interpreter(
            f"from rdtoolkit.cli import main; assert main({argv!r}) == 0")
        assert f"rdtoolkit.{runs}" in loaded
        # numpy is a package of its own; the rest are rdtoolkit modules
        assert not loaded & {m if m == "numpy" else f"rdtoolkit.{m}"
                             for m in absent}

    def test_session_loads_no_masked_arrays(self, locrand_csv, fuzzy_csv,
                                            tmp_path):
        # np.quantile in the placebo grid used to import numpy.ma, about
        # 23 ms of every validate call
        data = ["--score-col", "x", "--outcome-col", "y"]
        calls = [
            ["locrand", "--input", str(locrand_csv), *data, "--covariate",
             "z", "--candidates", "0.25", "0.5", "--draws", "99",
             "--fisher-ci"],
            ["validate", "--input", str(locrand_csv), *data, "--covariate",
             "z", "--draws", "99"],
            ["estimate", "--input", str(fuzzy_csv), *data,
             "--treatment-col", "d", "--design", "fuzzy"]]
        output = ["--output", str(tmp_path / "r.json")]
        loaded = _loaded_in_fresh_interpreter(
            "from rdtoolkit.cli import main\n" + "".join(
                f"assert main({[*argv, *output]!r}) == 0\n"
                for argv in calls))
        assert {"rdtoolkit.locrand", "rdtoolkit.validation",
                "rdtoolkit.continuity"} <= loaded
        assert "numpy.ma" not in loaded

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdtoolkit", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("rd-toolkit ")


def _default(function, parameter):
    return inspect.signature(function).parameters[parameter].default


def _subparsers():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _option(command, dest):
    return next(a for a in _subparsers()[command]._actions
                if a.dest == dest)


class TestDefaults:
    """The parser's defaults are the library's own objects."""

    DATA = ["--input", "in.csv", "--score-col", "x", "--outcome-col", "y"]

    def test_locrand(self):
        args = build_parser().parse_args(["locrand", *self.DATA])
        assert args.draws is _default(fisher_pvalue, "draws")
        assert args.max_exhaustive is _default(fisher_pvalue,
                                               "max_exhaustive")
        assert args.balance_alpha is _default(select_window, "alpha")

    def test_validate(self):
        args = build_parser().parse_args(["validate", *self.DATA])
        for dest, parameter in (("draws", "draws"),
                                ("donut", "donut_radii"),
                                ("sensitivity", "sensitivity_factors"),
                                ("bins_per_side", "bins_per_side")):
            assert getattr(args, dest) is _default(run_battery, parameter)

    @pytest.mark.parametrize("command", ["estimate", "validate", "simulate"])
    def test_kernel_choices(self, command):
        assert _option(command, "kernel").choices is lpoly.KERNELS

    def test_replication_floor(self):
        # the flag and the library refuse the same replication counts
        check = _option("simulate", "replications").type
        assert check(str(MIN_REPLICATIONS)) == MIN_REPLICATIONS
        with pytest.raises(argparse.ArgumentTypeError):
            check(str(MIN_REPLICATIONS - 1))
        with pytest.raises(ValueError, match=str(MIN_REPLICATIONS)):
            simulate_coverage(dgps.linear_dgp(),
                              replications=MIN_REPLICATIONS - 1)

    def test_dgp_names_resolve(self):
        assert _option("simulate", "dgp").choices == tuple(_DGPS)
        for factory in _DGPS.values():
            assert callable(getattr(dgps, factory))


class TestFlagDeclarations:
    """Each flag is declared once: its type holds its range, and the
    report's config is derived from the parsed arguments."""

    def test_numeric_flags_declare_their_range(self):
        # a bare int or float type lets any number through to the
        # library, and no numeric flag accepts every number
        bare = {action.dest for parser in _subparsers().values()
                for action in parser._actions
                if action.type in (int, float) and action.choices is None}
        assert bare == set()

    @pytest.mark.parametrize("flag, value, kind", [
        ("--level", "abc", "float"), ("--seed", "1.5", "int")])
    def test_unconvertible_value_keeps_argparse_message(
            self, step_csv, flag, value, kind, capsys):
        code, _, err = run_cli(
            ["validate", "--input", str(step_csv), "--score-col", "x",
             "--outcome-col", "y", flag, value], capsys)
        assert code == 1
        assert json.loads(err)["error"]["message"] == (
            f"argument {flag}: invalid {kind} value: {value!r}")

    @pytest.mark.parametrize("argv, keys", [
        (["estimate", "--h", "0.5"],
         {"input", "score_col", "outcome_col", "treatment_col", "cutoff_col",
          "covariates", "cutoff", "delimiter", "design", "p", "kernel",
          "level", "h_requested", "h_below", "h_above", "ce"}),
        (["locrand", "--window", "0.5", "--draws", "99", "--fisher-ci",
          "--seed", "3"],
         {"input", "score_col", "outcome_col", "treatment_col", "cutoff_col",
          "covariates", "cutoff", "delimiter", "window_requested", "w_left",
          "w_right", "model", "prob", "statistic", "framework", "alpha",
          "draws", "max_exhaustive", "balance_alpha", "candidates"}),
        (["validate", "--h", "0.5", "--draws", "99", "--seed", "3",
          "--table", "TABLE"],
         {"input", "score_col", "outcome_col", "treatment_col", "cutoff_col",
          "covariates", "cutoff", "delimiter", "p", "kernel", "level",
          "h_requested", "h_baseline", "count_halfwidth", "placebo", "donut",
          "sensitivity", "bins_per_side", "draws"}),
        (["plot", "--table", "TABLE"],
         {"input", "score_col", "outcome_col", "cutoff_col", "covariates",
          "cutoff", "delimiter", "binning", "bins_per_side", "poly_order",
          "grid_points", "svg"}),
        (["power", "--se", "0.1"],
         {"se", "alpha", "target_power", "tau", "target_mde", "n_pilot",
          "scaling", "p"}),
        (["simulate", "--dgp", "linear", "--n", "200", "--replications",
          "500", "--h", "0.4", "--seed", "3", "--threads", "2"],
         {"dgp", "n", "replications", "estimator", "p", "kernel", "level",
          "h_requested", "true_tau"})],
        ids=["estimate", "locrand", "validate", "plot", "power", "simulate"])
    def test_config_keys_pinned(self, locrand_csv, tmp_path, argv, keys,
                                capsys):
        # the key sets of the reports before the config was derived from
        # the parsed arguments; a new flag joins its set on purpose
        argv = [str(tmp_path / "t.csv") if a == "TABLE" else a for a in argv]
        data = [] if argv[0] in ("power", "simulate") else [
            "--input", str(locrand_csv), "--score-col", "x",
            "--outcome-col", "y"]
        code, out, _ = run_cli([*argv, *data], capsys)
        assert code == 0
        assert set(json.loads(out)["config"]) == keys
