"""Smoke tests of the benchmark's own pieces, at tiny sizes.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""

from __future__ import annotations

import copy
import hashlib
import json

import numpy as np
import pytest

import checks
import inputs
import spans
import workloads


# --------------------------------------------------------------------
# Input generator
# --------------------------------------------------------------------


def test_draw_is_deterministic_per_seed():
    a, b = inputs.draw(500, seed=3), inputs.draw(500, seed=3)
    for name in inputs.COLUMNS:
        np.testing.assert_array_equal(a[name], b[name])
    assert not np.array_equal(a["score"], inputs.draw(500, seed=4)["score"])


def test_draw_follows_the_design():
    cols = inputs.draw(20_000, seed=1)
    x, d = cols["score"], cols["received"]
    assert x.min() >= -1.0 and x.max() < 1.0
    assert not d[x < 0].any()                     # one-sided compliance
    assert abs(d[x >= 0].mean() - 0.8) < 0.02     # 20% refuse
    assert (cols["income"] > 0).all()
    below = x < 0
    assert abs(np.mean(cols["age"][below]) - (40 + 5 * x[below].mean())) < 0.2


def test_write_csv_digest_and_layout(tmp_path):
    path = tmp_path / "tiny.csv"
    digest = inputs.write_csv(path, 7, seed=2)
    data = path.read_bytes()
    assert digest == hashlib.sha256(data).hexdigest()
    lines = data.decode("ascii").splitlines()
    assert lines[0] == ",".join(inputs.COLUMNS)
    assert len(lines) == 8
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    assert inputs.write_csv(tmp_path / "again.csv", 7, seed=2) == digest


# --------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------

DIGEST = "ab" * 32


def _estimate_report():
    return {
        "schema": checks.SCHEMA, "kind": "estimate", "input_digest": DIGEST,
        "result": {
            "estimate": {"tau_hat": 0.04, "n_eff_below": 10,
                         "n_eff_above": 12, "first_stage": None},
            "rbc": {"ci_rbc": [0.01, 0.07]},
            "bandwidth_selection": {"h_mse": 0.2},
        },
    }


def _check(report, **kw):
    data = json.dumps(report).encode()
    return checks.check_report("estimate", data, DIGEST, {"rows": 22}, **kw)


def test_check_report_accepts_a_good_report():
    fields, problems = _check(_estimate_report())
    assert problems == []
    assert fields["tau_hat"] == 0.04 and fields["n_eff_below"] == 10


@pytest.mark.parametrize("mutate, expected", [
    (lambda r: r.update(schema="rd-toolkit-report/2"), "schema"),
    (lambda r: r.update(kind="plot"), "kind"),
    (lambda r: r.update(input_digest="00" * 32), "input_digest"),
    (lambda r: r["result"]["rbc"].update(ci_rbc=[0.07, 0.01]), "ci_rbc"),
    (lambda r: r["result"]["estimate"].update(tau_hat=None), "tau_hat"),
    (lambda r: r["result"].pop("bandwidth_selection"), "missing"),
])
def test_check_report_flags_each_broken_field(mutate, expected):
    report = _estimate_report()
    mutate(report)
    _, problems = _check(report)
    assert any(expected in p for p in problems), problems


def test_check_report_rejects_unparseable_bytes():
    _, problems = checks.check_report("estimate", b"{not json", DIGEST, {})
    assert problems and "parse" in problems[0]


def test_reference_comparison_tolerances():
    fields, _ = _check(_estimate_report())
    ref = copy.deepcopy(fields)
    assert checks.compare_fields(fields, ref) == []
    ref["tau_hat"] = 0.04 * (1 + 1e-11)           # inside 1e-9 relative
    assert checks.compare_fields(fields, ref) == []
    ref["tau_hat"] = 0.04 * (1 + 1e-8)            # outside
    assert checks.compare_fields(fields, ref)
    ref = dict(fields, n_eff_below=11)            # counts compare exactly
    assert checks.compare_fields(fields, ref)
    ref = dict(fields, extra=1.0)                 # a field the report lacks
    assert checks.compare_fields(fields, ref)


def test_plot_and_simulate_invariants():
    plot = {"schema": checks.SCHEMA, "kind": "plot", "input_digest": DIGEST,
            "result": {"j_below": 2, "j_above": 1,
                       "bins_below": [{"count": 3}, {"count": 4}],
                       "bins_above": [{"count": 5}]}}
    data = json.dumps(plot).encode()
    assert checks.check_report("plot", data, DIGEST, {"rows": 12})[1] == []
    assert checks.check_report("plot", data, DIGEST, {"rows": 13})[1]
    sim = {"schema": checks.SCHEMA, "kind": "simulate", "input_digest": None,
           "result": {"coverage": 0.95, "avg_ci_length": 0.2,
                      "n_replications": 498, "n_failed": 2}}
    data = json.dumps(sim).encode()
    assert checks.check_report("simulate", data, None,
                               {"replications": 500})[1] == []
    assert checks.check_report("simulate", data, None,
                               {"replications": 501})[1]


# --------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_covered_child_time():
    tr = spans.Tracer(clock=_clock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))
    tr.workload = "w"
    with tr.span("outer") as counts:
        counts["rows"] = 5
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
    outer, a, b = tr.spans
    assert (outer["parent"], a["parent"], b["parent"]) == (None, 0, 0)
    assert {s["workload"] for s in tr.spans} == {"w"}
    selfs = spans.self_times(tr.spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 0.5)
    assert selfs[1] == pytest.approx(2.0) and selfs[2] == pytest.approx(0.5)
    assert spans.total_time(tr.spans, "a") == pytest.approx(2.0)
    assert spans.count_sum(tr.spans, "rows") == 5
    assert spans.call_count(tr.spans, "b") == 1


def test_covered_time_is_a_union_clipped_to_the_parent():
    made = [
        {"id": 0, "name": "p", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "c", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "c", "start": 3.0, "end": 6.0, "parent": 0},
        {"id": 3, "name": "c", "start": 9.0, "end": 12.0, "parent": 0},
    ]
    assert spans.self_times(made)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert spans.top_level_coverage(made, -10.0, 10.0) == pytest.approx(0.5)


def test_span_closes_when_the_body_raises():
    tr = spans.Tracer(clock=_clock(0.0, 2.0, 3.0, 4.0))
    with pytest.raises(RuntimeError):
        with tr.span("boom"):
            raise RuntimeError
    with tr.span("next"):
        pass
    assert spans.duration(tr.spans[0]) == 2.0
    assert tr.spans[1]["parent"] is None


# --------------------------------------------------------------------
# Workload definitions
# --------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_calls_have_unique_labels_and_outputs(workload):
    seq = workloads.calls(workload, "in.csv", "out", seed=1)
    assert len({c.label for c in seq}) == len(seq)
    assert len({c.output for c in seq}) == len(seq)
    assert all("--threads" not in c.argv for c in seq)
    assert all(c.argv[0] == c.command for c in seq)
