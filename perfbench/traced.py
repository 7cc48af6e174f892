#!/usr/bin/env python3
"""Traced in-process run of all three workloads' library calls.

Started by ``run.py --trace 1`` as a fresh interpreter with the
checkout's ``src/`` on ``PYTHONPATH``.  It calls the package's public
entry points in the order the CLI would, with one span around each call,
so every per-layer number is measured from outside the package.  The
``coverage_study`` part replays ``simulate_coverage``'s replication loop
(substream -> simulate_sample -> select_mse_bandwidth -> estimator) and
checks that the replay reproduces its result exactly.  Peak memory comes
from a separate tracemalloc pass after the timed one, so that allocation
tracking does not distort the timings.

Writes the spans and a JSON result (metrics, checks, input digests).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
import traceback
import tracemalloc
from math import fsum

import spans as sp
import workloads as wl

SENSITIVITY = (0.5, 0.75, 1.0, 1.25, 1.5)    # run_battery's default factors
OVERHEAD_PROBES = 2000                      # empty spans timed for overhead


class Session:
    """The tracer plus the run's operation and failure tallies."""

    def __init__(self):
        self.tracer = sp.Tracer()
        self.attempted = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, ok: bool, text: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(text)

    def span(self, name):
        return self.tracer.span(name)


def _report(s, rd, kind, result, digest=None, seed=None):
    with s.span("reports.canonical_json") as c:
        text = rd.canonical_json(rd.make_report(kind, result, {}, seed=seed,
                                                input_digest=digest))
        c["bytes"] = len(text.encode("utf-8"))


def _n_eff(est):
    return est.n_eff_below + est.n_eff_above


def large_file(s, rd, path):
    """``estimate`` (sharp, auto h) and ``plot --svg`` on the large CSV."""
    with s.span("sample.ingest_csv") as c:
        sample = rd.ingest_csv(path, {"score": "score", "outcome": "outcome"})
        c["rows"] = sample.n
    with s.span("reports.sha256_file"):
        digest = rd.sha256_file(path)
    s.digests["large_file"] = digest
    with s.span("bandwidth.select_mse_bandwidth"):
        sel = rd.select_mse_bandwidth(sample)
    h = sel.h_mse
    with s.span("continuity.sharp_estimate") as c:
        est = rd.sharp_estimate(sample, h_below=h, h_above=h)
        c["n_eff"] = _n_eff(est)
    with s.span("continuity.rbc_inference") as c:
        rbc = rd.rbc_inference(sample, h_below=h, h_above=h)
        c["n_eff"] = _n_eff(rbc.base)
    _report(s, rd, "estimate",
            {"estimate": est, "rbc": rbc, "bandwidth_selection": sel}, digest)
    with s.span("plotting.build_rdplot"):
        plot = rd.build_rdplot(sample)
    with s.span("plotting.render_svg") as c:
        c["bytes"] = len(rd.render_svg(plot))
    _report(s, rd, "plot", plot, digest)
    s.check(sum(b.count for b in plot.bins_below + plot.bins_above)
            == sample.n, "large_file: plot bins do not hold every row")


def covariate_session(s, rd, path, seed):
    """``locrand``, ``validate`` and fuzzy ``estimate`` on the session CSV."""
    with s.span("sample.ingest_csv") as c:
        sample = rd.ingest_csv(path, {"score": "score", "outcome": "outcome",
                                      "treatment": "received",
                                      "covariates": list(wl.COVARIATES)})
        c["rows"] = sample.n
    with s.span("reports.sha256_file"):
        digest = rd.sha256_file(path)
    s.digests["covariate_session"] = digest

    window = locrand_calls(s, rd, sample, seed)

    with s.span("validation.run_battery"):
        battery = rd.run_battery(sample, donut_radii=wl.DONUT_RADII,
                                 count_halfwidth=wl.COUNT_HALFWIDTH,
                                 seed=seed)
    checks = battery_checks(s, rd, sample, seed)
    s.check(rd.canonical_json(checks) == rd.canonical_json(battery),
            "covariate_session: check functions called one by one differ "
            "from run_battery")
    _report(s, rd, "validate", battery, digest, seed)

    with s.span("bandwidth.select_mse_bandwidth"):
        sel = rd.select_mse_bandwidth(sample)
    h = sel.h_mse
    with s.span("continuity.fuzzy_estimate") as c:
        est = rd.fuzzy_estimate(sample, h_below=h, h_above=h)
        c["n_eff"] = _n_eff(est)
    with s.span("continuity.rbc_inference") as c:
        rbc = rd.rbc_inference(sample, kind="fuzzy", h_below=h, h_above=h)
        c["n_eff"] = _n_eff(rbc.base)
    _report(s, rd, "estimate",
            {"estimate": est, "rbc": rbc, "bandwidth_selection": sel}, digest)
    s.check(window.n_w == window.n_plus + window.n_minus,
            "covariate_session: window counts do not add up")
    return sample


def locrand_calls(s, rd, sample, seed):
    """The library calls behind ``locrand --fisher-ci`` with auto window."""
    with s.span("locrand.select_window") as c:
        selection = rd.select_window(sample, candidates=wl.CANDIDATES,
                                     seed=seed)
        c["window_n"] = selection.window.n_w
    window = selection.window
    with s.span("locrand.fisher_pvalue") as c:
        fisher = rd.fisher_pvalue(sample, window, seed=seed)
        c["draws"] = fisher.draws
    with s.span("locrand.neyman_ci"):
        rd.neyman_ci(sample, window)
    with s.span("locrand.fisher_ci"):
        rd.fisher_ci(sample, window, seed=seed)
    return window


def battery_checks(s, rd, sample, seed):
    """run_battery's checks called one by one with the same arguments."""
    from rdtoolkit.validation import default_placebo_grid

    with s.span("bandwidth.select_mse_bandwidth"):
        h = rd.select_mse_bandwidth(sample).h_mse
    count_window = rd.make_window(sample, wl.COUNT_HALFWIDTH)
    balance = []
    for name in sorted(sample.covariates):
        with s.span("validation.covariate_balance"):
            balance.append(rd.covariate_balance(sample, name,
                                                method="continuity"))
        with s.span("validation.covariate_balance"):
            balance.append(rd.covariate_balance(
                sample, name, method="locrand", window=count_window,
                seed=seed))
    with s.span("validation.binomial_test"):
        binomial = rd.binomial_test(sample, count_window)
    with s.span("validation.density_test"):
        density = rd.density_test(sample, h=h)
    with s.span("validation.placebo_cutoffs"):
        placebo = rd.placebo_cutoffs(sample, default_placebo_grid(sample, h),
                                     h=h)
    with s.span("validation.donut_hole"):
        donut = rd.donut_hole(sample, wl.DONUT_RADII, h=h)
    with s.span("validation.bandwidth_sensitivity"):
        sens = rd.bandwidth_sensitivity(sample, [f * h for f in SENSITIVITY],
                                        baseline_h=h)
    return rd.ValidationReport(
        balance=tuple(balance), binomial=binomial, density=density,
        placebo_cutoffs=tuple(placebo), donut=tuple(donut),
        sensitivity=tuple(sens), h_baseline=float(h),
        count_window=(count_window.lower, count_window.upper))


def replay(s, rd, dgp, estimator, seed):
    """simulate_coverage's replication loop, one span per library call."""
    from rdtoolkit.errors import EmptySide, RankDeficient, TooFewObservations

    tau = dgp.true_tau()
    rows = []
    for r in range(wl.REPLICATIONS):
        with s.span("replication"):
            with s.span("rng.substream"):
                rep_seed = int(rd.substream(seed, r).integers(0, 2 ** 63 - 1))
            with s.span("dgps.simulate_sample"):
                sample = rd.simulate_sample(dgp, wl.SIM_N, seed=rep_seed)
            try:
                with s.span("bandwidth.select_mse_bandwidth"):
                    h = rd.select_mse_bandwidth(sample).h_mse
                if estimator == "conventional":
                    with s.span("continuity.sharp_estimate") as c:
                        est = rd.sharp_estimate(sample, h_below=h, h_above=h)
                        c["n_eff"] = _n_eff(est)
                    (lo, hi), point = est.ci_conventional, est.tau_hat
                else:
                    with s.span("continuity.rbc_inference") as c:
                        res = rd.rbc_inference(sample, h_below=h, h_above=h)
                        c["n_eff"] = _n_eff(res.base)
                    (lo, hi), point = res.ci_rbc, res.base.tau_hat
            except (EmptySide, RankDeficient, TooFewObservations):
                continue
            rows.append((1.0 if lo <= tau <= hi else 0.0, hi - lo,
                         0.0 if lo <= 0.0 <= hi else 1.0, point - tau))
    done = len(rows)
    return rd.CoverageResult(
        coverage=fsum(r[0] for r in rows) / done,
        avg_ci_length=fsum(r[1] for r in rows) / done,
        rejection_rate_at_zero=fsum(r[2] for r in rows) / done,
        mean_bias=fsum(r[3] for r in rows) / done,
        n_replications=done, n_failed=wl.REPLICATIONS - done,
        estimator=estimator)


def coverage_study(s, rd, seed):
    """``simulate`` with each estimator, replayed call by call."""
    dgp = rd.curved_benchmark()
    kwargs = dict(n=wl.SIM_N, replications=wl.REPLICATIONS, seed=seed)
    for estimator in wl.ESTIMATORS:
        first = len(s.tracer.spans)
        with s.span("powersim.simulate_coverage") as c:
            res = rd.simulate_coverage(dgp, estimator=estimator, **kwargs)
            c["failed_replications"] = res.n_failed
        one_thread_s = sp.duration(s.tracer.spans[first])
        with s.span("replay"):
            replayed = replay(s, rd, dgp, estimator, seed)
        s.check(replayed == res, f"coverage_study: replay of {estimator} "
                                 f"differs from simulate_coverage")
        _report(s, rd, "simulate", res, seed=seed)
    if "threads" not in inspect.signature(rd.simulate_coverage).parameters:
        return None
    # The last estimator's study again on two threads.
    first = len(s.tracer.spans)
    with s.span("parallel.simulate_coverage_2t"):
        res2 = rd.simulate_coverage(dgp, estimator=estimator, threads=2,
                                    **kwargs)
    s.check(res2 == res, "coverage_study: threads=2 changed the result")
    return one_thread_s / sp.duration(s.tracer.spans[first])


def memory_pass(rd, sample, seed):
    """Traced-allocation peaks (MB) of the locrand calls and the battery."""
    untimed = Session()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        locrand_calls(untimed, rd, sample, seed)
        locrand_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rd.run_battery(sample, donut_radii=wl.DONUT_RADII,
                       count_halfwidth=wl.COUNT_HALFWIDTH, seed=seed)
        battery_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return locrand_peak / 2 ** 20, battery_peak / 2 ** 20


def span_overhead(count: int) -> float:
    """Mean cost of recording one empty span."""
    probe = sp.Tracer()
    start = time.perf_counter()
    for _ in range(count):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / count


def self_by_layer(spans) -> dict:
    """Self time summed per "workload/span name"."""
    selfs = sp.self_times(spans)
    out = {}
    for span in spans:
        key = f"{span['workload'] or '-'}/{span['name']}"
        out[key] = out.get(key, 0.0) + selfs[span["id"]]
    return out


def layer_metrics(spans, speedup, peaks, wall, overhead) -> dict:
    t, n = sp.total_time, sp.call_count
    m = {}
    for name in ("sample.ingest_csv", "reports.sha256_file",
                 "reports.canonical_json", "bandwidth.select_mse_bandwidth",
                 "continuity.sharp_estimate", "continuity.fuzzy_estimate",
                 "continuity.rbc_inference", "dgps.simulate_sample",
                 "powersim.simulate_coverage", "locrand.select_window",
                 "locrand.fisher_pvalue", "locrand.fisher_ci",
                 "locrand.neyman_ci", "validation.run_battery",
                 "validation.covariate_balance", "validation.binomial_test",
                 "validation.density_test", "validation.placebo_cutoffs",
                 "validation.donut_hole", "validation.bandwidth_sensitivity",
                 "plotting.build_rdplot", "plotting.render_svg"):
        m[f"{name}_s"] = (t(spans, name), "s")
    m["import.rdtoolkit_s"] = (t(spans, "import.rdtoolkit"), "s")
    m["import.modules"] = (sp.count_sum(spans, "modules", "import."), "count")
    m["sample.rows_per_s"] = (sp.count_sum(spans, "rows", "sample.")
                              / t(spans, "sample.ingest_csv"), "rows/s")
    m["reports.bytes"] = (sp.count_sum(spans, "bytes", "reports."), "bytes")
    m["bandwidth.calls"] = (n(spans, "bandwidth.select_mse_bandwidth"),
                            "count")
    m["continuity.calls"] = (sum(n(spans, f"continuity.{k}") for k in
                                 ("sharp_estimate", "fuzzy_estimate",
                                  "rbc_inference")), "count")
    m["continuity.n_eff"] = (sp.count_sum(spans, "n_eff", "continuity."),
                             "count")
    m["powersim.failed_replications"] = (
        sp.count_sum(spans, "failed_replications", "powersim."), "count")
    if speedup is not None:
        m["parallel.speedup_2t"] = (speedup, "ratio")
    m["locrand.draws"] = (sp.count_sum(spans, "draws", "locrand."), "count")
    m["locrand.window_n"] = (sp.count_sum(spans, "window_n", "locrand."),
                             "count")
    if peaks is not None:
        m["locrand.peak_mb"] = (peaks[0], "MB")
        m["validation.peak_mb"] = (peaks[1], "MB")
    m["trace.span_coverage"] = (sp.top_level_coverage(spans, *wall), "ratio")
    m["trace.overhead_s"] = (overhead * len(spans), "s")
    return m


def main() -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--large", required=True, help="large_file CSV")
    ap.add_argument("--session", required=True, help="covariate_session CSV")
    ap.add_argument("--spans", required=True, help="where to write spans")
    ap.add_argument("--output", required=True, help="where to write results")
    args = ap.parse_args()

    s = Session()
    before = len(sys.modules)
    with s.span("import.rdtoolkit") as c:
        import rdtoolkit as rd
    c["modules"] = len(sys.modules) - before

    speedup = sample = None
    steps = (("large_file", lambda: large_file(s, rd, args.large)),
             ("covariate_session",
              lambda: covariate_session(s, rd, args.session, args.seed)),
             ("coverage_study", lambda: coverage_study(s, rd, args.seed)))
    for name, step in steps:
        s.tracer.workload = name
        try:
            with s.span("workload"):
                out = step()
        except Exception:      # a failed workload is counted, not fatal
            traceback.print_exc()
            s.check(False, f"{name}: traced calls raised")
            continue
        if name == "covariate_session":
            sample = out
        elif name == "coverage_study":
            speedup = out
    end = time.perf_counter()
    s.tracer.workload = None

    peaks = None if sample is None else memory_pass(rd, sample, args.seed)
    spans = s.tracer.spans
    metrics = layer_metrics(spans, speedup, peaks, (start, end),
                            span_overhead(OVERHEAD_PROBES))
    s.tracer.write(args.spans)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "attempted": s.attempted,
                   "failed": len(s.problems), "problems": s.problems,
                   "digests": s.digests, "self_s": self_by_layer(spans)},
                  fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
