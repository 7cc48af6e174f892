"""Command-line front end binding the analysis modules together.

Every subcommand resolves its configuration (including any "auto"
bandwidth or window), runs the analysis, and emits a single canonical
JSON report that embeds the resolved config, the toolkit version, the
input file digest, and the seed, so the run can be reproduced exactly
from its own output.  Reports go to --output or stdout.

Each subcommand imports its analysis modules inside its own body, so a
call loads only the modules it runs; the parser reads its shared
defaults from ``rdtoolkit.defaults``, which imports nothing else.

Exit codes: 0 success, 1 usage error (bad flags), 2 data or config
error, 3 estimation error.  Failures are reported as one JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from importlib import import_module

from . import __version__
from .defaults import (
    BALANCE_ALPHA,
    BINS_PER_SIDE,
    DONUT_RADII,
    DRAWS,
    KERNELS,
    MAX_EXHAUSTIVE,
    SENSITIVITY_FACTORS,
)
from .errors import DataError, EstimationError, NoCovariates
from .reports import canonical_json, make_report, sha256_file, write_report

class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _auto_or_float(text: str):
    if text.strip().lower() == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a number, got {text!r}")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            "bandwidth/window must be positive and finite")
    return value


def _add_data_flags(parser, treatment=True):
    g = parser.add_argument_group("data")
    g.add_argument("--input", required=True, help="CSV file to analyze")
    g.add_argument("--score-col", required=True,
                   help="running variable column")
    g.add_argument("--outcome-col", required=True, help="outcome column")
    if treatment:
        g.add_argument("--treatment-col", default=None,
                       help="received-treatment column (0/1), fuzzy designs")
    g.add_argument("--cutoff-col", default=None,
                   help="per-unit cutoff column for multi-cutoff data")
    g.add_argument("--covariate", action="append", default=[],
                   dest="covariates", metavar="NAME",
                   help="covariate column; repeatable")
    g.add_argument("--cutoff", type=float, default=0.0,
                   help="cutoff value (default 0; not with --cutoff-col)")
    g.add_argument("--delimiter", default=",", help="CSV delimiter")


def _add_fit_flags(parser, default_p=1):
    g = parser.add_argument_group("fit")
    g.add_argument("--p", type=int, default=default_p,
                   choices=range(0, 5), metavar="P",
                   help="local polynomial order (0-4)")
    g.add_argument("--kernel", default="triangular", choices=KERNELS)
    g.add_argument("--level", type=float, default=0.95,
                   help="confidence level")


def _add_out_flags(parser):
    g = parser.add_argument_group("output")
    g.add_argument("--output", default=None,
                   help="report JSON path (default: stdout)")


# --dgp name -> factory in rdtoolkit.dgps, resolved only by `simulate`
_DGPS = {
    "curved_benchmark": "curved_benchmark",
    "linear": "linear_dgp",
    "step": "step_dgp",
    "piecewise_balance": "piecewise_balance_dgp",
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rd-toolkit",
                     description="Regression discontinuity analysis toolkit")
    parser.add_argument("--version", action="version",
                        version=f"rd-toolkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    est = sub.add_parser("estimate", help="continuity-based RD estimate")
    _add_data_flags(est)
    _add_fit_flags(est)
    est.add_argument("--design", default="sharp",
                     choices=("sharp", "fuzzy", "kink", "pooled"))
    est.add_argument("--h", type=_auto_or_float, default=None, metavar="H",
                     help="bandwidth, or 'auto' for the plug-in selector "
                          "(default auto)")
    est.add_argument("--h-above", type=_auto_or_float, default=None,
                     metavar="H", help="separate right-side bandwidth")
    est.add_argument("--ce", action="store_true",
                     help="shrink the auto bandwidth to its "
                          "coverage-error-optimal value")
    _add_out_flags(est)
    est.set_defaults(run=cmd_estimate)

    loc = sub.add_parser("locrand",
                         help="local-randomization window analysis")
    _add_data_flags(loc)
    loc.add_argument("--window", type=_auto_or_float, default=None,
                     metavar="W", help="window half-width, or 'auto' to "
                                       "select by covariate balance "
                                       "(default auto)")
    loc.add_argument("--candidates", type=float, nargs="+", default=None,
                     metavar="W", help="candidate half-widths for auto "
                                       "selection")
    loc.add_argument("--balance-alpha", type=float, default=BALANCE_ALPHA,
                     help="minimum balance p-value for auto selection, "
                          "in (0, 1)")
    loc.add_argument("--model", default="fixed_margins",
                     choices=("fixed_margins", "bernoulli"))
    loc.add_argument("--prob", type=float, default=0.5,
                     help="Bernoulli assignment probability")
    loc.add_argument("--statistic", default="diff_means",
                     choices=("diff_means", "studentized"))
    loc.add_argument("--framework", default="neyman",
                     choices=("neyman", "superpop"))
    loc.add_argument("--alpha", type=float, default=0.05,
                     help="test level for intervals, in (0, 1)")
    loc.add_argument("--draws", type=int, default=DRAWS,
                     help="Monte Carlo draws when enumeration is infeasible")
    loc.add_argument("--max-exhaustive", type=int, default=MAX_EXHAUSTIVE,
                     help="largest assignment count enumerated exactly")
    loc.add_argument("--fisher-ci", action="store_true",
                     help="also invert the Fisher test into a CI")
    loc.add_argument("--seed", type=int, default=0)
    loc.add_argument("--table", default=None,
                     help="write the window-selection trace as CSV")
    _add_out_flags(loc)
    loc.set_defaults(run=cmd_locrand)

    val = sub.add_parser("validate", help="falsification battery")
    _add_data_flags(val)
    _add_fit_flags(val)
    val.add_argument("--h", type=_auto_or_float, default=None, metavar="H",
                     help="estimation bandwidth (default auto)")
    val.add_argument("--count-halfwidth", type=float, default=None,
                     help="window half-width for the binomial count test "
                          "(default h/2)")
    val.add_argument("--placebo", type=float, nargs="+", default=None,
                     metavar="C", help="placebo cutoffs (default: side "
                                       "quantiles outside the bandwidth)")
    val.add_argument("--donut", type=float, nargs="+",
                     default=DONUT_RADII, metavar="R",
                     help="donut radii")
    val.add_argument("--sensitivity", type=float, nargs="+",
                     default=SENSITIVITY_FACTORS, metavar="F",
                     help="bandwidth multipliers")
    val.add_argument("--bins-per-side", type=int, default=BINS_PER_SIDE,
                     help="density-test histogram bins")
    val.add_argument("--draws", type=int, default=DRAWS)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--table", default=None,
                     help="write the battery as wide CSV, one row per test")
    _add_out_flags(val)
    val.set_defaults(run=cmd_validate)

    plot = sub.add_parser("plot", help="binned scatter + polynomial overlay")
    _add_data_flags(plot, treatment=False)
    plot.add_argument("--binning", default="evenly_spaced",
                      choices=("evenly_spaced", "quantile"))
    plot.add_argument("--bins-per-side", type=int, default=None,
                      help="bins per side (default: mimicking-variance "
                           "heuristic)")
    plot.add_argument("--poly-order", type=int, default=4,
                      help="global polynomial order")
    plot.add_argument("--grid-points", type=int, default=200)
    plot.add_argument("--svg", default=None, help="also render an SVG here")
    plot.add_argument("--table", default=None,
                      help="write the bin table as CSV")
    _add_out_flags(plot)
    plot.set_defaults(run=cmd_plot)

    pow_ = sub.add_parser("power", help="power, MDE, and sample-size math")
    pow_.add_argument("--se", type=float, required=True,
                      help="standard error of the effect estimator")
    pow_.add_argument("--alpha", type=float, default=0.05)
    pow_.add_argument("--target-power", type=float, default=0.80)
    pow_.add_argument("--tau", type=float, nargs="+", default=None,
                      metavar="T", help="effects to evaluate power at")
    pow_.add_argument("--target-mde", type=float, default=None,
                      help="solve for the n reaching this MDE")
    pow_.add_argument("--n-pilot", type=int, default=None,
                      help="sample size behind --se")
    pow_.add_argument("--scaling", default="fixed_h",
                      choices=("fixed_h", "mse_h"))
    pow_.add_argument("--p", type=int, default=1, choices=range(0, 5),
                      metavar="P")
    _add_out_flags(pow_)
    pow_.set_defaults(run=cmd_power)

    sim = sub.add_parser("simulate",
                         help="Monte Carlo coverage of a known design")
    sim.add_argument("--dgp", default="curved_benchmark",
                     choices=tuple(_DGPS))
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--replications", type=int, default=2000)
    sim.add_argument("--estimator", default="conventional",
                     choices=("conventional", "rbc"))
    sim.add_argument("--h", type=_auto_or_float, default=None, metavar="H",
                     help="fixed bandwidth, or 'auto' to reselect per "
                          "replication (default auto)")
    _add_fit_flags(sim)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--threads", type=int, default=1,
                     help="worker threads (default 1); results never "
                          "depend on it")
    _add_out_flags(sim)
    sim.set_defaults(run=cmd_simulate)

    return parser


# --------------------------------------------------------------------
# Subcommand bodies.  Each returns (config, result, seed) and the
# caller wraps them into the report envelope.
# --------------------------------------------------------------------


def _ingest(args, treatment=True):
    from .sample import ingest_csv

    if args.cutoff_col and args.cutoff != 0.0:
        raise UsageError("--cutoff cannot be combined with --cutoff-col: "
                         "the cutoff column sets each unit's cutoff")
    column_map = {"score": args.score_col, "outcome": args.outcome_col}
    if treatment and getattr(args, "treatment_col", None):
        column_map["treatment"] = args.treatment_col
    if args.cutoff_col:
        column_map["cutoff"] = args.cutoff_col
    for name in args.covariates:
        column_map.setdefault("covariates", []).append(name)
    return ingest_csv(args.input, column_map, cutoff=args.cutoff,
                      delimiter=args.delimiter)


def _data_config(args, treatment=True):
    cfg = {
        "input": args.input,
        "score_col": args.score_col,
        "outcome_col": args.outcome_col,
        "cutoff_col": args.cutoff_col,
        "covariates": list(args.covariates),
        "cutoff": args.cutoff,
        "delimiter": args.delimiter,
    }
    if treatment:
        cfg["treatment_col"] = getattr(args, "treatment_col", None)
    return cfg


def cmd_estimate(args):
    from .bandwidth import select_mse_bandwidth
    from .continuity import per_cutoff_estimates, rbc_inference

    sample = _ingest(args)
    h_requested = "auto" if args.h is None else args.h
    selection = None
    h_below = args.h
    if args.h is None:
        selection = select_mse_bandwidth(sample, p=args.p, kernel=args.kernel)
        h_below = selection.h_ce if args.ce else selection.h_mse
    h_above = args.h_above if args.h_above is not None else h_below

    kwargs = dict(p=args.p, kernel=args.kernel, h_below=h_below,
                  h_above=h_above, level=args.level)
    # The pooled design is the sharp estimator on the whole (centred)
    # sample, plus per-cutoff detail.  rbc.base is the order-p estimate.
    kind = "sharp" if args.design == "pooled" else args.design
    rbc = rbc_inference(sample, kind=kind, **kwargs)
    est = rbc.base

    config = _data_config(args)
    config.update(design=args.design, p=args.p, kernel=args.kernel,
                  level=args.level, h_requested=h_requested,
                  h_below=float(h_below), h_above=float(h_above),
                  ce=bool(args.ce))
    result = {
        "estimate": est,
        "rbc": {
            "bias_estimate": rbc.bias_estimate,
            "tau_bc": rbc.tau_bc,
            "se_robust": rbc.se_robust,
            "ci_rbc": rbc.ci_rbc,
            "inference_order": rbc.inference_order,
        },
    }
    if args.design == "pooled":
        result["per_cutoff"] = per_cutoff_estimates(sample, est)
    if selection is not None:
        result["bandwidth_selection"] = selection
    return config, result, None


def _check_draws(draws: int) -> None:
    if draws < 1:
        raise UsageError("--draws must be at least 1")


def cmd_locrand(args):
    from .locrand import (
        Bernoulli,
        FixedMargins,
        _fisher_pvalue_and_ci,
        diff_in_means,
        fisher_pvalue,
        fuzzy_locrand,
        make_window,
        neyman_ci,
        select_window,
    )

    for flag, value in (("--alpha", args.alpha),
                        ("--balance-alpha", args.balance_alpha),
                        ("--prob", args.prob)):
        if not 0 < value < 1:
            raise UsageError(f"{flag} must be in (0, 1)")
    if not all(0 < w < math.inf for w in args.candidates or ()):
        raise UsageError("--candidates must be positive and finite")
    _check_draws(args.draws)
    sample = _ingest(args)
    if args.model == "bernoulli":
        model = Bernoulli(args.prob)
    else:
        model = FixedMargins()

    selection = None
    if args.window is None:
        if not sample.covariates:
            raise NoCovariates(
                "window 'auto' needs at least one --covariate to balance")
        selection = select_window(
            sample, candidates=args.candidates, alpha=args.balance_alpha,
            model=model, statistic=args.statistic, seed=args.seed)
        window = selection.window
        w_left = selection.w_left
        w_right = selection.w_right
    else:
        w_left = w_right = args.window
        window = make_window(sample, w_left, w_right)

    estimate = diff_in_means(sample, window, model=model,
                             framework=args.framework)
    if sample.received is not None:
        estimate_fuzzy = fuzzy_locrand(sample, window, model=model,
                                       framework=args.framework)
    else:
        estimate_fuzzy = None
    if args.fisher_ci:
        # the p-value and the interval share one ensemble
        fisher, ci = _fisher_pvalue_and_ci(
            sample, window, model, args.statistic, None, args.alpha,
            args.max_exhaustive, args.draws, args.seed)
    else:
        fisher, ci = fisher_pvalue(
            sample, window, model=model, statistic=args.statistic,
            max_exhaustive=args.max_exhaustive, draws=args.draws,
            seed=args.seed), None
    neyman = neyman_ci(sample, window, framework=args.framework,
                       alpha=args.alpha, model=model)

    config = _data_config(args)
    config.update(window_requested="auto" if args.window is None
                  else args.window,
                  w_left=float(w_left), w_right=float(w_right),
                  model=args.model, prob=args.prob,
                  statistic=args.statistic, framework=args.framework,
                  alpha=args.alpha, draws=args.draws,
                  max_exhaustive=args.max_exhaustive,
                  balance_alpha=args.balance_alpha,
                  candidates=args.candidates)
    result = {
        "window": window,
        "estimate": estimate,
        "fuzzy_estimate": estimate_fuzzy,
        "fisher": fisher,
        "neyman": neyman,
        "fisher_ci": ci,
        "window_selection": selection,
    }
    if args.table and selection is not None:
        _write_trace_csv(args.table, selection)
    return config, result, args.seed


def _write_trace_csv(path, selection):
    rows = selection.trace
    covariates = sorted(name for name, _ in rows[0].p_values) if rows else []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w_left", "w_right", "n_w", "n_plus", "n_minus",
                         "feasible", "min_p", "passed"]
                        + [f"p_{c}" for c in covariates])
        for row in rows:
            by_name = dict(row.p_values)
            writer.writerow([row.w_left, row.w_right, row.n_w, row.n_plus,
                             row.n_minus, row.feasible, row.min_p,
                             row.passed]
                            + [by_name.get(c) for c in covariates])


def cmd_validate(args):
    from .validation import run_battery

    if args.count_halfwidth is not None \
            and not 0 < args.count_halfwidth < math.inf:
        raise UsageError("--count-halfwidth must be positive and finite")
    _check_draws(args.draws)
    sample = _ingest(args)
    report = run_battery(
        sample, p=args.p, kernel=args.kernel, h=args.h, level=args.level,
        count_halfwidth=args.count_halfwidth, placebo_grid=args.placebo,
        donut_radii=tuple(args.donut),
        sensitivity_factors=tuple(args.sensitivity),
        bins_per_side=args.bins_per_side, draws=args.draws, seed=args.seed)
    config = _data_config(args)
    config.update(p=args.p, kernel=args.kernel, level=args.level,
                  h_requested="auto" if args.h is None else args.h,
                  h_baseline=report.h_baseline,
                  count_halfwidth=args.count_halfwidth,
                  placebo=args.placebo, donut=list(args.donut),
                  sensitivity=list(args.sensitivity),
                  bins_per_side=args.bins_per_side, draws=args.draws)
    if args.table:
        _write_battery_csv(args.table, report)
    return config, report, args.seed


def _write_battery_csv(path, report):
    rows = []
    for rec in report.balance:
        rows.append(["balance", f"{rec.covariate}/{rec.method}", None,
                     rec.p_value, rec.tau_hat, None, None, rec.n_used])
    b = report.binomial
    rows.append(["binomial", f"k={b.k}", float(b.k), b.p_value, None, None,
                 None, b.n])
    if report.density is not None:
        d = report.density
        rows.append(["density", f"h={d.h:g}", d.statistic, d.p_value,
                     d.f_above - d.f_below, None, None, None])
    for rec in report.placebo_cutoffs:
        rows.append(["placebo", f"cutoff={rec.cutoff:g}/{rec.side_used}",
                     None, rec.p_value, rec.tau_hat, None, None, rec.n_used])
    for rec in report.donut:
        rows.append(["donut", f"radius={rec.radius:g}", None, None,
                     rec.tau_hat, rec.ci[0], rec.ci[1], rec.n_dropped])
    for rec in report.sensitivity:
        label = f"h={rec.h:g}" + ("/baseline" if rec.baseline else "")
        rows.append(["sensitivity", label, None, None, rec.tau_hat,
                     rec.ci[0], rec.ci[1], rec.n_eff])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["test", "detail", "statistic", "p_value",
                         "estimate", "ci_low", "ci_high", "n"])
        writer.writerows(rows)


def cmd_plot(args):
    from .plotting import build_rdplot, render_svg

    for flag, value, least in (("--bins-per-side", args.bins_per_side, 1),
                               ("--poly-order", args.poly_order, 0),
                               ("--grid-points", args.grid_points, 1)):
        if value is not None and value < least:
            raise UsageError(f"{flag} must be at least {least}")
    sample = _ingest(args, treatment=False)
    plot = build_rdplot(sample, binning=args.binning,
                        bins_per_side=args.bins_per_side,
                        poly_order=args.poly_order,
                        grid_points=args.grid_points)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_svg(plot))
    if args.table:
        _write_bins_csv(args.table, plot)
    config = _data_config(args, treatment=False)
    config.update(binning=args.binning, bins_per_side=args.bins_per_side,
                  poly_order=args.poly_order, grid_points=args.grid_points,
                  svg=args.svg)
    return config, plot, None


def _write_bins_csv(path, plot):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["side", "lower", "upper", "midpoint",
                         "mean_outcome", "count"])
        for side, bins in (("below", plot.bins_below),
                           ("above", plot.bins_above)):
            for b in bins:
                writer.writerow([side, b.lower, b.upper, b.midpoint,
                                 b.mean_outcome, b.count])


def cmd_power(args):
    from .powersim import power_curve, required_n

    if args.target_mde is not None and args.n_pilot is None:
        raise UsageError("--target-mde needs --n-pilot")
    result = power_curve(args.se, alpha=args.alpha, tau_grid=args.tau,
                         target_power=args.target_power)
    if args.target_mde is not None:
        n_req = required_n(args.se, args.n_pilot, args.target_mde,
                           alpha=args.alpha,
                           target_power=args.target_power,
                           scaling=args.scaling, p=args.p)
        result = dataclasses.replace(result, n_required=n_req)
    config = {
        "se": args.se, "alpha": args.alpha,
        "target_power": args.target_power, "tau": args.tau,
        "target_mde": args.target_mde, "n_pilot": args.n_pilot,
        "scaling": args.scaling, "p": args.p,
    }
    return config, result, None


def cmd_simulate(args):
    from .powersim import simulate_coverage

    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    dgp = getattr(import_module(".dgps", __package__), _DGPS[args.dgp])()
    result = simulate_coverage(
        dgp, estimator=args.estimator, n=args.n,
        replications=args.replications, seed=args.seed, p=args.p,
        kernel=args.kernel, level=args.level, h=args.h,
        threads=args.threads)
    config = {
        "dgp": args.dgp, "n": args.n, "replications": args.replications,
        "estimator": args.estimator, "p": args.p, "kernel": args.kernel,
        "level": args.level,
        "h_requested": "auto" if args.h is None else args.h,
        "true_tau": dgp.true_tau(),
    }
    return config, result, args.seed


def _fail(code: int, kind: str, exc: Exception) -> int:
    doc = {"error": {"type": type(exc).__name__, "kind": kind,
                     "message": str(exc)}}
    sys.stderr.write(canonical_json(doc))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        return _fail(1, "usage", exc)

    try:
        config, result, seed = args.run(args)
        # exactly the subcommands that read a file define --input
        digest = sha256_file(args.input) if hasattr(args, "input") else None
        report = make_report(args.command, result, config, seed=seed,
                             input_digest=digest)
        if args.output:
            write_report(args.output, report)
        else:
            sys.stdout.write(canonical_json(report))
    except UsageError as exc:
        return _fail(1, "usage", exc)
    except (DataError, FileNotFoundError, ValueError) as exc:
        return _fail(2, "data", exc)
    except EstimationError as exc:
        return _fail(3, "estimation", exc)
    return 0
