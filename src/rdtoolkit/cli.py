"""Command-line front end binding the analysis modules together.

Every subcommand resolves its configuration (including any "auto"
bandwidth or window), runs the analysis, and emits a single canonical
JSON report that embeds the resolved config, the toolkit version, the
input file digest, and the seed, so the run can be reproduced exactly
from its own output.  Reports go to --output or stdout.

Each subcommand imports its analysis modules inside its own body, so a
call loads only the modules it runs; the parser reads its shared
defaults from ``rdtoolkit.defaults``, which imports nothing else.  The
same holds for the standard library: ``--help`` and ``--version`` load
argparse and the shell (this module, ``errors``, ``defaults``) alone.
The report writer (``reports``, with ``json``) loads once a report or
an error is written, ``csv`` only with ``--table``, and ``dataclasses``
arrives with the analysis modules.  None of these imports numpy, so a
usage error and ``power`` load only the standard library.

Each flag is declared once, in :func:`build_parser`.  Its type carries
its range (``--covariate``'s action refuses a name given twice), and
each rule that ties it to another flag is declared once too:
``--cutoff`` and ``--cutoff-col`` form a mutually exclusive group, and
the other rules are the rows of ``_RULES``.  A row may read values
too: ``--window auto`` needs ascending ``--candidates``, and no
``--placebo`` cutoff may be the true one.  The report's config is
built from the parsed arguments: it echoes every flag except
``--output``, ``--table``, the seed (the report envelope carries it),
``--threads`` and ``--fisher-ci``, then adds the values the run
resolved, such as an "auto" bandwidth.  ``--svg`` is still echoed,
until the next report schema.

A call fails at the first of these checks: the parser's own (an
unknown flag, a value out of range), then the cross-flag rules, both
usage errors whose message names the flag; then the output paths
(--output, --table, --svg), where a path that is a directory, or lies
in a missing directory, fails before any work or side file; then the
input.  So no usage error waits for numpy or for a read.

Exit codes: 0 success, 1 usage error (bad flags), 2 data or config
error, a file that cannot be read or written included, 3 estimation
error.  Failures are reported as one JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
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
    MIN_REPLICATIONS,
    SELECT_DRAWS,
    SELECT_MAX_EXHAUSTIVE,
    SENSITIVITY_FACTORS,
    SIMULATE_N,
    SIMULATE_REPLICATIONS,
    SMALLEST_ALPHA,
)
from .errors import DataError, EstimationError

class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, ok, what):
    """An argparse type: ``convert`` the text, then require ``ok``.

    A value outside the range is reported as "must be <what>"; text that
    does not convert keeps argparse's "invalid <type> value" message,
    since the type carries ``convert``'s name.
    """
    def check(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    check.__name__ = convert.__name__
    return check


def _at_least(least):
    return _checked(int, lambda v: v >= least, f"at least {least}")


_UNIT = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
# a level or alpha whose normal quantile is finite
_LEVEL = _checked(float, lambda v: 0 < v < 1 - SMALLEST_ALPHA,
                  "in (0, 1 - 2**-53)")
_ALPHA = _checked(float, lambda v: SMALLEST_ALPHA < v < 1, "in (2**-53, 1)")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf,
                     "positive and finite")
_NONNEGATIVE = _checked(float, lambda v: 0 <= v < math.inf,
                        "non-negative and finite")
_FINITE = _checked(float, math.isfinite, "finite")
_NATURAL = _at_least(0)
_COUNT = _at_least(1)
_CHAR = _checked(str, lambda v: len(v) == 1, "one character")


def _auto_or_float(text: str):
    if text.strip().lower() == "auto":
        return None
    try:
        return _POSITIVE(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a number, got {text!r}")


class _AppendOnce(argparse.Action):
    """Append each value to a list; a value given twice is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        values = getattr(namespace, self.dest)
        if value in values:
            raise argparse.ArgumentError(self, f"{value!r} given twice")
        setattr(namespace, self.dest, [*values, value])


def _add_data_flags(parser, treatment=True):
    g = parser.add_argument_group("data")
    g.add_argument("--input", required=True, help="CSV file to analyze")
    g.add_argument("--score-col", required=True,
                   help="running variable column")
    g.add_argument("--outcome-col", required=True, help="outcome column")
    if treatment:
        g.add_argument("--treatment-col", default=None,
                       help="received-treatment column (0/1), fuzzy designs")
    g.add_argument("--covariate", action=_AppendOnce, default=[],
                   dest="covariates", metavar="NAME",
                   help="covariate column; repeatable, each name once")
    # the cutoff column sets each unit's cutoff
    cutoff = g.add_mutually_exclusive_group()
    cutoff.add_argument("--cutoff-col", default=None,
                        help="per-unit cutoff column for multi-cutoff data")
    cutoff.add_argument("--cutoff", type=_FINITE, default=0.0,
                        help="cutoff value (default 0; not with "
                             "--cutoff-col)")
    g.add_argument("--delimiter", type=_CHAR, default=",",
                   help="CSV delimiter, one character")


def _add_fit_flags(parser):
    g = parser.add_argument_group("fit")
    g.add_argument("--p", type=int, default=1,
                   choices=range(0, 5), metavar="P",
                   help="local polynomial order (0-4)")
    g.add_argument("--kernel", default="triangular", choices=KERNELS)
    g.add_argument("--level", type=_LEVEL, default=0.95,
                   help="confidence level, in (0, 1 - 2**-53)")


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
    loc.add_argument("--candidates", type=_POSITIVE, nargs="+", default=None,
                     metavar="W", help="candidate half-widths for auto "
                                       "selection")
    loc.add_argument("--balance-alpha", type=_UNIT, default=BALANCE_ALPHA,
                     help="minimum balance p-value for auto selection, "
                          "in (0, 1)")
    loc.add_argument("--model", default="fixed_margins",
                     choices=("fixed_margins", "bernoulli"))
    loc.add_argument("--prob", type=_UNIT, default=0.5,
                     help="Bernoulli assignment probability")
    loc.add_argument("--statistic", default="diff_means",
                     choices=("diff_means", "studentized"))
    loc.add_argument("--framework", default="neyman",
                     choices=("neyman", "superpop"))
    loc.add_argument("--alpha", type=_ALPHA, default=0.05,
                     help="test level for intervals, in (2**-53, 1)")
    loc.add_argument("--draws", type=_COUNT, default=DRAWS,
                     help="Monte Carlo draws of the Fisher test when "
                          "enumeration is infeasible; --window auto "
                          f"selection draws its own {SELECT_DRAWS}")
    loc.add_argument("--max-exhaustive", type=_NATURAL,
                     default=MAX_EXHAUSTIVE,
                     help="largest assignment count the Fisher test "
                          "enumerates exactly; --window auto selection "
                          "enumerates up to its own "
                          f"{SELECT_MAX_EXHAUSTIVE}")
    loc.add_argument("--fisher-ci", action="store_true",
                     help="also invert the Fisher test into a CI")
    loc.add_argument("--seed", type=_NATURAL, default=0)
    loc.add_argument("--table", default=None,
                     help="write the window-selection trace as CSV")
    _add_out_flags(loc)
    loc.set_defaults(run=cmd_locrand)

    val = sub.add_parser("validate", help="falsification battery")
    _add_data_flags(val)
    _add_fit_flags(val)
    val.add_argument("--h", type=_auto_or_float, default=None, metavar="H",
                     help="estimation bandwidth (default auto)")
    val.add_argument("--count-halfwidth", type=_POSITIVE, default=None,
                     help="window half-width for the binomial count test "
                          "(default h/2)")
    val.add_argument("--placebo", type=_FINITE, nargs="+", default=None,
                     metavar="C", help="placebo cutoffs (default: side "
                                       "quantiles outside the bandwidth)")
    val.add_argument("--donut", type=_NONNEGATIVE, nargs="+",
                     default=DONUT_RADII, metavar="R",
                     help="donut radii")
    val.add_argument("--sensitivity", type=_POSITIVE, nargs="+",
                     default=SENSITIVITY_FACTORS, metavar="F",
                     help="bandwidth multipliers")
    val.add_argument("--bins-per-side", type=_at_least(2),
                     default=BINS_PER_SIDE,
                     help="density-test histogram bins")
    val.add_argument("--draws", type=_COUNT, default=DRAWS)
    val.add_argument("--seed", type=_NATURAL, default=0)
    val.add_argument("--table", default=None,
                     help="write the battery as wide CSV, one row per test")
    _add_out_flags(val)
    val.set_defaults(run=cmd_validate)

    plot = sub.add_parser("plot", help="binned scatter + polynomial overlay")
    _add_data_flags(plot, treatment=False)
    plot.add_argument("--binning", default="evenly_spaced",
                      choices=("evenly_spaced", "quantile"))
    plot.add_argument("--bins-per-side", type=_COUNT, default=None,
                      help="bins per side (default: mimicking-variance "
                           "heuristic)")
    plot.add_argument("--poly-order", type=_NATURAL, default=4,
                      help="global polynomial order")
    plot.add_argument("--grid-points", type=_COUNT, default=200)
    plot.add_argument("--svg", default=None, help="also render an SVG here")
    plot.add_argument("--table", default=None,
                      help="write the bin table as CSV")
    _add_out_flags(plot)
    plot.set_defaults(run=cmd_plot)

    pow_ = sub.add_parser("power", help="power, MDE, and sample-size math")
    pow_.add_argument("--se", type=_POSITIVE, required=True,
                      help="standard error of the effect estimator")
    pow_.add_argument("--alpha", type=_ALPHA, default=0.05)
    pow_.add_argument("--target-power", type=_UNIT, default=0.80)
    pow_.add_argument("--tau", type=_FINITE, nargs="+", default=None,
                      metavar="T", help="effects to evaluate power at")
    pow_.add_argument("--target-mde", type=_POSITIVE, default=None,
                      help="solve for the n reaching this MDE")
    pow_.add_argument("--n-pilot", type=_COUNT, default=None,
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
    sim.add_argument("--n", type=_COUNT, default=SIMULATE_N)
    sim.add_argument("--replications", type=_at_least(MIN_REPLICATIONS),
                     default=SIMULATE_REPLICATIONS)
    sim.add_argument("--estimator", default="conventional",
                     choices=("conventional", "rbc"))
    sim.add_argument("--h", type=_auto_or_float, default=None, metavar="H",
                     help="fixed bandwidth, or 'auto' to reselect per "
                          "replication (default auto)")
    _add_fit_flags(sim)
    sim.add_argument("--seed", type=_NATURAL, default=0)
    sim.add_argument("--threads", type=_COUNT, default=1,
                     help="worker threads (default 1); results never "
                          "depend on it")
    _add_out_flags(sim)
    sim.set_defaults(run=cmd_simulate)

    return parser


# The rules that tie one flag to another, besides the --cutoff group, as
# (command, broken, message) rows; main checks them once the arguments
# are parsed, before the output paths and the input.
_RULES = (
    ("estimate", lambda args: args.design == "kink" and args.p < 1,
     "argument --p: --design kink needs --p of at least 1"),
    ("estimate",
     lambda args: args.design == "fuzzy" and not args.treatment_col,
     "argument --treatment-col: --design fuzzy needs a received-treatment "
     "column"),
    # only a selected bandwidth has a coverage-error value to shrink to
    ("estimate", lambda args: args.h is not None and args.ce,
     "argument --ce: shrinks the auto bandwidth, so it needs --h auto"),
    ("locrand", lambda args: args.window is None and not args.covariates,
     "argument --covariate: --window auto selects the window by "
     "covariate balance, so it needs at least one --covariate"),
    # only a selected window has a trace to write
    ("locrand", lambda args: args.window is not None and args.table,
     "argument --table: writes the window-selection trace, so it needs "
     "--window auto"),
    ("locrand", lambda args: args.window is None and args.candidates
     and args.candidates != sorted(args.candidates),
     "argument --candidates: --window auto needs them in ascending order"),
    # --cutoff keeps its default 0, the centred cutoff, with --cutoff-col
    ("validate",
     lambda args: args.placebo is not None and args.cutoff in args.placebo,
     "argument --placebo: a placebo cutoff must differ from the true "
     "cutoff (--cutoff, or 0 with --cutoff-col)"),
    ("power",
     lambda args: args.target_mde is not None and args.n_pilot is None,
     "argument --target-mde: needs --n-pilot"),
)


# --------------------------------------------------------------------
# Subcommand bodies.  Each returns (config, result, seed) and the
# caller wraps them into the report envelope.
# --------------------------------------------------------------------

# Parsed dests the config leaves out: the dispatch, output paths, the
# seed (the envelope carries it) and --threads, which changes no number.
# --fisher-ci only adds a result section; echoing it waits for the next
# report schema, so that today's reports keep their bytes.  The input
# digest is set by the read of the input and has its own envelope field.
_UNECHOED = frozenset({"command", "run", "output", "table", "seed",
                       "threads", "fisher_ci", "input_digest"})


def _config(args, **resolved):
    """The report's config: every parsed flag not in ``_UNECHOED``, with
    ``--h`` and ``--window`` as requested ("auto" for None), then the
    values the run resolved."""
    config = {}
    for dest, value in vars(args).items():
        if dest in ("h", "window"):
            dest = f"{dest}_requested"
            value = "auto" if value is None else value
        if dest not in _UNECHOED:
            config[dest] = value
    return {**config, **resolved}


def _write_csv(path, header, rows):
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _ingest(args):
    """The input's sample; its digest, from the same read, goes to
    ``args.input_digest``."""
    from .sample import ingest_with_digest
    column_map = {"score": args.score_col, "outcome": args.outcome_col}
    if getattr(args, "treatment_col", None):
        column_map["treatment"] = args.treatment_col
    if args.cutoff_col:
        column_map["cutoff"] = args.cutoff_col
    for name in args.covariates:
        column_map.setdefault("covariates", []).append(name)
    sample, args.input_digest = ingest_with_digest(
        args.input, column_map, cutoff=args.cutoff, delimiter=args.delimiter)
    return sample


def cmd_estimate(args):
    from .bandwidth import select_mse_bandwidth
    from .continuity import per_cutoff_estimates, rbc_inference
    sample = _ingest(args)
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

    config = _config(args, h_below=float(h_below), h_above=float(h_above))
    result = {
        "estimate": est,
        "rbc": {name: getattr(rbc, name) for name in (
            "bias_estimate", "tau_bc", "se_robust", "ci_rbc",
            "inference_order")},
    }
    if args.design == "pooled":
        result["per_cutoff"] = per_cutoff_estimates(sample, est)
    if selection is not None:
        result["bandwidth_selection"] = selection
    return config, result, None


def cmd_locrand(args):
    from .locrand import (
        Bernoulli,
        FixedMargins,
        _fisher_pvalue_and_ci,
        diff_in_means,
        fuzzy_locrand,
        make_window,
        neyman_ci,
        select_window,
    )

    sample = _ingest(args)
    model = (Bernoulli(args.prob) if args.model == "bernoulli"
             else FixedMargins())

    selection = None
    if args.window is None:
        selection = select_window(
            sample, candidates=args.candidates, alpha=args.balance_alpha,
            model=model, statistic=args.statistic, seed=args.seed)
        window, w_left, w_right = (selection.window, selection.w_left,
                                   selection.w_right)
    else:
        w_left = w_right = args.window
        window = make_window(sample, w_left, w_right)

    estimate = diff_in_means(sample, window, model=model,
                             framework=args.framework)
    estimate_fuzzy = None if sample.received is None else fuzzy_locrand(
        sample, window, model=model, framework=args.framework)
    # the p-value and the interval share one ensemble; without
    # --fisher-ci the grid is empty, so only the sharp null is tested
    fisher, ci = _fisher_pvalue_and_ci(
        sample, window, model, args.statistic,
        None if args.fisher_ci else (), args.alpha, args.max_exhaustive,
        args.draws, args.seed)
    neyman = neyman_ci(sample, window, framework=args.framework,
                       alpha=args.alpha, model=model)

    config = _config(args, w_left=float(w_left), w_right=float(w_right))
    result = {
        "window": window,
        "estimate": estimate,
        "fuzzy_estimate": estimate_fuzzy,
        "fisher": fisher,
        "neyman": neyman,
        "fisher_ci": ci if args.fisher_ci else None,
        "window_selection": selection,
    }
    if args.table:
        _write_csv(args.table,
                   *_trace_table(selection.trace, sorted(sample.covariates)))
    return config, result, args.seed


def _trace_table(rows, covariates):
    header = ["w_left", "w_right", "n_w", "n_plus", "n_minus", "feasible",
              "min_p", "passed"] + [f"p_{c}" for c in covariates]
    return header, ([row.w_left, row.w_right, row.n_w, row.n_plus,
                     row.n_minus, row.feasible, row.min_p, row.passed]
                    + list(map(dict(row.p_values).get, covariates))
                    for row in rows)


def cmd_validate(args):
    from .validation import run_battery

    sample = _ingest(args)
    report = run_battery(
        sample, p=args.p, kernel=args.kernel, h=args.h, level=args.level,
        count_halfwidth=args.count_halfwidth, placebo_grid=args.placebo,
        donut_radii=tuple(args.donut),
        sensitivity_factors=tuple(args.sensitivity),
        bins_per_side=args.bins_per_side, draws=args.draws, seed=args.seed)
    if args.table:
        _write_csv(args.table, *_battery_table(report))
    return _config(args, h_baseline=report.h_baseline), report, args.seed


def _battery_table(report):
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
    return ["test", "detail", "statistic", "p_value", "estimate", "ci_low",
            "ci_high", "n"], rows


def cmd_plot(args):
    from .plotting import build_rdplot, render_svg

    sample = _ingest(args)
    plot = build_rdplot(sample, binning=args.binning,
                        bins_per_side=args.bins_per_side,
                        poly_order=args.poly_order,
                        grid_points=args.grid_points)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_svg(plot))
    if args.table:
        rows = ([side, b.lower, b.upper, b.midpoint, b.mean_outcome, b.count]
                for side, bins in (("below", plot.bins_below),
                                   ("above", plot.bins_above)) for b in bins)
        _write_csv(args.table, ["side", "lower", "upper", "midpoint",
                                "mean_outcome", "count"], rows)
    return _config(args), plot, None


def cmd_power(args):
    import dataclasses

    from .powersim import power_curve, required_n
    result = power_curve(args.se, alpha=args.alpha, tau_grid=args.tau,
                         target_power=args.target_power)
    if args.target_mde is not None:
        n_req = required_n(args.se, args.n_pilot, args.target_mde,
                           alpha=args.alpha,
                           target_power=args.target_power,
                           scaling=args.scaling, p=args.p)
        result = dataclasses.replace(result, n_required=n_req)
    return _config(args), result, None


def cmd_simulate(args):
    dgps = import_module(".dgps", __package__)
    dgp = getattr(dgps, _DGPS[args.dgp])()
    result = dgps.simulate_coverage(
        dgp, estimator=args.estimator, n=args.n,
        replications=args.replications, seed=args.seed, p=args.p,
        kernel=args.kernel, level=args.level, h=args.h,
        threads=args.threads)
    return _config(args, true_tau=dgp.true_tau()), result, args.seed


def _fail(code: int, kind: str, exc: Exception) -> int:
    from .reports import canonical_json
    doc = {"error": {"type": type(exc).__name__, "kind": kind,
                     "message": str(exc)}}
    sys.stderr.write(canonical_json(doc))
    return code


def _check_output_paths(args):
    """Raise, before any work, the error ``open`` would raise on an output
    path the run writes that is a directory or lies in a missing one.
    Other failures, such as a denied permission, are left to the write."""
    for dest in ("output", "table", "svg"):
        path = getattr(args, dest, None)
        if not path:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    path)
        try:
            os.stat(os.path.dirname(path.rstrip(os.sep)) or os.curdir)
        except OSError as exc:
            if exc.errno == errno.ENOENT:
                raise FileNotFoundError(
                    errno.ENOENT, os.strerror(errno.ENOENT), path) from None


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for command, broken, message in _RULES:
            if command == args.command and broken(args):
                raise UsageError(message)
        _check_output_paths(args)
        config, result, seed = args.run(args)
        from .reports import canonical_json, make_report, write_report
        # exactly the subcommands that read a file set it
        report = make_report(args.command, result, config, seed=seed,
                             input_digest=getattr(args, "input_digest", None))
        if args.output:
            write_report(args.output, report)
        else:
            sys.stdout.write(canonical_json(report))
    except UsageError as exc:
        return _fail(1, "usage", exc)
    except (DataError, OSError, ValueError) as exc:
        return _fail(2, "data", exc)
    except EstimationError as exc:
        return _fail(3, "estimation", exc)
    return 0
