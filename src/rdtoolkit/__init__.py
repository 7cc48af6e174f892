"""Regression discontinuity analysis toolkit.

Continuity-based estimation (local polynomial point estimators with
conventional and robust bias-corrected inference), local randomization
inference (window selection, Fisherian and large-sample tests), a
falsification battery, RD plots, and power/simulation utilities, all
behind a reproducible CLI.

Each public name is listed once, in ``_EXPORTS`` under its home module,
and is imported from that module on first use (PEP 562), so
``import rdtoolkit`` loads no analysis module until a name is read.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bandwidth": ("BandwidthSelection", "kernel_constants", "mse_constant",
                  "select_mse_bandwidth"),
    "continuity": ("CutoffEstimate", "RbcResult", "RdEstimate",
                   "fuzzy_estimate", "kink_estimate", "rbc_inference",
                   "sharp_estimate"),
    "dgps": ("CoverageResult", "DgpSpec", "OracleBandwidth",
             "curved_benchmark", "linear_dgp", "oracle_mse_bandwidth",
             "piecewise_balance_dgp", "simulate_coverage", "simulate_sample",
             "step_dgp"),
    "locrand": ("Bernoulli", "FisherCi", "FisherResult", "FixedMargins",
                "LocRandEstimate", "NeymanResult", "Window",
                "WindowSelection", "diff_in_means", "fisher_ci",
                "fisher_pvalue", "fuzzy_locrand", "make_window", "neyman_ci",
                "select_window"),
    "lpoly": ("LocalFit", "kernel_weight"),
    "plotting": ("PlotBin", "RdPlotData", "build_rdplot", "render_svg"),
    "powersim": ("PowerResult", "mde", "power_at", "power_curve",
                 "required_n"),
    "reports": ("canonical_json", "make_report", "write_report"),
    "rng": ("substream",),
    "sample": ("RdSample", "ingest_csv", "sha256_file"),
    "validation": ("BalanceRecord", "BinomialRecord", "DensityRecord",
                   "DonutRecord", "PlaceboRecord", "SensitivityRecord",
                   "ValidationReport", "bandwidth_sensitivity",
                   "binomial_test", "covariate_balance", "density_test",
                   "donut_hole", "placebo_cutoffs", "run_battery"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    """Import ``name`` from its home module and keep it in the package."""
    if name not in _HOME:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
