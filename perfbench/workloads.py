"""The benchmark's three workloads: their inputs and their CLI calls.

Why each workload is here (see README.md for the measured shares):

* ``large_file``: ``estimate`` and ``plot --svg`` on a 1e6-row CSV.  CSV
  ingest dominates each call; fits are small and no permutation runs.
  It exercises ingest, plot binning and the input digest, and bypasses
  local randomization and the Monte Carlo engine.
* ``covariate_session``: ``locrand``, ``validate`` and a fuzzy
  ``estimate`` on a 2e4-row CSV with two covariates.  Package import and
  the permutation ensembles (window selection, Fisher p-value and CI,
  balance checks) set its time and its peak memory; ingest is small.
* ``coverage_study``: ``simulate`` of the curved benchmark with the
  conventional and the bias-corrected estimator, no input file.  The
  per-replication draw, bandwidth and fit loop does almost all the work;
  this is the paper's headline experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("large_file", "covariate_session", "coverage_study")

LARGE_ROWS = 1_000_000
SESSION_ROWS = 20_000
INPUT_ROWS = {"large_file": LARGE_ROWS, "covariate_session": SESSION_ROWS}

COVARIATES = ("age", "income")
CANDIDATES = (0.01, 0.02, 0.03, 0.05, 0.08)
# The default donut radii (0, 0.05, 0.1) are absolute, and at 2e4 rows
# h_mse is often below 0.1, so the battery aborts with exit 3 (a known
# defect).  These radii keep three donut refits inside every bandwidth
# this input produces.
DONUT_RADII = (0.0, 0.02, 0.04)
# The battery's count window (binomial test and permutation balance
# checks) defaults to h_mse / 2, and h_mse varies with the draw, so the
# battery's largest permutation ensemble, its time and its peak memory
# followed the seed (257-434 MB over ten seeds).  A fixed half-width, about
# h_mse / 2 at this size, keeps that work the same at every seed.
COUNT_HALFWIDTH = 0.04

# The CPU probe that scales each workload's times (see run.py): CSV
# ingest and package import are bound by the interpreter; the replication
# loop by small numpy and LAPACK calls, which the interpreter probe tracked
# poorly there (spread 0.14 against 0.09 with this one, on the same runs).
PROBE = {"large_file": "interpreter", "covariate_session": "interpreter",
         "coverage_study": "small_arrays"}

SIM_N = 1000
REPLICATIONS = 2000
ESTIMATORS = ("conventional", "rbc")


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``label`` is unique within its workload."""

    label: str
    command: str
    argv: tuple[str, ...]
    output: str
    rows: int = 0
    replications: int = 0
    svg: str | None = None


def _data_args(csv_path, *covariates, treatment=False):
    args = ["--input", csv_path, "--score-col", "score",
            "--outcome-col", "outcome"]
    if treatment:
        args += ["--treatment-col", "received"]
    for name in covariates:
        args += ["--covariate", name]
    return args


def calls(workload: str, csv_path: str | None, out_dir: str,
          seed: int) -> list[Call]:
    """The workload's CLI sequence; paths are relative to the checkout."""
    def make(label, command, args, **kw):
        output = f"{out_dir}/{label}.json"
        return Call(label=label, command=command,
                    argv=(command, *args, "--output", output), output=output,
                    **kw)

    if workload == "large_file":
        svg = f"{out_dir}/plot.svg"
        return [
            make("estimate", "estimate", _data_args(csv_path),
                 rows=LARGE_ROWS),
            make("plot", "plot", [*_data_args(csv_path), "--svg", svg],
                 rows=LARGE_ROWS, svg=svg),
        ]
    if workload == "covariate_session":
        return [
            make("locrand", "locrand",
                 [*_data_args(csv_path, *COVARIATES), "--candidates",
                  *map(str, CANDIDATES), "--fisher-ci", "--seed", str(seed)],
                 rows=SESSION_ROWS),
            make("validate", "validate",
                 [*_data_args(csv_path, *COVARIATES), "--donut",
                  *map(str, DONUT_RADII), "--count-halfwidth",
                  str(COUNT_HALFWIDTH), "--seed", str(seed)],
                 rows=SESSION_ROWS),
            make("estimate_fuzzy", "estimate",
                 [*_data_args(csv_path, treatment=True), "--design", "fuzzy"],
                 rows=SESSION_ROWS),
        ]
    if workload == "coverage_study":
        return [
            make(f"simulate_{est}", "simulate",
                 ["--dgp", "curved_benchmark", "--n", str(SIM_N),
                  "--replications", str(REPLICATIONS), "--estimator", est,
                  "--seed", str(seed)],
                 replications=REPLICATIONS)
            for est in ESTIMATORS
        ]
    raise ValueError(f"unknown workload {workload!r}")
