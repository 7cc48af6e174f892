"""Output checks for the reports the CLI writes.

Every report is checked for its envelope (schema, kind, input digest)
and for invariants that hold at any seed.  At the reference seed its key
fields are also compared with values recorded from the seed commit:
floats to a relative tolerance, counts exactly.  Fields are compared one
by one rather than by hashing the whole report, so entries the report
gains later do not read as failures.
"""

from __future__ import annotations

import json
import math

SCHEMA = "rd-toolkit-report/1"
REL_TOL = 1e-9


def _estimate_fields(result):
    est, rbc = result["estimate"], result["rbc"]
    fields = {"tau_hat": est["tau_hat"],
              "ci_rbc.lower": rbc["ci_rbc"][0],
              "ci_rbc.upper": rbc["ci_rbc"][1],
              "h_mse": result["bandwidth_selection"]["h_mse"],
              "n_eff_below": est["n_eff_below"],
              "n_eff_above": est["n_eff_above"]}
    if est.get("first_stage") is not None:
        fields["first_stage"] = est["first_stage"]
    return fields


def _plot_fields(result):
    return {"j_below": result["j_below"], "j_above": result["j_above"],
            "count_below": sum(b["count"] for b in result["bins_below"]),
            "count_above": sum(b["count"] for b in result["bins_above"])}


def _locrand_fields(result):
    window, fisher, ci = result["window"], result["fisher"], result["fisher_ci"]
    selection = result["window_selection"]
    return {"w_left": selection["w_left"], "w_right": selection["w_right"],
            "n_w": window["n_w"], "n_plus": window["n_plus"],
            "n_minus": window["n_minus"],
            "fisher.p_value": fisher["p_value"],
            "fisher.draws": fisher["draws"],
            "fisher_ci.lower": ci["lower"], "fisher_ci.upper": ci["upper"]}


def _validate_fields(result):
    fields = {"h_baseline": result["h_baseline"],
              "binomial.k": result["binomial"]["k"],
              "binomial.n": result["binomial"]["n"],
              "binomial.p_value": result["binomial"]["p_value"],
              "density.p_value": result["density"]["p_value"]}
    for rec in result["balance"]:
        key = f"balance.{rec['covariate']}.{rec['method']}.p_value"
        fields[key] = rec["p_value"]
    for i, rec in enumerate(result["placebo_cutoffs"]):
        fields[f"placebo.{i}.p_value"] = rec["p_value"]
    return fields


def _simulate_fields(result):
    return {key: result[key] for key in
            ("coverage", "avg_ci_length", "n_replications", "n_failed")}


_FIELDS = {"estimate": _estimate_fields, "plot": _plot_fields,
           "locrand": _locrand_fields, "validate": _validate_fields,
           "simulate": _simulate_fields}


def _invariants(command, fields, expect):
    """Problems with ``fields`` that would be wrong at any seed."""
    problems = []
    for key, value in fields.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{key} is not a finite number: {value!r}")
    if problems:
        return problems

    def need(ok, text):
        if not ok:
            problems.append(text)

    if command == "estimate":
        need(fields["ci_rbc.lower"] < fields["ci_rbc.upper"],
             "ci_rbc is empty")
        need(fields["h_mse"] > 0, "h_mse is not positive")
        need(fields["n_eff_below"] > 0 and fields["n_eff_above"] > 0,
             "a side has no effective observations")
    elif command == "plot":
        need(fields["count_below"] + fields["count_above"] == expect["rows"],
             "plot bins do not hold every row")
    elif command == "locrand":
        need(fields["n_w"] == fields["n_plus"] + fields["n_minus"],
             "window counts do not add up")
        need(0 < fields["fisher.p_value"] <= 1, "Fisher p-value out of (0, 1]")
        need(fields["fisher_ci.lower"] <= fields["fisher_ci.upper"],
             "Fisher CI bounds are reversed")
    elif command == "validate":
        need(fields["h_baseline"] > 0, "h_baseline is not positive")
        need(fields["binomial.k"] <= fields["binomial.n"],
             "binomial count exceeds its window")
        for key, value in fields.items():
            if key.endswith("p_value"):
                need(0 <= value <= 1, f"{key} out of [0, 1]")
    elif command == "simulate":
        need(0 <= fields["coverage"] <= 1, "coverage out of [0, 1]")
        need(fields["avg_ci_length"] > 0, "average CI length not positive")
        need(fields["n_replications"] + fields["n_failed"]
             == expect["replications"], "replication counts do not add up")
    return problems


def compare_fields(fields: dict, reference: dict) -> list[str]:
    """Mismatches against reference values: counts exact, floats 1e-9."""
    problems = []
    for key in sorted(set(fields) | set(reference)):
        if key not in fields or key not in reference:
            problems.append(f"{key}: present in only one of report and "
                            f"reference")
            continue
        got, want = fields[key], reference[key]
        if isinstance(want, int) and not isinstance(want, bool):
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
        if not ok:
            problems.append(f"{key}: {got!r} != reference {want!r}")
    return problems


def check_report(command: str, data: bytes, digest: str | None,
                 expect: dict, reference: dict | None = None):
    """Return (key fields, problems) for one report's bytes.

    ``expect`` holds the call's known sizes (``rows`` or
    ``replications``); ``reference`` the key fields recorded for this
    call at the reference seed, or None at any other seed.
    """
    try:
        report = json.loads(data)
    except ValueError as err:
        return {}, [f"report does not parse: {err}"]
    problems = []
    if report.get("schema") != SCHEMA:
        problems.append(f"schema {report.get('schema')!r} != {SCHEMA!r}")
    if report.get("kind") != command:
        problems.append(f"kind {report.get('kind')!r} != {command!r}")
    if report.get("input_digest") != digest:
        problems.append(f"input_digest {report.get('input_digest')!r} "
                        f"!= file SHA-256 {digest!r}")
    try:
        fields = _FIELDS[command](report["result"])
    except (KeyError, IndexError, TypeError) as err:
        return {}, problems + [f"key field missing: {err!r}"]
    problems += _invariants(command, fields, expect)
    if reference is not None:
        problems += compare_fields(fields, reference)
    return fields, problems
