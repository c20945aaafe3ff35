#!/usr/bin/env python3
"""Merge per-binary ANTSim JSON reports into one BENCH_antsim.json.

Usage: merge_reports.py OUT.json [--smoke] REPORT.json...

Each input is the --json output of one bench binary (schema_version 1).
The merged document keys every run by its binary name and lifts the
headline numbers -- fig09 geomeans, table5 mean RCP avoidance, and the
abl_threads per-stage wall-clock breakdown -- into a "summary" block so
downstream tooling does not need to know each binary's metric names.

Runs produced by the analytical fast path carry metadata.mode ==
"estimated" (bench --estimate / ANTSIM_ESTIMATE). They merge into the
"runs" section like any other report -- the sweep_dse design-space
bench is estimated by design -- but they can never supply the headline
summary numbers: a run whose metrics feed the summary block must be
mode "simulated", and the merge fails loudly otherwise rather than
publishing estimator output as measured truth.

Only the Python standard library is used: the bench containers (and the
CI runner) deliberately have no third-party packages installed.
"""

import json
import sys


def fatal(message):
    print("merge_reports: error: " + message, file=sys.stderr)
    sys.exit(1)


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fatal("cannot read {}: {}".format(path, err))
    for key in ("schema_version", "generator", "metadata", "metrics"):
        if key not in report:
            fatal("{} is missing required key '{}'".format(path, key))
    if report["schema_version"] != 1:
        fatal("{} has unsupported schema_version {}".format(
            path, report["schema_version"]))
    return report


def stage_seconds(report):
    """Per-stage wall-clock seconds from a report's profile section."""
    stages = report.get("profile", {}).get("stages", [])
    return {stage["name"]: stage["seconds"] for stage in stages}


def require_simulated(runs, binary):
    """A run whose numbers feed the headline summary must be simulated:
    estimator output (metadata.mode == "estimated") is a prediction,
    not a measurement, and must never become a headline geomean."""
    if binary not in runs:
        fatal("required run '{}' missing from inputs".format(binary))
    mode = runs[binary]["metadata"].get("mode", "simulated")
    if mode != "simulated":
        fatal("run '{}' has metadata.mode '{}'; headline summary "
              "numbers must come from cycle-level simulation -- rerun "
              "it without --estimate / ANTSIM_ESTIMATE".format(
                  binary, mode))
    return runs[binary]


def require_metric(runs, binary, metric):
    metrics = require_simulated(runs, binary)["metrics"]
    if metric not in metrics:
        fatal("run '{}' has no metric '{}'".format(binary, metric))
    return metrics[metric]


def main(argv):
    args = [a for a in argv[1:] if a != "--smoke"]
    smoke = "--smoke" in argv[1:]
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_path, inputs = args[0], args[1:]

    runs = {}
    for path in inputs:
        report = load_report(path)
        binary = report["metadata"]["binary"]
        if binary in runs:
            fatal("duplicate run for binary '{}'".format(binary))
        runs[binary] = report

    summary = {
        "speedup_geomean": require_metric(
            runs, "fig09_speedup_energy", "speedup_geomean"),
        "energy_reduction_geomean": require_metric(
            runs, "fig09_speedup_energy", "energy_reduction_geomean"),
        "rcp_avoided_mean": require_metric(
            runs, "table5_rcp_avoided", "rcp_avoided_mean"),
        "stage_seconds": stage_seconds(require_simulated(runs,
                                                         "abl_threads")),
    }
    if not summary["stage_seconds"]:
        fatal("abl_threads report carries no profile section")
    # sweep_dse's estimator wall clock per design point. Optional
    # (older suites did not run the sweep); check_perf.py gates it
    # against estimate_ms_per_point_max when present.
    if "sweep_dse" in runs:
        metrics = runs["sweep_dse"]["metrics"]
        for key in ("estimate_seconds", "grid_points"):
            if key not in metrics:
                fatal("sweep_dse run has no metric '{}'".format(key))
        if metrics["grid_points"] <= 0:
            fatal("sweep_dse run estimated no design points")
        summary["estimate_ms_per_point"] = (
            metrics["estimate_seconds"] / metrics["grid_points"] * 1e3)

    merged = {
        "schema_version": 1,
        "generator": "antsim",
        "suite": "bench_all",
        "smoke": smoke,
        "summary": summary,
        "runs": runs,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    print("merge_reports: wrote {} ({} runs)".format(out_path, len(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
