#!/usr/bin/env python3
"""Fail when the bench suite's stage timings regress against a baseline.

Usage: check_perf.py BASELINE.json REPORT.json [--factor F]
       [--min-seconds S]
       check_perf.py --trend [BENCH_history.jsonl]
       check_perf.py --overhead BASE.json METERED.json
       [BASE.json METERED.json ...] [--max-overhead-pct P]

BASELINE.json is the checked-in scripts/perf_baseline.json: a document
with a "stage_seconds" object of per-stage seconds recorded from a
known-good smoke run. REPORT.json is a merged BENCH_antsim.json (see
scripts/bench_all.sh); its summary.stage_seconds is compared stage by
stage and the check fails if any stage exceeds factor * baseline
(default 2x -- wide enough for machine-to-machine variance, narrow
enough to catch an accidental revert of the census and fused
plane-generation fast paths).

When the baseline carries an "estimate_ms_per_point_max" number, the
report's summary.estimate_ms_per_point (the bench/sweep_dse wall clock
of analytical estimation per design point) must stay at or under it;
see check_estimate_ms_per_point below.

The comparison is printed as a per-stage delta table (baseline vs
current, % change, limit, verdict); when the GITHUB_STEP_SUMMARY
environment variable points at a writable file (GitHub Actions job
summary), the same table is appended there as markdown.

Stages whose baseline is below --min-seconds (default 0.05) are skipped:
sub-50ms stages are timer noise, not signal.

--trend is informational, never a gate: it reads the BENCH_history.jsonl
appended by scripts/bench_all.sh (one JSON object per suite run:
timestamp, geomeans, stage seconds, generated-plane roll-up) and prints
the delta of the newest entry against the one before it. Machine-to-machine
variance makes an automatic gate on history meaningless; the value is a
human-readable trajectory in the CI log.

--overhead gates the cost of observability itself over one or more
BASE/METERED pairs: BASE.json is a report from a plain run, METERED.json
the same configuration with host observability on (--host-trace-out,
which turns on the host span tracer). Each pair's delta is the metered
run's summed profile.stages[].seconds over the base run's, and the
median delta must stay within --max-overhead-pct (default 3). On a
~0.1 s workload one pair swings by more than the bound either way, so
CI passes several interleaved pairs. This is the CI teeth behind the
"one thread-local branch when off, cheap when on" design contract of
src/obs/host_trace.hh.

Only the Python standard library is used: the bench containers and the
CI runner deliberately have no third-party packages installed.
"""

import json
import os
import statistics
import sys


def fatal(message):
    print("check_perf: error: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fatal("cannot read {}: {}".format(path, err))


def parse_flag(args, name, default):
    if name in args:
        index = args.index(name)
        if index + 1 >= len(args):
            fatal("{} expects a value".format(name))
        try:
            value = float(args[index + 1])
        except ValueError:
            fatal("{} expects a number, got '{}'".format(
                name, args[index + 1]))
        del args[index:index + 2]
        return value
    return default


def build_rows(baseline, current, factor, min_seconds):
    """One row per baseline stage:
    (stage, baseline_s, current_s, delta_pct, limit_s, verdict)."""
    rows = []
    for stage, budget in sorted(baseline.items()):
        if stage not in current:
            fatal("report is missing stage '{}'".format(stage))
        seconds = current[stage]
        delta = ((seconds - budget) / budget * 100.0) if budget > 0 else 0.0
        if budget < min_seconds:
            verdict = "skipped (noise floor)"
        elif seconds <= budget * factor:
            verdict = "ok"
        else:
            verdict = "REGRESSED"
        rows.append((stage, budget, seconds, delta, budget * factor,
                     verdict))
    return rows


def print_table(rows, factor):
    header = ("stage", "baseline (s)", "current (s)", "delta",
              "limit {:.1f}x (s)".format(factor), "verdict")
    widths = [max(len(header[i]), 18 if i == 0 else 14)
              for i in range(len(header))]
    line = "  ".join("{:<{}}".format(header[i], widths[i])
                     for i in range(len(header)))
    print("check_perf: " + line)
    print("check_perf: " + "-" * len(line))
    for stage, budget, seconds, delta, limit, verdict in rows:
        cells = (stage, "{:.4f}".format(budget), "{:.4f}".format(seconds),
                 "{:+.1f}%".format(delta), "{:.4f}".format(limit), verdict)
        print("check_perf: " + "  ".join(
            "{:<{}}".format(cells[i], widths[i])
            for i in range(len(cells))))


def write_job_summary(rows, factor, report_path):
    """Append the delta table as markdown to the GitHub job summary."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "### Perf check: stage timings vs baseline",
        "",
        "Report: `{}` -- limit = {:.1f}x baseline".format(
            report_path, factor),
        "",
        "| Stage | Baseline (s) | Current (s) | Delta | Verdict |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for stage, budget, seconds, delta, _limit, verdict in rows:
        mark = ":x: " if verdict == "REGRESSED" else ""
        lines.append("| {} | {:.4f} | {:.4f} | {:+.1f}% | {}{} |".format(
            stage, budget, seconds, delta, mark, verdict))
    lines.append("")
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as err:
        # The summary is a convenience; never fail the check over it.
        print("check_perf: warning: cannot write job summary: {}".format(
            err), file=sys.stderr)


def check_estimate_ms_per_point(baseline, report):
    """Gate the estimator's own wall clock per design point.

    The baseline's "estimate_ms_per_point_max" is the ceiling on
    summary.estimate_ms_per_point (bench/sweep_dse's estimation seconds
    over its grid points). The whole point of the --estimate fast path
    is seconds-scale design sweeps; an estimator that slows past the
    ceiling has silently re-introduced per-nonzero work and must fail
    loudly. The gate reads the estimator alone, so a change to the
    cost of exact simulation cannot trip it."""
    maximum = baseline.get("estimate_ms_per_point_max")
    if maximum is None:
        return
    ms = report.get("summary", {}).get("estimate_ms_per_point")
    if ms is None:
        fatal("baseline sets estimate_ms_per_point_max but the report's "
              "summary has no estimate_ms_per_point (sweep_dse missing "
              "from the suite?)")
    verdict = "ok" if ms <= float(maximum) else "REGRESSED"
    print("check_perf: estimate_ms_per_point {:.3f}  (max {:.3f})  "
          "{}".format(ms, float(maximum), verdict))
    if verdict == "REGRESSED":
        fatal("estimator took {:.3f} ms per design point, over the "
              "{:.3f} ms ceiling".format(ms, float(maximum)))


def run_trend(args):
    """Print the newest history entry's delta vs the previous one."""
    path = args[0] if args else "BENCH_history.jsonl"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
    except OSError as err:
        fatal("cannot read {}: {}".format(path, err))
    entries = []
    for line_no, line in enumerate(lines, start=1):
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as err:
            fatal("{} line {}: {}".format(path, line_no, err))
    if not entries:
        fatal("{} has no entries".format(path))
    current = entries[-1]
    print("check_perf: trend from {} ({} entries)".format(
        path, len(entries)))
    print("check_perf: latest entry: {}".format(
        current.get("timestamp", "<no timestamp>")))
    if len(entries) == 1:
        print("check_perf: no previous entry to compare against")
        return 0
    previous = entries[-2]

    def delta_line(label, cur, prev, unit=""):
        if not isinstance(cur, (int, float)):
            return
        if isinstance(prev, (int, float)) and prev != 0:
            pct = (cur - prev) / prev * 100.0
            print("check_perf:   {:<28} {:10.4f}{}  ({:+.1f}% vs "
                  "{:.4f})".format(label, cur, unit, pct, prev))
        else:
            print("check_perf:   {:<28} {:10.4f}{}  (no previous "
                  "value)".format(label, cur, unit))

    for key, unit in (("speedup_geomean", "x"),
                      ("energy_reduction_geomean", "x"),
                      ("rcp_avoided_mean", "x"),
                      ("estimate_ms_per_point", "ms")):
        delta_line(key, current.get(key), previous.get(key), unit)
    stages_cur = current.get("stage_seconds", {})
    stages_prev = previous.get("stage_seconds", {})
    if isinstance(stages_cur, dict):
        for stage in sorted(stages_cur):
            delta_line("stage " + stage, stages_cur.get(stage),
                       stages_prev.get(stage) if
                       isinstance(stages_prev, dict) else None, "s")
    census_cur = current.get("census", {})
    census_prev = previous.get("census", {})
    if isinstance(census_cur, dict):
        for key in sorted(census_cur):
            delta_line("census " + key, census_cur.get(key),
                       census_prev.get(key) if
                       isinstance(census_prev, dict) else None)
    # Informational only: history entries come from different machines
    # and commits, so there is no threshold worth failing on.
    return 0


def profile_seconds(report, path):
    """Sum of profile.stages[].seconds in a single-run report."""
    stages = report.get("profile", {}).get("stages")
    if not isinstance(stages, list) or not stages:
        fatal("{} has no profile.stages (report written without the "
              "profile section?)".format(path))
    total = 0.0
    for stage in stages:
        seconds = stage.get("seconds")
        if not isinstance(seconds, (int, float)):
            fatal("{}: stage entry without numeric seconds".format(path))
        total += seconds
    return total


def run_overhead(args):
    """Gate the median metered-run overhead over BASE/METERED pairs."""
    max_pct = parse_flag(args, "--max-overhead-pct", 3.0)
    if not args or len(args) % 2 != 0:
        fatal("--overhead expects BASE.json METERED.json pairs")
    deltas = []
    for base_path, metered_path in zip(args[0::2], args[1::2]):
        base = profile_seconds(load_json(base_path), base_path)
        metered = profile_seconds(load_json(metered_path), metered_path)
        if base <= 0:
            fatal("{}: non-positive profiled seconds".format(base_path))
        deltas.append((metered - base) / base * 100.0)
        print("check_perf:   pair {}: base {:.4f}s, metered {:.4f}s, "
              "delta {:+.1f}%".format(len(deltas), base, metered,
                                      deltas[-1]))
    pct = statistics.median(deltas)
    verdict = "ok" if pct <= max_pct else "REGRESSED"
    print("check_perf: observability overhead: median delta {:+.1f}% "
          "over {} pair(s) (max {:+.1f}%)  {}".format(
              pct, len(deltas), max_pct, verdict))
    if verdict == "REGRESSED":
        fatal("metered runs exceeded the {:.1f}% observability overhead "
              "budget".format(max_pct))
    return 0


def main(argv):
    args = list(argv[1:])
    if args and args[0] == "--trend":
        return run_trend(args[1:])
    if args and args[0] == "--overhead":
        return run_overhead(args[1:])
    factor = parse_flag(args, "--factor", 2.0)
    min_seconds = parse_flag(args, "--min-seconds", 0.05)
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline_path, report_path = args

    baseline = load_json(baseline_path).get("stage_seconds")
    if not isinstance(baseline, dict) or not baseline:
        fatal("{} has no stage_seconds object".format(baseline_path))
    report = load_json(report_path)
    current = report.get("summary", {}).get("stage_seconds")
    if not isinstance(current, dict) or not current:
        fatal("{} has no summary.stage_seconds".format(report_path))

    rows = build_rows(baseline, current, factor, min_seconds)
    print_table(rows, factor)
    write_job_summary(rows, factor, report_path)

    failures = [row[0] for row in rows if row[5] == "REGRESSED"]
    if failures:
        fatal("stage(s) regressed beyond {:.1f}x baseline: {}".format(
            factor, ", ".join(failures)))

    check_estimate_ms_per_point(load_json(baseline_path), report)

    print("check_perf: all stages within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
