#!/usr/bin/env python3
"""Short-mode self-test of the host benchmark.

Checks BENCHMARK.json against the benchmark's own rules, then runs every
workload briefly, untraced and traced, and checks that each run prints
every metric of BENCHMARK.json by name with its unit, that every op
passed (including the traced replay matching the entry points), and
that the benchmark refuses to run without the simulator's sources.

    python3 perfbench/selftest.py
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL", what, flush=True)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and "\n" not in w["why"]
              and len(w["why"]) <= 200, "workload %s" % w.get("name"))
        names.append(w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25, "end_to_end %s" % m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"},
              "per_layer %s" % m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        check(NAME.match(m["name"]) is not None, "name %r" % m["name"])
        check(UNIT.match(m["unit"]) is not None, "unit %r" % m["unit"])
        check(m["better"] in ("higher", "lower"), "better of " + m["name"])
    check(len(names) == len(set(names)), "names are unique")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(bounds.get("setup_s") == max(bounds.values()),
          "setup_s has the largest bound")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "42", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    check(proc.returncode == 0, "%s trace %d exit code" % (workload, trace))
    lines = proc.stdout.strip().splitlines()
    try:
        return lines, json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, "%s trace %d result line" % (workload, trace))
        return lines, None


def check_run(spec, workload, trace):
    metrics = spec["per_layer" if trace else "end_to_end"]
    lines, result = run(workload, trace)
    if result is None:
        return
    tag = "%s trace %d" % (workload, trace)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          tag + " result keys")
    check(result["correct"] is True, tag + " correct")
    check(result["failed"] == 0 and result["attempted"] >= 1,
          tag + " no failed op")
    check(list(result["metrics"]) == [m["name"] for m in metrics],
          tag + " prints every metric")
    for m in metrics:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        check(got.get("unit") == m["unit"], tag + " unit of " + m["name"])
        check(isinstance(value, (int, float)) and math.isfinite(value),
              tag + " value of " + m["name"])
        if not trace:
            check(value != 0, tag + " %s is not 0" % m["name"])
        check(any(line.split()[:1] == [m["name"]]
                  and line.split()[-1] == m["unit"] for line in lines),
              tag + " table row of " + m["name"])
    print("ok  ", tag, "attempted", result["attempted"], flush=True)


def check_refusal():
    """Without src/ the benchmark fails fast and prints no result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nlp_matmul",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "refuses to run without the sources")
    print("ok   refusal without sources", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    check_refusal()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    if failures:
        print("%d check(s) failed" % len(failures))
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
