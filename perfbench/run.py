#!/usr/bin/env python3
"""ANTSim host benchmark.

Builds the simulator and the driver from source into .bench_build/,
runs one workload in fresh driver processes for --seconds, checks every
op's output, and prints every metric named in BENCHMARK.json with its
unit. The last line of stdout is the result as one JSON object.

    python3 perfbench/run.py --workload fig9_conv --seed 42 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1
reports the per-layer metrics of a traced replay. See README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "antsim_bench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The default seed, and the held-out seed on which any claimed gain
# must also hold.
DEFAULT_SEED = 42
HELDOUT_SEED = 7

# Timed processes per untraced run, at least (the repeat check needs
# two; the median of three resists one slow process).
MIN_REPS = 3
MIN_TRACE_REPS = 1
# Set-up-only processes per untraced run, on top of the timed ones.
SETUP_PROBES = 9
# Every run, build excluded, ends within this many seconds.
RUN_DEADLINE_S = 170
# Seconds every CPU spins before measuring: on a VM the first process
# after an idle spell runs up to half again slower.
WARM_UP_S = 2.0

# Headline numbers of the documented reproduction at the default seed
# (EXPERIMENTS.md: Fig. 9, Table 5 mean, Sec. 7.8; bench/sweep_dse),
# as (value, decimals compared).
GOLDEN = {
    "fig9_conv": {
        "speedup_geomean": (5.97, 2),
        "energy_geomean": (4.40, 2),
        "rcp_avoided_mean_pct": (90.5, 1),
    },
    "nlp_matmul": {"rcp_avoided_min_pct": (98.25, 2)},
    "dse_sweep": {"estimate_err_max_pct": (55.2, 1)},
}

# Per-layer metrics that exist only on some workloads; 0 elsewhere.
WORKLOAD_SPECIFIC = ("runner.wall_s.", "accuracy.")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(message, code=2):
    log("perfbench:", message)
    sys.exit(code)


def source_digest():
    """SHA-256 of every file the driver is built from."""
    paths = [os.path.join(HERE, name) for name in sorted(os.listdir(HERE))
             if name == "CMakeLists.txt" or name.endswith((".cc", ".hh"))]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    # A checkout without its own .git must not report a parent repo's HEAD.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def build(digest):
    stamp = os.path.join(BUILD, "source.sha256")
    if os.path.exists(BINARY) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                return
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "antsim_bench"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            die("build failed: " + " ".join(cmd))
    with open(stamp, "w") as f:
        f.write(digest)


class Runner:
    """Spawns driver processes and collects what each measured."""

    def __init__(self, workload, seed, deadline):
        self.base = [BINARY, "--workload", workload, "--seed", str(seed)]
        self.deadline = deadline
        self.count = 0
        # The program's defaults: no ANTSIM_* override reaches the driver.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("ANTSIM_")}
        os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)

    def spawn(self, extra=()):
        """One driver process; its result dict, or None if it failed."""
        self.count += 1
        out = os.path.join(BUILD, "runs", "%d-%d.json" % (os.getpid(),
                                                           self.count))
        if os.path.exists(out):
            os.remove(out)
        t_spawn = time.monotonic_ns()
        proc = subprocess.Popen(self.base + list(extra) + ["--out", out],
                                stdout=subprocess.DEVNULL, env=self.env)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t_exit = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not os.path.exists(out):
            log("perfbench: driver exited with", proc.returncode)
            return None
        with open(out) as f:
            result = json.load(f)
        os.remove(out)
        result["setup_s"] = (result["first_call_ns"] - t_spawn) * 1e-9
        if "accuracy" in result:
            # An untraced job runs from the first entry-point call to process
            # exit, less the untimed accuracy pass.
            result["wall_s"] = ((t_exit - result["first_call_ns"]) * 1e-9
                                - result["accuracy_wall_s"])
            result["cpu_s"] = (usage.ru_utime + usage.ru_stime
                               - result["cpu_at_first_call_s"]
                               - result["accuracy_cpu_s"])
            result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return result


def warm_up():
    code = ("import time\nend = time.monotonic() + %r\n"
            "while time.monotonic() < end: pass\n" % WARM_UP_S)
    procs = [subprocess.Popen([sys.executable, "-c", code])
             for _ in range(len(os.sched_getaffinity(0)))]
    try:
        for proc in procs:
            proc.wait()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def measure(runner, seconds, trace, trace_out):
    """Repetitions for about @p seconds, each (untraced, traced or None),
    plus set-up probes when untraced."""
    start = time.monotonic()
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = runner.spawn(["--setup-only"])
            if probe is not None:
                setups.append(probe["setup_s"])
    reps = []
    durations = []
    min_reps = MIN_TRACE_REPS if trace else MIN_REPS
    while True:
        t0 = time.monotonic()
        plain = runner.spawn()
        traced = (runner.spawn(["--trace", "--trace-out", trace_out])
                  if trace else None)
        reps.append((plain, traced))
        durations.append(time.monotonic() - t0)
        now = time.monotonic()
        if len(reps) >= min_reps and (
                now - start + statistics.median(durations) > seconds):
            break
        if now + max(durations) > runner.deadline:
            break
    return setups, reps


def check_ops(reps, trace):
    """(attempted, failed). Every process runs the same ops; an op fails
    when its digest differs from the first untraced process's (across
    repetitions, or in the traced replay) or its process failed."""
    reference = next(([op["digest"] for op in plain["ops"]]
                      for plain, _ in reps if plain is not None), [])
    processes = [p for pair in reps for p in (pair if trace else pair[:1])]
    attempted = failed = 0
    for proc in processes:
        digests = [op["digest"] for op in proc["ops"]] if proc else []
        n = max(1, len(reference), len(digests))
        attempted += n
        failed += sum(i >= len(digests) or i >= len(reference)
                      or digests[i] != reference[i] for i in range(n))
    return attempted, failed


def check_golden(workload, seed, accuracy):
    if seed != DEFAULT_SEED:
        return True
    ok = True
    for key, (value, decimals) in GOLDEN[workload].items():
        got = accuracy.get(key)
        if got is None or round(got, decimals) != value:
            log("perfbench: %s = %r, documented %s" % (key, got, value))
            ok = False
    return ok


def end_to_end(setups, reps, spec):
    good = [plain for plain, _ in reps if plain is not None]
    accuracy = good[0]["accuracy"]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in good]),
        "sim_mults_per_s": statistics.median(r["mults"] / r["wall_s"]
                                             for r in good),
        "rcp_avoided_min_pct": accuracy["rcp_avoided_min_pct"],
    }
    return {m["name"]: values[m["name"]] for m in spec["end_to_end"]}


def layer_sample(plain, traced):
    """Per-layer metrics of one (untraced, traced) pair: the layers from
    the traced replay, runner wall and CPU from the untraced run."""
    threads = plain["stamp"]["threads_requested"]
    sample = dict(traced["layers"])
    for op in plain["ops"]:
        if op["exact"]:
            key = "runner.wall_s.%s.%s" % (op["network"], op["pe"])
            sample[key] = sample.get(key, 0.0) + op["wall_s"]
    sample["runner.cpu_util"] = plain["cpu_s"] / (plain["wall_s"] * threads)
    sample["trace.overhead_pct"] = 100.0 * (
        traced["job_wall_s"] / plain["job_wall_s"] - 1.0)
    for key, value in plain["accuracy"].items():
        sample["accuracy." + key] = value
    return sample


def per_layer(reps, spec):
    samples = [layer_sample(plain, traced)
               for plain, traced in reps
               if plain is not None and traced is not None]
    if not samples:
        die("no complete traced repetition", 1)
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name not in samples[0] and not name.startswith(WORKLOAD_SPECIFIC):
            die("driver did not report " + name, 1)
        values[name] = statistics.median(s.get(name, 0.0) for s in samples)
    unknown = {k for k in samples[0] if not k.startswith("accuracy.")}
    unknown -= set(values)
    if unknown:
        die("metrics missing from BENCHMARK.json: "
            + ", ".join(sorted(unknown)), 1)
    return values


def main():
    # A terminated run stops the driver process it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        die("ANTSim sources (src/) not found next to perfbench/")
    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die("unknown workload " + args.workload)
    if args.seed < 0:
        die("--seed must be non-negative")

    digest = source_digest()
    build(digest)

    runner = Runner(args.workload, args.seed,
                    time.monotonic() + RUN_DEADLINE_S)
    trace_out = os.path.join(BUILD, "traces", "%s-seed%d.trace.json"
                             % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    warm_up()
    setups, reps = measure(runner, args.seconds, args.trace == 1, trace_out)
    good = [plain for plain, _ in reps if plain is not None]
    if not good:
        die("every driver process failed", 1)

    attempted, failed = check_ops(reps, args.trace == 1)
    golden_ok = check_golden(args.workload, args.seed, good[0]["accuracy"])
    if args.trace:
        values = per_layer(reps, spec)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(setups, reps, spec)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    stamp = dict(good[0]["stamp"])
    stamp.update(workload=args.workload, seed=args.seed,
                 heldout_seed=HELDOUT_SEED, repetitions=len(reps),
                 setup_samples=len(setups) + len(good),
                 git_commit=git_commit(), source_sha256=digest)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if args.trace:
        print("trace " + trace_out)
    for name, value in values.items():
        print("%-36s %16.6g %s" % (name, value, units[name]))
    print("ops %d ops_failed %d golden %s"
          % (attempted, failed, "ok" if golden_ok else "MISMATCH"))
    print(json.dumps({
        "correct": failed == 0 and golden_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


if __name__ == "__main__":
    main()
