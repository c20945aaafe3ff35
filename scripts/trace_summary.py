#!/usr/bin/env python3
"""Summarize (and optionally check) an ANTSim trace.

Usage: trace_summary.py TRACE.json [--check] [--top N] [--host]

TRACE.json is the Chrome trace-event document written by
--trace-out / ANTSIM_TRACE (src/obs/trace.cc, docs/OBSERVABILITY.md).
Timestamps are simulated cycles, not wall-clock: the summary is
deterministic for a fixed configuration at every thread count.

--host switches to the host-execution trace written by
--host-trace-out / ANTSIM_HOST_TRACE (src/obs/host_trace.cc):
wall-clock run/stage/unit spans per host thread. The summary prints
a per-thread utilization table (top-level span time over the thread's
observed makespan), the unit-span count with the p50, p99 and max unit
wall time in microseconds (nearest-rank percentiles), and the --top
spans by *self* time (duration minus the durations of spans nested
inside it on the same thread -- the time the span itself was on the
CPU). With --check it verifies the host contract instead of the
simulated-time one:
  - every event carries name/ph/pid/ts, ph is one of M/X/i, and
    durations are non-negative integers;
  - span cats are exactly run/stage/unit;
  - spans on one thread nest properly: sorted by (ts, -dur), every
    span either fits entirely inside the enclosing open span or starts
    at/after its end (the floor-both-endpoints microsecond rounding in
    host_trace.cc preserves this by construction);
  - every thread with spans has a thread_name metadata record.

Default output is a per-PE-lane table -- active / startup / idle-scan
cycles, utilization over the lane's makespan, span and task counts --
followed by instant-event totals (accumulator bank conflicts, span
budget overruns) and the --top longest chunk tasks.

--check additionally validates structure and exits non-zero on any
violation:
  - the document parses and has a traceEvents array;
  - every event carries name/ph/pid/ts, durations are non-negative
    integers, and ph is one of M/X/i;
  - span kinds are exactly startup/active/idle_scan;
  - per-lane "pe" spans are non-overlapping when sorted by start
    (the deterministic lane plan guarantees it);
  - every PE lane referenced by an event has a thread_name metadata
    record.

Only the Python standard library is used (CI installs nothing).
"""

import json
import sys
from collections import defaultdict

SPAN_KINDS = ("startup", "active", "idle_scan")


def fatal(message):
    print("trace_summary: error: " + message, file=sys.stderr)
    sys.exit(1)


HOST_CATS = ("run", "stage", "unit")


def parse_args(argv):
    args = list(argv[1:])
    check = "--check" in args
    if check:
        args.remove("--check")
    host = "--host" in args
    if host:
        args.remove("--host")
    top = 5
    if "--top" in args:
        index = args.index("--top")
        if index + 1 >= len(args):
            fatal("--top expects a value")
        try:
            top = int(args[index + 1])
        except ValueError:
            fatal("--top expects an integer, got '{}'".format(
                args[index + 1]))
        del args[index:index + 2]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    return args[0], check, top, host


def check_event(event, index, errors):
    for key in ("name", "ph", "pid"):
        if key not in event:
            errors.append("event {}: missing '{}'".format(index, key))
            return False
    ph = event["ph"]
    if ph not in ("M", "X", "i"):
        errors.append("event {}: unknown ph '{}'".format(index, ph))
        return False
    if ph in ("X", "i"):
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            errors.append("event {}: bad ts {!r}".format(index, ts))
            return False
    if ph == "X":
        dur = event.get("dur")
        if not isinstance(dur, int) or dur < 0:
            errors.append("event {}: bad dur {!r}".format(index, dur))
            return False
    return True


def host_self_times(spans):
    """Per-span self time on one thread: dur minus nested span durs.

    @p spans is [(ts, dur, name, cat)] for a single tid. Sorted by
    (ts, -dur) a proper nesting visits parents before their children,
    so a stack sweep attributes each span's duration to itself minus
    whatever opens inside it. Returns ([(self, dur, ts, name, cat)],
    nesting_errors)."""
    ordered = sorted(spans, key=lambda s: (s[0], -s[1]))
    stack = []      # indices into results of currently-open spans
    results = []
    errors = []
    for ts, dur, name, cat in ordered:
        end = ts + dur
        while stack and ts >= results[stack[-1]][5]:
            stack.pop()
        if stack and end > results[stack[-1]][5]:
            errors.append(
                "span '{}' [{}, {}) escapes enclosing '{}' ending at "
                "{}".format(name, ts, end, results[stack[-1]][3],
                            results[stack[-1]][5]))
            continue
        if stack:
            parent = results[stack[-1]]
            results[stack[-1]] = (parent[0] - dur,) + parent[1:]
        results.append((dur, dur, ts, name, cat, end))
        stack.append(len(results) - 1)
    return ([(s, d, ts, name, cat)
             for s, d, ts, name, cat, _end in results], errors)


def nearest_rank(ordered, pct):
    """The pct-th percentile of a sorted non-empty list (nearest rank)."""
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def host_main(path, events, check, top):
    """Summarize / check a host-execution trace (--host mode)."""
    errors = []
    thread_names = {}               # tid -> metadata name
    thread_spans = defaultdict(list)  # tid -> [(ts, dur, name, cat)]
    instants = defaultdict(int)

    for index, event in enumerate(events):
        if not check_event(event, index, errors):
            continue
        ph = event["ph"]
        tid = event.get("tid", 0)
        if ph == "M":
            if event["name"] == "thread_name":
                thread_names[tid] = event.get("args", {}).get("name", "")
            continue
        if ph == "i":
            instants[event["name"]] += 1
            continue
        cat = event.get("cat", "")
        if cat not in HOST_CATS:
            errors.append("event {}: unknown host span cat "
                          "'{}'".format(index, cat))
            continue
        thread_spans[tid].append(
            (event["ts"], event["dur"], event["name"], cat))

    rows = []        # (tid, top_level_us, makespan_us, spans)
    all_spans = []   # (self, dur, ts, tid, name, cat)
    for tid in sorted(thread_spans):
        spans = thread_spans[tid]
        selfs, nest_errors = host_self_times(spans)
        if check:
            for err in nest_errors:
                errors.append("tid {}: {}".format(tid, err))
            if tid not in thread_names:
                errors.append("tid {} has spans but no thread_name "
                              "metadata".format(tid))
        for self_us, dur, ts, name, cat in selfs:
            all_spans.append((self_us, dur, ts, tid, name, cat))
        lo = min(ts for ts, _d, _n, _c in spans)
        hi = max(ts + d for ts, d, _n, _c in spans)
        # Top-level time: spans not nested inside another on this
        # thread (dur == self only for leaves; recompute by sweep).
        ordered = sorted(spans, key=lambda s: (s[0], -s[1]))
        top_level = 0
        cursor = -1
        for ts, dur, _name, _cat in ordered:
            if ts >= cursor:
                top_level += dur
                cursor = ts + dur
        rows.append((tid, top_level, hi - lo, len(spans)))

    if errors:
        print("trace_summary: {} FAILS ({} violations):".format(
            path, len(errors)))
        for error in errors[:20]:
            print("  " + error)
        if len(errors) > 20:
            print("  ... and {} more".format(len(errors) - 20))
        return 1

    total_spans = sum(len(s) for s in thread_spans.values())
    print("trace_summary: {} -- host trace, {} events, {} spans, "
          "{} threads".format(path, len(events), total_spans,
                              len(thread_spans)))
    print("{:<12} {:>14} {:>14} {:>7} {:>8}".format(
        "thread", "busy (us)", "makespan (us)", "util%", "spans"))
    for tid, top_level, makespan, count in rows:
        pct = (100.0 * top_level / makespan) if makespan else 0.0
        print("{:<12} {:>14} {:>14} {:>6.1f}% {:>8}".format(
            thread_names.get(tid, "tid {}".format(tid)), top_level,
            makespan, pct, count))

    unit_us = sorted(dur for spans in thread_spans.values()
                     for _ts, dur, _name, cat in spans if cat == "unit")
    if unit_us:
        print("\nunit spans: {}  wall p50 {} us  p99 {} us  max {} us"
              .format(len(unit_us), nearest_rank(unit_us, 50),
                      nearest_rank(unit_us, 99), unit_us[-1]))

    if instants:
        print("\ninstants:")
        for name in sorted(instants):
            print("  {:<24} {}".format(name, instants[name]))

    if top > 0 and all_spans:
        all_spans.sort(reverse=True)
        print("\ntop {} spans by self time:".format(
            min(top, len(all_spans))))
        for self_us, dur, ts, tid, name, cat in all_spans[:top]:
            print("  {:>10} us self ({:>10} us total)  {}:{:<28} "
                  "on {}".format(
                      self_us, dur, cat, name,
                      thread_names.get(tid, "tid {}".format(tid))))

    if check:
        print("\ntrace_summary: {} passes all host checks".format(path))
    return 0


def main(argv):
    path, check, top, host = parse_args(argv)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fatal("cannot read {}: {}".format(path, err))

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fatal("{} has no traceEvents array".format(path))

    if host:
        return host_main(path, events, check, top)

    errors = []
    lane_names = {}          # tid -> "PE N" metadata
    lanes = defaultdict(lambda: defaultdict(int))  # tid -> kind -> cycles
    lane_spans = defaultdict(list)   # tid -> [(ts, dur)] for overlap check
    lane_bounds = {}         # tid -> (min_ts, max_end)
    lane_tasks = defaultdict(int)
    instants = defaultdict(int)
    tasks = []               # (dur, ts, tid)
    units = 0

    for index, event in enumerate(events):
        if not check_event(event, index, errors):
            continue
        ph, cat = event["ph"], event.get("cat", "")
        tid = event.get("tid", 0)
        if ph == "M":
            if event["name"] == "thread_name":
                lane_names[tid] = event.get("args", {}).get("name", "")
            continue
        ts = event["ts"]
        if ph == "i":
            instants[event["name"]] += 1
            continue
        dur = event["dur"]
        end = ts + dur
        lo, hi = lane_bounds.get(tid, (ts, end))
        lane_bounds[tid] = (min(lo, ts), max(hi, end))
        if cat == "pe":
            if event["name"] not in SPAN_KINDS:
                errors.append("event {}: unknown span kind '{}'".format(
                    index, event["name"]))
                continue
            lanes[tid][event["name"]] += dur
            lane_spans[tid].append((ts, dur))
        elif cat == "task":
            lane_tasks[tid] += 1
            tasks.append((dur, ts, tid))
        elif cat == "unit":
            units += 1

    if check:
        for tid, spans in sorted(lane_spans.items()):
            spans.sort()
            cursor = -1
            for ts, dur in spans:
                if ts < cursor:
                    errors.append(
                        "lane {}: overlapping pe spans at ts {}".format(
                            tid, ts))
                    break
                cursor = ts + dur
        for tid in sorted(set(lanes) | set(lane_tasks)):
            if tid not in lane_names:
                errors.append(
                    "lane {} has events but no thread_name "
                    "metadata".format(tid))

    if errors:
        print("trace_summary: {} FAILS ({} violations):".format(
            path, len(errors)))
        for error in errors[:20]:
            print("  " + error)
        if len(errors) > 20:
            print("  ... and {} more".format(len(errors) - 20))
        return 1

    print("trace_summary: {} -- {} events, {} units, {} chunk tasks, "
          "{} PE lanes".format(path, len(events), units, len(tasks),
                               len(lanes)))
    header = ("lane", "active", "startup", "idle_scan", "busy%",
              "tasks")
    print("{:<10} {:>12} {:>12} {:>12} {:>7} {:>8}".format(*header))
    for tid in sorted(lanes):
        kinds = lanes[tid]
        lo, hi = lane_bounds[tid]
        span = hi - lo
        busy = kinds["active"] + kinds["startup"]
        pct = (100.0 * busy / span) if span else 0.0
        print("{:<10} {:>12} {:>12} {:>12} {:>6.1f}% {:>8}".format(
            lane_names.get(tid, "tid {}".format(tid)), kinds["active"],
            kinds["startup"], kinds["idle_scan"], pct, lane_tasks[tid]))

    if instants:
        print("\ninstants:")
        for name in sorted(instants):
            print("  {:<24} {}".format(name, instants[name]))

    if top > 0 and tasks:
        tasks.sort(reverse=True)
        print("\ntop {} chunk tasks by cycles:".format(
            min(top, len(tasks))))
        for dur, ts, tid in tasks[:top]:
            print("  {:>10} cycles  at ts {:>10}  on {}".format(
                dur, ts, lane_names.get(tid, "tid {}".format(tid))))

    if check:
        print("\ntrace_summary: {} passes all checks".format(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
