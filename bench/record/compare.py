#!/usr/bin/env python3
"""Comparator for the benchmark of record (bench/record/README.md).

  compare.py RUNS                  summarize one set of run records
  compare.py PARENT CHANGE         judge a change against its parent commit
  compare.py --smoke ITA_RECORD    run every workload at smoke size and
                                   validate what ita_record prints and writes

RUNS, PARENT and CHANGE are directories of records written by
`ita_record --out DIR`. For each workload and metric the comparator prints
each side's median and quartiles. It applies the metric's bound from
BENCHMARK.json and the pair rule: a gain needs at least 10 pairs (runs of
the same seed on both sides), the change winning at least 9 in 10 of them
(ties count for neither side), and a median gap larger than the parent's
interquartile range. A metric whose spread exceeds its bound is
"unresolved" unless every change run beats every parent run. Any drift in
the exact work counters or the stream fingerprint between runs of the
same workload, seed and length fails the comparison, unless
--allow-counter-change declares it. Exit status: 0 clean, 1 a regression,
a drift, an incorrect or invalid run; 2 bad usage.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
# Where --smoke writes its records, relative to the working directory.
SMOKE_OUT = "bench_record_smoke"
SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    return {
        "workloads": [w["name"] for w in bench["workloads"]],
        0: {m["name"]: m for m in bench["end_to_end"]},
        1: {m["name"]: m for m in bench["per_layer"]},
    }


def load_runs(directory):
    """Every run record in `directory` (trace-event span files skipped)."""
    runs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json") and not name.endswith(".spans.json"):
            with open(os.path.join(directory, name)) as f:
                run = json.load(f)
            run["file"] = name
            runs.append(run)
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def group(runs):
    """{(workload, trace): [run, ...]}"""
    out = {}
    for run in runs:
        out.setdefault((run["workload"], run["trace"]), []).append(run)
    return out


def run_problems(runs):
    """Incorrect, failed or smoke-sized runs; none of them may be compared."""
    problems = []
    for run in runs:
        if not run.get("valid", False):
            problems.append(f"{run['file']}: not a valid recording (smoke or refused build)")
        if not run["correct"] or run["failed"]:
            problems.append(f"{run['file']}: correctness gate failed: {run.get('error', '')}")
    return problems


def counter_drift(runs):
    """Runs of one workload, seed, trace mode and length must do identical
    work on identical input; returns one line per disagreement."""
    first = {}
    drift = []
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"], run["seconds"])
        seen = first.setdefault(key, run)
        if seen is run:
            continue
        if seen["fingerprint"] != run["fingerprint"]:
            drift.append(f"{run['file']}: stream fingerprint {run['fingerprint']} != "
                         f"{seen['fingerprint']} in {seen['file']}")
        for name, value in run["counters"].items():
            if seen["counters"].get(name) != value:
                drift.append(f"{run['file']}: counter {name} = {value} != "
                             f"{seen['counters'].get(name)} in {seen['file']}")
    return drift


def verdict(metric, parent, change):
    """Judges one metric from per-seed values {seed: value} of both sides.
    Returns (verdict, fails)."""
    lower = metric["better"] == "lower"
    bound = metric.get("bound")
    p = list(parent.values())
    c = list(change.values())
    p_q1, p_med, p_q3 = quartiles(p)
    _, c_med, _ = quartiles(c)

    def better(a, b):
        return a < b if lower else a > b

    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / abs(p_med) if p_med else 0.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(better(change[s], parent[s]) for s in seeds)
    gain = (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds)
            and better(c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1)
    all_better = all(better(x, y) for x in c for y in p)
    if bound is None:
        return ("improved" if gain else "changed" if worse_by else "same"), False
    if max(spread(p), spread(c)) > bound:
        return ("improved" if all_better else "unresolved"), False
    if worse_by > bound:
        return "REGRESSED", True
    return ("improved" if gain else "within bound"), False


def fmt(x):
    return f"{x:.6g}"


def summarize(runs, bench):
    """Median and quartiles of every metric of one set; flags spreads above
    the bound. Returns the problem count."""
    problems = run_problems(runs) + counter_drift(runs)
    for line in problems:
        print("PROBLEM", line)
    for (workload, trace), group_runs in sorted(group(runs).items()):
        print(f"\n{workload} (trace {trace}, {len(group_runs)} runs)")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, metric in bench[trace].items():
            values = [r["metrics"][name]["value"] for r in group_runs if name in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = metric.get("bound")
            flag = "  NOISY" if bound is not None and s > bound / 3 else ""
            print(f"  {name:32} {fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} "
                  f"{s:8.3f} {'' if bound is None else bound:>6}{flag}")
    return len(problems)


def compare(parent_runs, change_runs, bench, allow_counter_change=False):
    """Prints one row per workload and metric; returns the failure count."""
    failures = run_problems(parent_runs) + run_problems(change_runs)
    if allow_counter_change:
        failures += counter_drift(parent_runs) + counter_drift(change_runs)
    else:
        failures += counter_drift(parent_runs + change_runs)
    for line in failures:
        print("FAIL", line)
    parents = group(parent_runs)
    changes = group(change_runs)
    for key in sorted(set(parents) | set(changes)):
        workload, trace = key
        if key not in parents or key not in changes:
            print(f"\n{workload} (trace {trace}): runs on one side only")
            failures.append(f"{workload}: one-sided")
            continue
        print(f"\n{workload} (trace {trace}): {len(parents[key])} parent runs, "
              f"{len(changes[key])} change runs")
        print(f"  {'metric':32} {'parent q1/med/q3':>36} {'change q1/med/q3':>36}  verdict")
        for name, metric in bench[trace].items():
            p = {r["seed"]: r["metrics"][name]["value"] for r in parents[key]
                 if name in r["metrics"]}
            c = {r["seed"]: r["metrics"][name]["value"] for r in changes[key]
                 if name in r["metrics"]}
            if not p or not c:
                continue
            result, failed = verdict(metric, p, c)
            if failed:
                failures.append(f"{workload} {name} regressed")
            pq = "/".join(fmt(x) for x in quartiles(list(p.values())))
            cq = "/".join(fmt(x) for x in quartiles(list(c.values())))
            print(f"  {name:32} {pq:>36} {cq:>36}  {result}")
    return len(failures)


def check_summary_line(line, expected):
    """Problems with ita_record's last stdout line against the metric list
    of BENCHMARK.json that applies to its trace mode."""
    summary = json.loads(line)
    problems = []
    if set(summary) != SUMMARY_KEYS:
        problems.append(f"summary keys {sorted(summary)}")
    if not isinstance(summary.get("attempted"), int) or summary["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(summary.get("failed"), int):
        problems.append("failed must be a whole number")
    if summary.get("correct") is not True:
        problems.append("correctness gate failed")
    metrics = summary.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"{name}: malformed {m}")
        elif name in expected and m["unit"] != expected[name]["unit"]:
            problems.append(f"{name}: unit {m['unit']} != {expected[name]['unit']}")
    return problems


def smoke(binary, bench):
    """Runs every workload untraced and paper_fig3 traced at smoke size;
    validates the summary line and the record file of each."""
    problems = []
    cases = [(w, 0) for w in bench["workloads"]] + [(bench["workloads"][0], 1)]
    for workload, trace in cases:
        cmd = [binary, "--workload", workload, "--seed", "1", "--trace", str(trace),
               "--smoke", "--out", SMOKE_OUT]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        found = []
        if proc.returncode != 0:
            found.append(f"exit {proc.returncode}: {proc.stderr.strip()}")
        else:
            found += check_summary_line(proc.stdout.strip().splitlines()[-1], bench[trace])
            with open(os.path.join(SMOKE_OUT, f"{workload}.seed1.trace{trace}.json")) as f:
                record = json.load(f)
            if record.get("valid") is not False:
                found.append("a smoke record must say \"valid\": false")
            if not record.get("counters") or not record.get("fingerprint"):
                found.append("record lacks counters or fingerprint")
        tag = f"{workload} trace {trace}"
        print(f"{tag}: {'ok' if not found else 'FAIL'}")
        problems += [f"{tag}: {p}" for p in found]
    for p in problems:
        print("FAIL", p)
    return len(problems)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="*", help="RUNS, or PARENT CHANGE")
    parser.add_argument("--smoke", metavar="ITA_RECORD")
    parser.add_argument("--allow-counter-change", action="store_true",
                        help="the change declares a change in the exact work counters")
    args = parser.parse_args(argv)
    bench = load_benchmark(BENCHMARK)
    if args.smoke:
        return 1 if smoke(args.smoke, bench) else 0
    if len(args.dirs) == 1:
        return 1 if summarize(load_runs(args.dirs[0]), bench) else 0
    if len(args.dirs) == 2:
        failures = compare(load_runs(args.dirs[0]), load_runs(args.dirs[1]), bench,
                           args.allow_counter_change)
        return 1 if failures else 0
    parser.print_usage()
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
