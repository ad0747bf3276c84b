#!/usr/bin/env python3
"""Alternating parent/change pairs of the streambench benchmark.

    python3 tools/bench_pairs.py --parent DIR --change DIR [--pairs 10]
        [--workloads a,b] [--seed0 N] [--claim WORKLOAD:METRIC ...]
        [--json OUT]

DIR is a checkout of the repository. Each side runs its own
streambench/run.py, so each builds into its own .bench_build. For every
workload the script runs N pairs: pair i uses seed seed0 + i on both sides,
and the side that runs first alternates from pair to pair. Every run lasts
BENCHMARK.json's run_seconds; metrics and bounds come from the change's
BENCHMARK.json.

Per end-to-end metric it prints each side's median and quartiles, the
change's wins out of N (ties count for neither) and two checks:

  bound  the change's median is no worse than the parent's by more than the
         metric's bound (a fraction of the parent's median). A metric whose
         spread (IQR / median) on either side exceeds its bound is
         "unresolved" unless every change run beats every parent run.
  gain   for each --claim: the change wins at least 9/10 of the pairs and
         the medians differ by more than the parent's IQR. A claim must name
         a workload that runs and an end-to-end metric of BENCHMARK.json, and
         needs at least 10 pairs.

After a workload's pairs it runs one traced pair (--trace 1, seed seed0,
parent first) and prints every per-layer metric of BENCHMARK.json for both
sides: where a saving appears, from one pair, so no gain rule or bound is
applied to it. --json stores it under the workload as "traced".

A run that reports correct = false or any failed request fails the check,
traced runs included. Exit status 0 when every check passes, 1 otherwise, 2
on a usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(checkout, workload, seed, seconds, trace=0):
    command = [sys.executable, os.path.join("streambench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    run = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(run.stderr[-2000:])
        raise SystemExit(f"bench_pairs: {checkout}: {workload} seed {seed} gave no result")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def runs_ok(side, results):
    """Prints one side's request totals; False if any run failed."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    incorrect = sum(not r["correct"] for r in results)
    ok = failed == 0 and incorrect == 0
    print(f"  {side}: {attempted} requests, {failed} failed, "
          f"{incorrect} incorrect runs{'' if ok else '  FAIL'}")
    return ok


def better(a, b, lower):
    return a < b if lower else a > b


def judge(metric, parent, change, claimed):
    """One row of the report: (text, passed)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p, lower) for p, c in zip(parent, change))
    worse = (cm - pm) if lower else (pm - cm)
    worse_frac = worse / pm if pm else (0.0 if worse <= 0 else float("inf"))
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    dominates = all(better(c, p, lower) for p in parent for c in change)
    if worse_frac > bound:
        verdict, passed = "WORSE", False
    elif spread > bound and not dominates:
        verdict, passed = "unresolved", False
    else:
        verdict, passed = "ok", True
    if claimed:
        gain = wins * 10 >= 9 * len(parent) and -worse > (p3 - p1)
        verdict += ", gain " + ("met" if gain else "NOT met")
        passed = passed and gain
    sides = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for q1, m, q3 in ((p1, pm, p3), (c1, cm, c3))]
    text = (f"  {metric['name']:<22} {sides[0]:>30}  {sides[1]:>30}  {wins:>2}/{len(parent):<2}"
            f"  {-100.0 * worse_frac:>+7.1f}%  {verdict}")
    return text, passed


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    benchmark = load_benchmark(args.change)
    if load_benchmark(args.parent) != benchmark:
        print("bench_pairs: note: the two checkouts' BENCHMARK.json differ; using the change's")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = benchmark["run_seconds"]
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    for workload in workloads:
        if workload not in names:
            parser.error(f"unknown workload '{workload}'")
    # Every claim is judged, or the run is refused: a claim that matched no
    # row would otherwise pass unchecked.
    metric_names = [m["name"] for m in benchmark["end_to_end"]]
    if args.claim and args.pairs < 10:
        parser.error("a gain claim needs at least 10 pairs")
    claims = set()
    for claim in args.claim:
        workload, sep, metric = claim.partition(":")
        if not sep:
            parser.error(f"claim '{claim}' is not WORKLOAD:METRIC")
        if workload not in workloads:
            parser.error(f"claim '{claim}': workload '{workload}' is not run")
        if metric not in metric_names:
            parser.error(f"claim '{claim}': '{metric}' is not an end-to-end metric "
                         f"({', '.join(metric_names)})")
        claims.add((workload, metric))

    checkouts = {"parent": args.parent, "change": args.change}
    runs = {}
    all_passed = True
    for workload in workloads:
        sides = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                sides[side].append(run_once(checkouts[side], workload, seed, seconds))
            print(f"# {workload} pair {i + 1}/{args.pairs} seed {seed}: request_p50_ms "
                  f"parent {sides['parent'][-1]['metrics'].get('request_p50_ms', 0):.4g} "
                  f"change {sides['change'][-1]['metrics'].get('request_p50_ms', 0):.4g}",
                  flush=True)
        runs[workload] = sides

        print(f"\n{workload}: {args.pairs} pairs of {seconds:g} s, seeds {args.seed0}.."
              f"{args.seed0 + args.pairs - 1}")
        for side, results in sides.items():
            all_passed = runs_ok(side, results) and all_passed
        print(f"  {'metric':<22} {'parent median [q1, q3]':>30}  {'change median [q1, q3]':>30}"
              f"  wins    better  check")
        for metric in benchmark["end_to_end"]:
            parent = [r["metrics"][metric["name"]] for r in sides["parent"]]
            change = [r["metrics"][metric["name"]] for r in sides["change"]]
            text, passed = judge(metric, parent, change, (workload, metric["name"]) in claims)
            all_passed = all_passed and passed
            print(text)

        # Where the saving appears: the per-layer split of one traced pair.
        traced = {side: run_once(checkouts[side], workload, args.seed0, seconds, trace=1)
                  for side in ("parent", "change")}
        sides["traced"] = traced
        print(f"\n{workload}: one traced pair, seed {args.seed0}, parent first; per-layer "
              f"metrics of a single pair, no gain rule or bound applied")
        for side, result in traced.items():
            all_passed = runs_ok(side, [result]) and all_passed
        print(f"  {'metric':<28} {'parent':>14} {'change':>14}  better")
        for metric in benchmark["per_layer"]:
            values = [traced[side]["metrics"].get(metric["name"]) for side in ("parent", "change")]
            text = ["-" if v is None else f"{v:.6g}" for v in values]
            print(f"  {metric['name']:<28} {text[0]:>14} {text[1]:>14}  {metric['better']}")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(runs, handle, indent=1)
    print("\nall checks " + ("passed" if all_passed else "did NOT pass") +
          f" ({args.pairs} pairs of {seconds:g} s on {', '.join(workloads)})")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
