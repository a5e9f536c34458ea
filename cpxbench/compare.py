#!/usr/bin/env python3
"""Compares two sets of cpxbench result files, metric by metric.

    python3 cpxbench/compare.py OLD NEW

OLD and NEW are directories of result files written by cpxbench/run.py
(.bench_results/<workload>.seed<n>.trace<t>.json), or single files. For
every workload and metric present on both sides it prints each side's
median and run-to-run spread (interquartile range over median), and the
change of the median, signed so that positive is worse.

Untraced runs are judged against the bounds of BENCHMARK.json:
  REGRESSION   worse by more than the bound
  improved     better by more than both sides' spreads
  unchanged    neither
  unresolved   a side's spread exceeds the bound, so the runs cannot tell
               (choosing-metrics 6.5) -- unless every NEW run beats every
               OLD run, which is reported as improved
The unbounded figures of untraced runs (step_ms_p50, step_ms_tail,
steps_per_s, plan_s) and the per-layer metrics of traced runs get no
verdict; their deltas are shown for locating a change. Exits 1 when any
metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, trace): {metric: [values]}} plus fingerprints."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json") and not f.endswith(".spans.json"))
    groups, revs = {}, set()
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        revs.add(r["fingerprint"]["git_rev"])
        g = groups.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["metrics"].items():
            g.setdefault(name, []).append(m["value"])
        for name, v in r.get("notes", {}).items():
            if isinstance(v, (int, float)):
                g.setdefault(name, []).append(v)
    return groups, revs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better["steps_per_s"] = "higher"

    old, old_revs = load(args.old)
    new, new_revs = load(args.new)
    print("old: %s\nnew: %s" % (", ".join(sorted(old_revs)),
                                ", ".join(sorted(new_revs))))
    regressions = 0
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        print("\n%s (%s)" % (workload, "per-layer, traced" if trace else
                             "end-to-end"))
        print("  %-30s %12s %7s %12s %7s %8s  %s" % (
            "metric", "old median", "spread", "new median", "spread",
            "worse by", "verdict"))
        for name in sorted(set(old[key]) & set(new[key])):
            a, b = old[key][name], new[key][name]
            ma, sa = spread(a)
            mb, sb = spread(b)
            sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
            delta = sign * (mb - ma) / abs(ma) if ma else 0.0
            verdict = ""
            if not trace and name in bounds:
                bound = bounds[name]["bound"]
                all_better = (max(b) < min(a)) if sign > 0 else (min(b) > max(a))
                if max(sa, sb) > bound:
                    verdict = "improved" if all_better else "unresolved"
                elif delta > bound:
                    verdict = "REGRESSION (bound %.2f)" % bound
                    regressions += 1
                elif -delta > max(sa, sb):
                    verdict = "improved"
                else:
                    verdict = "unchanged"
            print("  %-30s %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%%  %s" % (
                name, ma, 100 * sa, mb, 100 * sb, 100 * delta, verdict))
    only = sorted(set(old) ^ set(new))
    if only:
        print("\nonly on one side: " + ", ".join("%s/trace%d" % k for k in only))
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
