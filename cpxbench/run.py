#!/usr/bin/env python3
"""Runs one workload of the CPX benchmark and prints its result.

    python3 cpxbench/run.py --workload engine-40k --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
cpxbench/ (and with it the mini-app library, from ../src) in .bench_build/,
or in $CARGO_TARGET_DIR when that is set. The workload runs in a child
process under a watchdog: a run that prints nothing for 20 s, or outlives
150 s, is killed; the steps it completed are kept and the
steps it never reached count as failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
for --trace 0, the per-layer metrics for --trace 1. The full record, with
the host fingerprint and every step time, goes to
.bench_results/<workload>.seed<seed>.trace<t>.json; cpxbench/compare.py
compares two sets of such files. See cpxbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine-40k", "pressure-resetup", "coupled-rows", "pic-two-stream")
RESULTS_DIR = ".bench_results"
# Watchdog: a run that prints nothing for STALL_S seconds, or outlives
# DEADLINE_S, is killed (the slowest legitimate gap, a set-up repetition of
# pressure-resetup, takes about a second).
STALL_S = 20.0
DEADLINE_S = 150.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("cpxbench: " + message)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the mini-app sources (src/) are not next to cpxbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "cpxbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "cpxbench")


def peak_rss_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_child(cmd):
    """Runs the benchmark program: (records, how it ended, last VmHWM)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    records, buf = [], b""
    start = last = time.monotonic()
    ended, rss = "exit", 0
    while True:
        now = time.monotonic()
        if now - last > STALL_S:
            ended = "stalled (no progress for %.0f s)" % STALL_S
            break
        if now - start > DEADLINE_S:
            ended = "deadline (%.0f s)" % DEADLINE_S
            break
        if not sel.select(timeout=1.0):
            rss = peak_rss_kb(proc.pid) or rss
            continue
        chunk = os.read(proc.stdout.fileno(), 65536)
        if not chunk:
            break
        last = time.monotonic()
        buf += chunk
        *lines, buf = buf.split(b"\n")
        records.extend(l.decode(errors="replace").split() for l in lines if l)
    if ended != "exit":
        rss = peak_rss_kb(proc.pid) or rss
        proc.send_signal(signal.SIGKILL)
    sel.close()
    proc.stdout.close()
    code = proc.wait()
    if ended == "exit" and code != 0:
        ended = "exit code %d" % code
    return records, ended, rss


def percentile_tail(values):
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None, None
    s = sorted(values)
    return s[n - 11], 100.0 * (n - 10) / n


def percentile(values, pct):
    """The pct-th percentile of values, interpolated between samples."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def git_rev():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    # Not a git checkout: fingerprint the program's sources instead.
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else (
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool-width", type=int, default=0,
                    help="force the thread-pool width (0: the workload's own)")
    ap.add_argument("--grid", type=int, default=0,
                    help="pressure-resetup grid edge (0: the workload's own)")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    exe = build()

    results_dir = os.path.join(ROOT, RESULTS_DIR)
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s.seed%d.trace%d" % (args.workload, args.seed, args.trace)
    spans_path = os.path.join(results_dir, stem + ".spans.json")
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--pool-width=%d" % args.pool_width, "--grid=%d" % args.grid]
    if args.trace:
        cmd.append("--spans=" + spans_path)
    records, ended, rss_kb = run_child(cmd)

    info, layers, checks = {}, {}, []
    setups, plans, steps = [], [], []
    timed, done, error = None, False, None
    for r in records:
        kind = r[0]
        if kind == "info":
            info[r[1]] = " ".join(r[2:])
        elif kind == "setup":
            setups.append(float(r[1]))
        elif kind == "plan":
            plans.append((float(r[1]), r[2] == "1"))
        elif kind == "step":
            steps.append((float(r[1]), r[2] == "1", r[3] == "1"))
        elif kind == "timed":
            timed = (float(r[1]), int(r[2]))
        elif kind == "check":
            checks.append({"name": r[1], "ok": r[2] == "1",
                           "detail": " ".join(r[3:])})
        elif kind == "layer":
            layers[r[1]] = float(r[2])
        elif kind == "done":
            done = True
        elif kind == "error":
            error = " ".join(r[1:])
    if "timed_peak_rss_kb" in info:
        rss_kb = int(info["timed_peak_rss_kb"])

    # Operations: every plan and every step the run should have made. A run
    # that stalled or aborted counts the steps it never reached as failed:
    # as many as its measured step rate would have fitted into --seconds.
    step_ms = [s[0] for s in steps]
    unreached = 0
    if not done:
        rate_ms = statistics.median(step_ms) if step_ms else None
        expected = math.ceil(args.seconds * 1e3 / rate_ms) if rate_ms else 1
        unreached = max(expected - len(steps), 1)
    attempted = len(plans) + len(steps) + unreached
    failed = (sum(not ok for _, ok in plans) + sum(not s[1] for s in steps) +
              unreached + sum(not c["ok"] for c in checks))
    failed = min(failed, attempted)
    correct = done and failed == 0 and error is None

    untraced = [s[0] for s in steps if not s[2]] or step_ms
    metrics, notes = {}, {}
    if args.trace == 0:
        wall, nsteps = timed if timed else (None, len(steps))
        if not wall and steps:
            wall = sum(step_ms) / 1e3
        values = {
            "setup_s": statistics.median(setups) if setups else None,
            "step_ms_p10": percentile(untraced, 10) if untraced else None,
            "peak_rss_mb": rss_kb / 1024.0 if rss_kb else None,
            "ok_frac": (attempted - failed) / attempted,
        }
        # Figures without a bound: other tenants of a shared host move them
        # by more than any useful bound (README.md, "Run-to-run spread").
        tail, pct = percentile_tail(untraced)
        notes = {
            "step_ms_p50": statistics.median(untraced) if untraced else None,
            "step_ms_tail": tail,
            "step_ms_tail_pct": pct,
            "step_samples": len(untraced),
            "steps_per_s": nsteps / wall if wall else None,
            "plan_s": (statistics.median(p[0] for p in plans)
                       if plans else None),
        }
        notes = {k: v for k, v in notes.items() if v is not None}
        for m in spec["end_to_end"]:
            v = values.get(m["name"])
            if v is not None:
                metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    else:
        # Layers a workload does not exercise read 0.
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0.0),
                                  "unit": m["unit"]}

    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": {
            "git_rev": git_rev(), "cores": info.get("cores"),
            "compiler": info.get("compiler"),
            "pool_width": info.get("pool_width"),
            "simd_width": info.get("simd_width"),
        },
        "ended": ended if error is None else "error: " + error,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "unreached_steps": unreached,
        "metrics": metrics, "notes": notes, "checks": checks,
        "setup_s": setups, "plan_s": [p[0] for p in plans],
        "step_ms": step_ms, "step_traced": [s[2] for s in steps],
        "info": info,
    }
    if args.trace:
        result["spans"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump(result, f, indent=1)

    print("workload %s seed %d: %s, %d steps, pool width %s, simd width %s"
          % (args.workload, args.seed, result["ended"], len(steps),
             info.get("pool_width"), info.get("simd_width")))
    for c in checks:
        print("check %-28s %s %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                     c["detail"]))
    if unreached:
        print("unreached steps counted as failed: %d" % unreached)
    print("failed_frac %.6f (%d of %d operations)"
          % (failed / attempted, failed, attempted))
    for name, note in notes.items():
        print("%-36s %.6g (no bound)" % (name, note))
    for name, m in metrics.items():
        print("%-36s %.6g %s" % (name, m["value"], m["unit"]))
    missing = [m["name"] for m in spec["end_to_end"]
               if args.trace == 0 and m["name"] not in metrics]
    if missing:
        print("not measured: " + ", ".join(missing))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
