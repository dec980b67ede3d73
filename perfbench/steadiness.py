#!/usr/bin/env python3
"""Check that the benchmark repeats within its own bounds.

    python3 perfbench/steadiness.py [--workloads W,W] [--seeds 1-10]
                                    [--seconds S] [--trace 0|1] [--out FILE]

Runs every workload once per seed in each of two sets, A and B, from the
repository root. The sets alternate run by run (A B, then B A, ...): this
host's speed drifts by about 25% over tens of seconds, so only sets
interleaved in time are comparable.

Untraced (--trace 0): for each end-to-end metric it prints each set's
median and its spread, the distance between the first and third
quartiles (statistics.quantiles(n=4)) as a share of the median, and how
much worse set B's median reads than set A's. It fails when a spread, or
a median shift in either direction, exceeds the metric's bound in
BENCHMARK.json.

Traced (--trace 1): it fails unless every per-layer count repeats
exactly between the two sets for each seed.

Every run must report correct output and zero failed ops. The probe
kernel's timings (a diagnostic of the host's speed, never used to adjust
a metric) are printed next to each run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Per-layer metrics that are measured times or their ratios; every other
# per-layer metric is a count from the public stats structs and must
# repeat exactly for a given seed.
TIMED = {"core.incr_vs_cold", "trace.overhead_ratio", "serve.rss_per_session_kb"}


def exact_counts(metrics):
    return {
        name: m["value"]
        for name, m in metrics.items()
        if m["unit"] != "us" and name not in TIMED
    }


def run_once(workload, seed, seconds, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    return result, detail


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, base, new):
    """How much worse `new` reads than `base`, as a share of `base`."""
    if metric["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="write every run's result to this JSON file")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs = []  # (workload, set, seed, result, detail)
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for s in [0, 1] if i % 2 == 0 else [1, 0]:
                result, detail = run_once(workload, seed, args.seconds, args.trace)
                runs.append((workload, s, seed, result, detail))
                print("%-12s set %s seed %-3d correct=%s failed=%d probe_ms=%s" % (
                    workload, "AB"[s], seed, result["correct"], result["failed"],
                    [round(p, 1) for p in detail.get("probe_ms", [])]), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump([{"workload": w, "set": s, "seed": seed, "result": r, "detail": d}
                       for w, s, seed, r, d in runs], f, indent=1)

    ok = True
    for workload, s, seed, result, _ in runs:
        if not result["correct"] or result["failed"]:
            print("FAIL %s set %s seed %d: %d failed ops" % (workload, "AB"[s], seed, result["failed"]))
            ok = False

    if args.trace:
        for workload in workloads:
            by_seed = {}
            for w, s, seed, result, _ in runs:
                if w == workload:
                    by_seed.setdefault(seed, []).append(exact_counts(result["metrics"]))
            same = True
            for seed, counts in sorted(by_seed.items()):
                if any(c != counts[0] for c in counts[1:]):
                    print("FAIL %s seed %d: per-layer counts differ between sets" % (workload, seed))
                    same = False
            ok = ok and same
            print("%-12s per-layer counts repeat exactly for %d seeds: %s" % (
                workload, len(by_seed), "yes" if same else "NO"))
        return 0 if ok else 1

    print()
    print("%-12s %-17s %12s %7s %12s %7s %8s %6s" % (
        "workload", "metric", "median A", "IQR A", "median B", "IQR B", "B worse", "bound"))
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for w, s, _, r, _ in runs
                     if w == workload and s == k] for k in (0, 1)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            shift = worse_by(metric, medians[0], medians[1])
            flags = []
            if any(sp > bound for sp in spreads):
                flags.append("SPREAD")
            if abs(shift) > bound:
                flags.append("SHIFT")
            if any(sp > bound / 3 for sp in spreads):
                flags.append("(spread > bound/3)")
            ok = ok and not [f for f in flags if not f.startswith("(")]
            print("%-12s %-17s %12.4f %6.1f%% %12.4f %6.1f%% %7.1f%% %5.0f%% %s" % (
                workload, name, medians[0], 100 * spreads[0], medians[1],
                100 * spreads[1], 100 * shift, 100 * bound, " ".join(flags)))
    print("\nsteady within bounds: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
