#!/usr/bin/env python3
"""Sensitivity self-test: do the bounds catch a real slowdown?

    python3 perfbench/sensitivity.py [--seeds 1-4] [--seconds S] [--pcts 20,30,40] [--out FILE]

The benchmark's own code (never the program) busy-waits a calibrated delay
after one layer call per op:

    suite_cold   after Analyzer::analyze        --inject fixpoint:NS
    edit_stream  after migrate_parts            --inject migrate:NS
    serve_warm   after each response read       --inject response:NS

The delay is a share (--pcts) of the workload's median end-to-end op
latency (latency_p50_us) in its first undelayed run: a share of the whole
op, not of the layer's own time. Runs last run_seconds from
BENCHMARK.json unless --seconds says otherwise. For each seed the script
runs every workload plain, each workload with its own delay at every
share, and every other workload with the same flag at the largest share.
Those control runs never reach the flag's point, so they read the host's
drift. Every other seed runs the list backwards, so that drift hits plain
and delayed runs alike.

It reports, per injection point, how far each timed end-to-end metric's
median moved against the plain runs' median, whether that is past the
metric's bound in BENCHMARK.json, and the smallest share from which
every larger share is caught too. The control workloads must stay
inside their bounds in either direction.
"""

import argparse
import json
import statistics
import sys

from steadiness import SPEC, parse_seeds, run_once, worse_by

POINTS = {"suite_cold": "fixpoint", "edit_stream": "migrate", "serve_warm": "response"}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# setup_s is untouched by a per-op delay and peak memory by any delay;
# the self-test is about the timed metrics.
TIMED = [m for m in SPEC["end_to_end"] if m["name"] not in ("setup_s", "peak_rss_mb")]


def medians(results):
    return {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in results)
            for m in TIMED}


def moved(base, new):
    return {m["name"]: worse_by(m, base[m["name"]], new[m["name"]]) for m in TIMED}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-4")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--pcts", default="20,30,40")
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    pcts = [int(p) for p in args.pcts.split(",")]

    def run(workload, seed, inject=None):
        extra = ["--inject", inject] if inject else []
        result, _ = run_once(workload, seed, args.seconds, 0, extra)
        if not result["correct"] or result["failed"]:
            raise SystemExit("%s seed %d failed ops under %s" % (workload, seed, inject))
        print("%-12s seed %-3d %-24s p50 %.2f us" % (
            workload, seed, inject or "plain", result["metrics"]["latency_p50_us"]["value"]),
            flush=True)
        return result

    # One seed's runs: (workload, injection point or None, share).
    jobs = [(w, None, 0) for w in WORKLOADS]
    for target, point in POINTS.items():
        for w in WORKLOADS:
            jobs += [(w, point, pct) for pct in (pcts if w == target else [max(pcts)])]
    base = {w: [] for w in WORKLOADS}
    delay_ns = {}
    shifted = {}  # (point, workload, pct) -> results
    for i, seed in enumerate(seeds):
        for w, point, pct in jobs if i % 2 == 0 else jobs[::-1]:
            if point is None:
                base[w].append(run(w, seed))
                continue
            target = next(t for t, p in POINTS.items() if p == point)
            if target not in delay_ns:
                # The first seed runs its plain runs first.
                p50_ns = base[target][0]["metrics"]["latency_p50_us"]["value"] * 1e3
                delay_ns[target] = {q: int(p50_ns * q / 100) for q in pcts}
            inject = "%s:%d" % (point, delay_ns[target][pct])
            shifted.setdefault((point, w, pct), []).append(run(w, seed, inject))

    report = []
    ok = True
    print("\n%-9s %-12s %5s %-17s %8s %6s" % ("point", "workload", "share", "metric", "moved", "bound"))
    for target, point in POINTS.items():
        caught_at = []
        for (p, w, pct), results in sorted(shifted.items()):
            if p != point:
                continue
            move = moved(medians(base[w]), medians(results))
            if w == target:
                hit = [m["name"] for m in TIMED if move[m["name"]] > m["bound"]]
                if hit:
                    caught_at.append(pct)
            else:
                hit = [m["name"] for m in TIMED if abs(move[m["name"]]) > m["bound"]]
                ok = ok and not hit
            for m in TIMED:
                print("%-9s %-12s %4d%% %-17s %7.1f%% %5.0f%% %s" % (
                    point, w, pct, m["name"], 100 * move[m["name"]], 100 * m["bound"],
                    "CAUGHT" if m["name"] in hit else ""))
            report.append({"point": point, "workload": w, "pct": pct,
                           "delay_ns": delay_ns[target][pct], "moved": move, "caught": hit})
        # The smallest share from which every larger share is caught too.
        caught = None
        for pct in sorted(pcts, reverse=True):
            if pct not in caught_at:
                break
            caught = pct
        print("%-9s smallest share of the op caught on %s: %s" % (
            point, target, "%d%%" % caught if caught else "none of %s" % pcts))
        ok = ok and caught is not None
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
