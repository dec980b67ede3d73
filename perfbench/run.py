#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload suite_cold|serve_warm|edit_stream \
        --seed N --seconds S --trace 0|1 [--inject-ns NS]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). The last line of standard output is the result
object; see perfbench/README.md for the metrics. A traced run also
writes its spans to <target dir>/perfbench/trace-<workload>.jsonl.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# One run must end within 180 s; the benchmark itself stops after
# --seconds plus its set-up and checks.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(target):
    """Build the release binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def main(argv):
    if not os.path.exists(MANIFEST) or not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: run from a full checkout of the repository", file=sys.stderr)
        return 2
    target = target_dir()
    binary = build(target)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"] and "--trace-out" not in args:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "unknown"
        args += ["--trace-out", os.path.join(target, "perfbench", "trace-%s.jsonl" % workload)]
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
