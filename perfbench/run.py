#!/usr/bin/env python3
"""Build and run the RAG serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the repo's libraries it compiles from src/) into
.bench_build/perfbench with CMake in Release mode; later calls rebuild
only what changed. Each call then runs the statistics self-test and the
benchmark itself, whose last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Spans of a traced
run (--trace 1) are written to .bench_build/spans-<workload>-<seed>.json.

Workloads: retrieval-bound, soak-observed, chat-cached (see README.md).
The exit code is non-zero when the build, the self-test or any of the
benchmark's correctness checks fails.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("retrieval-bound", "soak-observed", "chat-cached")


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def run(command, **kwargs):
    """Runs `command` to completion; kills it if this script is stopped."""
    child = subprocess.Popen(command, **kwargs)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def build(root, build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                build_dir, "-DCMAKE_BUILD_TYPE=Release"],
               stdout=sys.stderr) != 0:
            return False
    return run(["cmake", "--build", build_dir, "--target", "ragbench",
                "stats_selftest", "-j", jobs], stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_dir, "perfbench")
    try:
        built = build(root, build_dir)
    except OSError as error:
        log(f"cannot run cmake: {error}")
        built = False
    if not built:
        log("build failed")
        return 1

    if run([os.path.join(build_dir, "stats_selftest"),
            os.path.join(root, "BENCHMARK.json")], stdout=sys.stderr) != 0:
        log("statistics self-test failed")
        return 1

    spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
    code = run([os.path.join(build_dir, "ragbench"), "--workload",
                args.workload, "--seed", str(args.seed), "--seconds",
                repr(args.seconds), "--trace", str(args.trace), "--spans",
                spans], cwd=root)
    if code != 0:
        log(f"benchmark failed with exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
